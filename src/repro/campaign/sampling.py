"""Confidence-bounded adaptive sampling of fault dictionaries.

Exhaustive campaigns enumerate every fault; at production scale the
question a campaign answers — "what is the failure rate, overall and
per injection site?" — needs only a *sample*, provided the sample is
stratified (so rare sites and lock phases are not starved) and the
campaign knows when to stop.  :class:`StratifiedSampler` implements
that loop:

- the fault dictionary is partitioned into **strata** (injection site
  x schedule-time phase by default, configurable via
  :data:`STRATA_MODES` or a callable);
- draws come from one seeded ``numpy`` PCG64 generator: each stratum
  gets a fixed permutation of its faults, so the entire draw sequence
  is a pure function of ``(fault list, strata mode, seed)``;
- draws are organised in **rounds** sized by
  :func:`~repro.campaign.stats.required_sample_size` refined from the
  running pooled estimate (growth-capped doubling), split into
  fixed-size **chunks**;
- after every chunk the sampler updates per-stratum and pooled Wilson
  intervals and stops a stratum — or the whole campaign — the moment
  the interval half-width drops to the requested margin.

Determinism and resume
----------------------

Round contents depend only on the seed and the outcomes of *fully
processed* prior chunks, and convergence is evaluated at chunk
boundaries in chunk order.  Two consequences:

- a resumed campaign replays stored rows through the same sampler
  (``stored=``) and continues the identical draw sequence — no cursor
  needs persisting beyond the seed/margin/confidence/strata/chunk
  configuration (store schema v5);
- a distributed coordinator that executes a round's chunks as
  concurrent shards but merges and evaluates them strictly in chunk
  order produces a store row-identical to a single-host run with the
  same chunk size.

The pooled estimate is the population-weighted stratified estimator
``p = sum(w_h * p_h)``; its interval is a Wilson interval at the
effective sample size ``p(1-p) / Var(p)``, which reduces exactly to
the plain Wilson interval when sampling is proportional (and always
when there is a single stratum).

Exhaustive campaigns are the degenerate case: :class:`ExhaustivePlan`
hands out every fault in index order through the same chunk protocol
(``next_chunk`` / ``record`` / ``finish_chunk`` / ``stratum_of`` /
``finished``), with no strata and no early stop, so the runner and the
distributed coordinator drive every campaign one way.  Both build it
with :func:`build_plan` from a sampling configuration dict (None means
exhaustive), the dict the store records and hands back on resume.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import norm

from ..core.errors import CampaignError
from .classify import RUN_OK, SILENT
from .faultlist import batch_key, digital_batch_key, schedule_time
from .results import _target_of
from .stats import (
    interval_half_width,
    required_sample_size,
    safe_interval,
)

#: Default number of draws per chunk — convergence is evaluated at
#: every chunk boundary, and in distributed mode one chunk is one
#: shard (matches ``repro.dist.shards.DEFAULT_SHARD_SIZE``).
DEFAULT_CHUNK = 25

#: Built-in stratification modes.
STRATA_MODES = ("none", "site", "phase", "site-phase")

#: Number of schedule-time buckets for phase stratification.
DEFAULT_PHASE_BINS = 4


def _site_of(fault):
    """Injection-site label: the batch key when one exists, else the
    target description used by per-target reports."""
    key = digital_batch_key(fault)
    if key is not None:
        return str(key)
    key = batch_key(fault)
    if key is not None:
        return str(key)
    return str(_target_of(fault))


def _phase_labels(faults, bins):
    """Deterministic equal-count phase buckets over schedule times.

    Distinct injection instants are sorted and split into up to
    ``bins`` consecutive groups of near-equal size, so campaigns that
    sweep a lock transient get before/during/after strata without any
    knowledge of the DUT.
    """
    times = [schedule_time(fault) for fault in faults]
    distinct = sorted(set(times))
    if len(distinct) <= 1 or bins <= 1:
        return ["p0"] * len(faults)
    bins = min(bins, len(distinct))
    group = {
        t: pos * bins // len(distinct) for pos, t in enumerate(distinct)
    }
    return [f"p{group[t]}" for t in times]


def stratify(faults, mode="site-phase", phase_bins=DEFAULT_PHASE_BINS):
    """Stratum label per fault.

    :param mode: one of :data:`STRATA_MODES`, or a callable
        ``fault -> label`` for custom stratifications.
    :returns: list of string labels, one per fault.
    """
    if callable(mode):
        return [str(mode(fault)) for fault in faults]
    if mode not in STRATA_MODES:
        raise CampaignError(
            f"unknown strata mode {mode!r} (expected one of {STRATA_MODES} "
            "or a callable)"
        )
    if mode == "none":
        return ["all"] * len(faults)
    if mode == "site":
        return [_site_of(fault) for fault in faults]
    phases = _phase_labels(faults, phase_bins)
    if mode == "phase":
        return phases
    sites = [_site_of(fault) for fault in faults]
    return [f"{site}/{phase}" for site, phase in zip(sites, phases)]


def row_outcome(row):
    """Sampler outcome of one store row.

    ``True`` = error (non-silent classification), ``False`` = silent,
    ``None`` = the run failed (timeout/diverged/crashed/error) and is
    excluded from estimate trials.
    """
    if row.get("status") != RUN_OK:
        return None
    return row.get("label") != SILENT


def stored_outcomes(rows):
    """Map ``fault index -> outcome`` from store rows, for replay.

    Skipped rows (written after a previous convergence) are excluded:
    they carry no simulated outcome, and replaying the real rows
    re-derives the same convergence point.
    """
    outcomes = {}
    for row in rows:
        if row.get("status") == "skipped":
            continue
        outcomes[row["idx"]] = row_outcome(row)
    return outcomes


@dataclass
class SampleChunk:
    """One convergence-evaluation unit of draws.

    :ivar ident: sequential chunk id (doubles as the shard id in
        distributed mode).
    :ivar round_index: which adaptive round the chunk belongs to.
    :ivar indices: global fault indices drawn, in draw order.
    :ivar pending: the subset still needing simulation (indices whose
        outcome was not replayed from the store).
    """

    ident: int
    round_index: int
    indices: tuple
    pending: tuple = ()


class _ChunkBook:
    """Outstanding-chunk bookkeeping shared by both chunk plans.

    Subclasses keep ``_stored`` (``index -> outcome`` still to replay),
    ``_recorded`` (indices with an outcome) and ``_outstanding``
    (``ident -> chunk`` handed out, not yet finished).
    """

    def _hand_out(self, chunk):
        """Replay stored outcomes into ``chunk`` and mark it outstanding."""
        pending = []
        for index in chunk.indices:
            if index in self._stored:
                self.record(index, self._stored.pop(index))
            else:
                pending.append(index)
        chunk.pending = tuple(pending)
        self._outstanding[chunk.ident] = chunk
        return chunk

    def _close(self, chunk):
        """Retire ``chunk``: in chunk order, with every outcome recorded."""
        if chunk.ident not in self._outstanding:
            raise CampaignError(
                f"chunk {chunk.ident} is not outstanding"
            )
        if min(self._outstanding) != chunk.ident:
            raise CampaignError(
                f"chunk {chunk.ident} finished out of order "
                f"(chunk {min(self._outstanding)} still open)"
            )
        missing = [i for i in chunk.indices if i not in self._recorded]
        if missing:
            raise CampaignError(
                f"chunk {chunk.ident} finished with unrecorded "
                f"outcomes: {missing[:5]}"
            )
        del self._outstanding[chunk.ident]


class ExhaustivePlan(_ChunkBook):
    """Every fault in index order: the degenerate sampler.

    Chunk ``k`` holds indices ``[k * chunk, (k + 1) * chunk)`` (the
    last one may be shorter).  There are no strata and no early stop;
    the plan is :attr:`finished` once its last chunk is.  Chunks can be
    handed out all at once — nothing waits on earlier outcomes — but
    they still finish strictly in order.

    :param population: number of faults in the campaign.
    :param chunk: faults per chunk.
    :param stored: optional ``index -> outcome`` map of faults that need
        no simulation, replayed as their chunk is handed out (the same
        replay :class:`StratifiedSampler` does).
    """

    def __init__(self, population, chunk=DEFAULT_CHUNK, stored=None):
        if chunk < 1:
            raise CampaignError("chunk must be >= 1")
        self.population = int(population)
        self.chunk = int(chunk)
        self._stored = dict(stored or {})
        self._recorded = set()
        self._outstanding = {}
        self._next = 0

    @property
    def finished(self):
        """Every chunk was handed out and finished."""
        return (
            self._next * self.chunk >= self.population
            and not self._outstanding
        )

    def stratum_of(self, index):
        """Exhaustive campaigns have no strata."""
        return None

    def record(self, index, outcome):
        """Record that fault ``index`` has its outcome."""
        self._recorded.add(index)

    def next_chunk(self):
        """The next chunk in index order, or None once all are out."""
        start = self._next * self.chunk
        if start >= self.population:
            return None
        stop = min(start + self.chunk, self.population)
        chunk = SampleChunk(
            ident=self._next, round_index=0,
            indices=tuple(range(start, stop)),
        )
        self._next += 1
        return self._hand_out(chunk)

    def finish_chunk(self, chunk):
        """Retire a chunk (in chunk order); True once the plan finished."""
        self._close(chunk)
        return self.finished


@dataclass
class _Stratum:
    label: str
    indices: tuple
    order: list = field(default_factory=list)
    cursor: int = 0
    trials: int = 0
    errors: int = 0
    failed: int = 0
    converged: bool = False

    @property
    def population(self):
        return len(self.indices)

    @property
    def exhausted(self):
        return self.cursor >= len(self.order)

    @property
    def active(self):
        return not self.converged and not self.exhausted

    @property
    def estimate(self):
        return self.errors / self.trials if self.trials else 0.0


class StratifiedSampler(_ChunkBook):
    """Stratified adaptive sampler with Wilson early stopping.

    :param faults: the campaign's fault list (the population).
    :param margin: stop when the pooled Wilson half-width drops to
        this value; individual strata stop drawing when *their*
        half-width does.
    :param confidence: interval confidence level (default 0.95).
    :param seed: explicit seed of the draw sequence; two samplers with
        the same ``(faults, strata, seed)`` draw identically.
    :param strata: stratification mode (see :func:`stratify`).
    :param chunk: draws per chunk — the convergence evaluation grain.
    :param stored: optional ``index -> outcome`` map of already
        simulated rows (see :func:`stored_outcomes`); replayed in draw
        order as chunks are handed out, so ``--resume`` continues the
        same sequence.
    :param phase_bins: schedule-time buckets for phase strata.
    """

    def __init__(
        self,
        faults,
        *,
        margin,
        confidence=0.95,
        seed=0,
        strata="site-phase",
        chunk=DEFAULT_CHUNK,
        stored=None,
        phase_bins=DEFAULT_PHASE_BINS,
    ):
        if not faults:
            raise CampaignError("cannot sample an empty fault list")
        if not 0 < margin < 1:
            raise CampaignError("margin must be in (0, 1)")
        if not 0 < confidence < 1:
            raise CampaignError("confidence must be in (0, 1)")
        if chunk < 1:
            raise CampaignError("chunk must be >= 1")
        self.margin = float(margin)
        self.confidence = float(confidence)
        self.seed = int(seed)
        self.chunk = int(chunk)
        self.strata_mode = strata if isinstance(strata, str) else "custom"
        self.population = len(faults)
        self._labels = stratify(faults, strata, phase_bins)
        self._stored = dict(stored or {})
        self._recorded = {}
        self._z = float(norm.ppf(0.5 + self.confidence / 2.0))

        rng = np.random.Generator(np.random.PCG64(self.seed))
        by_label = {}
        for index, label in enumerate(self._labels):
            by_label.setdefault(label, []).append(index)
        self._strata = {}
        for label in sorted(by_label):
            indices = tuple(by_label[label])
            perm = rng.permutation(len(indices))
            self._strata[label] = _Stratum(
                label=label,
                indices=indices,
                order=[indices[j] for j in perm],
            )

        self._queue = deque()
        self._outstanding = {}
        self._rounds = 0
        self._chunks_issued = 0
        self._last_budget = 0
        self.stopped = False
        self.reason = None

    # -- bookkeeping -------------------------------------------------------

    @property
    def finished(self):
        """No further chunks will ever be produced."""
        return self.stopped

    @property
    def trials(self):
        return sum(s.trials for s in self._strata.values())

    @property
    def errors(self):
        return sum(s.errors for s in self._strata.values())

    @property
    def failed(self):
        return sum(s.failed for s in self._strata.values())

    @property
    def simulated(self):
        """Faults with a recorded (simulated or failed) outcome."""
        return len(self._recorded)

    @property
    def rounds(self):
        return self._rounds

    @property
    def config(self):
        """The configuration dict that reproduces this draw sequence
        (callable strata read ``"custom"``): what ``record_sampling``
        records and :func:`build_plan` takes back on resume."""
        return {
            "seed": self.seed,
            "margin": self.margin,
            "confidence": self.confidence,
            "strata": self.strata_mode,
            "chunk": self.chunk,
        }

    def stratum_of(self, index):
        """Stratum label of fault ``index``."""
        return self._labels[index]

    def record(self, index, outcome):
        """Record one run outcome.

        :param outcome: ``True`` = error, ``False`` = silent,
            ``None`` = the run failed (excluded from trials).
        """
        if index in self._recorded:
            return
        self._recorded[index] = outcome
        stratum = self._strata[self._labels[index]]
        if outcome is None:
            stratum.failed += 1
        else:
            stratum.trials += 1
            if outcome:
                stratum.errors += 1

    # -- estimates ---------------------------------------------------------

    def stratum_interval(self, label):
        """``(estimate, (low, high))`` of one stratum."""
        s = self._strata[label]
        return s.estimate, safe_interval(
            s.errors, s.trials, self.confidence
        )

    def pooled(self):
        """Pooled ``(estimate, (low, high))`` across strata.

        Population-weighted stratified estimator with a Wilson
        interval at the effective sample size.  While any stratum
        that could still be drawn has no trials, the interval is the
        vacuous ``(0.0, 1.0)``; strata exhausted without a single
        successful trial are excluded (and flagged starved).
        """
        strata = list(self._strata.values())
        sampled = [s for s in strata if s.trials > 0]
        blocking = any(
            s.trials == 0 and not s.exhausted for s in strata
        )
        if not sampled:
            return 0.0, (0.0, 1.0)
        weight_pop = sum(s.population for s in sampled)
        estimate = sum(
            s.population * s.estimate for s in sampled
        ) / weight_pop
        if blocking:
            return estimate, (0.0, 1.0)
        variance = sum(
            (s.population / weight_pop) ** 2
            * s.estimate * (1.0 - s.estimate) / s.trials
            for s in sampled
        )
        if variance <= 0.0:
            n_eff = float(sum(s.trials for s in sampled))
        else:
            n_eff = estimate * (1.0 - estimate) / variance
            n_eff = max(n_eff, 1.0)
        low, high = safe_interval(
            estimate * n_eff, n_eff, self.confidence
        )
        # The weighted estimate and the effective-n interval are
        # computed separately; rounding must not leave the estimate
        # outside its own interval.
        return estimate, (min(low, estimate), max(high, estimate))

    def half_width(self):
        """Current pooled interval half-width."""
        _, (low, high) = self.pooled()
        return (high - low) / 2.0

    # -- drawing -----------------------------------------------------------

    def _zero_rate_needed(self):
        """Trials for a zero-error stratum to converge (Wilson 0/n)."""
        z2 = self._z * self._z
        return int(math.ceil(z2 / (2.0 * self.margin) - z2)) + 1

    def _round_budget(self):
        if self._rounds == 0:
            return max(self.chunk, 4 * self.chunk)
        trials = self.trials
        p = self.errors / trials if trials else 0.5
        needed = self._zero_rate_needed()
        if p > 0.0:
            needed = max(
                needed,
                required_sample_size(
                    self.margin, self.confidence, p_expected=p
                ),
            )
        budget = needed - trials
        budget = min(budget, 2 * self._last_budget)
        return max(budget, self.chunk)

    def _plan_round(self):
        active = [
            s for s in self._strata.values() if s.active
        ]
        if not active:
            return
        budget = self._round_budget()
        total_pop = sum(s.population for s in active)
        draws = []
        for s in sorted(active, key=lambda s: s.label):
            share = max(1, budget * s.population // total_pop)
            take = min(share, len(s.order) - s.cursor)
            draws.extend(s.order[s.cursor:s.cursor + take])
            s.cursor += take
        if not draws:
            return
        self._last_budget = len(draws)
        for start in range(0, len(draws), self.chunk):
            self._queue.append(SampleChunk(
                ident=self._chunks_issued,
                round_index=self._rounds,
                indices=tuple(draws[start:start + self.chunk]),
            ))
            self._chunks_issued += 1
        self._rounds += 1

    def next_chunk(self):
        """The next chunk to simulate, or None.

        None means either the sampler is :attr:`finished`, or — in
        concurrent (distributed) use — the current round still has
        chunks in flight and the next round cannot be planned until
        they finish.  Stored outcomes are replayed into the chunk as
        it is handed out; :attr:`SampleChunk.pending` lists what is
        left to simulate.
        """
        if self.stopped:
            return None
        if not self._queue:
            if self._outstanding:
                return None
            self._plan_round()
            if not self._queue:
                self._finish("exhausted")
                return None
        return self._hand_out(self._queue.popleft())

    def finish_chunk(self, chunk):
        """Evaluate convergence after a chunk's outcomes are recorded.

        Must be called in chunk order (chunk ``k`` only after chunks
        ``< k``); raises if any of the chunk's outcomes is missing.
        Returns True when the campaign has stopped.
        """
        self._close(chunk)
        for s in self._strata.values():
            if not s.converged and s.trials > 0:
                hw = interval_half_width(
                    s.errors, s.trials, self.confidence
                )
                if hw <= self.margin:
                    s.converged = True
        if self.half_width() <= self.margin:
            self._finish("converged")
        elif not self._queue and not self._outstanding:
            # Round complete without convergence; if nothing is left
            # to draw anywhere, the population is exhausted.
            if not any(s.active for s in self._strata.values()):
                self._finish("exhausted")
        return self.stopped

    def _finish(self, reason):
        self.stopped = True
        self.reason = reason
        self._queue.clear()
        self._outstanding.clear()

    # -- results -----------------------------------------------------------

    def skipped_indices(self):
        """Faults never simulated, in index order.

        Meaningful once :attr:`finished`: these are the faults early
        stopping saved, to be marked ``skipped`` in the store.
        """
        return [
            index for index in range(self.population)
            if index not in self._recorded
        ]

    @property
    def converged(self):
        return self.reason == "converged"

    def summary(self):
        """Execution-record / report summary of the sampling run."""
        estimate, (low, high) = self.pooled()
        strata = []
        for label in sorted(self._strata):
            s = self._strata[label]
            s_est, (s_low, s_high) = self.stratum_interval(label)
            # "Exhausted" here means every fault of the stratum was
            # actually simulated (not merely drawn — an early stop
            # discards drawn-but-unsimulated faults); "starved" flags
            # the bad case: population spent, interval still wider
            # than the margin.
            spent = (s.trials + s.failed) >= s.population
            strata.append({
                "stratum": label,
                "population": s.population,
                "trials": s.trials,
                "errors": s.errors,
                "failed": s.failed,
                "estimate": s_est,
                "low": s_low,
                "high": s_high,
                "converged": s.converged,
                "exhausted": spent,
                "starved": spent and not s.converged,
            })
        return {
            "seed": self.seed,
            "margin": self.margin,
            "confidence": self.confidence,
            "strata_mode": self.strata_mode,
            "chunk": self.chunk,
            "population": self.population,
            "simulated": self.simulated,
            "skipped": self.population - self.simulated,
            "trials": self.trials,
            "errors": self.errors,
            "failed": self.failed,
            "estimate": estimate,
            "low": low,
            "high": high,
            "half_width": (high - low) / 2.0,
            "converged": self.converged,
            "reason": self.reason,
            "rounds": self._rounds,
            "chunks": self._chunks_issued,
            "strata": strata,
        }


def build_plan(faults, sampling=None, chunk=None, stored=None):
    """The chunk plan of a campaign over ``faults``: the one place the
    runner, the coordinator (at submit and resume) and the shard
    planner build theirs.

    :param sampling: None for an :class:`ExhaustivePlan`, else a
        configuration dict shaped like :attr:`StratifiedSampler.config`
        (``margin`` required, the rest defaulted).
    :param chunk: faults per chunk, overriding the configuration's
        (default :data:`DEFAULT_CHUNK`).
    :param stored: optional ``index -> outcome`` map of faults that
        need no simulation, replayed as their chunk is handed out.
    :raises CampaignError: for a sampling configuration without margin.
    """
    if chunk is None:
        chunk = (sampling or {}).get("chunk")
    if chunk is None:
        chunk = DEFAULT_CHUNK
    if sampling is None:
        return ExhaustivePlan(len(faults), chunk=chunk, stored=stored)
    if sampling.get("margin") is None:
        raise CampaignError(
            "sampled campaigns need a margin (e.g. margin=0.005)"
        )
    return StratifiedSampler(
        faults,
        margin=sampling["margin"],
        confidence=sampling.get("confidence", 0.95),
        seed=sampling.get("seed", 0),
        strata=sampling.get("strata", "site-phase"),
        chunk=chunk,
        stored=stored,
    )

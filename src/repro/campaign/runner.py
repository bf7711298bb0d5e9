"""Campaign execution.

Runs the full flow of Figures 2 and 3: a golden reference simulation,
then one instrumented simulation per fault, each compared and
classified against the golden traces.

The user supplies a **design factory**: a zero-argument callable
returning a :class:`Design` — a freshly built circuit with its probes.

Two execution strategies are available:

* **cold start** (the default, and the paper's literal flow): every
  faulty run rebuilds the design and re-simulates from t=0.  Runs are
  maximally isolated — the simulation-based equivalent of reloading
  the emulator bitstream between experiments.
* **warm start** (``warm_start=True``): one design is built; during
  the single golden run the kernel takes :class:`Snapshot` checkpoints
  just before the faults' injection times, and each faulty run
  *restores* the nearest checkpoint at or before its injection time
  and simulates only the ``[t_ckpt, t_end]`` suffix.  The checkpoint
  tree (:mod:`repro.core.ckpt_tree`) restores every trace's golden
  prefix along with the kernel state, so results are bit-identical to
  cold runs while skipping the identical warm-up — for the paper's
  PLL campaign, where every fault injects after lock, that removes the
  bulk of each run.

Warm start relies on the same grid-identity discipline as comparison:
the union of all faults' solver refinement windows is pre-applied to
the golden run (see :meth:`CampaignRunner._collect_windows`), and all
current-pulse saboteurs are pre-created before the golden run so every
run — golden and faulty — evaluates the identical block set.

Every campaign is one pipeline: a chunk plan
(:func:`~repro.campaign.sampling.build_plan`) hands out the faults, an
executor — serial, batched or the fork pool — runs them, and yields
**outcome groups**: one scalar run, or one batch.  The parent
classifies each group, renders its store rows once, and commits the
group as one transaction.  Every scalar run, serial or forked, is one
call of the fault-attempt body :meth:`CampaignRunner._attempt`.
"""

from __future__ import annotations

import inspect
import logging
import os
from dataclasses import dataclass, field
from functools import partial
from time import perf_counter, sleep

from ..core.budget import NumericalGuard, RunBudget
from ..core.ckpt_tree import CheckpointTree
from ..core.ensemble import Ensemble, EnsembleDrainedError
from ..core.errors import CampaignError
from ..core.units import parse_quantity
from ..injection.controller import CurrentInjection, InjectionController
from ..obs import journal as _journal
from ..obs import metrics as _metrics
from ..obs import tracer as _tracer
from ..obs.flightrec import (
    FlightRecorder,
    build_postmortem,
    postmortem_path,
    write_postmortem,
    write_worker_postmortem,
)
from ..store.serialize import error_to_row, result_to_row
from .classify import (
    RUN_CRASHED,
    RUN_DIVERGED,
    RUN_TIMEOUT,
    SILENT,
    classify,
    classify_failure,
)
from .compare import ComparisonGridCache, compare_probe_sets
from .faultlist import batch_key, digital_batch_key, schedule_time
from .results import CampaignResult, CampaignRunError, FaultResult
from .sampling import build_plan, stored_outcomes
from .supervisor import RetryPolicy, WorkerSupervisor, set_worker_phase

LOGGER = logging.getLogger("repro.campaign")

#: Default ceiling on retained golden checkpoints (memory bound).
DEFAULT_MAX_CHECKPOINTS = 64

#: Ceiling on convergence-horizon comparison points past the last
#: flip time of a digital batch (the horizon doubles geometrically, so
#: this bounds both snapshot memory and per-mutant check cost).
MAX_HORIZON_POINTS = 16

#: Valid ``batch`` modes (:func:`normalize_batch_mode`).
BATCH_MODES = ("auto", "analog", "digital", "off")

#: Sentinel: "use the default numerical guard" (pass None to disable).
_DEFAULT_GUARD = object()


def normalize_batch_mode(batch):
    """Map a ``batch`` argument to one of :data:`BATCH_MODES`.

    Accepts the legacy booleans (``True`` -> ``"auto"``, ``False``/
    ``None`` -> ``"off"``) and the mode strings themselves.
    """
    if batch is None or batch is False:
        return "off"
    if batch is True:
        return "auto"
    if isinstance(batch, str) and batch in BATCH_MODES:
        return batch
    raise CampaignError(
        f"batch must be a bool or one of {BATCH_MODES}, got {batch!r}"
    )


@dataclass
class Design:
    """A freshly elaborated design under test.

    :ivar sim: the simulator, not yet run.
    :ivar root: hierarchy root component (mutant/state lookup scope).
    :ivar probes: mapping name -> :class:`Trace`, created before the
        run; must be identical between golden and faulty elaborations.
    :ivar extras: anything the factory wants to expose to per-run
        metric hooks (block references, nodes...).
    """

    sim: object
    root: object
    probes: dict
    extras: dict = field(default_factory=dict)


def _needs_strict_checkpoint(fault):
    """True when the fault must restore *strictly before* its time.

    Parametric faults activate immediately when applied at their start
    time instead of scheduling an event, which would reorder them
    against same-timestamp activity; restoring to an earlier
    checkpoint sidesteps that.  Every other mechanism schedules
    through the event queue inside the injection band, which
    reproduces cold-run delta ordering even at an exactly-coincident
    checkpoint.
    """
    from ..faults.parametric import ParametricFault

    return isinstance(fault, ParametricFault)


class CampaignRunner:
    """Executes a :class:`CampaignSpec` against a design factory.

    :param factory: zero-argument callable returning a :class:`Design`.
    :param spec: the campaign specification.
    :param metric_hooks: optional callables
        ``(design, fault) -> dict`` evaluated after each faulty run;
        their merged results land in :attr:`FaultResult.metrics`.
    :param progress: optional callable ``(index, total, fault)`` for
        progress reporting.
    """

    def __init__(self, factory, spec, metric_hooks=(), progress=None):
        self.factory = factory
        self.spec = spec
        self.metric_hooks = list(metric_hooks)
        self.progress = progress
        self._shared_windows = self._collect_windows(spec.faults)
        self._warm = None
        # Supervision config, set per run() call; faulty runs are
        # armed with these, golden runs never are.
        self._warm_start = False
        self._budget = None
        self._guard = None
        self._retry = None
        self._grid_cache = None
        self._batch_stats = None
        # Telemetry state: the flight-recorder post-mortem directory,
        # the sim/recorder of the faulty run in flight (what a failure
        # dump captures) and per-phase wall-time accumulators.
        self._postmortem_dir = None
        self._last_sim = None
        self._recorder = None
        self._phase_s = None

    @staticmethod
    def _collect_windows(faults):
        """Union of the solver refinement windows all faults will need.

        Analog injections refine the solver timestep around the pulse;
        if only the faulty run refined, golden and faulty runs would
        integrate on *different* grids and diverge numerically even
        for a negligible pulse.  Pre-applying every fault's window to
        every run (golden included) keeps the grids identical, so any
        observed difference is caused by the fault alone.
        """
        from ..injection.saboteur import CurrentPulseSaboteur

        windows = []
        for fault in faults:
            if isinstance(fault, CurrentInjection):
                windows.append(
                    CurrentPulseSaboteur.window_for(fault.transient, fault.time)
                )
        return windows

    def _apply_shared_windows(self, design):
        for t0, t1, dt in self._shared_windows:
            design.sim.analog.add_refinement_window(t0, t1, dt)

    # -- individual runs ------------------------------------------------------

    def run_golden(self):
        """Execute the fault-free reference run; returns its probes."""
        design = self.factory()
        self._check_probes(design, self.spec.outputs)
        self._apply_shared_windows(design)
        with _tracer.TRACER.span("campaign.golden", t_end=self.spec.t_end):
            design.sim.run(self.spec.t_end)
        return design

    def run_fault(self, fault):
        """Execute one faulty run; returns ``(design, controller)``."""
        self._last_sim = None
        self._recorder = None
        design = self.factory()
        self._apply_shared_windows(design)
        self._arm(design.sim)
        controller = InjectionController(design.sim, design.root)
        controller.apply(fault)
        step_start = perf_counter()
        design.sim.run(self.spec.t_end)
        self._add_phase("step", perf_counter() - step_start)
        return design, controller

    def _arm(self, sim):
        """Install the run budget, guard and flight recorder on a sim.

        Golden runs are never armed: they are fault-free by
        construction, and a budget tripping there would abort the whole
        campaign rather than classify one run.  The flight recorder is
        a *fresh* ring per faulty run (armed only when a post-mortem
        directory is configured), so a dump always shows this run's
        recent history, never a predecessor's.
        """
        sim.budget = self._budget
        if self._guard is not None and sim.analog.guard is None:
            sim.analog.guard = self._guard.fresh()
        self._last_sim = sim
        if self._postmortem_dir is not None:
            self._recorder = FlightRecorder()
            sim.analog.recorder = self._recorder
        else:
            self._recorder = None

    def _dump_postmortem(self, index, fault, status, exc, attempt):
        """Best-effort flight-recorder dump for one failed attempt.

        Returns the post-mortem path, or None when dumping is off (no
        post-mortem directory) or itself failed — a broken dump must
        never turn a classified failure into a campaign abort.
        """
        if self._postmortem_dir is None:
            return None
        try:
            payload = build_postmortem(
                self._last_sim, self._recorder, fault=fault, index=index,
                status=status, error=exc, budget=self._budget,
                attempt=attempt,
            )
            path = write_postmortem(self._postmortem_dir, index, payload)
        except Exception:
            LOGGER.exception(
                "failed to write post-mortem for fault %d", index
            )
            return None
        _journal.emit(
            "postmortem_written", index=index, path=path, status=status
        )
        return path

    def _find_postmortem(self, index):
        """The existing post-mortem path for ``index``, or None.

        Post-mortem paths are deterministic precisely so the parent
        can reference a dump a (possibly dead) worker wrote without
        any cross-process handshake: an existence check is the whole
        protocol.
        """
        if self._postmortem_dir is None:
            return None
        path = postmortem_path(self._postmortem_dir, index)
        return path if os.path.exists(path) else None

    def _build_worker_monitor(self, store, campaign_id):
        """The supervisor monitor that turns worker lifecycle events
        into journal events, store worker rows (on spawn, heartbeat
        and death) and, for workers that die without reporting,
        parent-written post-mortems."""

        def monitor(info):
            event = info.get("event")
            pid = info.get("pid")
            index = info.get("index")
            if event == "spawned":
                _journal.emit("worker_spawned", pid=pid)
                if store is not None:
                    store.record_worker(campaign_id, pid, "alive",
                                        phase="idle")
            elif event == "task":
                # Journal only: the worker row follows at the next
                # heartbeat, at most one heartbeat interval later.
                _journal.emit(
                    "run_started", index=index,
                    fault=self.spec.faults[index].describe(),
                    attempt=info.get("attempt"), worker_pid=pid,
                )
            elif event == "heartbeat":
                _journal.emit(
                    "worker_heartbeat", pid=pid, index=index,
                    phase=info.get("phase"),
                )
                if store is not None:
                    store.record_worker(campaign_id, pid, "alive",
                                        fault_idx=index,
                                        phase=info.get("phase"))
            elif event == "died":
                _journal.emit(
                    "worker_died", pid=pid, index=index,
                    exitcode=info.get("exitcode"),
                    killed=bool(info.get("killed")),
                )
                heartbeat = info.get("last_heartbeat") or {}
                if store is not None:
                    store.record_worker(
                        campaign_id, pid, "dead", fault_idx=index,
                        phase=heartbeat.get("phase"),
                        exitcode=info.get("exitcode"),
                    )
                # A killed/crashed worker could not dump its own
                # flight recorder; write what the parent knows.
                if self._postmortem_dir is not None and index is not None:
                    status = info.get("status", RUN_CRASHED)
                    path = write_worker_postmortem(
                        self._postmortem_dir, index,
                        fault=self.spec.faults[index], status=status,
                        error=(
                            f"worker pid {pid} died"
                            f" (exitcode {info.get('exitcode')},"
                            f" killed={bool(info.get('killed'))})"
                        ),
                        pid=pid, exitcode=info.get("exitcode"),
                        last_heartbeat=info.get("last_heartbeat"),
                    )
                    _journal.emit(
                        "postmortem_written", index=index, path=path,
                        status=status,
                    )
            elif event == "retry":
                _journal.emit(
                    "retry", index=index, attempt=info.get("attempt"),
                    delay_s=info.get("delay_s"), status=info.get("status"),
                )

        return monitor

    @staticmethod
    def _check_probes(design, outputs):
        missing = [name for name in outputs if name not in design.probes]
        if missing:
            raise CampaignError(
                f"design factory does not probe declared outputs: {missing}"
            )

    # -- warm-start machinery ---------------------------------------------------

    def checkpoint_times(self, checkpoint_every=None, max_checkpoints=None):
        """The golden-run checkpoint schedule for this campaign.

        Candidates are the faults' injection times (quantised down to
        multiples of ``checkpoint_every`` when given), clipped to the
        simulated window, with a base checkpoint at t=0 so every fault
        has a restore point.  Parametric faults anchor one candidate
        *below* their start time (see :func:`_needs_strict_checkpoint`).
        When the candidate set exceeds ``max_checkpoints`` it is
        thinned evenly — correctness is unaffected, late-injecting
        faults just replay a little more suffix.
        """
        if max_checkpoints is None:
            max_checkpoints = DEFAULT_MAX_CHECKPOINTS
        if max_checkpoints < 1:
            raise CampaignError("max_checkpoints must be >= 1")
        if checkpoint_every is not None:
            checkpoint_every = parse_quantity(
                checkpoint_every, expect_unit="s"
            )
        candidates = {0.0}
        for fault in self.spec.faults:
            t_inj = schedule_time(fault)
            if _needs_strict_checkpoint(fault):
                # Quantisation already lands below t_inj unless t_inj
                # is an exact multiple; nudging one nominal analog
                # step earlier keeps the restore strictly before the
                # activation without measurable replay cost.
                t_inj -= self._nominal_dt()
            if checkpoint_every:
                t_inj = int(t_inj / checkpoint_every) * checkpoint_every
            if 0.0 < t_inj < self.spec.t_end:
                candidates.add(t_inj)
        times = sorted(candidates)
        if len(times) > max_checkpoints:
            if max_checkpoints == 1:
                return [times[0]]
            step = (len(times) - 1) / (max_checkpoints - 1)
            keep = sorted({round(i * step) for i in range(max_checkpoints)})
            times = [times[i] for i in keep]
        return times

    def _nominal_dt(self):
        # The factory owns the solver step; one nominal nanosecond-ish
        # step is recovered lazily from the warm design when present.
        if self._warm is not None:
            return self._warm["design"].sim.analog.dt_nominal
        return 0.0

    def prepare_warm(self, checkpoint_every=None, max_checkpoints=None):
        """Build the design, run the golden simulation and checkpoint it.

        Returns the warm-state dict (design, checkpoint tree with the
        golden record, golden probe clones, saboteur map).  Idempotent:
        subsequent calls reuse the prepared state.
        """
        if self._warm is not None:
            return self._warm

        design = self.factory()
        self._check_probes(design, self.spec.outputs)
        self._apply_shared_windows(design)
        sim = design.sim

        # Pre-create every saboteur the fault list needs, so golden
        # and faulty runs evaluate one identical analog block set (an
        # idle saboteur contributes no current).  Created before the
        # elaboration mark: in a cold run the saboteur also exists
        # before the run starts.
        bootstrap = InjectionController(sim, design.root)
        for fault in self.spec.faults:
            if isinstance(fault, CurrentInjection):
                bootstrap.saboteur_for(fault.node)
        saboteurs = dict(bootstrap.saboteurs)

        sim.mark_elaboration()
        self._warm = {"design": design, "saboteurs": saboteurs}

        events_before = sim.events_executed
        snapshots = []
        with _tracer.TRACER.span(
            "campaign.golden", t_end=self.spec.t_end, warm=True
        ):
            for t_ckpt in self.checkpoint_times(
                checkpoint_every, max_checkpoints
            ):
                # Stop *before* the checkpoint timestamp's delta cycles
                # so a fault injected exactly there replays in cold-run
                # order.
                sim.run(t_ckpt, inclusive=False)
                snapshots.append((t_ckpt, sim.snapshot()))
            sim.run(self.spec.t_end)

        tree = CheckpointTree(
            max_branches=(DEFAULT_MAX_CHECKPOINTS if max_checkpoints is None
                          else max_checkpoints)
        )
        tree.set_trunk(snapshots)
        tree.keep_golden()
        self._warm.update(
            tree=tree,
            golden_probes={
                name: trace.clone()
                for name, trace in design.probes.items()
            },
            golden_events=sim.events_executed - events_before,
        )
        return self._warm

    def _restore_point(self, fault):
        """The trunk node a warm run of ``fault`` restores.

        A restore at t > 0 is a warm-start *hit* (golden prefix
        skipped); falling back to the base t=0 checkpoint is a *miss*
        (full replay, always correct).  Requires :meth:`prepare_warm`.
        """
        warm = self.prepare_warm()
        t_inj = schedule_time(fault)
        if _needs_strict_checkpoint(fault):
            t_inj -= self._nominal_dt()
        return warm["tree"].trunk_at(t_inj)

    def _add_phase(self, name, seconds):
        """Accrue ``seconds`` to a phase while a campaign is running."""
        if self._phase_s is not None:
            self._phase_s[name] += seconds

    def run_fault_warm(self, fault):
        """Execute one faulty run from the nearest golden checkpoint.

        Returns ``(probes, metrics, events)`` where ``probes`` are
        detached trace copies spanning the full ``[0, t_end]`` window
        (golden prefix + faulty suffix) and ``events`` counts the
        kernel events this run actually executed.
        """
        warm = self.prepare_warm()
        design = warm["design"]
        sim = design.sim
        # Budget the faulty suffix only (the restore below also resets
        # the guard's step history via the solver's invalidate hook).
        self._arm(sim)
        node = self._restore_point(fault)

        events_before = sim.events_executed
        set_worker_phase("restore")
        restore_start = perf_counter()
        warm["tree"].restore(node)
        step_start = perf_counter()
        _journal.emit("checkpoint_restored", t_ckpt=node.time)
        set_worker_phase("simulate")
        controller = InjectionController(
            sim, design.root, saboteurs=warm["saboteurs"]
        )
        with sim.injection_band():
            controller.apply(fault)
        sim.run(self.spec.t_end)
        self._add_phase("restore", step_start - restore_start)
        self._add_phase("step", perf_counter() - step_start)

        probes = {
            name: trace.clone() for name, trace in design.probes.items()
        }
        metrics = {}
        for hook in self.metric_hooks:
            metrics.update(hook(design, fault))
        return probes, metrics, sim.events_executed - events_before

    # -- batched (ensemble) execution -------------------------------------------

    def _plan_batches(self, pending, mode="auto"):
        """Split pending fault indices into batches and scalar runs.

        Two batch kinds, both grouped by the golden checkpoint their
        faults restore (one restore serves the whole batch):

        * **analog** — current injections advance together as a
          vectorized ensemble.  Grouping is *cross-site*: variants on
          different nodes share the solver step, each saboteur's plan
          carrying per-variant currents (zero outside a variant's
          injection support).
        * **digital** — bit-flip-style mutants fork off shared golden
          checkpoint nodes (see :meth:`run_batch_digital`).

        Per-run metric hooks need a live per-variant design, which a
        batch cannot provide, so campaigns with hooks stay entirely
        scalar.  Returns ``(batches, scalar_indices)`` where each
        batch is ``(kind, t_ckpt, indices)``; the plan is fully
        deterministic — groups are keyed by checkpoint time and
        ordered by (checkpoint, kind, first index), never by dict/hash
        order — so store row order and resume behaviour are stable
        across Python hash seeds.  Singleton groups run scalar — a
        batch of one is pure overhead.
        """
        if self.metric_hooks:
            return [], list(pending)
        analog_groups = {}
        digital_groups = {}
        scalar = []
        for index in sorted(pending):
            fault = self.spec.faults[index]
            if mode in ("auto", "analog") and batch_key(fault) is not None:
                t_ckpt = self._restore_point(fault).time
                analog_groups.setdefault(t_ckpt, []).append(index)
            elif (
                mode in ("auto", "digital")
                and digital_batch_key(fault) is not None
            ):
                t_ckpt = self._restore_point(fault).time
                digital_groups.setdefault(t_ckpt, []).append(index)
            else:
                scalar.append(index)
        batches = []
        for kind, groups in (
            ("analog", analog_groups), ("digital", digital_groups)
        ):
            for t_ckpt in sorted(groups):
                group = groups[t_ckpt]
                if len(group) > 1:
                    batches.append((kind, t_ckpt, group))
                else:
                    scalar.extend(group)
        batches.sort(key=lambda item: (item[1], item[0], item[2][0]))
        return batches, sorted(scalar)

    def _scaled_budget(self, k):
        """The per-variant run budget scaled to a whole ``k``-batch.

        A batched run does ~``k`` variants' work inside one
        ``sim.run`` call, so each ceiling multiplies by ``k``.  A trip
        aborts the whole batch, and every variant then re-runs scalar
        under its own unscaled budget — so budget *semantics* (and the
        resulting per-variant ``timeout`` classifications) stay
        exactly per-variant.
        """
        budget = self._budget
        if budget is None or budget.empty:
            return budget
        return RunBudget(
            max_wall_s=(budget.max_wall_s * k
                        if budget.max_wall_s is not None else None),
            max_events=(budget.max_events * k
                        if budget.max_events is not None else None),
            max_steps=(budget.max_steps * k
                       if budget.max_steps is not None else None),
        )

    def run_batch_warm(self, indices):
        """Execute one batch of same-site faults as a vectorized ensemble.

        One checkpoint restore serves all ``k`` variants; the analog
        solver then advances all of them per step (see
        :mod:`repro.core.ensemble`), while the digital side runs once,
        shared.  Variants whose digital or numerical behaviour
        diverges from the ensemble consensus *peel off* and re-run on
        the ordinary scalar warm path, so every reported result is
        bit-identical to its scalar run.

        Returns ``(completed, leftovers, info)``:

        * ``completed`` — ``(index, payload, wall_s)`` tuples whose
          payload matches :meth:`run_fault_warm`'s
          ``(probes, metrics, events)``; ``events`` is the batch's
          shared kernel-event count, which is what each variant's
          scalar run would have executed.
        * ``leftovers`` — indices that must re-run scalar (peeled
          variants, or all of ``indices`` when the batch fell back).
        * ``info`` — ``peeled`` count and ``fallback`` flag.
        """
        warm = self.prepare_warm()
        design = warm["design"]
        sim = design.sim
        faults = [(index, self.spec.faults[index]) for index in indices]
        k = len(faults)
        info = {"peeled": 0, "fallback": False}
        wall_start = perf_counter()

        node = self._restore_point(faults[0][1])
        events_before = sim.events_executed
        sim.budget = self._scaled_budget(k)
        # The per-run flight recorder is a scalar-path instrument; a
        # leftover ring from a previous scalar run must not record (or
        # dump) ensemble steps.
        sim.analog.recorder = None
        ensemble = Ensemble(sim, k, guard=self._guard)
        try:
            warm["tree"].restore(node)
            step_start = perf_counter()
            for pos, (_index, fault) in enumerate(faults):
                ensemble.add_injection(
                    pos, warm["saboteurs"][fault.node], fault.transient,
                    fault.time,
                )
            ensemble.attach()
            try:
                sim.run(self.spec.t_end)
            except EnsembleDrainedError:
                pass
            finally:
                ensemble.detach()
        except Exception as exc:
            # The batch is strictly a fast path: *any* failure —
            # unsupported block, budget trip, solver error — demotes
            # the whole batch to scalar execution, where the ordinary
            # supervision machinery budgets, retries and attributes
            # failures per variant.  The next restore rewinds every
            # trace and state array the aborted batch touched.
            ensemble.detach()
            LOGGER.warning(
                "batch of %d variants fell back to scalar execution: %s",
                k, exc,
            )
            info["fallback"] = True
            return [], list(indices), info
        finally:
            sim.budget = None

        wall_s = perf_counter() - wall_start
        self._add_phase("restore", step_start - wall_start)
        self._add_phase("step", wall_s - (step_start - wall_start))
        events = sim.events_executed - events_before
        survivors = ensemble.completed()
        info["peeled"] = len(ensemble.peeled)
        wall_each = wall_s / len(survivors) if survivors else 0.0
        completed = []
        for pos in survivors:
            index, _fault = faults[pos]
            probes = {
                name: ensemble.variant_trace(trace, pos)
                for name, trace in design.probes.items()
            }
            completed.append((index, (probes, {}, events), wall_each))
        leftovers = [faults[pos][0] for pos in sorted(ensemble.peeled)]
        return completed, leftovers, info

    def _horizon_times(self, flip_times):
        """Convergence comparison points past the last flip time.

        Geometric spacing starting at the flip grid's own granularity:
        most SEUs that heal do so within a few cycles of the last
        flip, so early points are dense; the doubling tail bounds the
        walk for stubborn mutants without giving up the early-out.
        """
        t_last = flip_times[-1]
        t_end = self.spec.t_end
        if t_last >= t_end:
            return []
        gaps = [
            b - a for a, b in zip(flip_times, flip_times[1:]) if b > a
        ]
        gap = min(gaps) if gaps else (t_end - t_last) / 256.0
        if gap <= 0.0:
            return []
        times = []
        t = t_last + gap
        while t < t_end and len(times) < MAX_HORIZON_POINTS:
            times.append(t)
            gap *= 2.0
            t = t_last + (times[-1] - t_last) + gap
        return times

    def run_batch_digital(self, indices):
        """Execute one batch of digital mutants off shared golden nodes.

        The copy-on-divergence strategy: the checkpoint tree's golden
        walk (:meth:`~repro.core.ckpt_tree.CheckpointTree.walk`) yields
        a node at every distinct flip time plus a geometric convergence
        horizon (:meth:`_horizon_times`).  Each mutant restores the node
        at exactly its flip time — the shared golden prefix is never
        simulated per mutant — and runs only until its state
        *re-converges* with a later node's snapshot
        (:meth:`~repro.core.snapshot.Snapshot.matches_live`); the tree
        then splices in the golden tail, bit-identical by determinism.
        Mutants that never re-converge run to ``t_end`` exactly like a
        scalar warm start.

        With a run budget armed the whole batch falls back to scalar
        execution: budget ceilings are *per run call* over the restored
        suffix, and the branch walk both shortens that suffix (the
        restore lands exactly at the flip time) and would segment it
        across several run calls — either way a budget could trip
        differently than the scalar run it must classify like.

        Returns ``(completed, leftovers, info)`` shaped like
        :meth:`run_batch_warm`; ``info`` adds ``converged`` and
        ``branch_snapshots`` (golden captures, memo hits excluded)
        counts.
        """
        warm = self.prepare_warm()
        tree = warm["tree"]
        design = warm["design"]
        sim = design.sim
        faults = [(index, self.spec.faults[index]) for index in indices]
        info = {
            "peeled": 0, "fallback": False,
            "converged": 0, "branch_snapshots": 0,
        }
        if self._budget is not None and not self._budget.empty:
            info["fallback"] = True
            return [], list(indices), info

        by_time = {}
        for index, fault in faults:
            by_time.setdefault(schedule_time(fault), []).append(
                (index, fault)
            )
        flip_times = sorted(by_time)

        walk_start = perf_counter()
        try:
            nodes, info["branch_snapshots"] = tree.walk(
                flip_times + self._horizon_times(flip_times)
            )
        except Exception as exc:
            LOGGER.warning(
                "digital batch of %d mutants fell back to scalar "
                "execution: %s", len(faults), exc,
            )
            info["fallback"] = True
            return [], list(indices), info
        self._add_phase("restore", perf_counter() - walk_start)

        completed = []
        leftovers = []
        for position, t_flip in enumerate(flip_times):
            node = nodes[position]
            for index, fault in by_time[t_flip]:
                wall_start = perf_counter()
                events_before = sim.events_executed
                try:
                    self._arm(sim)
                    tree.restore(node)
                    step_start = perf_counter()
                    controller = InjectionController(
                        sim, design.root, saboteurs=warm["saboteurs"]
                    )
                    with sim.injection_band():
                        controller.apply(fault)
                    converged = None
                    for later in nodes[position + 1:]:
                        sim.run(later.time, inclusive=False)
                        if later.snapshot.matches_live(sim):
                            converged = later
                            break
                    if converged is None:
                        sim.run(self.spec.t_end)
                    self._add_phase("restore", step_start - wall_start)
                    self._add_phase("step", perf_counter() - step_start)
                    if converged is not None:
                        info["converged"] += 1
                        probes = tree.splice(design.probes, converged)
                    else:
                        probes = {
                            name: trace.clone()
                            for name, trace in design.probes.items()
                        }
                    payload = (
                        probes, {}, sim.events_executed - events_before
                    )
                    completed.append(
                        (index, payload, perf_counter() - wall_start)
                    )
                except Exception as exc:
                    # One mutant's failure peels it to the scalar path
                    # (budget/guard trips classify there); the rest of
                    # the batch carries on.
                    LOGGER.warning(
                        "digital mutant %d peeled to scalar execution: %s",
                        index, exc,
                    )
                    info["peeled"] += 1
                    leftovers.append(index)
                finally:
                    sim.budget = None
        return completed, leftovers, info

    def _batched_outcomes(self, pending, mode="auto"):
        """Outcome groups for batched execution.

        Batches run first — analog ensembles and digital branch walks
        interleaved in deterministic plan order — each yielding its
        completed runs as one group (a batch with none yields nothing).
        Their peeled variants and every unbatchable fault then drain
        through :meth:`_serial_outcomes`, one group per fault (same
        retry/supervision semantics).
        """
        registry = _metrics.REGISTRY
        stats = self._batch_stats
        batches, scalar = self._plan_batches(pending, mode)
        for position, (kind, t_ckpt, indices) in enumerate(batches):
            if self.progress is not None:
                self.progress(
                    position, len(batches), self.spec.faults[indices[0]]
                )
            _journal.emit(
                "batch_planned", kind=kind, size=len(indices),
                t_ckpt=t_ckpt, position=position, batches=len(batches),
            )
            with _tracer.TRACER.span(
                "campaign.batch", kind=kind, size=len(indices),
                t_ckpt=t_ckpt,
            ):
                if kind == "digital":
                    completed, leftovers, info = self.run_batch_digital(
                        indices
                    )
                else:
                    completed, leftovers, info = self.run_batch_warm(indices)
            stats["batches"] += 1
            stats[f"{kind}_batches"] += 1
            stats["batched_runs"] += len(completed)
            stats["peeled"] += info["peeled"]
            stats["converged"] += info.get("converged", 0)
            stats["branch_snapshots"] += info.get("branch_snapshots", 0)
            registry.inc("campaign.batch.count")
            registry.inc(f"campaign.batch.{kind}")
            registry.observe("campaign.batch.size", len(indices))
            if info["peeled"]:
                registry.inc("campaign.batch.peeled", info["peeled"])
            if info.get("converged"):
                registry.inc("campaign.batch.converged", info["converged"])
            if info["fallback"]:
                stats["fallbacks"] += 1
                registry.inc("campaign.batch.fallback")
            registry.inc("campaign.runs.batched", len(completed))
            if completed:
                yield [
                    (index, True, payload, wall_s, 1)
                    for index, payload, wall_s in completed
                ]
            scalar.extend(leftovers)
        remaining = sorted(scalar)
        stats["scalar_runs"] += len(remaining)
        if remaining:
            registry.inc("campaign.runs.scalar", len(remaining))
        yield from self._serial_outcomes(remaining)

    # -- the campaign -----------------------------------------------------------

    def _evaluate(self, golden_probes, fault, faulty_probes, metrics):
        comparisons = compare_probe_sets(
            golden_probes,
            faulty_probes,
            tolerances=self.spec.tolerances,
            analog_tolerance=self.spec.analog_tolerance,
            time_tolerances=self.spec.time_tolerances,
            t0=self.spec.compare_from,
            t1=self.spec.t_end,
            grid_cache=self._grid_cache,
        )
        classification = classify(comparisons, self.spec.outputs)
        return FaultResult(
            fault=fault,
            classification=classification,
            comparisons=comparisons,
            metrics=metrics,
        )

    def _attempt(self, index, attempt=None):
        """Attempt fault ``index`` once: the one fault-attempt body.

        Warm campaigns restore a golden checkpoint, cold ones rebuild
        the design.  Returns ``(index, ok, payload, wall_s)``: on
        success ``payload`` is ``(probes, metrics, events)``; on
        failure it is ``(exception, status)``, the status classified
        and the flight recorder dumped from the original exception.
        :meth:`_serial_outcomes` calls it in-process and adds retries;
        the fork pool calls it in its workers, so only picklable data
        (traces, metric dicts, counters) crosses back.
        """
        fault = self.spec.faults[index]
        wall_start = perf_counter()
        try:
            if self._warm_start:
                payload = self.run_fault_warm(fault)
            else:
                design, _controller = self.run_fault(fault)
                metrics = {}
                for hook in self.metric_hooks:
                    metrics.update(hook(design, fault))
                payload = (design.probes, metrics, design.sim.events_executed)
        except Exception as exc:
            status = classify_failure(exc)
            self._dump_postmortem(index, fault, status, exc, attempt)
            return index, False, (exc, status), perf_counter() - wall_start
        return index, True, payload, perf_counter() - wall_start

    @staticmethod
    def _fork_context():
        """The ``fork`` multiprocessing context, or None when missing.

        Workers inherit the runner (and warm state) by fork;
        ``spawn``/``forkserver`` cannot reproduce that, so platforms
        without ``fork`` degrade gracefully to serial execution (the
        caller logs the downgrade) instead of failing the campaign.
        """
        import multiprocessing

        try:
            return multiprocessing.get_context("fork")
        except ValueError:
            return None

    # -- outcome streams ---------------------------------------------------------

    def _serial_outcomes(self, pending):
        """One group per fault: ``[(index, ok, payload, wall_s, attempts)]``.

        Each fault runs through :meth:`_attempt` (``payload`` as
        there); failed attempts are retried under the runner's retry
        policy before the terminal outcome is yielded.
        """
        tracer = _tracer.TRACER
        retry = self._retry
        for position, index in enumerate(pending):
            fault = self.spec.faults[index]
            if self.progress is not None:
                self.progress(position, len(pending), fault)
            attempt = 0
            while True:
                attempt += 1
                _journal.emit(
                    "run_started", index=index, fault=fault.describe(),
                    attempt=attempt,
                )
                with tracer.span(
                    "campaign.fault_run", index=index,
                    fault=fault.describe(), attempt=attempt,
                ) as span:
                    _index, ok, payload, wall_s = self._attempt(
                        index, attempt
                    )
                    if not ok:
                        span.annotate(error=type(payload[0]).__name__)
                if ok or retry is None or attempt >= retry.attempts:
                    break
                _metrics.REGISTRY.inc("campaign.retries")
                _journal.emit(
                    "retry", index=index, attempt=attempt,
                    delay_s=retry.delay(attempt), status=payload[1],
                )
                sleep(retry.delay(attempt))
            yield [(index, ok, payload, wall_s, attempt)]

    def _parallel_outcomes(self, pending, workers, context, monitor):
        """Supervised worker outcomes, one group per fault, as completed.

        Workers are forked (inheriting the factory, hooks — and, warm,
        the golden design plus checkpoints) and each runs
        :meth:`_attempt`.  They are individually supervised: a dead
        worker is detected, attributed to the fault it was running
        and replaced; a worker that blows the per-fault deadline is
        killed.  Outcomes stream in *completion* order (the consumer
        re-sorts by index), so the parent classifies and persists each
        run while later runs are still simulating, and an interrupt
        loses at most the results still in flight.
        """
        supervisor = WorkerSupervisor(
            context,
            self._attempt,
            workers,
            retry=self._retry,
            deadline_s=(
                self._budget.max_wall_s if self._budget is not None else None
            ),
            monitor=monitor,
        )
        for position, outcome in enumerate(supervisor.outcomes(pending)):
            if self.progress is not None:
                self.progress(
                    position, len(pending), self.spec.faults[outcome[0]]
                )
            yield [outcome]

    def _planned_outcomes(self, plan, execute, sampled):
        """The campaign's outcome groups: ``plan``'s chunks, in order.

        Every campaign is driven by a chunk plan — an exhaustive plan
        holding one chunk of every pending fault, or a stratified
        sampler (:func:`~repro.campaign.sampling.build_plan`).  Each
        chunk's pending faults run on ``execute``, the serial, batched
        or fork-pool stream picked once for the campaign, and the chunk
        is closed with ``finish_chunk`` — legal here because the parent
        consumer classifies, records into the plan and commits each
        group *before* this generator resumes.  A sampled stream ends
        the moment the pooled interval converges or the population
        runs dry; only a sampled stream journals its chunks and stop.
        """
        journal_on = sampled and _journal.JOURNAL.enabled
        while True:
            chunk = plan.next_chunk()
            if chunk is None:
                break
            if journal_on:
                _journal.emit(
                    "sample_chunk", chunk=chunk.ident,
                    round=chunk.round_index, size=len(chunk.indices),
                    pending=len(chunk.pending), trials=plan.trials,
                )
            if chunk.pending:
                yield from execute(list(chunk.pending))
            if plan.finish_chunk(chunk):
                break
        if sampled and plan.finished:
            estimate, (low, high) = plan.pooled()
            _journal.emit(
                "sampling_stopped", reason=plan.reason,
                trials=plan.trials, estimate=estimate,
                half_width=(high - low) / 2.0,
                skipped=plan.population - plan.simulated,
            )

    # -- the campaign -----------------------------------------------------------

    def run(
        self,
        workers=None,
        warm_start=False,
        batch=False,
        checkpoint_every=None,
        max_checkpoints=None,
        store=None,
        resume=False,
        on_error="raise",
        timeout=None,
        event_budget=None,
        budget=None,
        guard=_DEFAULT_GUARD,
        retries=None,
        retry=None,
        retry_quarantined=False,
        postmortem_dir=None,
        sample=False,
        margin=None,
        confidence=0.95,
        sample_seed=0,
        strata="site-phase",
        chunk=None,
    ):
        """Run golden + every (remaining) fault; returns a
        :class:`CampaignResult`.

        :param workers: when > 1 on a platform with ``fork``, faulty
            runs execute under a :class:`WorkerSupervisor` (each
            worker inherits the factory, hooks — and in warm mode the
            golden design with its snapshots — via fork; only probe
            traces and metric dicts are shipped back; dead workers are
            detected, attributed and replaced).  Comparison,
            classification and store writes always happen in the
            parent — the single writer — against the one golden run,
            streaming as results arrive.  Sampled campaigns run each
            chunk on the pool.  Runs stay serial, and record
            ``execution["workers"] == 1``, in batched mode and without
            ``fork`` (both logged as warnings) and with at most one
            pending fault.
        :param warm_start: restore golden checkpoints instead of
            re-simulating each fault from t=0 (see the module
            docstring for semantics and caveats).
        :param batch: batched execution mode (implies ``warm_start``).
            One of :data:`BATCH_MODES` — ``"auto"`` enables both batch
            kinds, ``"analog"`` / ``"digital"`` restrict to one,
            ``"off"`` disables; the legacy booleans still work
            (``True`` -> ``"auto"``, ``False`` -> ``"off"``).  Analog
            batches advance current-injection variants — cross-site —
            as one vectorized ensemble per checkpoint group, with
            divergent variants peeled off to the scalar path.  Digital
            batches fork bit-flip mutants off a shared golden branch
            walk (copy-on-divergence) and splice golden trace tails
            when a mutant's state re-converges (see
            :meth:`run_batch_digital`).  Either way results stay
            bit-identical to scalar execution.  Batched groups execute
            serially in the parent (the vectorization is the
            parallelism); leftover scalar runs follow serially too, so
            ``workers`` is ignored with a warning.  Campaigns with
            ``metric_hooks`` degrade to plain warm starts.
        :param checkpoint_every: checkpoint time granularity in
            seconds for warm starts (default: one checkpoint per
            distinct injection time, bounded by ``max_checkpoints``).
        :param max_checkpoints: ceiling on retained golden snapshots
            (default 64).
        :param store: optional
            :class:`~repro.store.CampaignStore`; every run is committed
            to it as it finishes, one transaction per outcome group
            (a scalar run, or a batch).
        :param resume: with ``store``, skip faults the store already
            holds a successful run for (errored runs are retried).
            The stored fault list and golden traces are verified
            first, and previously stored runs are merged into the
            returned result, so a resumed campaign reports exactly
            like an uninterrupted one.
        :param on_error: ``"raise"`` (default) propagates the first
            per-fault simulation error; ``"collect"`` records it in
            :attr:`CampaignResult.errors` (and the store) and carries
            on with the remaining faults.
        :param timeout: per-fault wall-clock ceiling in seconds
            (accepts ``"30s"``).  Enforced cooperatively inside the
            kernel (:class:`~repro.core.errors.BudgetExceededError`
            -> ``timeout`` status) and, in parallel mode, by a hard
            supervisor kill a grace period later.
        :param event_budget: per-fault ceiling on kernel events.
        :param budget: a full :class:`~repro.core.budget.RunBudget`
            (overrides ``timeout``/``event_budget``).
        :param guard: a :class:`~repro.core.budget.NumericalGuard`
            armed on every faulty run (a fresh instance per design);
            defaults to ``NumericalGuard()``; pass ``None`` to disable.
        :param retries: extra attempts per failed fault before it is
            quarantined (default 1 retry with ``on_error="collect"``,
            none with ``"raise"``); 0 disables retries.
        :param retry: a full :class:`RetryPolicy` (overrides
            ``retries``).
        :param retry_quarantined: with ``resume``, re-run faults a
            previous execution quarantined instead of skipping them.
        :param postmortem_dir: directory for failure flight-recorder
            dumps.  When set, every faulty run carries a
            :class:`~repro.obs.flightrec.FlightRecorder`, and a run
            that fails (timeout/diverged/crashed/error) leaves a
            ``fault_NNNNN.postmortem.json`` there — referenced from
            its store row — with the last recorded solver steps, live
            node values, event-queue tail, fault parameters and budget
            state.  ``None`` (the default) disables recording.
        :param sample: confidence-bounded adaptive sampling — instead
            of enumerating every fault, draw stratified samples from
            the dictionary and **stop when the answer is known**: the
            campaign ends the moment the pooled Wilson interval
            half-width drops to ``margin`` at ``confidence`` (see
            :mod:`repro.campaign.sampling`).  Faults never simulated
            get ``skipped`` store rows; the sampling estimate lands in
            ``result.execution["sampling"]``.  Each chunk runs on the
            campaign's executor — serial, batched or the ``workers``
            fork pool — and closes before the next is drawn, so the
            stored rows do not depend on the executor.
        :param margin: requested half-width of the pooled interval
            (e.g. ``0.005`` = ±0.5%).  Required with ``sample``, refused
            without it, also when resuming a campaign whose store
            already holds a sampling configuration.
        :param confidence: interval confidence level (default 0.95).
        :param sample_seed: seed of the draw sequence; same seed (and
            faults/strata) -> row-identical campaign.
        :param strata: stratification mode — one of
            :data:`~repro.campaign.sampling.STRATA_MODES` or a
            callable ``fault -> label``.
        :param chunk: draws per convergence-evaluation chunk (default
            :data:`~repro.campaign.sampling.DEFAULT_CHUNK`); refused
            without ``sample``.  Part of the draw sequence: resume
            verifies it against the store.
        """
        batch_mode = check_run_options(
            on_error=on_error, resume=resume, store=store, batch=batch,
            sample=sample, margin=margin, chunk=chunk,
        )
        batch = batch_mode != "off"
        if batch:
            # Batching is warm-start execution with a vectorized (or
            # branch-walked) inner loop; the checkpoints are what let
            # one restore serve a whole group.
            warm_start = True
            if self.metric_hooks:
                LOGGER.warning(
                    "batched execution disabled: metric hooks need a "
                    "live per-variant design; running plain warm starts"
                )
                batch = False
                batch_mode = "off"

        if budget is None and (timeout is not None or event_budget is not None):
            budget = RunBudget(max_wall_s=timeout, max_events=event_budget)
        self._warm_start = warm_start
        self._budget = budget
        self._guard = NumericalGuard() if guard is _DEFAULT_GUARD else guard
        if retry is None and on_error == "collect":
            retry = RetryPolicy(
                attempts=1 + (retries if retries is not None else 1)
            )
        self._retry = retry if on_error == "collect" else None
        self._grid_cache = ComparisonGridCache()
        self._postmortem_dir = (
            None if postmortem_dir is None else str(postmortem_dir)
        )
        self._phase_s = {
            "restore": 0.0, "step": 0.0, "classify": 0.0, "store_write": 0.0,
        }
        self._batch_stats = {
            "mode": batch_mode,
            "batches": 0, "analog_batches": 0, "digital_batches": 0,
            "batched_runs": 0, "peeled": 0, "converged": 0,
            "branch_snapshots": 0, "fallbacks": 0, "scalar_runs": 0,
        }

        wall_start = perf_counter()
        total = len(self.spec.faults)
        sampling = None
        if sample:
            sampling = {
                "margin": margin, "confidence": confidence,
                "seed": sample_seed, "strata": strata, "chunk": chunk,
            }
        campaign_id = None
        stored = {}
        if store is not None:
            campaign_id = store.open_campaign(self.spec, resume=resume)
            if _journal.JOURNAL.enabled:
                store.record_journal(
                    campaign_id, _journal.JOURNAL.path,
                    _journal.JOURNAL.session_offset,
                )
        if resume:
            # A stored sampling configuration makes --resume continue
            # the sampled campaign without restating the flags.
            if sampling is None:
                sampling = store.sampling_config(campaign_id)
            if sampling is None:
                # Settled faults replay as done; failed ones re-run.
                stored = dict.fromkeys(set(range(total)).difference(
                    store.pending_indices(
                        campaign_id, total,
                        include_quarantined=retry_quarantined,
                    )
                ))
            else:
                # Every simulated outcome replays, failed ones included,
                # so the sampler continues its draw sequence.
                stored = stored_outcomes(
                    store.run_rows(campaign_id, skipped=False)
                )
        sample = sampling is not None
        plan = build_plan(
            self.spec.faults, sampling, stored=stored,
            # Exhaustive: one chunk of every fault, so batch planning
            # sees the whole pending list.
            chunk=None if sample else max(total, 1),
        )
        if sample and store is not None:
            # The configuration IS the draw sequence: the first write
            # records it, a resume verifies it (StoreError on any
            # drift).  Callable strata persist as "custom"; the caller
            # must supply the same callable again on resume.
            store.record_sampling(campaign_id, **plan.config)
        # Every fault without a replayed outcome (what could still run).
        pending = [index for index in range(total) if index not in stored]

        if warm_start:
            warm = self.prepare_warm(checkpoint_every, max_checkpoints)
            golden_probes = warm["golden_probes"]
            golden_events = warm["golden_events"]
            checkpoints = len(warm["tree"].trunk)
        else:
            golden = self.run_golden()
            golden_probes = golden.probes
            golden_events = golden.sim.events_executed
            checkpoints = 0
        if store is not None:
            store.check_golden(campaign_id, golden_probes)

        parallel = workers is not None and workers > 1 and len(pending) > 1
        if batch and parallel:
            LOGGER.warning(
                "batched execution requested with workers=%d; batching "
                "runs serially in the parent (the vectorization is the "
                "parallelism) — ignoring workers", workers,
            )
            parallel = False
        context = None
        if parallel:
            context = self._fork_context()
            if context is None:
                LOGGER.warning(
                    "parallel campaign requested (workers=%d) but the "
                    "'fork' start method is unavailable on this platform; "
                    "falling back to serial execution", workers,
                )
                parallel = False
        workers = workers if parallel else 1
        mode = "batched" if batch else ("warm" if warm_start else "cold")
        if sample:
            mode = f"sampled-{mode}"
        _journal.emit(
            "campaign_started", name=self.spec.name, total=total,
            pending=len(pending), mode=mode, workers=workers,
            resume=bool(resume),
        )
        if batch:
            execute = partial(self._batched_outcomes, mode=batch_mode)
        elif parallel:
            execute = partial(
                self._parallel_outcomes, workers=workers, context=context,
                monitor=self._build_worker_monitor(store, campaign_id),
            )
        else:
            execute = self._serial_outcomes
        outcomes = self._planned_outcomes(plan, execute, sampled=sample)

        registry = _metrics.REGISTRY
        phases = self._phase_s
        result = CampaignResult(self.spec, golden_probes=golden_probes)
        new_runs = {}
        errors = []
        fault_events = 0
        retried = 0
        retried_runs = 0
        failure_tally = {RUN_TIMEOUT: 0, RUN_DIVERGED: 0, RUN_CRASHED: 0}
        for group in outcomes:
            # Each group (one scalar run, or one batch) is rendered
            # here and committed as one transaction.
            rows = []
            for index, ok, payload, wall_s, attempts in group:
                fault = self.spec.faults[index]
                stratum = plan.stratum_of(index)
                retried += attempts - 1
                if not ok:
                    exc, status = payload
                    # Failed runs are excluded from estimate trials but
                    # still consume their draw.
                    plan.record(index, None)
                    if on_error == "raise":
                        raise exc
                    quarantined = (
                        self._retry is not None
                        and attempts >= self._retry.attempts
                    )
                    message = f"{type(exc).__name__}: {exc}"
                    postmortem = self._find_postmortem(index)
                    errors.append(CampaignRunError(
                        index, fault, message,
                        status=status, attempts=attempts,
                        quarantined=quarantined, postmortem=postmortem,
                    ))
                    registry.inc("campaign.errors")
                    if status in failure_tally:
                        failure_tally[status] += 1
                        registry.inc(f"campaign.{status}")
                    if quarantined:
                        registry.inc("campaign.quarantined")
                        _journal.emit(
                            "quarantined", index=index, status=status,
                            attempts=attempts,
                        )
                    _journal.emit(
                        "run_finished", index=index, status=status,
                        label=None, wall_s=round(wall_s, 6),
                        attempts=attempts,
                    )
                    if store is not None:
                        rows.append(error_to_row(
                            index, None, message, status=status,
                            wall_s=wall_s, attempts=attempts,
                            quarantined=quarantined,
                            postmortem=postmortem, stratum=stratum,
                        ))
                    continue
                probes, metrics, events = payload
                fault_events += events
                retried_runs += attempts > 1
                classify_start = perf_counter()
                run_result = self._evaluate(
                    golden_probes, fault, probes, metrics
                )
                phases["classify"] += perf_counter() - classify_start
                new_runs[index] = run_result
                plan.record(index, run_result.label != SILENT)
                registry.inc("campaign.runs")
                registry.inc(f"campaign.class.{run_result.label}")
                registry.observe("campaign.run_wall_s", wall_s)
                _journal.emit(
                    "run_finished", index=index, status="ok",
                    label=run_result.label, wall_s=round(wall_s, 6),
                    attempts=attempts,
                )
                if store is not None:
                    rows.append(result_to_row(
                        index, None, run_result, wall_s=wall_s,
                        kernel_events=events, attempts=attempts,
                        stratum=stratum,
                    ))
            if rows:
                write_start = perf_counter()
                store.record_runs(campaign_id, rows)
                phases["store_write"] += perf_counter() - write_start
        if retried_runs:
            registry.inc("campaign.retried_runs", retried_runs)
        session_error_indices = {err.index for err in errors}

        if sample and plan.finished and store is not None:
            # One transaction marks everything the early stop saved:
            # "skipped" rows are distinguishable from "not sampled"
            # (no row at all — the campaign died before converging).
            write_start = perf_counter()
            store.record_skipped(campaign_id, [
                (index, plan.stratum_of(index))
                for index in plan.skipped_indices()
            ])
            phases["store_write"] += perf_counter() - write_start

        merged = dict(new_runs)
        if store is not None and resume:
            # Previously completed runs come back from the store with
            # the live spec's fault instances, so the merged result is
            # indistinguishable from an uninterrupted campaign.
            stored = store.load_runs(campaign_id, self.spec.faults)
            for index, stored_run in stored.items():
                merged.setdefault(index, stored_run)
            # Quarantined faults that were skipped this execution keep
            # their stored terminal error, so the merged result still
            # accounts for every fault in the spec.
            for stored_err in store.load_errors(campaign_id, self.spec.faults):
                if (
                    stored_err.index not in session_error_indices
                    and stored_err.index not in merged
                ):
                    errors.append(stored_err)
        errors.sort(key=lambda err: err.index)
        result.runs = [merged[index] for index in sorted(merged)]
        result.errors = errors

        result.execution = {
            "mode": mode,
            "workers": workers,
            "checkpoints": checkpoints,
            "golden_events": golden_events,
            "fault_events": fault_events,
            "kernel_events": golden_events + fault_events,
            "wall_s": perf_counter() - wall_start,
            "completed": len(new_runs),
            "skipped": total - len(pending),
            "errors": len(errors),
            "retries": retried,
            "timeouts": failure_tally[RUN_TIMEOUT],
            "diverged": failure_tally[RUN_DIVERGED],
            "crashed": failure_tally[RUN_CRASHED],
            "quarantined": sum(1 for err in errors if err.quarantined),
        }
        if warm_start:
            # Only the faults this session actually simulated say
            # anything about checkpoint reuse.
            attempted = set(new_runs) | session_error_indices
            hits = sum(
                1
                for index in attempted
                if self._restore_point(self.spec.faults[index]).time > 0.0
            )
            result.execution["warm_hits"] = hits
            result.execution["warm_misses"] = len(attempted) - hits
            registry.inc("campaign.warm.hit", hits)
            registry.inc("campaign.warm.miss", len(attempted) - hits)
        if batch:
            result.execution["batch"] = dict(
                self._batch_stats,
                branch_peak_live=self._warm["tree"].peak_live,
            )
        if sample:
            result.execution["sampling"] = plan.summary()
        # Per-phase wall-time breakdown.  restore/step accrue inside
        # the process that simulates — the parent for serial and
        # batched campaigns; forked workers (whose accumulators die
        # with them) for parallel ones — so in parallel mode only the
        # parent-side classify/store_write phases are visible.
        result.execution["phases"] = {
            name: round(value, 6) for name, value in phases.items()
        }
        for name, value in phases.items():
            registry.observe(f"campaign.phase.{name}_s", value)
        if store is not None:
            store.record_execution(
                campaign_id,
                result.execution,
                status="complete" if not errors else "errors",
            )
        _journal.emit(
            "campaign_finished", name=self.spec.name,
            execution=result.execution,
        )
        return result


def check_run_options(**options):
    """Check ``options`` as :meth:`CampaignRunner.run` does.

    An unknown keyword raises ``TypeError``, a value ``run()`` refuses
    :class:`CampaignError`.  Returns the normalised batch mode.
    """
    bound = inspect.signature(CampaignRunner.run).bind(None, **options)
    bound.apply_defaults()
    opts = bound.arguments
    if opts["on_error"] not in ("raise", "collect"):
        raise CampaignError(
            f"on_error must be 'raise' or 'collect', got {opts['on_error']!r}"
        )
    if opts["resume"] and opts["store"] is None:
        raise CampaignError("resume=True requires a store")
    if opts["sample"] and opts["margin"] is None:
        raise CampaignError(
            "sampled campaigns need a margin (e.g. margin=0.005)"
        )
    if not opts["sample"] and (opts["margin"], opts["chunk"]) != (None, None):
        raise CampaignError("margin and chunk need sample=True")
    return normalize_batch_mode(opts["batch"])


def run_campaign(factory, spec, metric_hooks=(), progress=None, **options):
    """Convenience wrapper: build a runner and run it.

    ``options`` are the keyword arguments of :meth:`CampaignRunner.run`
    (see there for every parameter); unknown ones raise ``TypeError``.
    """
    return CampaignRunner(
        factory, spec, metric_hooks=metric_hooks, progress=progress
    ).run(**options)

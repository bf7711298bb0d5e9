"""Ensemble (batched) execution of fault variants.

A PA/PW sensitivity sweep runs the *same circuit* with the *same
injection site* many times, varying only the pulse parameters.  Those
runs share their entire digital trajectory until (and unless) the
analog disturbance propagates through a comparator — which is exactly
the structure this module exploits: variants of a fault sharing
topology and site are grouped into one **ensemble**, analog node state
becomes a ``(k,)`` float64 array (one column per variant), and every
solver step advances all ``k`` variants at once with vectorized block
evaluation, while the digital side of the kernel runs once, shared.

**Bit-identity is the contract.**  Every vectorized block evaluates
the same elementwise IEEE-754 expressions the scalar path uses (see
:meth:`~repro.analog.lti.LTISystem.step_siso` for why that matters),
so a variant's column is bit-for-bit the trace a scalar run would
have produced — as long as its digital behaviour agrees with the
ensemble.  The moment a variant *wants* a digital transition the
majority does not take (or vice versa), it is **peeled off**: marked
inactive, its column ignored from then on, and the campaign layer
re-runs it on the ordinary scalar warm-start path.  Peeling therefore
never changes results, only how much of the batch speedup a variant
enjoys.

The same applies to numerical divergence: a vectorized mirror of
:class:`~repro.core.budget.NumericalGuard` peels any variant whose
column goes non-finite or out of range, and the scalar re-run raises
the genuine :class:`NumericalDivergenceError` with full diagnostics.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SimulationError
from .trace import _SampleBuffer


class EnsembleUnsupportedError(SimulationError):
    """A solver block cannot participate in batched stepping."""


class EnsembleDrainedError(Exception):
    """Every variant has been peeled; stop stepping the batch.

    Control flow, not a failure: the campaign layer catches this and
    finishes the peeled variants on the scalar path.
    """


class _EnsembleProbeBuffer:
    """Batched replacement for one compiled probe sampler.

    Records sample times into a shared 1-D buffer and node values into
    a ``(samples, k)`` float64 matrix — one column per variant.  The
    host trace is left untouched during the batch; per-variant traces
    are assembled afterwards from the host prefix plus one column.
    """

    __slots__ = ("node", "attr", "min_interval", "last_time", "times",
                 "_values", "_n", "k")

    def __init__(self, probe, k):
        self.node = probe.node
        self.attr = probe.attr
        self.min_interval = probe.min_interval
        self.last_time = probe.last_time
        self.times = _SampleBuffer()
        self._values = np.empty((256, k), dtype=np.float64)
        self._n = 0
        self.k = k

    def sample(self, t):
        if (
            self.last_time is not None
            and self.min_interval > 0
            and t - self.last_time < self.min_interval
        ):
            return
        n = self._n
        values = self._values
        if n == values.shape[0]:
            grown = np.empty((2 * n, self.k), dtype=np.float64)
            grown[:n] = values
            self._values = values = grown
        values[n, :] = getattr(self.node, self.attr)
        self._n = n + 1
        self.times.append(t)
        self.last_time = t

    def column(self, pos):
        """This variant's samples (a copy, 1-D float64)."""
        return self._values[: self._n, pos].copy()


class _SaboteurPlan:
    """Per-saboteur injection table for one batch.

    Trapezoid pulses — the paper's standard SEU shape — are stored
    struct-of-arrays and evaluated for the whole batch with the exact
    elementwise expressions of
    :meth:`~repro.faults.current_pulse.TrapezoidPulse.current`; any
    other transient shape falls back to its scalar ``current`` per
    variant (``math.exp`` and ``np.exp`` do not round identically, so
    the double-exponential pulse must stay scalar to keep bit-identity
    — see :mod:`repro.faults.double_exp`).
    """

    __slots__ = ("k", "_entries", "_trap_pos", "_t0", "_pa", "_rt", "_ft",
                 "_pw", "_dur", "_others", "_t_lo", "_t_hi", "_eval")

    def __init__(self, k):
        self.k = k
        self._entries = {}
        self._trap_pos = None
        self._eval = None
        self._others = []
        self._t_lo = math.inf
        self._t_hi = -math.inf

    def add(self, pos, transient, time):
        if pos in self._entries:
            raise EnsembleUnsupportedError(
                "a batch variant may carry only one injection per saboteur"
            )
        self._entries[pos] = (float(time), transient)
        self._t_lo = min(self._t_lo, float(time))
        self._t_hi = max(self._t_hi, float(time) + transient.duration)

    def freeze(self):
        """Split entries into the vectorized and the per-variant sets."""
        from ..faults.current_pulse import (
            TrapezoidPulse,
            stack_trapezoids,
            trapezoid_currents,
        )

        self._eval = trapezoid_currents
        trap = []
        for pos, (t0, transient) in sorted(self._entries.items()):
            if type(transient) is TrapezoidPulse:
                trap.append((pos, t0, transient))
            else:
                self._others.append((pos, t0, transient))
        if trap:
            self._trap_pos = np.array([p for p, _, _ in trap], dtype=np.intp)
            self._t0 = np.array([t0 for _, t0, _ in trap])
            params = stack_trapezoids([tr for _, _, tr in trap])
            self._pa = params["pa"]
            self._rt = params["rt"]
            self._ft = params["ft"]
            self._pw = params["pw"]
            self._dur = params["duration"]

    def currents(self, t):
        """Per-variant injected current at time ``t`` (``(k,)`` array).

        Returns ``None`` when ``t`` is outside every pulse's support,
        which mirrors the scalar saboteur adding no contribution.
        """
        if not (self._t_lo <= t <= self._t_hi):
            return None
        out = np.zeros(self.k)
        if self._trap_pos is not None:
            tau = t - self._t0
            out[self._trap_pos] = self._eval(
                tau, self._pa, self._rt, self._ft, self._pw, self._dur
            )
        for pos, t0, transient in self._others:
            if t0 <= t < t0 + transient.duration:
                out[pos] = out[pos] + transient.current(t - t0)
        return out


class Ensemble:
    """One batch of fault variants advanced in lockstep.

    Usage (what the campaign runner does per batch)::

        tree.restore(node)  # the batch's checkpoint node
        ens = Ensemble(sim, k, guard=guard)
        for pos, fault in enumerate(batch):
            ens.add_injection(pos, saboteur_for(fault), fault.transient,
                              fault.time)
        ens.attach()
        try:
            sim.run(t_end)
        except EnsembleDrainedError:
            pass
        finally:
            ens.detach()
        for pos in ens.completed():
            traces = {name: ens.variant_trace(tr, pos) for ...}

    :param sim: the simulator (restored to the batch's checkpoint).
    :param size: number of variants ``k``.
    :param guard: optional :class:`NumericalGuard` whose configuration
        is mirrored vectorized (bad variants peel instead of raising).
    """

    def __init__(self, sim, size, guard=None):
        if size < 1:
            raise SimulationError("ensemble needs at least one variant")
        self.sim = sim
        self.size = int(size)
        self.active = np.ones(self.size, dtype=bool)
        self.peeled = {}
        self._n_active = self.size
        self._plans = {}
        self._plan = None
        self._probe_buffers = []
        self._trace_buffers = {}
        self._guard = guard
        self._guard_countdown = guard.check_every if guard is not None else 0
        self._guard_prev = {}
        self._attached = False

    # -- batch construction ----------------------------------------------

    def add_injection(self, pos, saboteur, transient, time):
        """Assign variant ``pos`` the pulse ``transient`` at ``time``."""
        if not 0 <= pos < self.size:
            raise SimulationError(f"variant position {pos} out of range")
        if time < self.sim.now:
            raise SimulationError(
                f"injection at t={time} precedes the batch checkpoint "
                f"t={self.sim.now}"
            )
        plan = self._plans.get(saboteur)
        if plan is None:
            plan = self._plans[saboteur] = _SaboteurPlan(self.size)
        plan.add(pos, transient, time)

    def plan_for(self, saboteur):
        """The injection plan for ``saboteur`` (None: no injections)."""
        return self._plans.get(saboteur)

    def attach(self):
        """Validate the design, promote state and take over stepping.

        :raises EnsembleUnsupportedError: when any solver block can
            neither step batched nor run its scalar step shared; the
            caller falls back to scalar execution.
        """
        solver = self.sim.analog
        if getattr(solver, "_ensemble", None) is not None:
            raise SimulationError("solver already has an attached ensemble")
        plan = []
        for block in solver.evaluation_order():
            fn = getattr(block, "step_ensemble", None)
            supports = getattr(block, "supports_ensemble", None)
            if fn is not None and (supports is None or supports()):
                plan.append((fn, True))
                enter = getattr(block, "enter_ensemble", None)
                if enter is not None:
                    enter(self.size)
            elif getattr(block, "ensemble_safe", False):
                plan.append((block.step, False))
            else:
                raise EnsembleUnsupportedError(
                    f"block {getattr(block, 'path', block)!r} does not "
                    "support batched stepping"
                )
        for plan_obj in self._plans.values():
            plan_obj.freeze()
        self._plan = plan
        self._probe_buffers = [
            _EnsembleProbeBuffer(probe, self.size) for probe in solver._probes
        ]
        self._trace_buffers = {
            id(probe.trace): buf
            for probe, buf in zip(solver._probes, self._probe_buffers)
        }
        solver._ensemble = self
        self._attached = True

    def detach(self):
        """Return stepping to the scalar path (buffers stay readable)."""
        if self._attached:
            self.sim.analog._ensemble = None
            self._attached = False

    # -- peel bookkeeping --------------------------------------------------

    def peel(self, pos, reason):
        """Remove variant ``pos`` from the ensemble."""
        pos = int(pos)
        if self.active[pos]:
            self.active[pos] = False
            self.peeled[pos] = reason
            self._n_active -= 1

    def peel_mask(self, mask, reason):
        """Peel every active variant selected by the boolean ``mask``."""
        for pos in np.nonzero(mask & self.active)[0]:
            self.peel(pos, reason)

    def consensus(self, codes):
        """Majority vote among active variants.

        :param codes: per-variant small non-negative int array (e.g.
            0=hold, 1=rise, 2=fall).
        :returns: ``(chosen, dissent)`` — the winning code and a bool
            mask of active variants that voted differently.  Ties break
            to the smallest code, deterministically.
        """
        act = self.active
        counts = np.bincount(codes[act], minlength=3)
        chosen = int(np.argmax(counts))
        return chosen, act & (codes != chosen)

    def completed(self):
        """Positions of variants that finished inside the batch."""
        return [int(p) for p in np.nonzero(self.active)[0]]

    # -- stepping ----------------------------------------------------------

    def solver_step(self, t, dt):
        """One analog step for all active variants (solver hook).

        :raises EnsembleDrainedError: when no active variant remains.
        """
        # Peeled columns keep free-running with whatever garbage they
        # hold; their values are never read back, but they can produce
        # IEEE warnings (inf - inf, ...) that mean nothing here.
        with np.errstate(all="ignore"):
            for node in self.sim.analog.current_nodes:
                node.i = np.zeros(self.size)
                node._contributions.clear()
            for fn, batched in self._plan:
                if batched:
                    fn(t, dt, self)
                else:
                    fn(t, dt)
            for buf in self._probe_buffers:
                buf.sample(t)
            self._guard_step(t)
        if self._n_active == 0:
            raise EnsembleDrainedError(
                f"all {self.size} variants peeled by t={t:.6g}"
            )

    def _guard_step(self, t):
        """Vectorized mirror of ``NumericalGuard.maybe_check``.

        Same stride and same predicates as the scalar guard, applied
        per column; offending variants peel (their scalar re-run then
        raises the genuine diagnostic).  Shared scalar values going bad
        peel the whole batch.
        """
        guard = self._guard
        if guard is None:
            return
        self._guard_countdown -= 1
        if self._guard_countdown > 0:
            return
        self._guard_countdown = guard.check_every
        max_abs = guard.max_abs
        max_delta = guard.max_step_delta
        for name, node in self.sim.nodes.items():
            value = node.v
            if isinstance(value, np.ndarray):
                bad = ~np.isfinite(value)
                if max_abs is not None:
                    bad |= (value > max_abs) | (value < -max_abs)
                if max_delta is not None:
                    last = self._guard_prev.get(name)
                    if last is not None:
                        bad |= np.abs(value - last) > max_delta
                    self._guard_prev[name] = np.array(value, copy=True)
                if bad.any():
                    self.peel_mask(bad, "numerical-divergence")
            else:
                ok = math.isfinite(value) and (
                    max_abs is None or -max_abs <= value <= max_abs
                )
                if not ok:
                    self.peel_mask(self.active.copy(), "numerical-divergence")

    # -- result extraction -------------------------------------------------

    def variant_trace(self, trace, pos):
        """Variant ``pos``'s private copy of a recorded trace.

        Analog probe traces get the host prefix (everything recorded
        up to the batch checkpoint) plus this variant's batched sample
        column; digital traces — shared by construction for surviving
        variants — are cloned as-is.
        """
        dup = trace.clone()
        buf = self._trace_buffers.get(id(trace))
        if buf is not None:
            dup.extend(buf.times.view(), buf.column(pos))
        return dup

    def __repr__(self):
        return (
            f"<Ensemble k={self.size} active={self._n_active} "
            f"peeled={len(self.peeled)}>"
        )

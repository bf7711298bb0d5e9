"""The mixed-mode simulation kernel.

This module is the substitute for the commercial mixed-mode simulator
used in the paper (Mentor ADVance-MS): a single :class:`Simulator`
couples

* an **event-driven digital engine** — processes with sensitivity
  lists over :class:`~repro.core.signal.Signal` objects, with
  delta-cycle ordering; and
* a **timestep analog solver** (:class:`AnalogSolver`) — behavioural
  blocks evaluated in dataflow order on a fixed nominal timestep, with
  *local timestep refinement windows* so that sub-nanosecond injection
  pulses (RT = 100 ps in the paper's experiments) are resolved without
  paying that resolution over the whole multi-millisecond run.

Both engines share one event queue, so digital events and analog steps
interleave in strict time order.  Analog steps run at a higher priority
within a timestamp, so a digital process waking at time *t* observes
analog node values already advanced to *t*.

The kernel also supports **checkpointing**: ``sim.snapshot()`` captures
the complete state (see :mod:`repro.core.snapshot`) and
``sim.restore(snap)`` rewinds to it, bit-identically.  The campaign
layer uses this to warm-start faulty runs from a golden checkpoint
taken just before each fault's injection time instead of re-simulating
the identical warm-up from t=0.
"""

from __future__ import annotations

from bisect import bisect_right
from contextlib import contextmanager
from time import perf_counter
import heapq

import networkx as nx

from ..obs import metrics as _metrics
from ..obs import tracer as _tracer
from .errors import (
    BudgetExceededError,
    ElaborationError,
    SchedulingError,
    SimulationError,
)
from .events import EventQueue, PRIORITY_ANALOG, PRIORITY_NORMAL
from .node import AnalogNode, CurrentNode
from .signal import Signal
from .snapshot import Snapshot
from .trace import LINEAR, STEP, Trace


class RefinementWindow:
    """A time interval during which the analog solver uses a finer step."""

    __slots__ = ("t0", "t1", "dt")

    def __init__(self, t0, t1, dt):
        if t1 <= t0:
            raise SimulationError(f"empty refinement window [{t0}, {t1}]")
        if dt <= 0:
            raise SimulationError(f"refinement dt must be positive, got {dt}")
        self.t0 = t0
        self.t1 = t1
        self.dt = dt

    def __repr__(self):
        return f"<RefinementWindow [{self.t0:.4g}, {self.t1:.4g}] dt={self.dt:.4g}>"


class _Process:
    """Internal wrapper giving a callback delta-cycle activation."""

    __slots__ = ("fn", "pending", "sim")

    def __init__(self, sim, fn):
        self.sim = sim
        self.fn = fn
        self.pending = False

    def trigger(self, _signal=None):
        if self.pending:
            return
        self.pending = True
        self.sim._queue.push(self.sim.now, self._run, PRIORITY_NORMAL)

    def _run(self):
        self.pending = False
        self.fn()


class _NodeProbe:
    __slots__ = ("node", "trace", "min_interval", "last_time", "attr")

    def __init__(self, node, trace, min_interval, attr):
        self.node = node
        self.trace = trace
        self.min_interval = min_interval
        self.last_time = None
        self.attr = attr

    def sample(self, t):
        if (
            self.last_time is not None
            and self.min_interval > 0
            and t - self.last_time < self.min_interval
        ):
            return
        self.trace.append(t, getattr(self.node, self.attr))
        self.last_time = t

    def compile(self):
        """A per-step sampling callable with pre-bound hot references.

        Undecimated probes (``min_interval == 0``) dominate real
        campaigns; for those the compiled sampler appends straight to
        the trace's backing lists, skipping the interval check, the
        attribute string lookup and the monotonicity check (solver
        time is strictly increasing by construction).  The closures
        bind the list *objects*, which checkpoint restore preserves by
        truncating traces in place.
        """
        if self.min_interval > 0:
            return self.sample
        trace = self.trace
        append_time = trace._times.append
        append_value = trace._values.append
        node = self.node
        if self.attr == "v":
            def sample(t):
                append_time(t)
                append_value(node.v)
                trace._cache = None
        else:
            def sample(t):
                append_time(t)
                append_value(node.i)
                trace._cache = None
        return sample


class AnalogSolver:
    """Fixed-step behavioural analog solver with refinement windows.

    :param sim: owning simulator.
    :param dt_nominal: default timestep in seconds.
    """

    def __init__(self, sim, dt_nominal=1e-9):
        self.sim = sim
        self.dt_nominal = float(dt_nominal)
        self.blocks = []
        self.windows = []
        self.current_nodes = []
        self._probes = []
        self._order = None
        self._last_step_time = None
        self.steps = 0
        self._started = False
        #: Merged window boundaries and the timestep in force between
        #: consecutive boundaries — rebuilt lazily so adding N windows
        #: up front costs one merge, and looked up via bisect instead
        #: of a per-step linear scan over the windows.
        self._boundaries = []
        self._interval_dts = []
        self._schedule_dirty = False
        self._samplers = None
        #: Optional :class:`~repro.core.budget.NumericalGuard` checked
        #: after every solver step; None (the default) costs one
        #: attribute load per step.
        self.guard = None
        #: Optional :class:`~repro.obs.flightrec.FlightRecorder` fed
        #: after every solver step; None (the default) costs one
        #: attribute load per step, same as the guard.
        self.recorder = None
        #: Attached :class:`~repro.core.ensemble.Ensemble` while a
        #: batch of fault variants is stepping vectorized; None (the
        #: default) keeps the scalar per-step path.
        self._ensemble = None

    # -- configuration -----------------------------------------------------

    def add_block(self, block):
        """Register a behavioural block (done by AnalogBlock.__init__)."""
        self.blocks.append(block)
        self._order = None

    def add_refinement_window(self, t0, t1, dt):
        """Use timestep ``dt`` while simulation time is in ``[t0, t1]``."""
        window = RefinementWindow(t0, t1, dt)
        self.windows.append(window)
        self.windows.sort(key=lambda w: w.t0)
        self._schedule_dirty = True
        return window

    def add_probe(self, probe):
        """Register a per-step node sampler (see Simulator.probe)."""
        self._probes.append(probe)
        self._samplers = None

    def _invalidate_schedule(self):
        """Force boundary and sampler recompilation (checkpoint restore)."""
        self._schedule_dirty = True
        self._samplers = None
        if self.guard is not None:
            # A restore rewinds node values; stale step-to-step guard
            # history would read as a huge (spurious) slew.
            self.guard.reset()

    # -- evaluation ordering --------------------------------------------------

    def evaluation_order(self):
        """Blocks in dataflow order.

        Builds a graph with an edge A -> B whenever A writes a node B
        reads, drops the outgoing edges of state blocks (integrators
        hold their output from past inputs, so they legitimately break
        feedback loops), and topologically sorts.  Remaining cycles —
        genuine combinational analog loops — fall back to registration
        order with no error, matching relaxation-style evaluation.
        """
        if self._order is not None:
            return self._order

        graph = nx.DiGraph()
        index = {block: i for i, block in enumerate(self.blocks)}
        graph.add_nodes_from(self.blocks)
        for block in self.blocks:
            if block.is_state:
                continue
            for node in block.write_nodes:
                for reader in node.readers:
                    if reader in index and reader is not block:
                        graph.add_edge(block, reader)
        try:
            ordered = list(nx.topological_sort(graph))
            # Stabilise: among incomparable blocks keep registration
            # order, sorting by longest-path depth then index.
            depth = {}
            for block in ordered:
                preds = list(graph.predecessors(block))
                depth[block] = 0 if not preds else 1 + max(depth[p] for p in preds)
            ordered.sort(key=lambda blk: (depth[blk], index[blk]))
        except nx.NetworkXUnfeasible:
            ordered = list(self.blocks)
        self._order = ordered
        return ordered

    # -- timestep selection ---------------------------------------------------

    def _rebuild_schedule(self):
        """Merge window boundaries into a sorted array with per-interval
        timesteps.

        Uses a sweep with a lazy min-heap of active windows, so the
        rebuild is O(W log W) in the number of windows and every
        subsequent :meth:`dt_at` / :meth:`next_step_time` is a single
        bisect — the per-step O(W) scans this replaces dominated the
        kernel profile for campaigns whose shared refinement windows
        number in the hundreds.
        """
        bounds = sorted(
            {w.t0 for w in self.windows} | {w.t1 for w in self.windows}
        )
        dts = []
        by_start = self.windows  # already sorted by t0
        pointer = 0
        active = []  # (dt, t1) lazy heap of windows covering the sweep point
        for left in bounds[:-1] if bounds else ():
            while pointer < len(by_start) and by_start[pointer].t0 <= left:
                window = by_start[pointer]
                heapq.heappush(active, (window.dt, window.t1))
                pointer += 1
            while active and active[0][1] <= left:
                heapq.heappop(active)
            if active:
                dts.append(min(self.dt_nominal, active[0][0]))
            else:
                dts.append(self.dt_nominal)
        self._boundaries = bounds
        self._interval_dts = dts
        self._schedule_dirty = False

    def dt_at(self, t):
        """The timestep in force at time ``t``."""
        if self._schedule_dirty:
            self._rebuild_schedule()
        bounds = self._boundaries
        if not bounds:
            return self.dt_nominal
        idx = bisect_right(bounds, t) - 1
        if idx < 0 or idx >= len(self._interval_dts):
            return self.dt_nominal
        return self._interval_dts[idx]

    def next_step_time(self, t):
        """The time of the step after one taken at ``t``.

        Lands exactly on upcoming window boundaries so no part of a
        refinement window is skipped over at the coarse step.
        """
        candidate = t + self.dt_at(t)
        bounds = self._boundaries
        idx = bisect_right(bounds, t)
        if idx < len(bounds) and bounds[idx] < candidate:
            return bounds[idx]
        return candidate

    # -- stepping --------------------------------------------------------------

    def start(self):
        """Schedule the first analog step (at the current sim time)."""
        if self._started or not self.blocks:
            return
        self._started = True
        self.sim._queue.push(self.sim.now, self._step_event, PRIORITY_ANALOG)

    def _compile_samplers(self):
        self._samplers = [probe.compile() for probe in self._probes]
        return self._samplers

    def _step_event(self):
        t = self.sim.now
        last = self._last_step_time
        dt = 0.0 if last is None else t - last
        self._last_step_time = t
        self.steps += 1

        ensemble = self._ensemble
        if ensemble is not None:
            # Batched variant stepping: the ensemble evaluates every
            # block over all variant columns at once, records into its
            # own buffers and runs its vectorized guard mirror.  The
            # next step is scheduled first so an EnsembleDrainedError
            # leaves a resumable queue.
            self.sim._queue.push(
                self.next_step_time(t), self._step_event, PRIORITY_ANALOG
            )
            ensemble.solver_step(t, dt)
            return

        for node in self.current_nodes:
            node.clear_current()
        order = self._order
        if order is None:
            order = self.evaluation_order()
        for block in order:
            block.step(t, dt)
        samplers = self._samplers
        if samplers is None:
            samplers = self._compile_samplers()
        for sample in samplers:
            sample(t)
        guard = self.guard
        if guard is not None:
            guard.maybe_check(self.sim, t)
        recorder = self.recorder
        if recorder is not None:
            recorder.record_step(self.sim, t)

        self.sim._queue.push(self.next_step_time(t), self._step_event, PRIORITY_ANALOG)


class Simulator:
    """Top-level mixed-mode simulator.

    Typical use::

        sim = Simulator(dt=1e-9)
        pll = PLL(sim, "pll", ...)          # builds components
        vctrl = sim.probe(pll.vctrl)        # record a node
        sim.run(0.2e-3)                     # simulate 0.2 ms

    A supervised run passes its ceilings with the call,
    ``sim.run(until, budget=RunBudget(...))``; nothing stays armed on
    the simulator between calls.

    :param dt: nominal analog timestep in seconds.
    :param t_start: initial simulation time.
    """

    def __init__(self, dt=1e-9, t_start=0.0):
        self.now = float(t_start)
        self._queue = EventQueue()
        self.analog = AnalogSolver(self, dt_nominal=dt)
        self.signals = {}
        self.nodes = {}
        self.components = []
        self._components_by_path = {}
        self._processes = []
        self._traces = []
        self._finished = False
        self._elaboration_mark = None

    # -- registries (called from Signal/Node/Component constructors) -------

    def _register_signal(self, signal):
        if signal.name in self.signals:
            raise ElaborationError(f"duplicate signal name {signal.name!r}")
        self.signals[signal.name] = signal

    def _register_node(self, node):
        if node.name in self.nodes:
            raise ElaborationError(f"duplicate node name {node.name!r}")
        self.nodes[node.name] = node
        if isinstance(node, CurrentNode):
            self.analog.current_nodes.append(node)

    def _register_component(self, component):
        self.components.append(component)
        # First registration wins, matching the old linear scan's
        # behaviour when sibling-unchecked paths collide.
        self._components_by_path.setdefault(component.path, component)

    # -- factories --------------------------------------------------------

    def signal(self, name, init=None, **kwargs):
        """Create a named digital signal."""
        from .logic import Logic

        if init is None:
            init = Logic.U
        return Signal(self, name, init=init, **kwargs)

    def node(self, name, init=0.0):
        """Create a named analog voltage node."""
        return AnalogNode(self, name, init=init)

    def current_node(self, name, init=0.0):
        """Create a named current-summing node (injection target)."""
        return CurrentNode(self, name, init=init)

    # -- scheduling ----------------------------------------------------------

    def schedule(self, delay, fn):
        """Run ``fn`` after ``delay`` seconds of simulated time."""
        if delay < 0:
            raise SchedulingError(f"negative delay {delay}")
        return self._queue.push(self.now + delay, fn, PRIORITY_NORMAL)

    def at(self, time, fn):
        """Run ``fn`` at absolute simulated ``time``.

        :raises SchedulingError: when ``time`` is in the past.
        """
        if time < self.now:
            raise SchedulingError(f"time {time} is before now ({self.now})")
        return self._queue.push(time, fn, PRIORITY_NORMAL)

    def every(self, period, fn, start=None):
        """Run ``fn`` periodically; ``fn`` may return False to stop."""
        if period <= 0:
            raise SchedulingError(f"period must be positive, got {period}")
        first = self.now + period if start is None else start

        def tick():
            if fn() is False:
                return
            self._queue.push(self.now + period, tick, PRIORITY_NORMAL)

        return self._queue.push(first, tick, PRIORITY_NORMAL)

    def add_process(self, fn, sensitivity=()):
        """Register an event-driven process.

        ``fn`` runs once at the current time (initialisation, like a
        VHDL process) and then whenever any signal in ``sensitivity``
        changes, at most once per delta cycle.
        """
        proc = _Process(self, fn)
        self._processes.append(proc)
        for sig in sensitivity:
            sig.on_change(proc.trigger)
        proc.trigger()
        return proc

    # -- probing -----------------------------------------------------------

    def probe(self, target, name=None, min_interval=0.0):
        """Record a signal or analog node into a :class:`Trace`.

        Digital signals are event-sampled; analog nodes are sampled on
        every solver step (optionally decimated via ``min_interval``).
        """
        if isinstance(target, Signal):
            trace = Trace(name or target.name, interp=STEP)
            trace.append(self.now, target.value)
            target.on_change(lambda sig: trace.append(self.now, sig.value))
            self._traces.append(trace)
            return trace
        if isinstance(target, AnalogNode):
            trace = Trace(name or target.name, interp=LINEAR)
            self.analog.add_probe(_NodeProbe(target, trace, min_interval, "v"))
            self._traces.append(trace)
            return trace
        raise SimulationError(f"cannot probe {target!r}")

    def probe_current(self, node, name=None, min_interval=0.0):
        """Record the summed current of a :class:`CurrentNode`."""
        if not isinstance(node, CurrentNode):
            raise SimulationError(f"{node!r} is not a CurrentNode")
        trace = Trace(name or f"{node.name}.i", interp=LINEAR)
        self.analog.add_probe(_NodeProbe(node, trace, min_interval, "i"))
        self._traces.append(trace)
        return trace

    # -- running ------------------------------------------------------------

    def run(self, until, inclusive=True, budget=None):
        """Advance the simulation to absolute time ``until``.

        May be called repeatedly with increasing times.  Digital events
        and analog steps execute in time order; at ``until`` the run
        stops with all events at or before ``until`` processed.

        :param inclusive: when False, events scheduled exactly at
            ``until`` are left pending and ``now`` still advances to
            ``until``.  Checkpointing uses this to capture state
            *before* the delta cycles of the checkpoint timestamp, so
            a fault injected exactly at that time replays in the same
            order as in an uninterrupted run.
        :param budget: optional :class:`~repro.core.budget.RunBudget`
            bounding this call.
        :raises BudgetExceededError: the budget tripped; the run
            stops at the event that would have exceeded it.
        """
        if _metrics.REGISTRY.enabled or _tracer.TRACER.enabled:
            return self._run_observed(until, inclusive, budget)
        return self._run_loop(until, inclusive, budget)

    #: Longest slice of a budgeted run, in events: the wall clock is
    #: read once per this many.
    _WALL_CHECK_STRIDE = 256

    def _run_loop(self, until, inclusive, budget=None):
        """The uninstrumented event loop (see :meth:`run`); a budgeted
        run dispatches in slices (see :meth:`_next_slice`)."""
        if until < self.now:
            raise SchedulingError(
                f"cannot run to {until}; simulation already at {self.now}"
            )
        queue = self._queue
        limit = None
        if budget is not None and not budget.empty:
            limit = 0   # the first slice only looks for a due event
            start = (queue.executed, self.analog.steps,
                     perf_counter() if budget.max_wall_s is not None
                     else 0.0)
        self.analog.start()
        while queue.dispatch(self, until, inclusive, limit):
            limit = self._next_slice(budget, *start)
        self.now = until

    def _next_slice(self, budget, start_events, start_steps, wall_start):
        """Check ``budget`` where a slice stopped with an event still
        due; returns the length of the next slice, in events.

        A slice is no longer than the events or analog steps the
        budget has left (an event takes at most one step) and ends at
        each multiple of :data:`_WALL_CHECK_STRIDE` events, so a
        ceiling is only ever reached at the end of one.  The event,
        step and wall ceilings are checked in that order, the wall
        clock only at a stride multiple.

        :raises BudgetExceededError: the run became a ``timeout``.
        """
        max_events = budget.max_events
        max_steps = budget.max_steps
        max_wall = budget.max_wall_s
        events = self._queue.executed - start_events
        steps = self.analog.steps - start_steps
        if max_events is not None and events >= max_events:
            raise BudgetExceededError(
                f"run exceeded its event budget "
                f"({max_events} events) at t={self.now:.6g}",
                resource="events", limit=max_events,
                used=events, at_time=self.now,
            )
        if max_steps is not None and steps >= max_steps:
            raise BudgetExceededError(
                f"run exceeded its analog step budget "
                f"({max_steps} steps) at t={self.now:.6g}",
                resource="steps", limit=max_steps,
                used=steps, at_time=self.now,
            )
        stride = self._WALL_CHECK_STRIDE
        if max_wall is not None and events % stride == 0:
            elapsed = perf_counter() - wall_start
            if elapsed > max_wall:
                raise BudgetExceededError(
                    f"run exceeded its wall-clock budget "
                    f"({max_wall:g} s) at t={self.now:.6g}",
                    resource="wall", limit=max_wall,
                    used=elapsed, at_time=self.now,
                )
        limit = stride - events % stride
        if max_events is not None:
            limit = min(limit, max_events - events)
        if max_steps is not None:
            limit = min(limit, max_steps - steps)
        return limit

    def _run_observed(self, until, inclusive, budget=None):
        """Instrumented :meth:`run`: delta-count events and steps.

        The event loop itself stays untouched — dispatch and step
        counts already exist (``events_executed``, ``analog_steps``),
        so observability records their *deltas* around the loop
        instead of paying per-event bookkeeping.
        """
        events_before = self._queue.executed
        steps_before = self.analog.steps
        wall_start = perf_counter()
        with _tracer.TRACER.span("kernel.run", t_from=self.now, t_to=until):
            self._run_loop(until, inclusive, budget)
        registry = _metrics.REGISTRY
        registry.inc("kernel.events", self._queue.executed - events_before)
        registry.inc("kernel.analog_steps", self.analog.steps - steps_before)
        registry.observe("kernel.run_wall_s", perf_counter() - wall_start)

    def run_for(self, duration):
        """Advance the simulation by ``duration`` seconds."""
        self.run(self.now + duration)

    # -- checkpointing -------------------------------------------------------

    def snapshot(self):
        """Capture the complete kernel state (see :class:`Snapshot`)."""
        if not (_metrics.REGISTRY.enabled or _tracer.TRACER.enabled):
            return Snapshot.capture(self)
        wall_start = perf_counter()
        with _tracer.TRACER.span("kernel.snapshot", at=self.now):
            snap = Snapshot.capture(self)
        _metrics.REGISTRY.inc("kernel.snapshots")
        _metrics.REGISTRY.observe(
            "kernel.snapshot_wall_s", perf_counter() - wall_start
        )
        return snap

    def restore(self, snap):
        """Rewind to a state captured with :meth:`snapshot`.

        Restoring is bit-exact: resuming the run reproduces the same
        events, analog steps and trace samples an uninterrupted run
        would have produced.  The ``events_executed`` and
        ``analog_steps`` counters are *not* rewound — they keep
        counting real work across restores, which is what campaign
        throughput accounting needs.
        """
        if not (_metrics.REGISTRY.enabled or _tracer.TRACER.enabled):
            snap.apply(self)
            return self
        wall_start = perf_counter()
        with _tracer.TRACER.span("kernel.restore", to=snap.time):
            snap.apply(self)
        _metrics.REGISTRY.inc("kernel.restores")
        _metrics.REGISTRY.observe(
            "kernel.restore_wall_s", perf_counter() - wall_start
        )
        return self

    def mark_elaboration(self):
        """Declare the design fully elaborated (for injection ordering).

        Records the event-sequence watermark separating construction-
        time events from run-time events.  :meth:`injection_band` uses
        it to give late-applied faults the delta-cycle slot they would
        have had if applied before the run started.
        """
        self._elaboration_mark = self._queue.mark()
        return self._elaboration_mark

    @contextmanager
    def injection_band(self):
        """Events scheduled inside sort as if applied pre-run.

        After restoring a mid-run checkpoint, a fault's events would
        normally receive sequence numbers *after* every pending event —
        but in a cold run the fault is armed before the run, so its
        events at a shared timestamp execute before run-scheduled
        ones.  Within this context, pushes draw fractional sequence
        numbers just below the :meth:`mark_elaboration` watermark,
        reproducing the cold-run order exactly.
        """
        if self._elaboration_mark is None:
            raise SimulationError(
                "mark_elaboration() must be called before injection_band()"
            )
        self._queue.begin_epoch(self._elaboration_mark)
        try:
            yield self
        finally:
            self._queue.end_epoch()

    # -- introspection ---------------------------------------------------------

    @property
    def events_executed(self):
        """Total number of events executed so far."""
        return self._queue.executed

    @property
    def analog_steps(self):
        """Total number of analog solver steps taken so far."""
        return self.analog.steps

    def find_component(self, path):
        """Look up a component by full hierarchical path (O(1))."""
        component = self._components_by_path.get(path)
        if component is None:
            raise ElaborationError(f"no component at path {path!r}")
        return component

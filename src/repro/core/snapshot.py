"""Kernel state checkpointing.

A :class:`Snapshot` captures everything the mixed-mode kernel needs to
resume a simulation from an intermediate time as if it had never
stopped: signal values and driver contributions, analog node state,
per-component behavioural state (through
:meth:`~repro.core.component.Component.state_dict`), the pending event
queue, solver bookkeeping and recorded trace lengths.

The design constraint is *bit-identity*: a run restored from a
snapshot must produce traces exactly equal — no tolerance — to an
uninterrupted run, because the campaign layer compares golden and
faulty waveforms sample by sample.  Three details make that work:

* event objects are shared between the snapshot and the live heap, so
  callbacks keep their closed-over references; the snapshot only
  restores the heap membership and the mutable ``cancelled`` flags;
* the event sequence counters (normal and injection band) are
  restored, so replayed events receive the same insertion order they
  had in the original run; and
* traces are truncated *in place* (the sample buffers survive), so
  bound-method fast paths and probe listeners stay valid.

Snapshots are tied to the simulator instance they were captured from:
they hold direct references to its signals, nodes, components and
events.  They cannot be applied to a different simulator, but they
*do* travel across ``fork()`` — a forked campaign worker inherits the
design and its snapshots and can restore and run independently, which
is how warm-started campaigns parallelise.
"""

from __future__ import annotations

import numpy as np

from .errors import SimulationError
from .node import CurrentNode


def _values_equal(a, b):
    """Strict structural equality over snapshot state payloads.

    Floats and numpy arrays compare bitwise (``-0.0 != 0.0``, equal-NaN
    by bit pattern) because convergence detection must never declare
    two states equal when downstream arithmetic could diverge.
    """
    if a is b:
        return True
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        if not (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)):
            return False
        return (
            a.dtype == b.dtype
            and a.shape == b.shape
            and a.tobytes() == b.tobytes()
        )
    if isinstance(a, dict):
        if not isinstance(b, dict) or a.keys() != b.keys():
            return False
        return all(_values_equal(a[key], b[key]) for key in a)
    if isinstance(a, (list, tuple)):
        if type(a) is not type(b) or len(a) != len(b):
            return False
        return all(_values_equal(x, y) for x, y in zip(a, b))
    if isinstance(a, float) and isinstance(b, float):
        return a.hex() == b.hex()
    try:
        return bool(a == b)
    except Exception:
        return False


def _callbacks_equal(a, b):
    """Semantic identity of two scheduled callbacks.

    Event callbacks are bound methods (``ClockGen._rise``), reused
    closure objects (``sim.every``'s tick) or one-shot lambdas; two
    distinct creations of the same logical callback share the bound
    target / code object, while different callbacks never do.  Closure
    cells compare by identity (components, signals — whose behavioural
    state the caller compares separately) or by value for plain
    scalars.  Unknown shapes compare unequal, which only costs the
    early-out, never correctness.
    """
    if a is b:
        return True
    func_a = getattr(a, "__func__", None)
    func_b = getattr(b, "__func__", None)
    if func_a is not None or func_b is not None:
        return func_a is func_b and getattr(a, "__self__", None) is getattr(
            b, "__self__", None
        )
    code_a = getattr(a, "__code__", None)
    if code_a is None or code_a is not getattr(b, "__code__", None):
        return False
    cells_a = getattr(a, "__closure__", None) or ()
    cells_b = getattr(b, "__closure__", None) or ()
    if len(cells_a) != len(cells_b):
        return False
    for cell_a, cell_b in zip(cells_a, cells_b):
        va, vb = cell_a.cell_contents, cell_b.cell_contents
        if va is vb:
            continue
        if (
            isinstance(va, (int, float, str, bool, type(None)))
            and type(va) is type(vb)
            and va == vb
        ):
            continue
        return False
    return True


class Snapshot:
    """An immutable capture of a :class:`~repro.core.kernel.Simulator`.

    Build one with :meth:`capture` (or ``sim.snapshot()``); apply it
    with ``sim.restore(snap)``.  A snapshot may be restored any number
    of times — the campaign runner restores the same golden checkpoint
    once per fault.
    """

    __slots__ = (
        "sim",
        "time",
        "queue_state",
        "signal_states",
        "signal_registry",
        "node_states",
        "node_registry",
        "component_states",
        "components",
        "component_index",
        "process_states",
        "processes",
        "trace_lengths",
        "solver_state",
    )

    def __init__(self, sim):
        self.sim = sim
        self.time = sim.now
        self.queue_state = sim._queue.capture()

        self.signal_registry = dict(sim.signals)
        self.signal_states = [
            (signal, signal._state()) for signal in self.signal_registry.values()
        ]
        self.node_registry = dict(sim.nodes)
        self.node_states = [
            (node, node._state()) for node in self.node_registry.values()
        ]

        self.components = list(sim.components)
        self.component_index = dict(sim._components_by_path)
        self.component_states = [
            (component, component.state_dict()) for component in self.components
        ]

        self.processes = list(sim._processes)
        self.process_states = [proc.pending for proc in self.processes]

        self.trace_lengths = [(trace, len(trace)) for trace in sim._traces]

        solver = sim.analog
        self.solver_state = (
            list(solver.blocks),
            list(solver.windows),
            list(solver.current_nodes),
            list(solver._probes),
            [probe.last_time for probe in solver._probes],
            solver._last_step_time,
            solver._started,
        )

    @classmethod
    def capture(cls, sim):
        """Capture the full kernel state of ``sim``."""
        return cls(sim)

    def apply(self, sim):
        """Rewind ``sim`` to this snapshot's state.

        :raises SimulationError: when applied to a different simulator
            than the one captured.
        """
        if sim is not self.sim:
            raise SimulationError(
                "snapshot belongs to a different simulator instance"
            )

        sim.now = self.time
        sim._queue.restore(self.queue_state)

        sim.signals = dict(self.signal_registry)
        for signal, state in self.signal_states:
            signal._load_state(state)
        sim.nodes = dict(self.node_registry)
        for node, state in self.node_states:
            node._load_state(state)

        sim.components = list(self.components)
        sim._components_by_path = dict(self.component_index)
        for component, state in self.component_states:
            component.load_state_dict(state)

        sim._processes = list(self.processes)
        for proc, pending in zip(self.processes, self.process_states):
            proc.pending = pending

        # Traces are truncated in place so listener closures and the
        # solver's compiled samplers keep pointing at live buffers.
        sim._traces = [trace for trace, _ in self.trace_lengths]
        for trace, length in self.trace_lengths:
            trace.truncate(length)

        solver = sim.analog
        (
            blocks,
            windows,
            current_nodes,
            probes,
            probe_last_times,
            last_step_time,
            started,
        ) = self.solver_state
        solver.blocks = list(blocks)
        solver.windows = list(windows)
        solver.current_nodes = list(current_nodes)
        solver._probes = list(probes)
        for probe, last_time in zip(solver._probes, probe_last_times):
            probe.last_time = last_time
        solver._last_step_time = last_step_time
        solver._started = started
        solver._order = None
        solver._invalidate_schedule()
        return sim

    def matches_live(self, sim):
        """True when ``sim``'s live state equals this capture.

        The *re-convergence* test batched digital campaigns rely on: a
        mutant whose flipped bit has been overwritten (shifted out,
        reloaded, resynchronised) is back on the golden trajectory the
        moment its full kernel state equals the golden snapshot at the
        same time — determinism then guarantees the rest of its run is
        sample-identical to golden, so simulation can stop and the
        golden tail be spliced in.

        The comparison covers everything that feeds future behaviour:
        signal values/previous values/forces/driver contributions,
        node values and currents, component ``state_dict`` captures,
        process pending flags, and the pending event queue (by time,
        priority and callback identity — relative order included).
        Purely observational bookkeeping — signal change counters and
        last-change times, executed-event tallies, trace lengths — is
        deliberately excluded: a healed mutant legitimately toggled
        more often than golden, and none of those counters feed the
        simulation.  The result errs on the side of ``False``: a
        missed match costs speed, never correctness.
        """
        if sim is not self.sim or sim.now != self.time:
            return False
        # Live fields against the captured ``_state()`` tuples: a
        # signal's (value, prev, last change time, change count, forced,
        # forced value, drivers, driver values, ...), whose counters are
        # observational and registrations shared by construction; a
        # node's (v, writers, readers); a current node's (node state,
        # i, contributions).
        for signal, state in self.signal_states:
            if (signal._value != state[0] or signal._prev != state[1]
                    or signal._forced != state[4]
                    or signal._forced_value != state[5]
                    or len(signal._drivers) != len(state[7])):
                return False
            for driver, value in zip(signal._drivers, state[7]):
                if driver.value is not value and not _values_equal(
                        driver.value, value):
                    return False
        for node, state in self.node_states:
            if isinstance(node, CurrentNode):
                state, current, contributions = state
                if not (_values_equal(node.i, current) and _values_equal(
                        node._contributions, contributions)):
                    return False
            v, writers, readers = state
            if (not _values_equal(node.v, v) or node.writers != writers
                    or node.readers != readers):
                return False
        for component, state in self.component_states:
            if not _values_equal(component.state_dict(), state):
                return False
        for proc, pending in zip(self.processes, self.process_states):
            if proc.pending != pending:
                return False
        queue = sim._queue
        captured = queue.pending(self.queue_state)
        live_events = queue.pending()
        if len(captured) != len(live_events):
            return False
        for want, have in zip(captured, live_events):
            if want.time != have.time or want.priority != have.priority:
                return False
            if not _callbacks_equal(want.callback, have.callback):
                return False
        return True

    def __repr__(self):
        events = len(self.queue_state[0])
        return (
            f"<Snapshot t={self.time:.6g} events={events} "
            f"signals={len(self.signal_states)} nodes={len(self.node_states)} "
            f"components={len(self.component_states)}>"
        )

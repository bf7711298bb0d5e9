"""Failure flight recorder: bounded per-run history + post-mortems.

When a faulty run dies — budget timeout, numerical divergence, a
crashed worker — the classification row says *that* it died but not
*what the simulation looked like* when it did.  The flight recorder
fills that gap the way an aircraft FDR does: a bounded ring buffer of
recent solver steps rides along with the run at negligible cost, and
on failure its contents are dumped — together with the live analog
node values, the pending event-queue tail, the active fault's
parameters and the armed budget's state — to a per-fault post-mortem
JSON file that the campaign store references from the run's row.

The recorder follows the same opt-in discipline as the numerical
guard: ``sim.analog.recorder`` is ``None`` by default (one attribute
load per solver step), and the campaign runner arms a fresh recorder
per faulty run only when a post-mortem directory is configured.
Within an armed run, recording is strided (every ``stride``-th solver
step) and each entry is a flat tuple append — no dict churn on the
step path.

Post-mortems are written atomically (temp file + ``os.replace``) so a
second interrupt can never leave a truncated JSON body, and their
paths are deterministic (:func:`postmortem_path`) so the parent
process can locate a post-mortem a now-dead worker wrote.
"""

from __future__ import annotations

import json
import os
from time import perf_counter

from ..core.errors import ReproError

#: Post-mortem file schema version.
POSTMORTEM_VERSION = 1

#: Default ring capacity (recorded solver steps retained).
DEFAULT_CAPACITY = 64

#: Default solver-step stride between ring entries.
DEFAULT_STRIDE = 8

#: Pending events included in the event-queue tail of a dump.
QUEUE_TAIL_EVENTS = 16

#: Trailing samples per probe trace included in a dump.
TRACE_TAIL_SAMPLES = 16


def postmortem_path(directory, index):
    """The deterministic post-mortem path for fault ``index``.

    Deterministic on purpose: a SIGKILLed worker cannot report where
    it would have written, so both the in-run recorder and the
    supervisor's death report target the same name, and the store can
    reference it without any cross-process handshake.
    """
    return os.path.join(str(directory), f"fault_{index:05d}.postmortem.json")


def write_postmortem(directory, index, payload):
    """Atomically write one post-mortem JSON file; returns its path."""
    os.makedirs(str(directory), exist_ok=True)
    path = postmortem_path(directory, index)
    tmp = path + ".tmp"
    with open(tmp, "w") as handle:
        json.dump(payload, handle, indent=2, default=str)
    os.replace(tmp, path)
    return path


class FlightRecorder:
    """Bounded in-run history of analog solver steps.

    Installed on an :class:`~repro.core.kernel.AnalogSolver` via its
    ``recorder`` attribute; the solver calls :meth:`record_step` after
    each step.  Every ``stride``-th call appends ``(t, v0, v1, ...)``
    — one float per registered analog node, in a stable order captured
    on first use — into a ring of ``capacity`` entries.

    :param capacity: ring size (entries retained).
    :param stride: solver steps between recorded entries (>= 1).
    """

    __slots__ = ("capacity", "stride", "_countdown", "_ring", "_head",
                 "_node_names", "_nodes", "steps_seen")

    def __init__(self, capacity=DEFAULT_CAPACITY, stride=DEFAULT_STRIDE):
        if capacity < 1:
            raise ReproError(f"capacity must be >= 1, got {capacity!r}")
        if stride < 1:
            raise ReproError(f"stride must be >= 1, got {stride!r}")
        self.capacity = int(capacity)
        self.stride = int(stride)
        self._countdown = 1          # record the first step immediately
        self._ring = []
        self._head = 0
        self._node_names = None
        self._nodes = None
        self.steps_seen = 0

    def _bind(self, sim):
        names = sorted(sim.nodes)
        self._node_names = names
        self._nodes = [sim.nodes[name] for name in names]

    def record_step(self, sim, t):
        """Solver hook: fold one step into the ring (strided)."""
        self.steps_seen += 1
        self._countdown -= 1
        if self._countdown > 0:
            return
        self._countdown = self.stride
        if self._nodes is None:
            self._bind(sim)
        entry = (t,) + tuple(node.v for node in self._nodes)
        if len(self._ring) < self.capacity:
            self._ring.append(entry)
        else:
            self._ring[self._head] = entry
            self._head = (self._head + 1) % self.capacity

    def entries(self):
        """Recorded ``(t, *values)`` tuples, oldest first."""
        return self._ring[self._head:] + self._ring[: self._head]

    # -- dumping -----------------------------------------------------------

    def snapshot(self, sim):
        """The recorder's JSON-ready view of a (possibly dying) sim.

        Captured pieces: the ring (recent strided solver steps), the
        node values *now*, the next pending events, and the trailing
        samples of every kernel trace.  All reads are defensive — a
        diverged sim may hold NaN/Inf values, which serialize as
        strings via ``default=str``.
        """
        names = self._node_names
        if names is None and sim is not None:
            self._bind(sim)
            names = self._node_names
        queue_tail = []
        if sim is not None:
            for event in sim._queue.pending()[:QUEUE_TAIL_EVENTS]:
                callback = event.callback
                queue_tail.append({
                    "t": event.time,
                    "priority": event.priority,
                    "callback": getattr(
                        callback, "__qualname__",
                        getattr(callback, "__name__", repr(callback)),
                    ),
                })
        trace_tails = {}
        if sim is not None:
            for trace in sim._traces:
                times = trace._times.raw_list()[-TRACE_TAIL_SAMPLES:]
                values = trace.raw_values[-TRACE_TAIL_SAMPLES:]
                trace_tails[trace.name] = [
                    [float(t), value] for t, value in zip(times, values)
                ]
        return {
            "t_now": sim.now if sim is not None else None,
            "node_names": list(names or ()),
            "nodes_now": (
                {name: node.v for name, node in sim.nodes.items()}
                if sim is not None else {}
            ),
            "solver_steps": [list(entry) for entry in self.entries()],
            "solver_stride": self.stride,
            "steps_seen": self.steps_seen,
            "event_queue_tail": queue_tail,
            "trace_tails": trace_tails,
        }


def build_postmortem(sim, recorder, fault=None, index=None, status=None,
                     error=None, budget=None, attempt=None):
    """Assemble the full post-mortem payload for one failed run."""
    from ..store.serialize import fault_to_dict

    payload = {
        "postmortem_version": POSTMORTEM_VERSION,
        "written_at_wall": perf_counter(),
        "index": index,
        "status": status,
        "attempt": attempt,
        "error": None if error is None else (
            f"{type(error).__name__}: {error}"
        ),
        "fault": None,
        "budget": None,
    }
    if fault is not None:
        payload["fault"] = {"describe": fault.describe()}
        try:
            payload["fault"]["descriptor"] = fault_to_dict(fault)
        except Exception:
            pass  # exotic fault objects still get the describe() line
    if budget is not None:
        payload["budget"] = {
            "describe": budget.describe(),
            "max_wall_s": budget.max_wall_s,
            "max_events": budget.max_events,
            "max_steps": budget.max_steps,
        }
    recorder = recorder or FlightRecorder()
    payload["recorder"] = recorder.snapshot(sim)
    return payload


def write_worker_postmortem(directory, index, fault=None, status=None,
                            error=None, pid=None, exitcode=None,
                            last_heartbeat=None):
    """Post-mortem for a run whose worker died without reporting.

    A SIGKILLed worker leaves no in-process recorder to dump, so the
    supervising parent writes what it knows: the worker's identity and
    exit code, the fault it was running, and the last heartbeat it
    sent (which carries the phase the run was in).  Returns the path.
    """
    payload = {
        "postmortem_version": POSTMORTEM_VERSION,
        "kind": "worker_death",
        "index": index,
        "status": status,
        "error": error,
        "fault": None if fault is None else {"describe": fault.describe()},
        "worker": {"pid": pid, "exitcode": exitcode},
        "last_heartbeat": last_heartbeat,
    }
    return write_postmortem(directory, index, payload)

"""Discrete-event queue for the mixed-mode kernel.

The queue orders callbacks by (time, priority, insertion order).  Two
events at the same time execute in insertion order, which gives the
delta-cycle semantics the digital layer relies on: a zero-delay signal
update scheduled while processing time *t* runs later within the same
timestamp, never "in the past".

Insertion order is materialised as a monotonically increasing sequence
number, and the heap holds ``(time, priority, seq, event)`` tuples, so
every heap compare runs in C.  Only this module knows that layout; the
rest of the kernel dispatches through :meth:`EventQueue.dispatch` and
reads pending events through :meth:`EventQueue.pending`.
Checkpoint/warm-start support (see :mod:`repro.core.snapshot`) adds two
refinements:

* the counter is a plain integer (`next_seq`) so a snapshot can record
  and restore it, keeping replayed runs sequence-identical with an
  uninterrupted run; and
* an *epoch band*: between :meth:`begin_epoch` and :meth:`end_epoch`,
  pushed events receive fractional sequence numbers just below a
  recorded mark.  A fault applied after restoring a mid-run snapshot
  then sorts exactly where it would have in a cold run — after all
  elaboration-time events but before every event scheduled while the
  simulation was running.  The band counter runs on across bands (and
  is captured and restored with the heap), so every seq is unique and
  a heap compare never reaches the event objects.
"""

from __future__ import annotations

import heapq

from .errors import SchedulingError, SimulationError

#: Priority classes.  Analog solver steps run *before* ordinary digital
#: activity at the same timestamp so that digital processes sampling
#: analog nodes observe values consistent with the current time.
PRIORITY_ANALOG = 0
PRIORITY_NORMAL = 1
PRIORITY_MONITOR = 2

#: Spacing of fractional sequence numbers inside an epoch band.  The
#: band spans half a unit below the mark, so up to ``0.5 / _EPOCH_STEP``
#: band events fit (between restores) before the band would leak into
#: normal sequence space.
_EPOCH_STEP = 2.0 ** -20


class Event:
    """A scheduled callback.  Cancellable via :meth:`cancel`."""

    __slots__ = ("time", "priority", "callback", "cancelled")

    def __init__(self, time, priority, callback):
        self.time = time
        self.priority = priority
        self.callback = callback
        self.cancelled = False

    def cancel(self):
        """Prevent the callback from running; safe to call repeatedly."""
        self.cancelled = True

    def __repr__(self):
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time:.6g} prio={self.priority} {state}>"


class EventQueue:
    """Min-heap of ``(time, priority, seq, event)`` entries."""

    def __init__(self):
        self._heap = []
        self._next_seq = 0
        #: Base of the open epoch band, or None outside one.
        self._band = None
        #: Band seqs handed out since the last restore, across bands.
        self._band_count = 0
        self.executed = 0

    # -- sequence numbering ------------------------------------------------

    def mark(self):
        """The sequence number the next normal push would receive."""
        return self._next_seq

    def begin_epoch(self, mark):
        """Hand out fractional seqs in ``(mark - 0.5, mark)`` until
        :meth:`end_epoch`.

        Events pushed inside the epoch order after everything pushed
        before ``mark`` and before everything pushed after it — the
        slot a fault-injection event occupies when it is applied
        between elaboration and the run.  A later band continues where
        the previous one stopped, so two bands' events keep their
        insertion order.
        """
        self._band = float(mark) - 0.5

    def end_epoch(self):
        """Return to normal integer sequence numbering."""
        self._band = None

    # -- scheduling --------------------------------------------------------

    def push(self, time, callback, priority=PRIORITY_NORMAL):
        """Schedule ``callback`` at absolute ``time``; returns the Event."""
        if self._band is None:
            seq = self._next_seq
            self._next_seq = seq + 1
        else:
            n = self._band_count
            if (n + 1) * _EPOCH_STEP >= 0.5:
                raise SchedulingError("epoch sequence band exhausted")
            self._band_count = n + 1
            seq = self._band + n * _EPOCH_STEP
        event = Event(time, priority, callback)
        heapq.heappush(self._heap, (time, priority, seq, event))
        return event

    def dispatch(self, sim, until, inclusive=True, limit=None):
        """Run live events due by ``until``, in heap order.

        The kernel's only event loop: ``sim.now`` advances to each
        event's time before its callback runs.  With ``inclusive``
        False, events at exactly ``until`` stay pending.  With
        ``limit``, the loop stops before the ``limit + 1``-th due
        event.

        :returns: whether a due event is still pending, which only a
            ``limit`` can leave.
        :raises SimulationError: for an event behind ``sim.now``.
        """
        heap = self._heap
        heappop = heapq.heappop
        executed = 0
        if limit is None:
            limit = -1
        try:
            while heap:
                time, _priority, _seq, event = heap[0]
                if event.cancelled:
                    heappop(heap)
                    continue
                if time > until or (time == until and not inclusive):
                    break
                if executed == limit:
                    return True
                heappop(heap)
                executed += 1
                now = sim.now
                if time > now:
                    sim.now = time
                elif time < now - 1e-18:
                    raise SimulationError(
                        f"event at {time} behind current time {now}"
                    )
                event.callback()
        finally:
            self.executed += executed
        return False

    def pending(self, state=None):
        """Live events in dispatch order.

        Reads the live heap, or a :meth:`capture` ``state`` with the
        cancelled flags it recorded.
        """
        if state is None:
            live = [entry for entry in self._heap if not entry[3].cancelled]
        else:
            live = [entry for entry, cancelled in zip(state[0], state[1])
                    if not cancelled]
        live.sort()
        return [entry[3] for entry in live]

    # -- checkpoint support ------------------------------------------------

    def capture(self):
        """Snapshot of the pending heap: (entries, cancelled flags, seq,
        band count).

        The event objects themselves are shared with the live heap;
        only the list and the mutable ``cancelled`` flags are copied.
        """
        entries = list(self._heap)
        return (
            entries,
            [entry[3].cancelled for entry in entries],
            self._next_seq,
            self._band_count,
        )

    def restore(self, state):
        """Reinstall a heap captured with :meth:`capture`, in place.

        Events created after the capture are dropped; cancelled flags
        revert to their captured values.  The ``executed`` counter is
        *not* rewound — it counts real work done, across restores.
        """
        entries, flags, self._next_seq, self._band_count = state
        for entry, flag in zip(entries, flags):
            entry[3].cancelled = flag
        # The captured list was heap-ordered when taken, so it can be
        # reinstalled verbatim; in place, so a list bound by a running
        # dispatch loop stays the live heap.
        self._heap[:] = entries
        self._band = None

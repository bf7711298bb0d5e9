"""Streaming campaign event journal (append-only JSONL).

The span tracer and metrics registry are *end-of-run* instruments:
they buffer in process and export once when asked.  A supervisor on
another host — or a user watching a live campaign — needs the
opposite: a machine-readable stream written **incrementally**, one
line per event, flushed as it happens, so that

* ``campaign watch`` can tail it and render live progress;
* an interrupted campaign still leaves a valid, parseable record of
  everything that happened up to the interrupt (JSONL is
  line-atomic: at worst the final line is truncated, and
  :func:`read_journal` tolerates that); and
* later analysis (failure-rate mining, ML triage, the distributed
  campaign service) consumes typed events instead of scraping logs.

Like the other ``repro.obs`` instruments, the journal is a
process-global singleton (:data:`JOURNAL`) that starts *disabled* and
costs one boolean attribute load per call site while disabled — true
hot paths guard on :attr:`Journal.enabled` and skip the call
entirely.

:func:`emit` records each campaign fact once, in three sinks: this
journal, the metrics registry and the running campaign's listeners.

Every record is one JSON object per line::

    {"v": 1, "seq": 12, "t_wall": 3.0914, "event": "run_finished",
     "index": 7, "status": "ok", "label": "silent", "wall_s": 0.41}

with three envelope fields on every event: ``v`` (the journal schema
version), ``seq`` (a per-journal monotonically increasing sequence
number) and ``t_wall`` (seconds since the journal was opened).  The
``event`` field carries one of :data:`EVENT_TYPES`; all remaining
fields are event-specific (see ``docs/observability.md`` for the full
schema with one example per event type).
"""

from __future__ import annotations

import json
import logging
import os
from contextlib import contextmanager
from time import perf_counter

from ..core.errors import ReproError
from . import metrics as _metrics

LOGGER = logging.getLogger("repro.obs")

#: Version of the journal record schema, stamped on every line.
#: v2 = v1 plus the crash-tolerance events (``coordinator_resumed``,
#: ``worker_reconnected``, ``frame_rejected``, ``lease_expired``);
#: every v1 record is also a valid v2 record.
JOURNAL_SCHEMA_VERSION = 2

#: The typed events a campaign emits, in rough lifecycle order.
EVENT_TYPES = (
    "campaign_started",      # name, total, pending, mode, workers
    "batch_planned",         # kind, size, t_ckpt, position, batches
    "batch_finished",        # kind, size, t_ckpt, completed, peeled,
                             # converged, fallback
    "run_started",           # index, fault, attempt[, worker_pid]
    "run_finished",          # index, status, label, wall_s, attempts
    "retry",                 # index, attempt, delay_s, status
    "quarantined",           # index, status, attempts
    "worker_spawned",        # pid
    "worker_heartbeat",      # pid, index, phase
    "worker_died",           # pid, index, exitcode, killed
    "worker_stopped",        # pid, exitcode
    "checkpoint_restored",   # t_ckpt
    "postmortem_written",    # index, path, status
    "campaign_finished",     # name, execution (stats dict)
    # Distributed campaigns (repro.dist) — additive in journal schema
    # v1: consumers that predate them ignore unknown event types.
    "job_submitted",         # job, name, total, shards
    "shard_leased",          # job, shard, worker, size, lease
    "shard_completed",       # job, shard, worker, rows, merged
    "shard_reassigned",      # job, shard, worker, reason
    # Crash tolerance (journal schema v2): coordinator resume from the
    # final store, worker reconnect/lease re-adoption, and the
    # transport's rejection/expiry decisions.
    "coordinator_resumed",   # jobs, adopted, requeued, store
    "worker_reconnected",    # worker, job, shard, token
    "frame_rejected",        # peer, reason
    "lease_expired",         # job, shard, worker, reason
    # Confidence-bounded adaptive sampling — additive in journal
    # schema v2, like the distributed events.
    "sample_chunk",          # chunk, round, size, pending, trials
    "sampling_stopped",      # reason, trials, estimate, half_width,
                             # skipped[, job, revoked when distributed]
)


class JournalError(ReproError):
    """Raised for invalid journal usage or unreadable journal files."""


class Journal:
    """An append-only JSONL event stream with flush-on-record.

    :ivar enabled: True while a sink file is open; call sites on hot
        paths guard on this attribute and skip :meth:`emit` entirely.
    :ivar path: the sink path, or None while closed.
    :ivar session_offset: byte offset at which the current session's
        events begin (0 unless the journal was opened with
        ``append=True`` on a non-empty file).
    """

    def __init__(self):
        self.enabled = False
        self.path = None
        self.session_offset = 0
        self._handle = None
        self._seq = 0
        self._epoch = 0.0

    # -- lifecycle ---------------------------------------------------------

    def open(self, path, append=False):
        """Start journalling into ``path`` (truncates unless ``append``).

        Re-opening an already open journal closes the previous sink
        first.  Returns the byte offset at which this session's events
        begin — 0 for a fresh journal, the existing file size when
        appending (the store records this offset so a resume's events
        can be located inside a shared journal file).
        """
        self.close()
        mode = "a" if append else "w"
        self._handle = open(path, mode, buffering=1)
        offset = self._handle.tell() if append else 0
        self.session_offset = offset
        self.path = str(path)
        self._seq = 0
        self._epoch = perf_counter()
        self.enabled = True
        return offset

    def close(self):
        """Stop journalling and close the sink (idempotent)."""
        self.enabled = False
        if self._handle is not None:
            try:
                self._handle.close()
            finally:
                self._handle = None
        self.path = None

    # -- recording -----------------------------------------------------------

    def emit(self, event, **fields):
        """Append one typed event line and flush it to disk.

        No-op while the journal is closed, so cold call sites may call
        unconditionally; hot paths should guard on :attr:`enabled`.

        :raises JournalError: for event types outside
            :data:`EVENT_TYPES` (catching schema drift at the emit
            site, not in a consumer months later).
        """
        if not self.enabled:
            return
        if event not in EVENT_TYPES:
            raise JournalError(
                f"unknown journal event type {event!r};"
                f" expected one of {EVENT_TYPES}"
            )
        record = {
            "v": JOURNAL_SCHEMA_VERSION,
            "seq": self._seq,
            "t_wall": round(perf_counter() - self._epoch, 6),
            "event": event,
        }
        record.update(fields)
        self._seq += 1
        # One write + flush per record: the line either lands whole or
        # (on a mid-write interrupt) is the final, truncated line that
        # read_journal() skips.  json.dumps with default=str so odd
        # payload values degrade to strings instead of killing the run.
        self._handle.write(json.dumps(record, default=str) + "\n")
        self._handle.flush()


#: The process-global journal instrumented modules record into.
JOURNAL = Journal()


def open_journal(path, append=False):
    """Open the global journal; returns the session's byte offset."""
    return JOURNAL.open(path, append=append)


def close_journal():
    """Close the global journal."""
    JOURNAL.close()


def enabled():
    """True while the global journal has an open sink."""
    return JOURNAL.enabled


#: Callables ``(event, fields)`` registered by :func:`listening`.
_LISTENERS = []


def emit(event, **fields):
    """Record one event in the global journal (while open), the
    metrics registry (:func:`~repro.obs.metrics.record_event`) and
    each listener; a listener that raises is logged, not fatal."""
    if JOURNAL.enabled:
        JOURNAL.emit(event, **fields)
    _metrics.record_event(event, fields)
    for listener in _LISTENERS:
        try:
            listener(event, fields)
        except Exception:
            LOGGER.exception("event listener failed on %r", event)


@contextmanager
def listening(listener):
    """Call ``listener(event, fields)`` for each event emitted in the
    ``with`` block."""
    _LISTENERS.append(listener)
    try:
        yield listener
    finally:
        if listener in _LISTENERS:      # detach() may have dropped it
            _LISTENERS.remove(listener)


def detach():
    """Drop the journal and listeners a forked worker inherited, so
    the parent stays the journal's only writer and the only caller of
    its listeners."""
    JOURNAL.close()
    _LISTENERS.clear()


# -- reading -----------------------------------------------------------------


def read_journal(path, offset=0):
    """Yield parsed event dicts from a journal file.

    Tolerant of the one failure mode an interrupt can produce: a
    truncated (or otherwise unparseable) **final** line is skipped
    silently.  A malformed line *followed by* well-formed ones means
    the file is not a journal — that raises.

    :param offset: byte offset to start reading from (a stored
        resume offset).
    :raises JournalError: on malformed non-final lines.
    """
    with open(path) as handle:
        if offset:
            handle.seek(offset)
        pending_error = None
        for line in handle:
            if pending_error is not None:
                raise JournalError(pending_error)
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError:
                pending_error = (
                    f"malformed journal line in {path}: {line[:80]!r}"
                )


def tail_journal(path, position=0):
    """One non-blocking poll of a growing journal file.

    Returns ``(events, new_position)`` where ``events`` are the
    complete records appended since ``position``.  A partial final
    line (a writer mid-record) is left for the next poll — the
    returned position never advances past the last complete line, so
    ``campaign watch`` can poll in a loop without ever double-reading
    or dropping an event.
    """
    try:
        size = os.path.getsize(path)
    except OSError:
        return [], position
    if size <= position:
        return [], position
    with open(path, "rb") as handle:
        handle.seek(position)
        chunk = handle.read(size - position)
    text = chunk.decode("utf-8", errors="replace")
    end = text.rfind("\n")
    if end < 0:
        return [], position
    events = []
    for line in text[: end + 1].splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError:
            continue
    consumed = len(text[: end + 1].encode("utf-8"))
    return events, position + consumed

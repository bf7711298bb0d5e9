"""Supervised worker-pool execution with retry and quarantine.

The bare ``multiprocessing.Pool.imap`` the campaign runner used to
fan out faulty runs had a fatal flaw for long campaigns: a worker that
dies (segfault, OOM kill, runaway simulation killed by the operator)
simply never reports, and ``imap`` blocks forever waiting for it.
Large fault-injection platforms (DAVOS, FsimNNs) treat hung and
crashed runs as *first-class outcomes*; this module brings the same
discipline to the simulation flow:

* each worker is a **directly supervised process** with a dedicated
  duplex pipe — the parent always knows which fault each worker is
  running, so a death is attributable;
* a worker whose pipe hits EOF mid-run is declared **crashed** (its
  exit code is recorded) and a replacement is forked;
* when a per-fault wall-clock deadline is configured, a worker that
  overruns it (plus a grace period for the kernel's own cooperative
  :class:`~repro.core.budget.RunBudget` to fire first) is killed and
  the fault is declared **timed out**;
* failed faults are **retried** with capped exponential backoff under a
  :class:`RetryPolicy`; when attempts are exhausted the fault is
  **quarantined** — a terminal, classified outcome, never a stalled
  campaign.

The supervisor is transport-only: it never interprets simulation
results.  Outcomes stream back to the single-writer parent exactly
like the serial path's, as ``(index, ok, payload, wall_s, attempts)``
tuples where a failure payload is ``(exception, status)``.
"""

from __future__ import annotations

import logging
import os
import pickle
import threading
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait as _wait_ready
from time import monotonic, sleep

from ..core.errors import CampaignError, ReproError, WorkerCrashError
from ..obs import metrics as _metrics
from .classify import RUN_CRASHED, RUN_TIMEOUT

LOGGER = logging.getLogger("repro.campaign")

#: Default seconds between worker heartbeat messages.
DEFAULT_HEARTBEAT_S = 1.0

#: Worker-local run state the heartbeat thread reports.  The campaign
#: worker bodies update it (plain dict assignment — no locking needed
#: for a single-writer, single-reader flag) as a run moves through its
#: phases; fork gives every worker its own copy.
WORKER_PHASE = {"index": None, "phase": "idle"}


def set_worker_phase(phase, index=None):
    """Record the phase the current (worker) process is in."""
    WORKER_PHASE["phase"] = phase
    if index is not None:
        WORKER_PHASE["index"] = index


@dataclass(frozen=True)
class RetryPolicy:
    """How failed faulty runs are retried before quarantine.

    :ivar attempts: total attempts per fault (default 2 = one retry);
        1 disables retries.
    :ivar backoff_s: delay before the first retry, in seconds.
    :ivar backoff_cap_s: ceiling on the exponentially growing delay.
    """

    attempts: int = 2
    backoff_s: float = 0.25
    backoff_cap_s: float = 5.0

    def __post_init__(self):
        if self.attempts < 1:
            raise ReproError(
                f"RetryPolicy.attempts must be >= 1, got {self.attempts!r}"
            )
        if self.backoff_s < 0 or self.backoff_cap_s < 0:
            raise ReproError("RetryPolicy backoffs must be >= 0")

    def delay(self, failures):
        """Backoff before the next attempt after ``failures`` failures."""
        if failures < 1:
            return 0.0
        return min(self.backoff_cap_s, self.backoff_s * 2 ** (failures - 1))


def _picklable(outcome):
    """``outcome`` with a failure's exception fit to cross the pipe:
    one that does not survive a pickle round trip ships as a
    :class:`~repro.core.errors.CampaignError` naming its type and
    message (the worker classified the original)."""
    index, ok, payload, wall_s = outcome
    if ok:
        return outcome
    exc, status = payload
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        exc = CampaignError(f"{type(exc).__name__}: {exc}")
    return index, ok, (exc, status), wall_s


def _supervised_worker(conn, body, heartbeat_s=None):
    """Worker main loop: receive a fault index, run it, send the outcome.

    ``body`` catches per-run exceptions itself and folds them into the
    outcome tuple, so the only way this loop dies is a genuine process
    death — which the parent observes as EOF on ``conn``.

    With ``heartbeat_s`` set, a daemon thread periodically sends
    ``("hb", {...})`` liveness messages carrying the pid and the
    current :data:`WORKER_PHASE` (fault index + phase), so the parent
    can tell a *slow* run from a *wedged* one and attribute a kill to
    the exact phase it interrupted.  Outcome messages are tagged
    ``("result", ...)``; a lock serialises the two senders (reads and
    writes travel opposite directions on the duplex pipe, so the main
    thread's blocking ``recv`` never contends with a heartbeat send).
    """
    send_lock = threading.Lock()
    stop = threading.Event()

    def _heartbeat_loop():
        while not stop.wait(heartbeat_s):
            message = ("hb", {
                "pid": os.getpid(),
                "index": WORKER_PHASE["index"],
                "phase": WORKER_PHASE["phase"],
            })
            try:
                with send_lock:
                    conn.send(message)
            except (OSError, ValueError):
                return  # pipe gone: the worker is shutting down

    if heartbeat_s:
        threading.Thread(target=_heartbeat_loop, daemon=True).start()
    try:
        while True:
            try:
                task = conn.recv()
            except EOFError:
                break
            if task is None:
                break
            set_worker_phase("running", index=task)
            outcome = body(task)
            set_worker_phase("idle")
            WORKER_PHASE["index"] = None
            with send_lock:
                conn.send(("result", _picklable(outcome)))
    finally:
        stop.set()
        conn.close()


class _Worker:
    """Parent-side record of one supervised worker process."""

    __slots__ = ("process", "conn", "index", "attempt", "started_at",
                 "killed", "last_heartbeat", "heartbeat_at")

    def __init__(self, process, conn):
        self.process = process
        self.conn = conn
        self.index = None       # fault index in flight (None = idle)
        self.attempt = 0
        self.started_at = 0.0
        self.killed = False     # True when the supervisor killed it
        self.last_heartbeat = None   # most recent hb payload dict
        self.heartbeat_at = None     # monotonic() of that payload

    @property
    def busy(self):
        return self.index is not None


class WorkerSupervisor:
    """Fault-tolerant fan-out of campaign runs over forked workers.

    :param context: a ``fork`` multiprocessing context (workers inherit
        the runner, design factory and warm state by fork).
    :param body: any callable the fork inherits — a bound method
        works, nothing is pickled — taking a fault index and returning
        ``(index, ok, payload, wall_s)``, where a failure's payload is
        ``(exception, status)``; it must catch run exceptions itself
        (see :meth:`repro.campaign.runner.CampaignRunner._attempt`).
    :param workers: maximum concurrent worker processes.
    :param retry: optional :class:`RetryPolicy`; ``None`` fails each
        fault on its first bad attempt (``on_error="raise"`` mode).
    :param deadline_s: optional per-fault wall-clock deadline.  The
        kernel's cooperative budget should be the one to trip it; the
        supervisor hard-kills only ``kill_grace_s`` later, catching
        runs wedged inside a single native call.
    :param kill_grace_s: grace between the deadline and the hard kill.
    :param poll_s: result-poll granularity.
    :param heartbeat_s: seconds between worker liveness heartbeats
        (``None`` disables the heartbeat thread entirely).
    :param monitor: optional callable ``(event_dict)`` notified of
        worker lifecycle events — ``spawned``, ``task``,
        ``heartbeat``, ``died`` — with the worker pid and (where
        known) the fault index, phase and exit code.  The supervisor
        stays transport-only; the campaign runner's monitor turns
        these into journal events and store rows.
    """

    def __init__(self, context, body, workers, retry=None, deadline_s=None,
                 kill_grace_s=2.0, poll_s=0.05,
                 heartbeat_s=DEFAULT_HEARTBEAT_S, monitor=None):
        if workers < 1:
            raise ReproError(f"workers must be >= 1, got {workers!r}")
        self.context = context
        self.body = body
        self.n_workers = workers
        self.retry = retry
        self.deadline_s = deadline_s
        self.kill_grace_s = kill_grace_s
        self.poll_s = poll_s
        self.heartbeat_s = heartbeat_s
        self.monitor = monitor

    def _notify(self, event, **fields):
        if self.monitor is None:
            return
        try:
            self.monitor(dict(event=event, **fields))
        except Exception:
            LOGGER.exception("worker monitor callback failed")

    # -- process management ------------------------------------------------

    def _spawn(self):
        parent_conn, child_conn = self.context.Pipe()
        process = self.context.Process(
            target=_supervised_worker,
            args=(child_conn, self.body, self.heartbeat_s),
            daemon=True,
        )
        process.start()
        # The parent must not hold the child's pipe end: the EOF that
        # signals a worker death only surfaces once *every* handle on
        # that end is closed.
        child_conn.close()
        self._notify("spawned", pid=process.pid)
        return _Worker(process, parent_conn)

    def _shutdown(self, workers):
        for worker in workers:
            if not worker.busy and worker.process.is_alive():
                try:
                    worker.conn.send(None)
                except OSError:
                    pass
        for worker in workers:
            worker.conn.close()
            worker.process.join(timeout=0.5)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=0.5)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(timeout=0.5)

    # -- outcome stream ----------------------------------------------------

    def outcomes(self, pending):
        """Yield one terminal outcome per pending fault, as completed.

        Outcomes are ``(index, ok, payload, wall_s, attempts)`` in
        completion order (the campaign parent re-sorts by index).  The
        generator owns the worker processes; closing it (including via
        an exception in the consumer) tears them down.
        """
        queue = deque((index, 1) for index in pending)
        delayed = []            # (ready_at, index, attempt)
        workers = []
        remaining = len(pending)

        try:
            while remaining > 0:
                now = monotonic()

                # Promote retries whose backoff has expired.
                if delayed:
                    due = [item for item in delayed if item[0] <= now]
                    for item in due:
                        delayed.remove(item)
                        queue.append((item[1], item[2]))

                # Grow the pool lazily and hand tasks to idle workers.
                idle = [w for w in workers if not w.busy]
                while queue and not idle and len(workers) < self.n_workers:
                    worker = self._spawn()
                    workers.append(worker)
                    idle.append(worker)
                for worker in idle:
                    if not queue:
                        break
                    index, attempt = queue.popleft()
                    worker.index = index
                    worker.attempt = attempt
                    worker.started_at = monotonic()
                    worker.killed = False
                    try:
                        worker.conn.send(index)
                        self._notify("task", pid=worker.process.pid,
                                     index=index, attempt=attempt)
                    except (OSError, ValueError) as exc:
                        # Worker died before it ever took a task.
                        workers.remove(worker)
                        outcome = self._dispose(
                            delayed, index, attempt,
                            WorkerCrashError(
                                f"worker died before accepting fault "
                                f"{index}: {exc}",
                                exitcode=worker.process.exitcode,
                            ),
                            RUN_CRASHED, 0.0,
                        )
                        if outcome is not None:
                            remaining -= 1
                            yield outcome

                busy = [w for w in workers if w.busy]
                if not busy:
                    if queue or delayed:
                        # Only delayed retries left; nap until one is due.
                        sleep(self.poll_s)
                        continue
                    break  # defensive: nothing in flight, nothing queued

                # Harvest whatever is ready (results or worker EOFs).
                ready = _wait_ready(
                    [w.conn for w in busy], timeout=self.poll_s
                )
                by_conn = {w.conn: w for w in busy}
                for conn in ready:
                    worker = by_conn[conn]
                    outcome = self._harvest(workers, delayed, worker)
                    if outcome is not None:
                        remaining -= 1
                        yield outcome

                # Enforce the hard per-fault deadline.
                if self.deadline_s is not None:
                    limit = self.deadline_s + self.kill_grace_s
                    now = monotonic()
                    for worker in workers:
                        if (
                            worker.busy
                            and not worker.killed
                            and now - worker.started_at > limit
                        ):
                            LOGGER.warning(
                                "killing worker pid=%s: fault %d exceeded "
                                "its %.3gs deadline",
                                worker.process.pid, worker.index, limit,
                            )
                            worker.killed = True
                            worker.process.kill()
        finally:
            self._shutdown(workers)

    def _harvest(self, workers, delayed, worker):
        """Collect one ready message (or death) from ``worker``.

        Returns a terminal outcome tuple, or None when the fault was
        rescheduled for retry.
        """
        index, attempt = worker.index, worker.attempt
        wall_s = monotonic() - worker.started_at
        try:
            message = worker.conn.recv()
        except (EOFError, OSError):
            # The worker died mid-run: attribute the death to the fault
            # it was executing, then replace the process.
            workers.remove(worker)
            worker.conn.close()
            worker.process.join(timeout=1.0)
            exitcode = worker.process.exitcode
            if worker.killed:
                status = RUN_TIMEOUT
                error = WorkerCrashError(
                    f"worker killed after fault {index} exceeded its "
                    f"{self.deadline_s:.3g}s deadline "
                    f"(wall {wall_s:.3g}s)",
                    exitcode=exitcode,
                )
            else:
                status = RUN_CRASHED
                error = WorkerCrashError(
                    f"worker running fault {index} died "
                    f"(exitcode {exitcode})",
                    exitcode=exitcode,
                )
            LOGGER.warning("%s", error)
            _metrics.REGISTRY.inc("campaign.worker_deaths")
            self._notify(
                "died", pid=worker.process.pid, index=index,
                attempt=attempt, exitcode=exitcode, killed=worker.killed,
                status=status, last_heartbeat=worker.last_heartbeat,
            )
            return self._dispose(delayed, index, attempt, error, status,
                                 wall_s)

        tag, result = message
        if tag == "hb":
            # Liveness only: the worker stays busy on its fault.
            worker.last_heartbeat = result
            worker.heartbeat_at = monotonic()
            self._notify("heartbeat", **result)
            return None

        worker.index = None  # idle again
        r_index, ok, payload, r_wall = result
        if ok:
            return r_index, True, payload, r_wall, attempt
        exc, status = payload
        return self._dispose(delayed, r_index, attempt, exc, status, r_wall)

    def _dispose(self, delayed, index, attempt, exc, status, wall_s):
        """Retry a failed attempt, or return its terminal outcome."""
        if self.retry is not None and attempt < self.retry.attempts:
            _metrics.REGISTRY.inc("campaign.retries")
            self._notify("retry", index=index, attempt=attempt,
                         delay_s=self.retry.delay(attempt), status=status)
            delayed.append(
                (monotonic() + self.retry.delay(attempt), index, attempt + 1)
            )
            return None
        return index, False, (exc, status), wall_s, attempt

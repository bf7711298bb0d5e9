"""Task placement: in the campaign process or on supervised workers.

A campaign runs *tasks* — a fault index, or a planned :class:`Batch`
of them — through one body.  A :class:`WorkerSupervisor` places them:
:meth:`~WorkerSupervisor.inline` in the campaign process, or
:meth:`~WorkerSupervisor.outcomes` on forked workers, with one retry
rule, emitting each attempt's and worker's events.  Hung and crashed
runs are *first-class outcomes*, as on large fault-injection
platforms (DAVOS, FsimNNs), never a pool blocked on a worker that
will not report:

* each worker is a **directly supervised process** with a dedicated
  duplex pipe — the parent always knows which task each worker is
  running, so a death (EOF on the pipe) is attributed, declared
  **crashed** with its exit code, and the worker replaced;
* a worker that overruns the per-fault wall-clock deadline (times the
  size of a batch) plus a grace period for the kernel's own
  cooperative :class:`~repro.core.budget.RunBudget` is killed and its
  task declared **timed out**;
* failed faults are **retried** with capped exponential backoff under a
  :class:`RetryPolicy`; when attempts are exhausted the fault is
  **quarantined** — a terminal, classified outcome.  A batch is never
  retried: its failure is terminal, and the caller runs its faults
  one by one.

The supervisor is transport-only: it never interprets simulation
results.  Outcomes stream back to the single-writer parent as
``(task, ok, payload, wall_s, attempts)`` tuples where a failure
payload is ``(exception, status)``.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import pickle
import threading
from collections import deque, namedtuple
from dataclasses import dataclass
from multiprocessing.connection import wait as _wait_ready
from time import monotonic, sleep

from ..core.errors import CampaignError, ReproError, WorkerCrashError
from ..obs import journal as _journal
from .classify import RUN_CRASHED, RUN_TIMEOUT

LOGGER = logging.getLogger("repro.campaign")

#: Default seconds between worker heartbeat messages.
DEFAULT_HEARTBEAT_S = 1.0

#: Seconds between the pool's polls for results and deadlines.
POLL_S = 0.05

#: Grace between a task's deadline and the pool's hard kill, so the
#: kernel's cooperative budget trips first.
KILL_GRACE_S = 2.0

#: The run state of this process, which a worker's heartbeat thread
#: reports: the fault and attempt in flight (``index`` is None for a
#: batch) and the phase.  Placements set it around every task; the
#: campaign's task body reads the attempt and updates the phase (plain
#: dict assignment — no locking needed for a single-writer,
#: single-reader flag).  Fork gives every worker its own copy.
WORKER_PHASE = {"index": None, "attempt": None, "phase": "idle"}


def fork_context():
    """The ``fork`` multiprocessing context, or None where unsupported.

    Forked workers inherit the design factory, the runner and its warm
    state; ``spawn``/``forkserver`` cannot ship an arbitrary closure.
    """
    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return None


#: A planned batch task: ``indices`` restore the golden checkpoint at
#: ``t_ckpt`` and run together as one ``kind`` batch.
Batch = namedtuple("Batch", "kind t_ckpt indices")


def death_status(killed):
    """A dead worker's task status: ``timeout`` if the pool killed it."""
    return RUN_TIMEOUT if killed else RUN_CRASHED


def _describe(task):
    if isinstance(task, Batch):
        return f"{task.kind} batch of {len(task.indices)} faults"
    return f"fault {task}"


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
    task, ok, payload, wall_s = outcome
    if ok:
        return outcome
    exc, status = payload
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        exc = CampaignError(f"{type(exc).__name__}: {exc}")
    return task, ok, (exc, status), wall_s


def _run(body, task, attempt):
    """One attempt of ``task`` through ``body``, under the run state
    (:data:`WORKER_PHASE`) the heartbeat reports."""
    WORKER_PHASE.update(index=None if isinstance(task, Batch) else task,
                        attempt=attempt, phase="running")
    outcome = body(task)
    WORKER_PHASE.update(index=None, attempt=None, phase="idle")
    return outcome


def _supervised_worker(conn, body, heartbeat_s=None):
    """Worker main loop: receive a task, run it, send the outcome.

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
    # The fork duplicated the parent's journal handle and listeners.
    _journal.detach()
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
                message = conn.recv()
            except EOFError:
                break
            if message is None:
                break
            outcome = _run(body, *message)
            with send_lock:
                conn.send(("result", _picklable(outcome)))
    finally:
        stop.set()
        conn.close()


class _Worker:
    """Parent-side record of one supervised worker process."""

    __slots__ = ("process", "conn", "task", "attempt", "started_at",
                 "killed")

    def __init__(self, process, conn):
        self.process = process
        self.conn = conn
        self.task = None        # task in flight (None = idle)
        self.attempt = 0
        self.started_at = 0.0
        self.killed = False     # True when the supervisor killed it

    @property
    def busy(self):
        return self.task is not None


class WorkerSupervisor:
    """Places campaign tasks in this process or on forked workers.

    :param context: a ``fork`` multiprocessing context for the pool
        (workers inherit the runner, design factory and warm state by
        fork), or None when every task runs in this process.
    :param body: any callable the fork inherits — a bound method
        works, nothing is pickled — taking a task (a fault index or a
        :class:`Batch`) and returning ``(task, ok, payload, wall_s)``,
        where a failure's payload is ``(exception, status)``; it must
        catch run exceptions itself (see
        :meth:`repro.campaign.runner.CampaignRunner._run_task`).
    :param workers: maximum concurrent worker processes.
    :param retry: optional :class:`RetryPolicy`; ``None`` fails each
        fault on its first bad attempt (``on_error="raise"`` mode).
    :param deadline_s: optional per-fault wall-clock deadline (a batch
        gets it times its size).  The kernel's cooperative budget
        should be the one to trip it; the pool hard-kills only
        :data:`KILL_GRACE_S` later, catching runs wedged inside a
        single native call.
    :param heartbeat_s: seconds between worker liveness heartbeats
        (``None`` disables the heartbeat thread entirely).
    :param describe: callable naming a fault index in the ``fault``
        field of the ``run_started`` event of each attempt.
    """

    def __init__(self, context, body, workers, retry=None, deadline_s=None,
                 heartbeat_s=DEFAULT_HEARTBEAT_S, describe=_describe):
        if workers < 1:
            raise ReproError(f"workers must be >= 1, got {workers!r}")
        self.context = context
        self.body = body
        self.n_workers = workers
        self.retry = retry
        self.deadline_s = deadline_s
        self.heartbeat_s = heartbeat_s
        self.describe = describe
        self._workers = []      # the pool, kept until close()

    def _dispose(self, task, attempt, status):
        """The backoff before retrying a failed attempt, or None when
        the failure is terminal: no retry policy, attempts used up, or
        a batch (the caller runs its faults one by one instead)."""
        if (self.retry is None or attempt >= self.retry.attempts
                or isinstance(task, Batch)):
            return None
        delay = self.retry.delay(attempt)
        _journal.emit("retry", index=task, attempt=attempt, delay_s=delay,
                      status=status)
        return delay

    def _started(self, task, attempt, **worker):
        if not isinstance(task, Batch):
            _journal.emit("run_started", index=task,
                          fault=self.describe(task), attempt=attempt,
                          **worker)

    # -- in this process -----------------------------------------------------

    def inline(self, tasks):
        """Yield one terminal outcome per task, running each in this
        process, in order; a failed attempt is retried right after its
        backoff.  The in-process twin of :meth:`outcomes`."""
        for task in tasks:
            attempt = 1
            while True:
                self._started(task, attempt)
                _task, ok, payload, wall_s = _run(self.body, task, attempt)
                delay = None if ok else self._dispose(task, attempt,
                                                      payload[1])
                if delay is None:
                    break
                sleep(delay)
                attempt += 1
            yield task, ok, payload, wall_s, attempt

    # -- on forked workers ---------------------------------------------------

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
        _journal.emit("worker_spawned", pid=process.pid)
        worker = _Worker(process, parent_conn)
        self._workers.append(worker)
        return worker

    def close(self):
        """Stop the pool's workers; each emits ``worker_stopped``."""
        self._stop(list(self._workers))

    def _stop(self, workers):
        """Stop ``workers`` and drop them from the pool: an idle one is
        asked to exit, a busy one is killed."""
        for worker in workers:
            if worker.busy:
                worker.process.kill()
            elif worker.process.is_alive():
                try:
                    worker.conn.send(None)
                except OSError:
                    pass
        for worker in workers:
            worker.conn.close()
            worker.process.join(timeout=0.5)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(timeout=0.5)
            self._workers.remove(worker)
            _journal.emit("worker_stopped", pid=worker.process.pid,
                          exitcode=worker.process.exitcode)

    def _limit(self, task):
        """Seconds a worker may spend on ``task`` before the kill."""
        size = len(task.indices) if isinstance(task, Batch) else 1
        return self.deadline_s * size + KILL_GRACE_S

    def outcomes(self, tasks):
        """Yield one terminal outcome per task, run on the pool's
        forked workers, as completed.

        Outcomes are ``(task, ok, payload, wall_s, attempts)`` in
        completion order (the campaign parent re-sorts by index).  The
        pool starts a worker per queued task, up to ``workers``, and
        keeps them for the next call.  Closing the generator early
        kills the workers still busy on its tasks, so no stale result
        reaches the next call.
        """
        queue = deque((task, 1) for task in tasks)
        delayed = []            # (ready_at, task, attempt)
        workers = self._workers
        remaining = len(tasks)

        try:
            while remaining > 0:
                now = monotonic()

                # Promote retries whose backoff has expired.
                if delayed:
                    due = [item for item in delayed if item[0] <= now]
                    for item in due:
                        delayed.remove(item)
                        queue.append(item[1:])

                # Start a worker per queued task, up to the pool size,
                # then hand tasks to idle workers.
                idle = [w for w in workers if not w.busy]
                while (
                    len(queue) > len(idle) and len(workers) < self.n_workers
                ):
                    idle.append(self._spawn())
                for worker in idle:
                    if not queue:
                        break
                    task, attempt = queue.popleft()
                    worker.task = task
                    worker.attempt = attempt
                    worker.started_at = monotonic()
                    worker.killed = False
                    try:
                        worker.conn.send((task, attempt))
                    except OSError:
                        pass  # died idle: harvested below like any death
                    self._started(task, attempt,
                                  worker_pid=worker.process.pid)

                busy = [w for w in workers if w.busy]
                if not busy:
                    if queue or delayed:
                        # Only delayed retries left; nap until one is due.
                        sleep(POLL_S)
                        continue
                    break  # defensive: nothing in flight, nothing queued

                # Harvest whatever is ready (results or worker EOFs).
                ready = _wait_ready([w.conn for w in busy], timeout=POLL_S)
                by_conn = {w.conn: w for w in busy}
                for conn in ready:
                    outcome = self._harvest(delayed, by_conn[conn])
                    if outcome is not None:
                        remaining -= 1
                        yield outcome

                # Enforce the hard per-task deadline.
                if self.deadline_s is not None:
                    now = monotonic()
                    for worker in workers:
                        if (
                            worker.busy
                            and not worker.killed
                            and now - worker.started_at
                            > self._limit(worker.task)
                        ):
                            LOGGER.warning(
                                "killing worker pid=%s: %s exceeded its "
                                "%.3gs deadline", worker.process.pid,
                                _describe(worker.task),
                                self._limit(worker.task),
                            )
                            worker.killed = True
                            worker.process.kill()
        finally:
            self._stop([worker for worker in workers if worker.busy])

    def _harvest(self, delayed, worker):
        """Collect one ready message (or death) from ``worker``.

        Returns a terminal outcome tuple, or None when the message was
        a heartbeat or the fault was rescheduled for retry.
        """
        task, attempt = worker.task, worker.attempt
        wall_s = monotonic() - worker.started_at
        try:
            message = worker.conn.recv()
        except (EOFError, OSError):
            # The worker died mid-run: attribute the death to the task
            # it was executing, then replace the process.
            self._workers.remove(worker)
            worker.conn.close()
            worker.process.join(timeout=1.0)
            exitcode = worker.process.exitcode
            status = death_status(worker.killed)
            if worker.killed:
                error = WorkerCrashError(
                    f"worker killed after {_describe(task)} exceeded its "
                    f"{self._limit(task) - KILL_GRACE_S:.3g}s deadline "
                    f"(wall {wall_s:.3g}s)",
                    exitcode=exitcode,
                )
            else:
                error = WorkerCrashError(
                    f"worker running {_describe(task)} died "
                    f"(exitcode {exitcode})",
                    exitcode=exitcode,
                )
            LOGGER.warning("%s", error)
            _journal.emit(
                "worker_died", pid=worker.process.pid,
                index=None if isinstance(task, Batch) else task,
                exitcode=exitcode, killed=worker.killed,
            )
            payload = (error, status)
        else:
            tag, result = message
            if tag == "hb":
                # Liveness only: the worker stays busy on its task.
                _journal.emit("worker_heartbeat", **result)
                return None
            worker.task = None  # idle again
            _task, ok, payload, wall_s = result
            if ok:
                return task, True, payload, wall_s, attempt
        delay = self._dispose(task, attempt, payload[1])
        if delay is None:
            return task, False, payload, wall_s, attempt
        delayed.append((monotonic() + delay, task, attempt + 1))
        return None

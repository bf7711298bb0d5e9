"""The distributed campaign worker daemon.

A worker dials the coordinator, pulls shard leases and executes each
through the **ordinary campaign runner** — warm starts, batching,
supervision and retry all behave exactly as they do locally, because
the shard's sub-spec *is* a campaign spec.  What differs is the store:
a :class:`RowStreamStore` ships every completed run row over the
socket as it lands instead of writing SQLite, so the coordinator's
final store holds the shard's provisional rows while the shard is
still running and a worker killed mid-shard forfeits only the rows it
had not yet streamed.

The worker is built to outlive its transport:

* every socket failure feeds a **reconnect loop** with capped
  exponential backoff plus jitter instead of killing the process;
* rows that cannot be sent during an outage land in a **bounded
  buffer** and drain after reconnect — the coordinator holds the
  lease orphaned for a reconnect grace, and global-index dedup makes
  any redelivery safe;
* **SIGTERM** requests a graceful exit: the in-flight fault finishes,
  its row is flushed, the lease is released with an ``error`` frame
  (so the shard requeues promptly) and the worker says ``bye``.

Designs reach the worker one of two ways:

* a local **factory** (``--netlist`` on the CLI, or a Python callable
  for in-process workers) — the common case for fleet deployments
  where every host has the design files;
* a netlist dict **in the lease** (the submit client attached it) —
  zero-install workers that build the design from the wire.

Each worker runs its own golden simulation per shard and reports the
golden probe digests with its ``complete`` frame; the coordinator
cross-checks digests across workers, so a worker with a diverging
toolchain or design file is detected, not silently merged.
"""

from __future__ import annotations

import logging
import os
import random
import signal
import socket as _socket
import threading
from collections import deque
from time import perf_counter

from ..campaign.runner import run_campaign
from ..campaign.supervisor import WORKER_PHASE
from ..core.errors import ReproError
from ..store.backend import StoreBackend
from ..store.serialize import error_to_row, probes_digest, result_to_row
from .protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    connect,
    parse_address,
)
from .shards import Shard

LOGGER = logging.getLogger("repro.dist")

#: Default seconds between worker heartbeat frames.
DEFAULT_HEARTBEAT_S = 1.0

#: Default consecutive reconnect attempts before the worker gives up.
DEFAULT_MAX_RECONNECTS = 8

#: Default first-retry backoff; doubles per attempt up to the cap.
DEFAULT_BACKOFF_S = 0.5

#: Default backoff ceiling.
DEFAULT_BACKOFF_MAX_S = 15.0

#: Default bound on rows buffered while the coordinator is unreachable.
DEFAULT_ROW_BUFFER = 512


class WorkerShutdown(ReproError):
    """Raised inside a shard run when a graceful shutdown is requested."""


class CoordinatorLost(ProtocolError):
    """Raised when every reconnect attempt at the coordinator failed."""


class CoordinatorLink:
    """The worker's one connection, wrapped in reconnect machinery.

    Owns the socket, a send lock (the heartbeat thread shares the
    wire), the backoff policy and a bounded buffer of undeliverable
    ``rows`` frames.  Send semantics by frame class:

    * ``rows`` — *best effort now, durable later*: a failed send
      buffers the frame (bounded, oldest dropped first — dedup by
      global fault index makes a drop equivalent to an unstreamed
      row) and returns; buffered rows drain ahead of the next
      successful send;
    * ``heartbeat`` — droppable: a missed beat on a dead socket is
      exactly what the coordinator's liveness clocks exist to absorb;
    * everything else (``lease_request``, ``complete``, ``error``,
      ``bye``) — *must arrive*: a failed send triggers a blocking
      reconnect with capped exponential backoff plus jitter.

    :param stop: a :class:`threading.Event` that aborts backoff waits
        (graceful shutdown while disconnected).
    :param rng: randomness source for jitter (tests pass a seeded
        :class:`random.Random`).
    """

    def __init__(self, host, port, ident, connect_timeout=10.0,
                 max_reconnects=DEFAULT_MAX_RECONNECTS,
                 backoff_s=DEFAULT_BACKOFF_S,
                 backoff_max_s=DEFAULT_BACKOFF_MAX_S,
                 row_buffer=DEFAULT_ROW_BUFFER, stop=None, rng=None):
        self.host = host
        self.port = port
        self.ident = ident
        self.connect_timeout = connect_timeout
        self.max_reconnects = max_reconnects
        self.backoff_s = backoff_s
        self.backoff_max_s = backoff_max_s
        self.stop = stop or threading.Event()
        self.reconnects = 0
        self.dropped_rows = 0
        self._rng = rng or random
        self._lock = threading.Lock()
        self._conn = None
        self._pending = deque(maxlen=row_buffer)

    # -- connection lifecycle ----------------------------------------------

    def _dial_locked(self):
        """One dial + hello/welcome; raises ProtocolError on failure."""
        conn = connect(self.host, self.port, timeout=self.connect_timeout)
        try:
            conn.send("hello", role="worker", name=self.ident,
                      pid=os.getpid(), host=_socket.gethostname(),
                      proto=PROTOCOL_VERSION)
            welcome = conn.recv(timeout=self.connect_timeout)
        except OSError as exc:
            conn.close()
            raise ProtocolError(
                f"coordinator at {self.host}:{self.port} dropped the "
                f"hello: {exc}"
            ) from exc
        if welcome is None or welcome.get("frame") != "welcome":
            conn.close()
            raise ProtocolError(
                f"coordinator at {self.host}:{self.port} did not "
                f"welcome us (got {welcome!r})"
            )
        self._conn = conn

    def _backoff_delay(self, attempt):
        """Capped exponential backoff with half jitter."""
        ceiling = min(self.backoff_max_s, self.backoff_s * (2 ** attempt))
        return ceiling / 2 + self._rng.uniform(0.0, ceiling / 2)

    def _reconnect_locked(self):
        """Blocking reconnect loop; raises :class:`CoordinatorLost`."""
        attempt = 0
        while not self.stop.is_set():
            if (self.max_reconnects is not None
                    and attempt >= self.max_reconnects):
                raise CoordinatorLost(
                    f"coordinator at {self.host}:{self.port} unreachable "
                    f"after {attempt} reconnect attempts"
                )
            delay = self._backoff_delay(attempt)
            LOGGER.warning(
                "worker %s reconnecting to %s:%s in %.2fs (attempt %d)",
                self.ident, self.host, self.port, delay, attempt + 1,
            )
            if self.stop.wait(delay):
                break
            attempt += 1
            try:
                self._dial_locked()
            except ProtocolError as exc:
                LOGGER.warning("reconnect attempt %d failed: %s",
                               attempt, exc)
                continue
            self.reconnects += 1
            LOGGER.info(
                "worker %s reconnected to %s:%s (attempt %d)",
                self.ident, self.host, self.port, attempt,
            )
            return
        raise WorkerShutdown("shutdown requested while disconnected")

    def connect(self):
        """Initial dial; a failure enters the reconnect loop."""
        with self._lock:
            try:
                self._dial_locked()
            except ProtocolError:
                LOGGER.warning(
                    "worker %s initial dial to %s:%s failed",
                    self.ident, self.host, self.port,
                )
                self._reconnect_locked()

    def close(self):
        """Close the socket (idempotent)."""
        with self._lock:
            if self._conn is not None:
                self._conn.close()
                self._conn = None

    @property
    def connected(self):
        return self._conn is not None

    @property
    def buffered_rows(self):
        """Rows frames currently waiting for a live socket."""
        return len(self._pending)

    # -- sending --------------------------------------------------------------

    def _teardown_locked(self, exc):
        LOGGER.warning(
            "worker %s lost the coordinator socket: %s", self.ident, exc
        )
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def _drain_locked(self):
        """Flush buffered rows frames ahead of whatever sends next."""
        while self._pending:
            frame_type, fields = self._pending[0]
            self._conn.send(frame_type, **fields)
            self._pending.popleft()

    def _buffer_locked(self, frame_type, fields):
        if len(self._pending) == self._pending.maxlen:
            self.dropped_rows += 1
        self._pending.append((frame_type, fields))

    def send(self, frame_type, **fields):
        """Send one frame per the class semantics above.

        Returns True when the frame reached the socket, False when it
        was buffered (rows) or dropped (heartbeat).

        :raises CoordinatorLost: control frame + reconnect exhausted.
        :raises WorkerShutdown: stop requested mid-backoff.
        """
        with self._lock:
            if self._conn is not None:
                try:
                    self._drain_locked()
                    self._conn.send(frame_type, **fields)
                    return True
                except OSError as exc:
                    self._teardown_locked(exc)
            if frame_type == "rows":
                self._buffer_locked(frame_type, fields)
                return False
            if frame_type == "heartbeat":
                return False
            self._reconnect_locked()
            self._drain_locked()
            self._conn.send(frame_type, **fields)
            return True

    def send_best_effort(self, frame_type, **fields):
        """Send without reconnecting; swallow (but log) any failure."""
        with self._lock:
            if self._conn is None:
                return False
            try:
                self._conn.send(frame_type, **fields)
                return True
            except OSError as exc:
                self._teardown_locked(exc)
                return False

    # -- receiving --------------------------------------------------------------

    def recv(self, timeout=None):
        """Next inbound frame; None on timeout.

        EOF (the coordinator died or kicked us) triggers the reconnect
        loop and returns None — the caller re-issues whatever request
        was in flight, which is safe because every worker request is
        idempotent (a duplicate ``lease_request`` just parks).
        """
        conn = self._conn
        if conn is None:
            with self._lock:
                if self._conn is None:
                    self._reconnect_locked()
                conn = self._conn
        frame = conn.recv(timeout=timeout)
        if frame is None and conn.eof:
            with self._lock:
                if self._conn is conn:
                    self._teardown_locked("EOF")
            return None
        return frame


class RowStreamStore(StoreBackend):
    """A store backend that streams run rows over the wire.

    Bridges the runner's local-index world to the campaign's global
    one: the shard sub-spec's faults are indexed ``0..n-1``, so every
    recorded run is translated back to its **global** fault index and
    content key (from the shard plan) before it leaves the process.
    Rows are rendered by :mod:`repro.store.serialize` and sent as they
    land — one ``rows`` frame per terminal outcome, or per batch — so
    the coordinator's final store is current to within one run at any
    kill point.

    ``stop`` (optional) is the graceful-shutdown hook: it is checked
    *after* each row ships, so a SIGTERM lets the in-flight fault
    finish and flush before :class:`WorkerShutdown` unwinds the run.
    """

    def __init__(self, shard, send, stop=None):
        """:param send: ``send(frame_type, **fields)`` (lock-guarded)."""
        self.shard = shard
        self._send = send
        self._stop = stop
        self.golden = None
        self.execution = None
        self.rows_sent = 0
        self.done = 0

    # -- lifecycle ---------------------------------------------------------

    def close(self):
        """Nothing to release: the socket belongs to the worker loop."""

    def _check_stop(self):
        if self._stop is not None and self._stop.is_set():
            raise WorkerShutdown(
                f"graceful shutdown after fault {self.done} of shard "
                f"{self.shard.shard_id}"
            )

    # -- campaign registration ---------------------------------------------

    def open_campaign(self, spec, resume=False):
        """The shard id doubles as the campaign handle."""
        return self.shard.shard_id

    def check_golden(self, campaign_id, probes):
        """Capture this worker's golden digests for the complete frame."""
        self.golden = probes_digest(probes)

    def pending_indices(self, campaign_id, total, include_quarantined=False):
        """A streamed shard never resumes locally: everything pends."""
        return list(range(total))

    # -- run recording --------------------------------------------------------

    def _ship(self, rows):
        """Globalize rendered rows and send them as one ``rows`` frame.

        Each row's sub-spec index becomes its global fault index and
        content key from the shard plan.  A shard runs as a plain
        exhaustive campaign, so its rows carry no stratum: the
        coordinator plans sampled jobs and stamps strata at ingest.
        """
        shard = self.shard
        self._send("rows", token=None, rows=[
            dict(row, idx=shard.indices[row["idx"]],
                 key=shard.fault_keys[row["idx"]])
            for row in rows
        ])
        self.rows_sent += len(rows)
        self.done += len(rows)
        self._check_stop()

    def record_run(self, campaign_id, index, fault_result,
                   wall_s=None, kernel_events=None, attempts=1,
                   stratum=None):
        """Render one completed run and ship it."""
        self._ship([result_to_row(
            index, None, fault_result, wall_s=wall_s,
            kernel_events=kernel_events, attempts=attempts, stratum=stratum,
        )])

    def record_runs(self, campaign_id, rows):
        """One outcome group (a scalar run or a batch), one frame."""
        if rows:
            self._ship(rows)

    def record_error(self, campaign_id, index, message, wall_s=None,
                     status="error", attempts=1, quarantined=False,
                     postmortem=None, stratum=None):
        """Failed runs ship too — they are terminal outcomes.

        ``postmortem`` is a worker-local path; it travels as an opaque
        string (the artifact itself stays on the worker host).
        """
        self._ship([error_to_row(
            index, None, message, status=status, wall_s=wall_s,
            attempts=attempts, quarantined=quarantined,
            postmortem=postmortem, stratum=stratum,
        )])

    def record_execution(self, campaign_id, execution, status="complete"):
        """Capture the shard's execution stats for the complete frame."""
        self.execution = dict(execution)
        self.execution["status"] = status


def _netlist_factory(netlist_dict):
    """A design factory built from a netlist shipped in the lease."""
    from ..netlist import Netlist, design_factory

    return design_factory(Netlist.from_dict(netlist_dict))


def worker_name():
    """This process's worker identity: ``host:pid``."""
    return f"{_socket.gethostname()}:{os.getpid()}"


def execute_shard(shard, factory=None, send=lambda *_a, **_k: None,
                  sink_box=None, stop=None):
    """Run one shard through the campaign runner, streaming rows.

    Factory resolution order: the explicit ``factory`` argument, then
    a netlist carried by the shard itself.  Returns the
    :class:`RowStreamStore` holding the execution stats and golden
    digests.

    :param sink_box: optional dict the sink is published into under
        ``"sink"`` before the run starts (heartbeat progress hook).
    :param stop: optional event requesting graceful shutdown between
        faults.
    :raises ProtocolError: when no design source is available.
    :raises WorkerShutdown: when ``stop`` is set mid-shard (the
        in-flight fault's row has already shipped).
    """
    if factory is None:
        if shard.netlist is None:
            raise ProtocolError(
                f"shard {shard.shard_id} carries no netlist and the "
                "worker has no local design factory"
            )
        factory = _netlist_factory(shard.netlist)
    sink = RowStreamStore(shard, send, stop=stop)
    if sink_box is not None:
        sink_box["sink"] = sink
    config = dict(shard.config)
    config.setdefault("on_error", "collect")
    run_campaign(factory, shard.campaign_spec(), store=sink, **config)
    return sink


def _install_sigterm(stop):
    """Route SIGTERM to the stop event (main thread only).

    Returns the previous handler, or None when installation was not
    possible (``run_worker`` called from a non-main thread — tests,
    embedders — where the caller owns signal policy).
    """
    try:
        return signal.signal(
            signal.SIGTERM, lambda _sig, _frm: stop.set()
        )
    except ValueError:
        return None


def run_worker(address, factory=None, name=None, max_shards=None,
               heartbeat_s=DEFAULT_HEARTBEAT_S, connect_timeout=10.0,
               max_reconnects=DEFAULT_MAX_RECONNECTS,
               backoff_s=DEFAULT_BACKOFF_S,
               backoff_max_s=DEFAULT_BACKOFF_MAX_S,
               row_buffer=DEFAULT_ROW_BUFFER, stop=None, rng=None):
    """Worker daemon main loop: lease, execute, stream, repeat.

    Connects to ``address`` (``"host:port"`` or a ``(host, port)``
    tuple), then loops lease requests until the coordinator drains or
    shuts it down.  Each leased shard runs under a heartbeat thread
    that reports the worker's pid, current run phase (from the
    supervisor's :data:`WORKER_PHASE`) and progress, so the
    coordinator can distinguish a slow shard from a dead worker.

    Socket failures at any point (dial, lease wait, row streaming)
    enter a capped-exponential-backoff reconnect loop rather than
    killing the worker; rows that could not be streamed during an
    outage drain after reconnect.  SIGTERM (when callable from the
    main thread) requests a graceful exit: the in-flight fault
    finishes and flushes, the lease is released, the worker says
    ``bye``.

    Returns the number of shards completed.

    :param factory: optional local design factory; otherwise shards
        must carry their netlist.
    :param max_shards: stop after this many shards (tests).
    :param max_reconnects: consecutive failed dials before giving up
        (None: keep trying forever; 0: the first socket failure
        raises, with no backoff wait).
    :param backoff_s / backoff_max_s: reconnect backoff base/ceiling.
    :param row_buffer: rows buffered while disconnected (oldest
        dropped beyond this; dedup makes the drop safe).
    :param stop: optional external shutdown event (otherwise created,
        and wired to SIGTERM when possible).
    :param rng: randomness for backoff jitter (tests seed it).
    :raises CoordinatorLost: when the coordinator stays unreachable
        past ``max_reconnects``.
    """
    if isinstance(address, str):
        address = parse_address(address)
    host, port = address
    ident = name or worker_name()
    stop = stop or threading.Event()
    previous_handler = _install_sigterm(stop)
    link = CoordinatorLink(
        host, port, ident, connect_timeout=connect_timeout,
        max_reconnects=max_reconnects,
        backoff_s=backoff_s, backoff_max_s=backoff_max_s,
        row_buffer=row_buffer, stop=stop, rng=rng,
    )
    completed = 0
    requested = False   # a lease_request is parked at the coordinator
    try:
        link.connect()
        while not stop.is_set() and (
                max_shards is None or completed < max_shards):
            if not requested:
                link.send("lease_request")
                requested = True
            frame = link.recv(timeout=0.5)
            if frame is None:
                # Timeout (poll the stop event again) or EOF; after an
                # EOF the parked request died with the socket.
                if not link.connected:
                    requested = False
                continue
            if frame["frame"] in ("drain", "shutdown"):
                break
            if frame["frame"] == "error":
                LOGGER.error(
                    "coordinator rejected us: %s", frame.get("message")
                )
                requested = False
                continue
            if frame["frame"] != "lease":
                raise ProtocolError(
                    f"expected a lease, got {frame['frame']!r}"
                )
            requested = False
            shard = Shard.from_dict(frame["shard"])
            token = frame["token"]
            LOGGER.info(
                "worker %s leased shard %d (%d faults, token %s)",
                ident, shard.shard_id, shard.size, token,
            )
            if _run_leased_shard(shard, token, factory, link,
                                 heartbeat_s, stop):
                completed += 1
        if not link.send_best_effort("bye"):
            LOGGER.warning(
                "worker %s could not say bye (coordinator gone)", ident
            )
    except WorkerShutdown:
        LOGGER.info("worker %s stopping on shutdown request", ident)
        link.send_best_effort("bye")
    finally:
        link.close()
        if previous_handler is not None:
            signal.signal(signal.SIGTERM, previous_handler)
    return completed


def _run_leased_shard(shard, token, factory, link, heartbeat_s, stop):
    """Execute one leased shard under a heartbeat thread.

    Returns True when the shard completed (its ``complete`` frame was
    handed to the link), False when it was aborted and its lease
    released with an ``error`` frame.
    """
    beat_stop = threading.Event()
    sink_box = {}

    def _heartbeat_loop():
        while not beat_stop.wait(heartbeat_s):
            sink = sink_box.get("sink")
            try:
                link.send(
                    "heartbeat", token=token, pid=os.getpid(),
                    phase=WORKER_PHASE["phase"],
                    done=sink.done if sink is not None else 0,
                    total=shard.size,
                )
            except (ProtocolError, OSError) as exc:
                # The link buffers/drops on a dead socket, so landing
                # here means the heartbeat machinery itself broke;
                # say so instead of dying silently — the main loop's
                # own sends decide whether to reconnect or exit.
                LOGGER.warning(
                    "heartbeat for shard %d stopped: %s",
                    shard.shard_id, exc,
                )
                return

    beat = threading.Thread(target=_heartbeat_loop, daemon=True)
    beat.start()
    wall_start = perf_counter()
    try:
        def tokenized_send(frame_type, **fields):
            if "token" in fields:
                fields["token"] = token
            link.send(frame_type, **fields)

        sink = execute_shard(shard, factory=factory, send=tokenized_send,
                             sink_box=sink_box, stop=stop)
    except WorkerShutdown:
        beat_stop.set()
        beat.join(timeout=2.0)
        sink = sink_box.get("sink")
        done = sink.done if sink is not None else 0
        LOGGER.info(
            "shard %d released after %d faults (graceful shutdown)",
            shard.shard_id, done,
        )
        link.send_best_effort(
            "error", token=token,
            message=f"worker shutting down (SIGTERM) after "
                    f"{done}/{shard.size} faults",
        )
        raise
    except Exception as exc:
        LOGGER.exception("shard %d failed on this worker", shard.shard_id)
        beat_stop.set()
        beat.join(timeout=2.0)
        link.send("error", token=token,
                  message=f"{type(exc).__name__}: {exc}")
        return False
    beat_stop.set()
    beat.join(timeout=2.0)
    link.send(
        "complete", token=token, rows=sink.rows_sent,
        execution=sink.execution, golden=sink.golden,
        wall_s=round(perf_counter() - wall_start, 6),
    )
    return True

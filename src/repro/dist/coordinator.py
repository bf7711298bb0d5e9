"""The distributed campaign coordinator.

One single-threaded ``selectors`` event loop owns everything: the
listening socket, every worker and client connection, the shard
queue, lease bookkeeping and all database writes.  Single-threaded by
design — SQLite wants one writer, lease state wants no races, and a
fault-injection coordinator spends its life waiting on sockets, not
computing.

Every job moves through one lifecycle, exhaustive or sampled::

    submit (API or in-process) -> job row + chunk plan
        -> chunks drawn as shards -> shards queued -> leases granted
        -> rows written to the final store, tagged by shard, provisional
        -> shard complete -> merged (a state change) in chunk order
        -> plan finished -> unmerged rows deleted -> job complete

The plan is an :class:`~repro.campaign.sampling.ExhaustivePlan` (every
fault in index order, all chunks drawn at submit) or a
:class:`~repro.campaign.sampling.StratifiedSampler` (chunks drawn round
by round, stopping early once its interval closes); shard ``k`` is
chunk ``k`` either way.  Merging strictly in chunk order is what makes
the final store — and a sampler's convergence decisions — identical to
a single-host run.

Fault tolerance is lease-based, **at-least-once**:

* every lease carries a token; frames with a stale token (a zombie
  worker streaming after reassignment) are logged and dropped;
* a worker's death is observed two ways — socket EOF (a SIGKILLed
  process closes its socket immediately) and heartbeat silence
  (:attr:`Coordinator.lease_timeout_s`, for wedged-but-alive workers)
  — and either way its shards requeue for the next lease request;
* re-executed shards re-stream rows already ingested from the dead
  worker's partial run; the final store's first-writer-wins insert
  makes re-ingest idempotent, so the merged store is identical to a
  serial run.

The final store is the coordinator's only durable record: its ``jobs``,
``shards`` and ``runs`` tables hold everything :meth:`Coordinator.resume`
needs after a crash, and every state change is one SQLite WAL commit.

Golden consistency across hosts is verified, not assumed: the first
completing worker's golden probe digests are recorded in the final
store, and every later shard's digests must match or the job aborts
(:class:`~repro.store.store.StoreError` semantics identical to a
local resume against a drifted golden).
"""

from __future__ import annotations

import logging
import selectors
import socket
import threading
from collections import deque
from time import monotonic

from ..campaign.sampling import (
    ExhaustivePlan,
    StratifiedSampler,
    row_outcome,
    stored_outcomes,
)
from ..core.errors import ReproError
from ..obs import journal as _journal
from ..store.serialize import fault_key, spec_from_dict, spec_to_dict
from ..store.sharded import ShardedCampaignStore
from ..store.store import CampaignStore, StoreError
from .protocol import (
    PROTOCOL_VERSION,
    FrameBuffer,
    ProtocolError,
    encode_frame,
    make_frame,
)
from .shards import DEFAULT_SHARD_SIZE, ShardError, plan_chunk_shard

LOGGER = logging.getLogger("repro.dist")

#: Default seconds of heartbeat silence before a lease is revoked.
DEFAULT_LEASE_TIMEOUT_S = 15.0

#: Default ceiling on leases per shard before it is declared failed
#: (guards against a poisoned shard crashing every worker in turn).
DEFAULT_MAX_LEASES = 3

#: Default seconds an EOF'd worker's leases survive awaiting its
#: reconnect before they requeue (socket blips should not forfeit a
#: half-streamed shard).
DEFAULT_RECONNECT_GRACE_S = 10.0

#: Seconds a connected-but-silent peer may go without completing its
#: hello before it is reaped.
DEFAULT_HELLO_TIMEOUT_S = 30.0

#: Malformed frames tolerated from one peer before it is disconnected.
MAX_FRAME_REJECTS = 8

#: Seconds a stopping one-shot coordinator waits for drained workers
#: to hang up before it closes their sockets anyway.
DRAIN_GRACE_S = 2.0


class CoordinatorError(ReproError):
    """Raised for invalid coordinator usage or aborted jobs."""


class _Peer:
    """One connected socket: a worker, a client, or not-yet-hello'd."""

    def __init__(self, sock, addr):
        self.sock = sock
        self.addr = addr
        # Tolerant framing: one garbled line from one peer is rejected
        # and journaled, never allowed to kill the selector loop or
        # the well-formed frames queued behind it.
        self.buffer = FrameBuffer(tolerant=True)
        self.role = None
        self.name = f"{addr[0]}:{addr[1]}"
        self.pid = None
        self.waiting = False   # parked lease_request (no work yet)
        self.connected_at = monotonic()


class _Lease:
    """One granted shard lease.

    ``peer`` is None while the lease is *orphaned*: its holder's
    socket dropped, and the lease waits ``reconnect_grace_s`` for the
    same worker (by name) to reconnect and re-adopt it before the
    shard requeues.
    """

    def __init__(self, job, shard, token, peer):
        self.job = job
        self.shard = shard
        self.token = token
        self.peer = peer
        self.worker_name = peer.name
        self.granted_at = monotonic()
        self.last_heartbeat = monotonic()
        self.orphaned_at = None


class _Job:
    """One submitted campaign: its chunk plan, shards and progress.

    ``plan`` is the job's :class:`~repro.campaign.sampling.ExhaustivePlan`
    or :class:`~repro.campaign.sampling.StratifiedSampler`; ``shards``
    grows as chunks are drawn (shard ``k`` is chunk ``k``).  Completions
    buffer in ``ready`` until every earlier chunk has merged, so the
    plan finishes chunks strictly in order, exactly as in a single-host
    run.  ``outcomes`` mirrors the rows committed to the final store,
    per shard, so completion and merge never read the store back.
    """

    def __init__(self, job_id, spec, campaign_id, plan, store,
                 netlist=None, config=None, sampling=None):
        self.job_id = job_id
        self.name = spec.name
        self.campaign_id = campaign_id
        self.sharded = ShardedCampaignStore(store, campaign_id)
        self.plan = plan
        self.sampling = sampling  # submitted sampling config (or None)
        # The parent spec and fault digests, rendered once: every
        # chunk shard is cut from them.
        self.base = spec_to_dict(spec)
        self.keys = [fault_key(fault) for fault in spec.faults]
        self.netlist = netlist
        self.config = config
        self.workers = set()      # names of workers that merged shards
        self.shards = {}          # shard_id -> Shard, one per drawn chunk
        self.chunks = {}          # shard_id -> chunk drawn, not finished
        self.queue = deque()      # shard ids awaiting a lease
        self.active = {}          # shard_id -> _Lease
        self.ready = {}           # shard_id -> (worker, complete frame)
        self.merged = set()       # shard ids merged into the final store
        self.failed = set()       # shard ids past the lease ceiling
        self.lease_counts = {}
        self.outcomes = {}        # shard_id -> {index: outcome} committed
        self.shard_goldens = {}   # shard_id -> that shard's golden digests
        self.executions = []      # per-shard execution stats
        self.merge_cursor = 0     # next chunk ident to finish, in order
        self.state = "running"
        self.done = threading.Event()
        self.wall_start = monotonic()

    @property
    def total(self):
        return self.plan.population

    @property
    def rows(self):
        """Distinct faults with a row in the final store."""
        return sum(len(outcomes) for outcomes in self.outcomes.values())

    def status(self):
        """JSON-ready progress snapshot (the ``job_status`` payload)."""
        status = {
            "job": self.job_id,
            "name": self.name,
            "state": self.state,
            "shards": len(self.shards),
            "queued": len(self.queue),
            "active": sorted(self.active),
            "merged": len(self.merged),
            "failed": sorted(self.failed),
            "total": self.total,
            "rows": self.rows,
        }
        if self.sampling is not None:
            status["sampled"] = True
            status["trials"] = self.plan.trials
            status["half_width"] = self.plan.half_width()
            status["stopped"] = self.plan.reason
        return status


class Coordinator:
    """Shard dispatcher, result ingestor and merge engine.

    :param store_path: the final campaign store (created at first
        submit or resume; ``campaign watch`` can tail it as shards
        merge) — the coordinator's only durable record.
    :param host: listen address (default loopback).
    :param port: listen port (0 = ephemeral; read :attr:`address`).
    :param shard_size: faults per shard for submitted jobs.
    :param lease_timeout_s: heartbeat silence before lease revocation.
    :param max_leases: lease attempts per shard before it fails.
    :param reconnect_grace_s: seconds an EOF'd worker's leases wait
        for the same worker to reconnect before requeueing (0
        restores immediate revocation).
    :param lease_wall_s: optional wall-clock ceiling per lease — a
        shard still leased after this many seconds requeues even if
        its worker keeps heartbeating (None: heartbeats alone govern).
    """

    def __init__(self, store_path, host="127.0.0.1", port=0,
                 shard_size=DEFAULT_SHARD_SIZE,
                 lease_timeout_s=DEFAULT_LEASE_TIMEOUT_S,
                 max_leases=DEFAULT_MAX_LEASES,
                 reconnect_grace_s=DEFAULT_RECONNECT_GRACE_S,
                 lease_wall_s=None):
        self.store_path = str(store_path)
        self.shard_size = shard_size
        self.lease_timeout_s = lease_timeout_s
        self.max_leases = max_leases
        self.reconnect_grace_s = reconnect_grace_s
        self.lease_wall_s = lease_wall_s
        self._lock = threading.RLock()
        self._selector = selectors.DefaultSelector()
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(
            socket.SOL_SOCKET, socket.SO_REUSEADDR, 1
        )
        self._listener.bind((host, port))
        self._listener.listen(32)
        self._listener.setblocking(False)
        self.address = self._listener.getsockname()[:2]
        self._selector.register(self._listener, selectors.EVENT_READ, None)
        self._peers = {}          # socket -> _Peer
        self._jobs = {}           # job_id -> _Job
        self._leases = {}         # token -> _Lease
        self._seen_workers = set()  # worker names ever hello'd
        self._stop = threading.Event()
        self._drain_when_idle = False
        self._store = None        # final CampaignStore, opened lazily
        self._thread = None

    # -- stores ---------------------------------------------------------------

    def _final_store(self):
        if self._store is None:
            self._store = CampaignStore(self.store_path)
        return self._store

    # -- job submission --------------------------------------------------------

    def submit(self, spec, netlist=None, config=None, sampling=None):
        """Plan and queue one campaign; returns its job id.

        Thread-safe: callable from outside the event loop (the
        in-process path ``run_distributed`` uses) as well as from a
        client ``submit`` frame inside it.  Registers the campaign and
        its job in the final store immediately — its spec, fault list
        and job row are committed before any lease is granted, so a
        crash at any later moment can :meth:`resume` it.

        :param sampling: optional adaptive-sampling configuration dict
            (``margin`` required; ``confidence``, ``seed``, ``strata``
            optional).  A sampled job's stratified sampler draws chunks
            of ``shard_size`` faults round by round, and the job stops
            — revoking outstanding leases — the moment the pooled
            Wilson interval closes to the margin.  The sampling config
            stays coordinator-side; workers execute plain exhaustive
            shards.
        :raises ShardError: for a spec without faults.
        """
        with self._lock:
            if not spec.faults:
                raise ShardError(
                    f"campaign {spec.name!r} has no faults to shard"
                )
            if sampling is not None:
                sampling = dict(sampling)
            plan = self._build_plan(spec, sampling)
            store = self._final_store()
            campaign_id = store.open_campaign(spec, resume=False)
            if sampling is not None:
                store.record_sampling(
                    campaign_id, plan.seed, plan.margin, plan.confidence,
                    plan.strata_mode, plan.chunk,
                )
            if _journal.JOURNAL.enabled:
                store.record_journal(
                    campaign_id, _journal.JOURNAL.path,
                    _journal.JOURNAL.session_offset,
                )
            job_id = store.record_job(campaign_id, netlist, config,
                                      self.shard_size)
            job = _Job(job_id, spec, campaign_id, plan, store,
                       netlist=netlist, config=config, sampling=sampling)
            self._jobs[job_id] = job
            self._pump(job)
            _journal.emit(
                "job_submitted", job=job_id, name=spec.name,
                total=len(spec.faults), shards=len(job.shards),
            )
            _journal.emit(
                "campaign_started", name=spec.name,
                total=len(spec.faults), pending=len(spec.faults),
                mode="distributed", workers=0,
            )
            LOGGER.info(
                "job %d submitted: campaign %r, %d faults, %d shards "
                "drawn", job_id, spec.name, len(spec.faults),
                len(job.shards),
            )
            self._feed_waiting_workers()
            return job_id

    def _build_plan(self, spec, sampling, stored=None, chunk=None):
        """A job's chunk plan: exhaustive, or sampled per its config.

        The chunk size is the coordinator's ``shard_size`` — one chunk
        is one shard — so a distributed sampled campaign is
        row-identical to a single-host run with ``chunk=shard_size``.
        """
        chunk = self.shard_size if chunk is None else chunk
        if sampling is None:
            return ExhaustivePlan(len(spec.faults), chunk=chunk,
                                  stored=stored)
        try:
            margin = sampling["margin"]
        except KeyError:
            raise CoordinatorError(
                "sampled jobs need a 'margin' in their sampling config"
            ) from None
        return StratifiedSampler(
            spec.faults,
            margin=margin,
            confidence=sampling.get("confidence", 0.95),
            seed=sampling.get("seed", 0),
            strata=sampling.get("strata", "site-phase"),
            chunk=chunk,
            stored=stored,
        )

    def submit_dict(self, spec_dict, netlist=None, config=None,
                    sampling=None):
        """Submit from JSON payloads (the ``submit`` frame path)."""
        return self.submit(
            spec_from_dict(spec_dict), netlist=netlist, config=config,
            sampling=sampling,
        )

    def resume(self):
        """Rebuild every unfinished job from the store; returns their ids.

        For every job whose campaign is still ``running``, the chunk
        plan is rebuilt from the stored spec, sampling configuration
        and shard size, and only the rows of ``merged`` shards replay
        into it: chunks merge strictly in order, so a sampled job
        reaches the convergence decisions of a single-host run.  Every
        chunk whose shard merged, or whose provisional rows cover each
        of its faults, is **adopted**, never re-run; the rest requeue
        with their recorded lease counts, less the lease a shard still
        held at the crash (a coordinator death is not the shard's
        strike).  ``failed`` shards stay failed.

        Call before :meth:`serve`/:meth:`start`; dials from workers
        queue in the listen backlog until the loop runs.
        """
        resumed, adopted_total, requeued_total = [], 0, 0
        with self._lock:
            store = self._final_store()
            for record in store.job_rows():
                if record["status"] != "running":
                    LOGGER.info(
                        "job %d (%s) already %s; nothing to resume",
                        record["job"], record["name"], record["status"],
                    )
                    continue
                job = self._rebuild(store, record)
                self._jobs[job.job_id] = job
                # Every merge in this pump is an adoption: the event
                # loop has not started, so no worker can complete.
                self._pump(job)
                resumed.append(job.job_id)
                adopted_total += len(job.merged)
                requeued_total += len(job.queue)
                LOGGER.info(
                    "job %d (%s) resumed: %d shards adopted from the "
                    "store, %d requeued, %d failed",
                    job.job_id, job.name, len(job.merged), len(job.queue),
                    len(job.failed),
                )
            _journal.emit(
                "coordinator_resumed", jobs=len(resumed),
                adopted=adopted_total, requeued=requeued_total,
                store=self.store_path,
            )
            self._feed_waiting_workers()
        return resumed

    def _rebuild(self, store, record):
        """One unfinished job, as its store rows describe it."""
        campaign_id = record["campaign_id"]
        spec = store.load_spec(campaign_id)
        sampling = store.sampling_config(campaign_id)
        shards = store.shard_rows(record["name"])
        merged = {row["shard_id"] for row in shards
                  if row["state"] == "merged"}
        rows = store.run_rows(campaign_id)
        plan = self._build_plan(
            spec, sampling, chunk=record["shard_size"],
            stored=stored_outcomes(
                row for row in rows if row["shard_id"] in merged
            ),
        )
        job = _Job(record["job"], spec, campaign_id, plan, store,
                   netlist=record["netlist"], config=record["config"],
                   sampling=sampling)
        for row in shards:
            if row["state"] == "failed":
                job.failed.add(row["shard_id"])
            job.lease_counts[row["shard_id"]] = (
                row["leases"] - (row["state"] == "leased")
            )
        for row in rows:
            if row["shard_id"] is not None:
                job.outcomes.setdefault(row["shard_id"], {})[row["idx"]] = (
                    row_outcome(row)
                )
        return job

    def job_status(self, job_id):
        """Progress snapshot of one job (thread-safe)."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return {"job": job_id, "state": "unknown"}
            return job.status()

    def wait(self, job_id, timeout=None):
        """Block until a job reaches a terminal state; returns it."""
        job = self._jobs.get(job_id)
        if job is None:
            raise CoordinatorError(f"unknown job {job_id}")
        job.done.wait(timeout)
        return self.job_status(job_id)

    # -- event loop ------------------------------------------------------------

    def serve(self, poll_s=0.2):
        """Run the event loop until :meth:`stop` (blocking)."""
        try:
            while not self._stop.is_set():
                self._poll(poll_s)
                with self._lock:
                    self._expire_leases()
                    self._reap_idle_peers()
                    self._maybe_drain()
            self._drain_fleet(poll_s)
        finally:
            self._shutdown_sockets()

    def _poll(self, timeout):
        for key, _events in self._selector.select(timeout):
            if key.data is None:
                self._accept()
            else:
                self._service_peer(key.data)

    def _drain_fleet(self, poll_s):
        """Drain every connected worker before the sockets close.

        A worker that finished the last shard as its job completed can
        still have a ``lease_request`` in flight.  Closing its socket
        would hand it an EOF, which looks like a coordinator crash and
        sends it into reconnect backoff.  So in one-shot mode, with
        every job terminal, each worker gets ``drain`` and the loop
        keeps reading until the workers hang up (at most
        :data:`DRAIN_GRACE_S`).  A coordinator stopped with work still
        running closes as before, and its workers reconnect.
        """
        with self._lock:
            if not (self._drain_when_idle and self._all_terminal()):
                return
            for peer in list(self._peers.values()):
                if peer.role == "worker":
                    self._send(peer, "drain")
                    peer.waiting = False
        deadline = monotonic() + DRAIN_GRACE_S
        while any(peer.role == "worker" for peer in self._peers.values()):
            remaining = deadline - monotonic()
            if remaining <= 0:
                LOGGER.warning(
                    "closing sockets of workers that did not hang up "
                    "within %.1fs of drain", DRAIN_GRACE_S,
                )
                return
            self._poll(min(poll_s, remaining))

    def start(self):
        """Run :meth:`serve` in a background thread (tests, embedding)."""
        self._thread = threading.Thread(target=self.serve, daemon=True)
        self._thread.start()
        return self._thread

    def stop(self):
        """Stop the loop and close every socket and database."""
        self._stop.set()
        if self._thread is not None and self._thread is not threading.current_thread():
            self._thread.join(timeout=10.0)
            self._thread = None
        with self._lock:
            if self._store is not None:
                self._store.close()
                self._store = None

    def drain_when_idle(self, enable=True):
        """Tell idle workers to disconnect once no work remains.

        The one-shot mode (``run_distributed``, ``campaign serve``
        with an immediate job): when every job is terminal, waiting
        workers get ``drain`` instead of parking forever.
        """
        with self._lock:
            self._drain_when_idle = enable

    # -- socket plumbing ---------------------------------------------------------

    def _accept(self):
        try:
            sock, addr = self._listener.accept()
        except OSError:
            return
        sock.setblocking(False)
        peer = _Peer(sock, addr)
        self._peers[sock] = peer
        self._selector.register(sock, selectors.EVENT_READ, peer)

    def _service_peer(self, peer):
        try:
            chunk = peer.sock.recv(65536)
        except BlockingIOError:
            return
        except OSError:
            chunk = b""
        if not chunk:
            self._disconnect(peer, reason="eof")
            return
        # The buffer is tolerant: malformed or oversized lines come
        # back as rejects, never as an exception that could take the
        # selector loop (or this peer's later valid frames) with them.
        frames = peer.buffer.feed(chunk)
        for message in peer.buffer.take_rejects():
            LOGGER.warning("rejecting frame from %s: %s", peer.name,
                           message)
            _journal.emit("frame_rejected", peer=peer.name,
                          reason=message[:200])
        if peer.buffer.rejected > MAX_FRAME_REJECTS:
            LOGGER.warning(
                "dropping %s: %d malformed frames", peer.name,
                peer.buffer.rejected,
            )
            self._disconnect(peer, reason="protocol")
            return
        for frame in frames:
            with self._lock:
                try:
                    self._dispatch(peer, frame)
                except ProtocolError as exc:
                    LOGGER.warning(
                        "protocol error from %s: %s", peer.name, exc
                    )
                    self._send(peer, "error", token=None,
                               message=str(exc))
                except Exception:
                    # A coordinator bug must not kill the event loop
                    # serving every other worker; log it, tell the
                    # peer, carry on.
                    LOGGER.exception(
                        "internal error handling %r frame from %s",
                        frame.get("frame"), peer.name,
                    )
                    self._send(peer, "error", token=None,
                               message="internal coordinator error")

    def _send(self, peer, frame_type, **fields):
        try:
            peer.sock.sendall(encode_frame(make_frame(frame_type, **fields)))
        except OSError:
            self._disconnect(peer, reason="send-failure")

    def _disconnect(self, peer, reason=""):
        """Drop one peer.

        A worker's leases are **orphaned** rather than revoked when the
        drop looks like a network event (EOF, send failure) and a
        reconnect grace is configured: the same worker re-adopting its
        token within the grace keeps streaming as if nothing happened.
        Protocol kicks and clean goodbyes revoke immediately.
        """
        try:
            self._selector.unregister(peer.sock)
        except (KeyError, ValueError):
            pass
        try:
            peer.sock.close()
        except OSError:
            pass
        self._peers.pop(peer.sock, None)
        with self._lock:
            tokens = [
                token for token, lease in self._leases.items()
                if lease.peer is peer
            ]
            reconnectable = (
                peer.role == "worker"
                and self.reconnect_grace_s > 0
                and reason in ("eof", "send-failure")
            )
            for token in tokens:
                lease = self._leases[token]
                if reconnectable:
                    lease.peer = None
                    lease.orphaned_at = monotonic()
                    LOGGER.info(
                        "lease %s orphaned for %.1fs awaiting reconnect"
                        " of %s", token, self.reconnect_grace_s,
                        lease.worker_name,
                    )
                else:
                    self._revoke(lease, reason=f"disconnect:{reason}")
            # A clean goodbye is not a death; EOF with leases in
            # flight (or mid-protocol) is.
            if (peer.role == "worker" and peer.pid is not None
                    and (tokens or reason not in ("bye",))):
                _journal.emit(
                    "worker_died", pid=peer.pid, index=None,
                    exitcode=None, killed=None,
                )

    def _reap_idle_peers(self):
        """Close sockets that never completed their hello.

        Half-open connections (a SYN-scan, a crashed client, a NAT
        timeout) otherwise accumulate forever in the selector.  A
        hello'd peer is never reaped here — a parked lease request is
        legitimately silent for as long as the queue is empty.
        """
        now = monotonic()
        for peer in list(self._peers.values()):
            if (peer.role is None
                    and now - peer.connected_at > DEFAULT_HELLO_TIMEOUT_S):
                LOGGER.info("reaping %s: no hello in %.0fs",
                            peer.name, DEFAULT_HELLO_TIMEOUT_S)
                self._disconnect(peer, reason="hello-timeout")

    def _shutdown_sockets(self):
        for peer in list(self._peers.values()):
            try:
                peer.sock.close()
            except OSError:
                pass
        self._peers.clear()
        try:
            self._selector.unregister(self._listener)
        except (KeyError, ValueError):
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        self._selector.close()

    # -- frame dispatch ----------------------------------------------------------

    def _dispatch(self, peer, frame):
        kind = frame["frame"]
        if kind == "hello":
            self._on_hello(peer, frame)
        elif peer.role is None:
            raise ProtocolError(f"{kind!r} before hello")
        elif kind == "lease_request":
            self._on_lease_request(peer)
        elif kind == "heartbeat":
            self._on_heartbeat(peer, frame)
        elif kind == "rows":
            self._on_rows(peer, frame)
        elif kind == "complete":
            self._on_complete(peer, frame)
        elif kind == "error":
            self._on_worker_error(peer, frame)
        elif kind == "submit":
            self._on_submit(peer, frame)
        elif kind == "status_request":
            self._on_status_request(peer, frame)
        elif kind == "bye":
            self._disconnect(peer, reason="bye")
        else:
            raise ProtocolError(f"unexpected frame {kind!r}")

    def _on_hello(self, peer, frame):
        role = frame.get("role")
        if role not in ("worker", "client"):
            raise ProtocolError(f"unknown role {role!r}")
        proto = frame.get("proto", PROTOCOL_VERSION)
        if proto != PROTOCOL_VERSION:
            raise ProtocolError(
                f"protocol version mismatch: coordinator speaks "
                f"{PROTOCOL_VERSION}, peer speaks {proto}"
            )
        peer.role = role
        peer.name = frame.get("name") or peer.name
        peer.pid = frame.get("pid")
        if role == "worker":
            if peer.name in self._seen_workers:
                _journal.emit(
                    "worker_reconnected", worker=peer.name, job=None,
                    shard=None, token=None,
                )
                LOGGER.info("worker %s reconnected", peer.name)
            self._seen_workers.add(peer.name)
        self._send(peer, "welcome", proto=PROTOCOL_VERSION)
        LOGGER.info("%s %s connected", role, peer.name)

    # -- leasing -----------------------------------------------------------------

    def _next_shard(self):
        """The next (job, shard) to lease, FIFO across jobs.

        A job whose queue is empty yields nothing — a sampled job's
        next round is drawn only once an in-order merge lets its
        sampler plan it.
        """
        for job_id in sorted(self._jobs):
            job = self._jobs[job_id]
            if job.state == "running" and job.queue:
                return job, job.shards[job.queue.popleft()]
        return None, None

    def _pump(self, job):
        """Drive a job's plan as far as it goes without a worker.

        Finishes the chunk at the merge cursor while it can — merged
        from ``ready``, or failed past its lease ceiling — and
        otherwise draws the plan's next chunk as a shard.  Finishing
        comes first, so outcomes replayed into a later chunk never
        reach an earlier chunk's convergence check.  Called whenever
        progress may be possible: at submit and resume, on a
        completion, and when a shard fails.
        """
        plan = job.plan
        while job.state == "running":
            chunk = job.chunks.get(job.merge_cursor)
            if chunk is not None and (chunk.ident in job.ready
                                      or chunk.ident in job.failed):
                if not self._finish_chunk(job, chunk):
                    break
                continue
            chunk = plan.next_chunk()
            if chunk is None:
                break
            self._draw(job, chunk)
        if job.state == "running" and plan.finished:
            self._stop_sampling(job)
        self._maybe_finish(job)

    def _draw(self, job, chunk):
        """Plan one drawn chunk's shard: queued, or adopted.

        The shard covers the chunk's full draw (not just the
        un-replayed subset), so shard identity survives a crash, and
        the final store's first-writer-wins insert drops any
        re-streamed duplicates.  A chunk whose shard merged before a
        crash, or whose provisional rows cover every fault (a worker
        finished it but the coordinator died before merging), is
        adopted without a lease.
        """
        shard = plan_chunk_shard(
            job.base, job.keys, chunk.ident, chunk.indices,
            netlist=job.netlist, config=job.config,
        )
        job.shards[shard.shard_id] = shard
        job.chunks[chunk.ident] = chunk
        job.lease_counts.setdefault(shard.shard_id, 0)
        if shard.shard_id in job.failed:
            return
        outcomes = job.outcomes.get(shard.shard_id, {})
        if not chunk.pending or set(shard.indices) <= outcomes.keys():
            job.ready[shard.shard_id] = ("resume", None)
            return
        job.queue.append(shard.shard_id)
        self._final_store().record_shard(
            job.campaign_id, shard.shard_id, "queued", n_faults=shard.size,
        )

    def _finish_chunk(self, job, chunk):
        """Merge (or fail) the chunk at the cursor; finish it in the plan.

        Returns False when the job stops advancing: it aborted on a
        golden divergence, or its plan finished.
        """
        shard_id = chunk.ident
        if shard_id in job.ready:
            worker, frame = job.ready.pop(shard_id)
            if not self._merge(job, job.shards[shard_id], worker, frame):
                return False
        else:
            # Past the lease ceiling: these faults can never be
            # simulated.  They finish as failed runs (excluded from
            # trials) so later chunks are not deadlocked behind a chunk
            # that will never arrive.
            for index in chunk.pending:
                job.plan.record(index, None)
        del job.chunks[shard_id]
        job.merge_cursor += 1
        return not job.plan.finish_chunk(chunk)

    def _merge(self, job, shard, worker, frame):
        """Golden-check and merge one shard; feed its outcomes to the plan.

        ``frame`` is the worker's ``complete`` frame (None for an
        adopted shard).  The merge is one ``shards`` row update: the
        rows are already in the final store.  Returns False when the
        job aborted (golden divergence).
        """
        golden = (frame or {}).get("golden")
        if golden:
            # Golden digests are compared **per shard**: rows from
            # different lease attempts of the same shard dedup into one
            # row set, so every attempt at one shard must have executed
            # the same golden.  The campaign row keeps the first.
            first = not job.shard_goldens
            if not self._check_shard_golden(job, shard.shard_id, golden,
                                            worker):
                return False
            if first:
                self._final_store().record_golden_digests(
                    job.campaign_id, golden
                )
        job.sharded.merge_into(
            shard, worker=worker,
            leases=job.lease_counts[shard.shard_id] or None,
        )
        job.merged.add(shard.shard_id)
        if worker != "resume":
            job.workers.add(worker)
        outcomes = job.outcomes.get(shard.shard_id, {})
        for index, outcome in outcomes.items():
            job.plan.record(index, outcome)
        if frame and frame.get("execution"):
            job.executions.append(frame["execution"])
        _journal.emit(
            "shard_completed", job=job.job_id, shard=shard.shard_id,
            worker=worker,
            rows=frame.get("rows") if frame else len(outcomes),
            merged=len(outcomes),
        )
        LOGGER.info(
            "shard %d of job %d merged from %s (%d rows)",
            shard.shard_id, job.job_id, worker, len(outcomes),
        )
        return True

    def _check_shard_golden(self, job, shard_id, golden, worker_name):
        """Per-shard golden digest comparison; aborts on divergence.

        Digests are compared per shard only — an adaptive analog
        solver's step sequence legitimately depends on where the
        runner pauses for the shard's own fault times, so traces are
        not comparable across shards.  Returns False after aborting.
        """
        seen = job.shard_goldens.get(shard_id)
        if seen is not None and seen != golden:
            changed = sorted(
                name for name in set(seen) | set(golden)
                if seen.get(name) != golden.get(name)
            )
            self._abort_job(
                job,
                f"golden divergence on worker {worker_name}: shard "
                f"{shard_id} re-ran with different golden "
                f"traces ({', '.join(changed)}); the design or "
                "its parameters changed — refusing to mix results",
            )
            return False
        job.shard_goldens[shard_id] = golden
        return True

    def _stop_sampling(self, job):
        """Early-stop bookkeeping once a sampled job's plan finished.

        Outstanding leases are revoked and their chunks abandoned —
        the provisional rows they already streamed are deleted, so the
        final store is row-identical to a single-host run that stopped
        at the same chunk.  The faults sampling saved then get their
        ``skipped`` rows in one transaction.  Exhaustive jobs have
        nothing to stop.
        """
        if job.sampling is None:
            return
        sampler = job.plan
        store = self._final_store()
        abandoned = set()
        for shard_id, lease in list(job.active.items()):
            self._leases.pop(lease.token, None)
            del job.active[shard_id]
            abandoned.add(shard_id)
        abandoned.update(job.queue)
        job.queue.clear()
        abandoned.update(job.ready)
        job.ready.clear()
        job.chunks.clear()
        for shard_id in sorted(abandoned):
            store.record_shard(
                job.campaign_id, shard_id, "abandoned",
            )
        # Before the skipped rows: their first-writer-wins insert would
        # otherwise keep an abandoned chunk's provisional row instead.
        self._drop_provisional(job)
        estimate, (low, high) = sampler.pooled()
        _journal.emit(
            "sampling_stopped", job=job.job_id, reason=sampler.reason,
            trials=sampler.trials, estimate=estimate,
            half_width=(high - low) / 2.0,
            skipped=sampler.population - sampler.simulated,
            revoked=len(abandoned),
        )
        store.record_skipped(
            job.campaign_id,
            [
                (index, sampler.stratum_of(index))
                for index in sampler.skipped_indices()
            ],
        )
        LOGGER.info(
            "job %d sampling stopped (%s): %d trials, estimate "
            "%.4f ± %.4f, %d leases/chunks abandoned",
            job.job_id, sampler.reason, sampler.trials, estimate,
            (high - low) / 2.0, len(abandoned),
        )

    def _on_lease_request(self, peer):
        if peer.role != "worker":
            raise ProtocolError("only workers request leases")
        job, shard = self._next_shard()
        if shard is None:
            if self._drain_when_idle and self._all_terminal():
                self._send(peer, "drain")
            else:
                peer.waiting = True
            return
        self._grant(job, shard, peer)

    def _grant(self, job, shard, peer):
        job.lease_counts[shard.shard_id] += 1
        count = job.lease_counts[shard.shard_id]
        token = f"{job.job_id}:{shard.shard_id}:{count}"
        lease = _Lease(job, shard, token, peer)
        job.active[shard.shard_id] = lease
        self._leases[token] = lease
        peer.waiting = False
        self._final_store().record_shard(
            job.campaign_id, shard.shard_id, "leased", worker=peer.name,
            leases=count,
        )
        _journal.emit(
            "shard_leased", job=job.job_id, shard=shard.shard_id,
            worker=peer.name, size=shard.size, lease=count,
        )
        self._send(peer, "lease", shard=shard.to_dict(), token=token,
                   lease_timeout_s=self.lease_timeout_s)
        LOGGER.info(
            "shard %d of job %d leased to %s (attempt %d)",
            shard.shard_id, job.job_id, peer.name, count,
        )

    def _feed_waiting_workers(self):
        """Grant parked lease requests after new work arrives."""
        for peer in list(self._peers.values()):
            if not peer.waiting:
                continue
            job, shard = self._next_shard()
            if shard is None:
                return
            self._grant(job, shard, peer)

    def _lease_for(self, frame, expect_peer=None):
        """The live lease a frame's token names, or None (stale).

        An orphaned lease (its holder's socket dropped within the
        reconnect grace) is **re-adopted** when the same worker — by
        name — presents its token again: buffered rows it could not
        send during the outage drain into the same lease as if the
        connection never blinked.
        """
        lease = self._leases.get(frame.get("token"))
        if lease is None:
            LOGGER.info(
                "dropping %s frame with stale token %r",
                frame["frame"], frame.get("token"),
            )
            return None
        if expect_peer is not None and lease.peer is not expect_peer:
            if (expect_peer.role == "worker"
                    and expect_peer.name == lease.worker_name):
                # Either the lease is orphaned, or the worker redialed
                # before we noticed its old socket die (the common
                # race: its FIN is still in flight while the fresh
                # connection already carries frames).  Same worker by
                # name, same token: the newest connection wins.
                lease.peer = expect_peer
                lease.orphaned_at = None
                lease.last_heartbeat = monotonic()
                _journal.emit(
                    "worker_reconnected", worker=expect_peer.name,
                    job=lease.job.job_id, shard=lease.shard.shard_id,
                    token=lease.token,
                )
                LOGGER.info(
                    "worker %s re-adopted lease %s on shard %d",
                    expect_peer.name, lease.token, lease.shard.shard_id,
                )
                return lease
            holder = ("<orphaned>" if lease.peer is None
                      else lease.peer.name)
            LOGGER.warning(
                "token %r used by %s but leased to %s; dropping",
                frame.get("token"), expect_peer.name, holder,
            )
            return None
        return lease

    def _revoke(self, lease, reason):
        """Requeue (or fail) one lease's shard after its holder died."""
        job, shard = lease.job, lease.shard
        self._leases.pop(lease.token, None)
        if job.active.get(shard.shard_id) is lease:
            del job.active[shard.shard_id]
        if shard.shard_id in job.merged:
            return  # completed before the revocation landed
        if job.lease_counts[shard.shard_id] >= self.max_leases:
            job.failed.add(shard.shard_id)
            self._final_store().record_shard(
                job.campaign_id, shard.shard_id, "failed",
                worker=lease.worker_name,
                leases=job.lease_counts[shard.shard_id],
            )
            LOGGER.error(
                "shard %d of job %d failed %d leases; giving up",
                shard.shard_id, job.job_id, self.max_leases,
            )
            self._pump(job)
        else:
            job.queue.append(shard.shard_id)
            self._final_store().record_shard(
                job.campaign_id, shard.shard_id, "queued",
            )
        _journal.emit(
            "shard_reassigned", job=job.job_id, shard=shard.shard_id,
            worker=lease.worker_name, reason=reason,
        )
        LOGGER.warning(
            "lease on shard %d of job %d revoked (%s)",
            shard.shard_id, job.job_id, reason,
        )
        self._feed_waiting_workers()

    def _expire_leases(self):
        """Revoke leases that outlived their liveness evidence.

        Three independent clocks:

        * **reconnect grace** — an orphaned lease whose worker never
          came back;
        * **heartbeat silence** — a connected worker that stopped
          reporting (wedged, not dead: the socket is still open);
        * **wall deadline** — optional absolute ceiling per lease,
          catching workers that heartbeat forever without finishing.
        """
        now = monotonic()
        for token in list(self._leases):
            lease = self._leases.get(token)
            if lease is None:
                continue
            reason = None
            if lease.peer is None:
                if now - lease.orphaned_at > self.reconnect_grace_s:
                    reason = "reconnect-grace"
            elif now - lease.last_heartbeat > self.lease_timeout_s:
                reason = "heartbeat-silence"
            if (reason is None and self.lease_wall_s is not None
                    and now - lease.granted_at > self.lease_wall_s):
                reason = "wall-deadline"
            if reason is None:
                continue
            _journal.emit(
                "lease_expired", job=lease.job.job_id,
                shard=lease.shard.shard_id, worker=lease.worker_name,
                reason=reason,
            )
            if (reason == "heartbeat-silence" and lease.peer is not None
                    and lease.peer.pid is not None):
                _journal.emit(
                    "worker_died", pid=lease.peer.pid, index=None,
                    exitcode=None, killed=None,
                )
            self._revoke(lease, reason=reason)

    # -- ingest ------------------------------------------------------------------

    def _on_heartbeat(self, peer, frame):
        lease = self._lease_for(frame, expect_peer=peer)
        if lease is None:
            return
        lease.last_heartbeat = monotonic()
        _journal.emit(
            "worker_heartbeat", pid=frame.get("pid"),
            index=frame.get("done"), phase=frame.get("phase"),
        )

    def _on_rows(self, peer, frame):
        lease = self._lease_for(frame, expect_peer=peer)
        if lease is None or lease.job.state != "running":
            return
        lease.last_heartbeat = monotonic()
        job, shard = lease.job, lease.shard
        try:
            # Workers run plain exhaustive shards and know nothing of
            # strata; the coordinator owns the plan and stamps each
            # row's stratum (None for exhaustive jobs) at ingest.
            rows = [
                dict(row, stratum=job.plan.stratum_of(int(row["idx"])))
                for row in frame["rows"]
            ]
            job.sharded.ingest_row(shard, rows)
        except (StoreError, LookupError) as exc:
            raise ProtocolError(f"rows frame rejected: {exc}") from exc
        outcomes = job.outcomes.setdefault(shard.shard_id, {})
        for row in rows:
            index = int(row["idx"])
            if index not in outcomes:
                outcomes[index] = row_outcome(row)
                _journal.emit(
                    "run_finished", index=index, status=row.get("status"),
                    label=row.get("label"), wall_s=row.get("wall_s"),
                    attempts=row.get("attempts", 1),
                )

    def _on_complete(self, peer, frame):
        lease = self._lease_for(frame, expect_peer=peer)
        if lease is None:
            return
        job, shard = lease.job, lease.shard
        done = shard.shard_id in job.merged or shard.shard_id in job.ready
        if not done:
            # A completion claim is merged on evidence, not trust: the
            # final store must hold a row of the shard for every fault.
            # Rows can be lost in flight — sendall() into a connection
            # a fault (or a chaos proxy) already cut succeeds locally,
            # so the worker has nothing left to re-send — and a
            # complete that outlives its rows must requeue the shard,
            # not merge a hole.
            outcomes = job.outcomes.get(shard.shard_id, {})
            missing = sorted(set(shard.indices) - outcomes.keys())
            if missing:
                LOGGER.warning(
                    "shard %d of job %d completed by %s but rows %s "
                    "never arrived; requeueing",
                    shard.shard_id, job.job_id, peer.name, missing,
                )
                self._revoke(lease, reason=f"rows-missing: {missing}")
                return
        self._leases.pop(lease.token, None)
        if job.active.get(shard.shard_id) is lease:
            del job.active[shard.shard_id]
        if done:
            return  # the other holder of a reassigned shard got here first
        # Shards merge strictly in chunk order: an out-of-order
        # completion buffers until every earlier chunk has merged.
        job.ready[shard.shard_id] = (peer.name, frame)
        self._pump(job)
        self._feed_waiting_workers()

    def _on_worker_error(self, peer, frame):
        lease = self._lease_for(frame, expect_peer=peer)
        if lease is None:
            return
        LOGGER.error(
            "worker %s failed shard %d of job %d: %s",
            peer.name, lease.shard.shard_id, lease.job.job_id,
            frame.get("message"),
        )
        self._revoke(lease, reason=f"worker-error: {frame.get('message')}")

    # -- job completion ----------------------------------------------------------

    def _maybe_finish(self, job):
        # A job is done when its plan finished and no chunk is still
        # leased, queued or buffered awaiting merge.
        if job.state != "running" or not job.plan.finished:
            return
        if job.active or job.queue or job.ready:
            return
        self._drop_provisional(job)
        execution = self._combined_execution(job)
        job.state = "complete" if not job.failed else "errors"
        self._final_store().record_execution(
            job.campaign_id, execution, status=job.state,
        )
        _journal.emit(
            "campaign_finished", name=job.name, execution=execution,
        )
        job.done.set()
        LOGGER.info(
            "job %d (%s) finished: %d/%d shards merged, state %s",
            job.job_id, job.name, len(job.merged), len(job.shards),
            job.state,
        )
        self._maybe_drain()

    def _combined_execution(self, job):
        """Aggregate the workers' per-shard execution stats."""
        execution = {
            "mode": "distributed",
            "workers": len(job.workers),
            "shards": len(job.shards),
            "shards_merged": len(job.merged),
            "shards_failed": len(job.failed),
            "completed": job.rows,
            "wall_s": round(monotonic() - job.wall_start, 6),
        }
        for key in ("golden_events", "fault_events", "kernel_events",
                    "errors", "retries", "timeouts", "diverged",
                    "crashed", "quarantined", "checkpoints"):
            execution[key] = sum(
                int(exe.get(key) or 0) for exe in job.executions
            )
        if job.sampling is not None:
            execution["mode"] = "sampled-distributed"
            execution["completed"] = job.plan.simulated
            execution["sampling"] = job.plan.summary()
        return execution

    def _drop_provisional(self, job):
        """Delete the rows of every shard the job did not merge."""
        self._final_store().drop_provisional_rows(job.campaign_id)
        for shard_id in set(job.outcomes) - job.merged:
            del job.outcomes[shard_id]

    def _abort_job(self, job, message):
        job.state = "aborted"
        self._drop_provisional(job)
        self._final_store().record_execution(
            job.campaign_id,
            {"mode": "distributed", "error": message},
            status="errors",
        )
        LOGGER.error("job %d aborted: %s", job.job_id, message)
        job.done.set()
        self._maybe_drain()

    def _all_terminal(self):
        return all(
            job.state != "running" for job in self._jobs.values()
        )

    def _maybe_drain(self):
        if not self._drain_when_idle or not self._all_terminal():
            return
        for peer in list(self._peers.values()):
            if peer.role == "worker" and peer.waiting:
                self._send(peer, "drain")
                peer.waiting = False

    # -- client API --------------------------------------------------------------

    def _on_submit(self, peer, frame):
        if peer.role != "client":
            raise ProtocolError("only clients submit jobs")
        job_id = self.submit_dict(
            frame["spec"], netlist=frame.get("netlist"),
            config=frame.get("config"),
            sampling=frame.get("sampling"),
        )
        job = self._jobs[job_id]
        self._send(
            peer, "job", job=job_id, name=job.name,
            shards=len(job.shards), total=job.total,
        )

    def _on_status_request(self, peer, frame):
        status = self.job_status(int(frame["job"]))
        self._send(peer, "job_status", **status)

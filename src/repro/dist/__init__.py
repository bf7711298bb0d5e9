"""Distributed fault-injection campaigns: shard, dispatch, merge.

``repro.dist`` scales a campaign past one process: the fault
dictionary is sliced into self-contained :class:`~.shards.Shard` work
units, a :class:`~.coordinator.Coordinator` leases them to worker
daemons over a line-delimited JSON socket protocol, each worker runs
its shard through the **ordinary campaign runner** (warm starts and
batching included) streaming run rows back as they land, and the rows
land once, in one final :class:`~repro.store.CampaignStore`, where
completed shards merge deterministically — row-identical to a serial
run regardless of worker count or arrival order.

Three entry points:

* :func:`~.local.run_distributed` — in-process loopback (coordinator
  thread + forked workers), the library API;
* ``repro campaign serve`` / ``worker`` / ``submit`` — the CLI
  deployment for real fleets (see ``docs/distributed.md``);
* :class:`~.coordinator.Coordinator` + :func:`~.worker.run_worker`
  directly, for embedding.

Fault tolerance is at-least-once with idempotent rows: dead workers
(socket EOF or heartbeat silence past the lease timeout) get their
shards re-leased, and duplicate rows from the two executions dedup by
global fault index with content-digest verification.  Crash tolerance
goes further (see ``docs/distributed.md``, "Failure model"): the
final store is the coordinator's only durable record — jobs, shard
states and provisional rows, each a SQLite WAL commit — and a
restarted coordinator can :meth:`~.coordinator.Coordinator.resume`
from it after a kill; workers reconnect with capped exponential
backoff and drain buffered rows; and a seeded
:class:`~.chaos.ChaosProxy` exists to prove all of it under injected
network faults.
"""

from .chaos import ChaosConfig, ChaosProxy
from .coordinator import Coordinator, CoordinatorError
from .local import run_distributed, spawn_local_workers
from .protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    FrameBuffer,
    FrameConnection,
    ProtocolError,
    connect,
    parse_address,
)
from .shards import DEFAULT_SHARD_SIZE, Shard, ShardError, plan_shards
from .worker import (
    CoordinatorLost,
    RowStreamStore,
    WorkerShutdown,
    execute_shard,
    run_worker,
)

__all__ = [
    "ChaosConfig",
    "ChaosProxy",
    "Coordinator",
    "CoordinatorError",
    "CoordinatorLost",
    "DEFAULT_SHARD_SIZE",
    "FrameBuffer",
    "FrameConnection",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "RowStreamStore",
    "Shard",
    "ShardError",
    "WorkerShutdown",
    "connect",
    "execute_shard",
    "parse_address",
    "plan_shards",
    "run_distributed",
    "run_worker",
    "spawn_local_workers",
]

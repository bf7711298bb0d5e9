"""Single-host distributed execution: coordinator + forked workers.

The loopback deployment of ``repro.dist`` — the same coordinator,
wire protocol and merge machinery as a multi-host fleet, with the
workers forked locally so they inherit the design factory directly
(no netlist file needed).  This is what ``benchmarks/bench_dist.py``
measures and what the integration tests kill workers under; it is
also a genuinely useful way to use all cores of one machine on a
large campaign, because each worker runs its *own* golden and warm
checkpoints and the campaign's faults split across them.
"""

from __future__ import annotations

import logging
import os

from ..campaign.supervisor import fork_context
from ..obs import journal as _journal
from ..store.store import CampaignStore
from .coordinator import Coordinator, CoordinatorError
from .worker import run_worker

LOGGER = logging.getLogger("repro.dist")


def _worker_main(address, factory, name, worker_kwargs):
    """Forked worker body: detach inherited telemetry, serve leases."""
    # The fork duplicated the parent's journal handle and listeners;
    # writing from two processes would interleave sequence numbers.
    _journal.detach()
    try:
        run_worker(address, factory=factory, name=name, **worker_kwargs)
    except Exception:
        LOGGER.exception("local worker %s crashed", name)
        os._exit(1)


def spawn_local_workers(address, count, factory, context=None,
                        **worker_kwargs):
    """Fork ``count`` worker processes dialing ``address``.

    Returns the started :class:`multiprocessing.Process` list.  Extra
    keyword arguments pass through to :func:`~.worker.run_worker`
    (reconnect/backoff knobs, ``max_shards``...).

    :raises CoordinatorError: when ``fork`` is unavailable.
    """
    context = context or fork_context()
    if context is None:
        raise CoordinatorError(
            "local distributed workers need the 'fork' start method "
            "(unavailable on this platform); run 'campaign worker' "
            "processes against a netlist instead"
        )
    processes = []
    for rank in range(count):
        process = context.Process(
            target=_worker_main,
            args=(address, factory, f"local-{rank}", worker_kwargs),
            daemon=True,
        )
        process.start()
        processes.append(process)
    return processes


def run_distributed(factory, spec, workers=2, shard_size=None,
                    store_path=None, lease_timeout_s=None, config=None,
                    netlist=None, timeout=None, sampling=None):
    """Run one campaign across forked local workers; returns the result.

    The in-process twin of ``campaign serve`` + N×``campaign worker``:
    plans shards, starts a loopback coordinator, forks ``workers``
    processes that each execute shards through the ordinary campaign
    runner, merges their streamed rows deterministically and loads the
    final :class:`~repro.campaign.results.CampaignResult` back from
    the merged store.

    :param shard_size: faults per shard; default one shard per worker
        for exhaustive jobs.  Sampled jobs default to
        :data:`~repro.dist.shards.DEFAULT_SHARD_SIZE` — the shard size
        *is* the sampler's chunk size, and convergence is only
        evaluated at chunk boundaries.
    :param store_path: final store location (required — the merged
        database is the product).
    :param config: execution kwargs applied on every worker
        (``warm_start``, ``batch``, ``timeout``...).
    :param timeout: seconds to wait for the job before aborting.
    :param sampling: optional adaptive-sampling config dict (see
        :meth:`~repro.dist.coordinator.Coordinator.submit`).
    :raises CoordinatorError: on missing store path, fork
        unavailability, or job timeout/abort.
    """
    from .shards import DEFAULT_SHARD_SIZE

    if store_path is None:
        raise CoordinatorError("run_distributed requires a store_path")
    context = fork_context()
    if context is None:
        raise CoordinatorError(
            "run_distributed needs the 'fork' start method"
        )
    if shard_size is None:
        if sampling is not None:
            shard_size = DEFAULT_SHARD_SIZE
        else:
            shard_size = max(1, -(-len(spec.faults) // workers))
    kwargs = {"shard_size": shard_size}
    if lease_timeout_s is not None:
        kwargs["lease_timeout_s"] = lease_timeout_s
    coordinator = Coordinator(store_path, **kwargs)
    coordinator.drain_when_idle(True)
    processes = []
    try:
        job_id = coordinator.submit(
            spec, netlist=netlist, config=config, sampling=sampling,
        )
        coordinator.start()
        processes = spawn_local_workers(
            coordinator.address, workers, factory, context=context
        )
        status = coordinator.wait(job_id, timeout=timeout)
        if status["state"] == "running":
            raise CoordinatorError(
                f"distributed campaign timed out after {timeout}s "
                f"({status['merged']}/{status['shards']} shards merged)"
            )
        if status["state"] != "complete":
            raise CoordinatorError(
                f"distributed campaign ended in state {status['state']!r} "
                f"(failed shards: {status.get('failed')})"
            )
    finally:
        coordinator.stop()
        for process in processes:
            process.join(timeout=10.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
    with CampaignStore(store_path) as store:
        return store.load_result(spec.name)

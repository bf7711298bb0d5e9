"""Crash-tolerance acceptance: chaos transport, coordinator kill, resume.

The guarantees this PR's failure model makes, exercised end to end
over real sockets with real process kills:

* a distributed campaign whose workers dial through a misbehaving
  :class:`~repro.dist.ChaosProxy` (delays, connection drops) still
  produces a final store **row-identical** to a serial run — worker
  reconnect plus row dedup absorb every injected fault;
* SIGKILLing the *coordinator* mid-campaign and restarting it with
  ``resume`` adopts already-merged shards from the final store,
  requeues the rest, lets the (still running, backoff-looping)
  workers reconnect, and finishes — again row-identical, every fault
  exactly once;
* the store records one job, finished, and the restarted
  coordinator's journal narrates the resume.

Artifacts (the store and the journals) land in ``REPRO_ARTIFACT_DIR``
when CI sets it, so a failed run ships its own flight recording.
"""

import json
import multiprocessing
import os
import signal
import socket
import sqlite3
import time

import pytest

from repro.campaign import run_campaign
from repro.dist import (
    ChaosConfig,
    ChaosProxy,
    Coordinator,
    spawn_local_workers,
)
from repro.obs import journal as obs_journal
from repro.store import CampaignStore

from ..store.test_resume import factory, make_spec, needs_fork
from .test_distributed_campaign import (
    ROW_IDENTITY,
    identity,
    slow_factory,
    store_rows,
)


def free_port():
    """Reserve-and-release an ephemeral port for a child to bind."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return port


def _coordinator_main(store_path, journal_path, port, resume):
    """Coordinator child body: serve one job to completion, then exit.

    First incarnation (``resume=False``) submits the campaign; a
    restarted incarnation rebuilds its world from the store instead.
    Exit code 0 means every job reached ``complete``.
    """
    obs_journal.JOURNAL.close()   # the fork duplicated the parent's
    obs_journal.open_journal(journal_path)
    coordinator = Coordinator(
        store_path, host="127.0.0.1", port=port, shard_size=2,
        lease_timeout_s=60.0, reconnect_grace_s=30.0,
    )
    coordinator.drain_when_idle(True)
    try:
        if resume:
            job_ids = coordinator.resume()
        else:
            job_ids = [coordinator.submit(make_spec())]
        coordinator.start()
        ok = True
        for job_id in job_ids:
            status = coordinator.wait(job_id, timeout=300)
            ok = ok and status["state"] == "complete"
    finally:
        coordinator.stop()
        obs_journal.close_journal()
    os._exit(0 if ok else 1)


def spawn_coordinator(context, store_path, journal_path, port,
                      resume=False):
    process = context.Process(
        target=_coordinator_main,
        args=(str(store_path), str(journal_path), port, resume),
        daemon=True,
    )
    process.start()
    return process


def wait_for_merged_shard(store_path, timeout=120.0):
    """Poll the store until a shard is durably merged."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if os.path.exists(store_path):
            conn = sqlite3.connect(store_path)
            try:
                if conn.execute(
                    "SELECT 1 FROM shards WHERE state = 'merged'"
                ).fetchone():
                    return
            except sqlite3.OperationalError:
                pass   # the coordinator is still creating the schema
            finally:
                conn.close()
        time.sleep(0.05)
    raise AssertionError(
        f"no shard merged into {store_path} within {timeout}s"
    )


def reap(processes, timeout=10.0):
    for process in processes:
        process.join(timeout=timeout)
        if process.is_alive():
            process.terminate()
            process.join(timeout=5.0)


@needs_fork
class TestChaosIdentity:
    """Row identity under a misbehaving transport (no kills)."""

    @pytest.fixture(scope="class")
    def serial_rows(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("serial") / "serial.db"
        spec = make_spec()
        with CampaignStore(path) as store:
            run_campaign(factory, spec, store=store)
        return store_rows(path, spec.name)

    @pytest.fixture(scope="class")
    def chaotic_run(self, tmp_path_factory):
        spec = make_spec()
        store_path = tmp_path_factory.mktemp("chaos") / "dist.db"
        coordinator = Coordinator(store_path, shard_size=2,
                                  lease_timeout_s=60.0,
                                  reconnect_grace_s=30.0)
        coordinator.drain_when_idle(True)
        processes = []
        proxy = ChaosProxy(
            coordinator.address,
            ChaosConfig(delay_p=0.3, delay_s=0.02, drop_p=0.03, seed=11),
        ).start()
        try:
            job_id = coordinator.submit(spec)
            coordinator.start()
            processes = spawn_local_workers(
                proxy.address, 2, slow_factory,
                backoff_s=0.05, backoff_max_s=0.5, max_reconnects=None,
            )
            status = coordinator.wait(job_id, timeout=240)
        finally:
            coordinator.stop()
            proxy.stop()
            reap(processes)
        return status, store_path, proxy.stats

    def test_job_completes_under_chaos(self, chaotic_run):
        status, _store, _stats = chaotic_run
        assert status["state"] == "complete"
        assert not status["failed"]

    def test_rows_identical_to_serial(self, chaotic_run, serial_rows):
        _status, store_path, _stats = chaotic_run
        rows = store_rows(store_path, make_spec().name)
        assert [identity(row) for row in rows] \
            == [identity(row) for row in serial_rows]

    def test_chaos_actually_happened(self, chaotic_run):
        _status, _store, stats = chaotic_run
        assert stats["delays"] > 0


@needs_fork
class TestCoordinatorKillResume:
    """SIGKILL the coordinator mid-campaign; resume from the store."""

    @pytest.fixture(scope="class")
    def artifact_dir(self, tmp_path_factory):
        root = os.environ.get("REPRO_ARTIFACT_DIR")
        if root:
            path = os.path.join(root, "crash-tolerance")
            os.makedirs(path, exist_ok=True)
            return path
        return str(tmp_path_factory.mktemp("artifacts"))

    @pytest.fixture(scope="class")
    def serial_rows(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("serial") / "serial.db"
        spec = make_spec()
        with CampaignStore(path) as store:
            run_campaign(factory, spec, store=store)
        return store_rows(path, spec.name)

    @pytest.fixture(scope="class")
    def survived_coordinator_kill(self, tmp_path_factory, artifact_dir):
        """Kill incarnation A after its first merge; resume as B.

        Workers dial through a chaos proxy the whole time and are
        never restarted — the same two processes must ride out both
        the injected socket faults and the coordinator outage on
        their reconnect loops alone.
        """
        context = multiprocessing.get_context("fork")
        # The store is the resume evidence: it ships with the journals.
        store_path = os.path.join(artifact_dir, "coordinator.db")
        for suffix in ("", "-wal", "-shm"):
            if os.path.exists(store_path + suffix):
                os.remove(store_path + suffix)
        journal_a = os.path.join(artifact_dir, "coordinator-a.jsonl")
        journal_b = os.path.join(artifact_dir, "coordinator-b.jsonl")
        port = free_port()
        proxy = ChaosProxy(
            ("127.0.0.1", port),
            ChaosConfig(delay_p=0.2, delay_s=0.02, drop_p=0.02, seed=23),
        ).start()
        workers = []
        incarnation_a = spawn_coordinator(
            context, store_path, journal_a, port,
        )
        try:
            workers = spawn_local_workers(
                proxy.address, 2, slow_factory,
                backoff_s=0.05, backoff_max_s=0.5, max_reconnects=None,
            )
            # Durable progress first: at least one shard must be
            # merged into the final store before the kill, so the
            # resume provably *adopts* work instead of redoing it all.
            wait_for_merged_shard(store_path)
            os.kill(incarnation_a.pid, signal.SIGKILL)
            incarnation_a.join(timeout=10.0)
            incarnation_b = spawn_coordinator(
                context, store_path, journal_b, port, resume=True,
            )
            incarnation_b.join(timeout=300.0)
            assert not incarnation_b.is_alive(), \
                "resumed coordinator never finished the job"
            assert incarnation_b.exitcode == 0, \
                f"resumed coordinator exited {incarnation_b.exitcode}"
        finally:
            proxy.stop()
            reap(workers)
            if incarnation_a.is_alive():
                incarnation_a.terminate()
        return store_path, journal_b

    def test_rows_identical_to_serial(self, survived_coordinator_kill,
                                      serial_rows):
        store_path, _journal = survived_coordinator_kill
        rows = store_rows(store_path, make_spec().name)
        assert [identity(row) for row in rows] \
            == [identity(row) for row in serial_rows]

    def test_every_fault_exactly_once(self, survived_coordinator_kill):
        store_path, _journal = survived_coordinator_kill
        spec = make_spec()
        rows = store_rows(store_path, spec.name)
        assert [row["idx"] for row in rows] \
            == list(range(len(spec.faults)))

    def test_store_records_the_resume(self, survived_coordinator_kill):
        store_path, journal_b = survived_coordinator_kill
        with CampaignStore(store_path) as store:
            jobs = store.job_rows()
            status = store.status()[0]["status"]
        assert len(jobs) == 1   # never re-submitted
        assert status == "complete"
        with open(journal_b) as handle:
            kinds = [json.loads(line)["event"]
                     for line in handle if line.strip()]
        assert "coordinator_resumed" in kinds

    def test_resume_adopted_prior_work(self, survived_coordinator_kill):
        _store, journal_b = survived_coordinator_kill
        with open(journal_b) as handle:
            events = [json.loads(line) for line in handle if line.strip()]
        resumed = [e for e in events if e["event"] == "coordinator_resumed"]
        assert len(resumed) == 1
        assert resumed[0]["jobs"] == 1
        # The kill came after a durable merge, so incarnation B must
        # have adopted at least one shard from disk without re-running
        # it — and requeued the remainder.
        assert resumed[0]["adopted"] >= 1
        assert resumed[0]["requeued"] >= 1

    def test_store_execution_is_complete(self, survived_coordinator_kill):
        store_path, _journal = survived_coordinator_kill
        spec = make_spec()
        with CampaignStore(store_path) as store:
            result = store.load_result(spec.name)
        assert result.execution["mode"] == "distributed"
        assert result.execution["completed"] == len(spec.faults)

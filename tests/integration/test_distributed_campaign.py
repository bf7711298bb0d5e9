"""Distributed campaign acceptance: loopback fleet, dead worker, merge.

The hard guarantees ``repro.dist`` makes, exercised over real sockets:

* a coordinator plus two local workers produce a final store
  **row-identical** to a serial run of the same spec;
* SIGKILLing a worker mid-shard revokes its lease, reassigns the
  shard, and the replacement's duplicate rows are deduplicated — the
  completed result set is exactly the campaign's fault list, once;
* the journal narrates the whole thing (``campaign watch`` works on a
  distributed run unchanged).

The journal lands in ``REPRO_ARTIFACT_DIR`` when CI sets it, so a
failed acceptance run ships its own evidence.
"""

import json
import os
import signal
import time

import pytest

from repro.campaign import run_campaign, to_csv
from repro.dist import (
    Coordinator,
    CoordinatorLost,
    local,
    run_distributed,
    spawn_local_workers,
    worker,
)
from repro.obs.journal import close_journal, open_journal
from repro.store import CampaignStore

from ..store.test_resume import factory, make_spec, needs_fork

ROW_IDENTITY = ("idx", "key", "status", "label", "classification",
                "comparisons")


def slow_factory():
    """The victim worker's design factory: slow enough to die mid-shard.

    Cold (non-warm-start) campaigns rebuild the design every run, so a
    sleep here paces the victim at ~4 runs/s — plenty of window to
    observe a streamed row and SIGKILL it before its shard completes.
    """
    time.sleep(0.25)
    return factory()


def identity(row):
    return tuple(
        json.dumps(row[name], sort_keys=True) for name in ROW_IDENTITY
    )


def store_rows(path, name):
    with CampaignStore(path) as store:
        return store.run_rows(store.campaign_id(name))


@needs_fork
class TestDistributedCampaign:
    @pytest.fixture(scope="class")
    def artifact_dir(self, tmp_path_factory):
        root = os.environ.get("REPRO_ARTIFACT_DIR")
        if root:
            path = os.path.join(root, "distributed-campaign")
            os.makedirs(path, exist_ok=True)
            return path
        return str(tmp_path_factory.mktemp("telemetry"))

    @pytest.fixture(scope="class")
    def serial_rows(self, tmp_path_factory):
        """The reference: the same campaign run serially today."""
        path = tmp_path_factory.mktemp("serial") / "serial.db"
        spec = make_spec()
        with CampaignStore(path) as store:
            run_campaign(factory, spec, store=store)
        return store_rows(path, spec.name)

    @pytest.fixture(scope="class")
    def survived_kill(self, tmp_path_factory, artifact_dir):
        """Run the campaign on 2 workers, SIGKILL one mid-shard.

        Yields ``(final status, store path, journal path)`` for the
        assertions below to pick apart.
        """
        spec = make_spec()
        store_path = tmp_path_factory.mktemp("dist") / "dist.db"
        journal_path = os.path.join(artifact_dir, "distributed.jsonl")
        open_journal(journal_path)
        coordinator = Coordinator(store_path, shard_size=3,
                                  lease_timeout_s=60.0)
        coordinator.drain_when_idle(True)
        processes = []
        try:
            job_id = coordinator.submit(spec)
            coordinator.start()
            # The victim: slow by construction, killed once the
            # coordinator has ingested at least one of its rows — i.e.
            # provably mid-shard, with partial work already merged.
            victim = spawn_local_workers(
                coordinator.address, 1, slow_factory
            )[0]
            processes.append(victim)
            deadline = time.monotonic() + 60
            while coordinator.job_status(job_id)["rows"] == 0:
                assert time.monotonic() < deadline, \
                    "victim worker never streamed a row"
                time.sleep(0.05)
            os.kill(victim.pid, signal.SIGKILL)
            # The survivor finishes everything, including the
            # reassigned shard (and re-streams rows the coordinator
            # already holds — the dedup under test).
            processes.extend(spawn_local_workers(
                coordinator.address, 1, factory
            ))
            status = coordinator.wait(job_id, timeout=120)
        finally:
            coordinator.stop()
            for process in processes:
                process.join(timeout=10.0)
                if process.is_alive():
                    process.terminate()
            close_journal()
        yield status, store_path, journal_path

    def test_job_completes_despite_the_kill(self, survived_kill):
        status, _store, _journal = survived_kill
        assert status["state"] == "complete"
        assert status["merged"] == status["shards"] == 4
        assert not status["failed"]

    def test_store_is_row_identical_to_serial(self, survived_kill,
                                              serial_rows):
        _status, store_path, _journal = survived_kill
        rows = store_rows(store_path, make_spec().name)
        assert [identity(row) for row in rows] \
            == [identity(row) for row in serial_rows]

    def test_every_fault_exactly_once(self, survived_kill):
        """At-least-once delivery, exactly-once results."""
        status, store_path, _journal = survived_kill
        rows = store_rows(store_path, make_spec().name)
        assert [row["idx"] for row in rows] == list(range(status["total"]))
        assert all(row["status"] == "ok" for row in rows)

    def test_execution_records_distributed_mode(self, survived_kill):
        _status, store_path, _journal = survived_kill
        spec = make_spec()
        with CampaignStore(store_path) as store:
            result = store.load_result(spec.name)
        assert result.execution["mode"] == "distributed"
        assert result.execution["shards"] == 4
        assert result.execution["completed"] == len(spec.faults)

    def test_journal_narrates_the_reassignment(self, survived_kill):
        _status, _store, journal_path = survived_kill
        with open(journal_path) as handle:
            events = [json.loads(line) for line in handle if line.strip()]
        kinds = [event["event"] for event in events]
        assert "job_submitted" in kinds
        assert "shard_leased" in kinds
        assert "worker_died" in kinds
        assert "shard_reassigned" in kinds
        assert kinds.count("shard_completed") == 4
        # One first-seen row per fault: duplicates from the
        # reassigned shard never reach the journal either.
        assert kinds.count("run_finished") == 12
        assert kinds[-1] == "campaign_finished"


@needs_fork
class TestFleetShutdown:
    """``run_distributed`` drains its workers instead of cutting them off.

    A worker that completes the last shard sends its next
    ``lease_request`` as the job finishes.  If the coordinator closed
    the socket under that request, the worker would read EOF, enter
    reconnect backoff, and ``run_distributed`` would wait out its 10-s
    join.  Half of the runs below make every worker linger after each
    shard, so the request lands after the job is complete, every time.
    """

    RUNS = 4
    #: Seconds from the job result to every worker having exited.
    JOIN_LIMIT_S = 3.0

    def test_workers_exit_cleanly_right_after_the_result(
        self, tmp_path, monkeypatch
    ):
        spawned = []
        finished = []
        marker = tmp_path / "reconnects"
        spawn = local.spawn_local_workers
        wait = Coordinator.wait
        run_shard = worker._run_leased_shard
        linger = {"s": 0.0}

        def recording_spawn(*args, **kwargs):
            processes = spawn(*args, **kwargs)
            spawned.append(processes)
            return processes

        def timed_wait(self, *args, **kwargs):
            status = wait(self, *args, **kwargs)
            finished.append(time.monotonic())
            return status

        def lingering_shard(*args, **kwargs):
            done = run_shard(*args, **kwargs)
            time.sleep(linger["s"])
            return done

        def no_reconnect(link):
            # Runs in the forked worker: leave evidence and give up at
            # once rather than back off.
            with open(marker, "a") as handle:
                handle.write(f"{os.getpid()}\n")
            raise CoordinatorLost("reconnect attempted")

        monkeypatch.setattr(local, "spawn_local_workers", recording_spawn)
        monkeypatch.setattr(Coordinator, "wait", timed_wait)
        monkeypatch.setattr(worker, "_run_leased_shard", lingering_shard)
        monkeypatch.setattr(
            worker.CoordinatorLink, "_reconnect_locked", no_reconnect
        )
        spec = make_spec()
        reference = to_csv(run_campaign(factory, spec))
        for attempt in range(self.RUNS):
            linger["s"] = 0.3 if attempt % 2 else 0.0
            result = run_distributed(
                factory, spec, workers=2, shard_size=3,
                store_path=tmp_path / f"run{attempt}.db",
            )
            joined = time.monotonic() - finished[-1]
            assert to_csv(result) == reference
            processes = spawned[-1]
            assert [p.exitcode for p in processes] == [0, 0], attempt
            assert joined < self.JOIN_LIMIT_S, (attempt, joined)
            assert not marker.exists(), marker.read_text()

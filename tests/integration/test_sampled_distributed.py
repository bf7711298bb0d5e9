"""Distributed sampled campaigns: sharded chunks, early stop, resume.

The coordinator executes a sampled campaign's chunks as shards over
real worker sockets but merges them strictly in chunk order, so the
guarantees under test are strong:

* a 3-worker sampled run produces a final store **row-identical** to
  a single-host sampled run with ``chunk == shard_size`` — same rows,
  same strata, same skipped set, same estimate;
* convergence mid-flight revokes outstanding leases, and the store
  records the stop: ``skipped`` rows and the sampling summary;
* killing the coordinator after a partial merge and resuming from the
  store continues the identical draw sequence to the identical final
  store.
"""

import json
import time

import pytest

from repro.campaign import CampaignSpec, exhaustive_bitflips, run_campaign
from repro.dist import Coordinator, run_distributed, spawn_local_workers
from repro.obs.journal import close_journal, open_journal
from repro.store import CampaignStore

from ..store.test_resume import factory, needs_fork

ROW_IDENTITY = ("idx", "status", "label", "stratum")
CHUNK = 10
MARGIN = 0.1


def make_spec(name):
    faults = exhaustive_bitflips(
        [f"top/counter.q[{i}]" for i in range(4)],
        [33e-9 + 10e-9 * k for k in range(15)],
    )
    return CampaignSpec(name=name, faults=faults, t_end=200e-9,
                        outputs=["parity"])


def store_rows(path, name):
    with CampaignStore(str(path)) as store:
        campaign_id = store.campaign_id(name)
        return [tuple(row[key] for key in ROW_IDENTITY)
                for row in store.run_rows(campaign_id)]


def single_host_reference(tmp_path_factory, name):
    path = tmp_path_factory.mktemp("ref") / "ref.db"
    with CampaignStore(str(path)) as store:
        result = run_campaign(
            factory, make_spec(name), sample=True, margin=MARGIN,
            chunk=CHUNK, warm_start=True, on_error="collect", store=store,
        )
    return store_rows(path, name), result.execution["sampling"]


@needs_fork
class TestSampledDistributed:
    @pytest.fixture(scope="class")
    def reference(self, tmp_path_factory):
        return single_host_reference(tmp_path_factory, "dsamp")

    @pytest.fixture(scope="class")
    def distributed(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("dist") / "dist.db"
        result = run_distributed(
            factory, make_spec("dsamp"), workers=3, shard_size=CHUNK,
            store_path=str(path), config={"warm_start": True},
            sampling={"margin": MARGIN}, timeout=300,
        )
        return path, result

    def test_row_identical_to_single_host(self, reference, distributed):
        ref_rows, _ = reference
        path, _ = distributed
        assert store_rows(path, "dsamp") == ref_rows

    def test_identical_estimate_and_stop(self, reference, distributed):
        _, ref_sampling = reference
        _, result = distributed
        sampling = result.execution["sampling"]
        assert result.execution["mode"] == "sampled-distributed"
        assert sampling["reason"] == ref_sampling["reason"]
        assert sampling["trials"] == ref_sampling["trials"]
        assert sampling["estimate"] == ref_sampling["estimate"]
        assert sampling["skipped"] == ref_sampling["skipped"]

    def test_completed_counts_simulated_only(self, distributed):
        _, result = distributed
        sampling = result.execution["sampling"]
        assert result.execution["completed"] == sampling["simulated"]
        assert sampling["simulated"] + sampling["skipped"] \
            == sampling["population"]


@needs_fork
class TestSampledResume:
    def test_coordinator_restart_resumes_to_identical_store(
        self, tmp_path_factory
    ):
        ref_rows, _ = single_host_reference(tmp_path_factory, "rsamp")
        base = tmp_path_factory.mktemp("resume")
        store_path = str(base / "dist.db")
        journal_path = str(base / "resume.jsonl")
        spec = make_spec("rsamp")

        # phase 1: one worker limited to two shards, then the
        # coordinator stops as if it crashed
        coordinator = Coordinator(store_path, shard_size=CHUNK)
        procs = []
        try:
            job_id = coordinator.submit(
                spec, config={"warm_start": True},
                sampling={"margin": MARGIN},
            )
            coordinator.start()
            procs = spawn_local_workers(
                coordinator.address, 1, factory, max_shards=2
            )
            deadline = time.monotonic() + 120
            while coordinator.job_status(job_id)["merged"] < 2:
                assert time.monotonic() < deadline, "no shards merged"
                time.sleep(0.05)
        finally:
            coordinator.stop()
            for proc in procs:
                proc.join(timeout=10)
                if proc.is_alive():
                    proc.terminate()

        # phase 2: a fresh coordinator resumes from the store
        coordinator = Coordinator(store_path, shard_size=CHUNK)
        coordinator.drain_when_idle(True)
        procs = []
        open_journal(journal_path)
        try:
            assert coordinator.resume() == [job_id]
            coordinator.start()
            procs = spawn_local_workers(coordinator.address, 2, factory)
            status = coordinator.wait(job_id, timeout=300)
            assert status["state"] == "complete", status
        finally:
            coordinator.stop()
            close_journal()
            for proc in procs:
                proc.join(timeout=10)
                if proc.is_alive():
                    proc.terminate()

        assert store_rows(store_path, "rsamp") == ref_rows
        with CampaignStore(store_path) as store:
            assert len(store.job_rows()) == 1
            assert store.status()[0]["status"] == "complete"
        with open(journal_path) as handle:
            events = [json.loads(line) for line in handle if line.strip()]
        stops = [event for event in events
                 if event["event"] == "sampling_stopped"]
        assert len(stops) == 1
        assert stops[0]["job"] == job_id
        assert "coordinator_resumed" in [event["event"] for event in events]

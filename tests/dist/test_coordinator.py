"""Coordinator lifecycle, driven frame by frame over real sockets.

The test plays the worker side of the wire protocol itself, so it
decides exactly when each shard's rows and ``complete`` arrive.  That
pins down what the fleet tests cannot force:

* a later shard that completes first waits until every earlier shard
  has merged — shards merge strictly in chunk order — and the final
  store is still row-identical to a serial run;
* the shards an exhaustive job leases are exactly
  :func:`~repro.dist.plan_shards`' slices, so shard databases written
  from that plan are adopted by a resumed coordinator;
* a resumed sampled job adopts complete chunk databases the same way.
"""

import json
import time

import pytest

from repro.campaign import run_campaign
from repro.campaign.sampling import StratifiedSampler
from repro.dist import (
    Coordinator,
    CoordinatorLedger,
    Shard,
    ShardError,
    connect,
    execute_shard,
    plan_shards,
    read_ledger,
    spawn_local_workers,
)
from repro.dist.shards import plan_chunk_shard
from repro.obs.journal import close_journal, open_journal
from repro.store import CampaignStore, ShardedCampaignStore
from repro.store.serialize import fault_key, spec_to_dict

from ..campaign.test_sampled_runner import make_spec as sampled_spec
from ..store.test_resume import factory, make_spec, needs_fork

ROW_IDENTITY = ("idx", "key", "status", "label", "classification",
                "comparisons")
SHARD_SIZE = 4   # 12 faults -> 3 shards


def identity(rows):
    return [
        tuple(json.dumps(row[name], sort_keys=True) for name in ROW_IDENTITY)
        for row in rows
    ]


def store_rows(path, name):
    with CampaignStore(str(path)) as store:
        return store.run_rows(store.campaign_id(name))


@pytest.fixture(scope="module")
def serial_rows(tmp_path_factory):
    path = tmp_path_factory.mktemp("serial") / "serial.db"
    spec = make_spec()
    with CampaignStore(str(path)) as store:
        run_campaign(factory, spec, store=store)
    return store_rows(path, spec.name)


def shard_frames(shard):
    """Run one shard locally: its ``rows`` frames and ``complete`` fields."""
    frames = []
    sink = execute_shard(
        shard, factory=factory,
        send=lambda frame_type, **fields: frames.append(fields),
    )
    complete = {"rows": sink.rows_sent, "execution": sink.execution,
                "golden": sink.golden}
    return [fields["rows"] for fields in frames], complete


class HandWorker:
    """One worker connection whose every frame the test sends itself."""

    def __init__(self, address):
        self.conn = connect(*address)
        self.conn.send("hello", role="worker", name="hand-worker")
        assert self.conn.recv(timeout=10)["frame"] == "welcome"

    def lease(self):
        self.conn.send("lease_request")
        frame = self.conn.recv(timeout=10)
        assert frame["frame"] == "lease", frame
        return Shard.from_dict(frame["shard"]), frame["token"]

    def deliver(self, token, rows_frames, complete):
        for rows in rows_frames:
            self.conn.send("rows", token=token, rows=rows)
        self.conn.send("complete", token=token, **complete)

    def close(self):
        self.conn.send("bye")
        self.conn.close()


def wait_until(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "coordinator never caught up"
        time.sleep(0.02)


class TestOutOfOrderCompletion:
    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        """Lease every shard, then complete them last to first."""
        base = tmp_path_factory.mktemp("out-of-order")
        journal_path = base / "journal.jsonl"
        spec = make_spec()
        coordinator = Coordinator(str(base / "dist.db"),
                                  shard_size=SHARD_SIZE)
        worker = None
        try:
            job = coordinator.submit(spec)
            coordinator.start()
            worker = HandWorker(coordinator.address)
            leased = [worker.lease() for _ in range(3)]
            payloads = [shard_frames(shard) for shard, _ in leased]
            open_journal(str(journal_path))
            buffered = []
            for (shard, token), (rows, complete) in reversed(
                list(zip(leased, payloads))
            ):
                worker.deliver(token, rows, complete)
                if shard.shard_id == 0:
                    break
                wait_until(lambda: shard.shard_id
                           not in coordinator.job_status(job)["active"])
                buffered.append(coordinator.job_status(job))
            status = coordinator.wait(job, timeout=30)
        finally:
            close_journal()
            if worker is not None:
                worker.close()
            coordinator.stop()
        with open(journal_path) as handle:
            events = [json.loads(line) for line in handle if line.strip()]
        return {
            "spec": spec, "leased": [shard for shard, _ in leased],
            "buffered": buffered, "status": status, "events": events,
            "rows": store_rows(base / "dist.db", spec.name),
        }

    def test_later_shards_wait_for_earlier_ones(self, run):
        # shards 2 and 1 completed while shard 0 was still leased
        assert [status["merged"] for status in run["buffered"]] == [0, 0]
        assert [status["active"] for status in run["buffered"]] \
            == [[0, 1], [0]]

    def test_store_row_identical_to_serial(self, run, serial_rows):
        assert identity(run["rows"]) == identity(serial_rows)

    def test_shards_complete_in_shard_order(self, run):
        completed = [event["shard"] for event in run["events"]
                     if event["event"] == "shard_completed"]
        assert completed == [0, 1, 2]

    def test_job_completes_with_every_shard_merged(self, run):
        status = run["status"]
        assert status["state"] == "complete"
        assert status["merged"] == status["shards"] == 3
        assert not status["failed"]

    def test_leased_shards_are_plan_shards(self, run):
        planned = plan_shards(run["spec"], SHARD_SIZE)
        leased = run["leased"]
        assert [s.shard_id for s in leased] == [s.shard_id for s in planned]
        assert [s.indices for s in leased] == [s.indices for s in planned]
        assert [s.fault_keys for s in leased] \
            == [s.fault_keys for s in planned]
        assert [s.spec["name"] for s in leased] \
            == [s.spec["name"] for s in planned]
        assert [s.to_dict() for s in leased] \
            == [s.to_dict() for s in planned]


class TestPlanShardDatabasesAdopt:
    def test_resume_adopts_databases_written_from_plan_shards(
        self, tmp_path, serial_rows
    ):
        """Shard databases filled from ``plan_shards``' slices — the
        static plan a coordinator used to lease from — are complete
        shards to a resumed coordinator: adopted, not re-run."""
        spec = make_spec()
        store_path = tmp_path / "dist.db"
        ledger_path = tmp_path / "ledger.jsonl"
        write_submitted_job(store_path, ledger_path, spec, SHARD_SIZE)
        with ShardedCampaignStore(str(store_path) + ".shards") as sharded:
            for shard in plan_shards(spec, SHARD_SIZE):
                rows, _complete = shard_frames(shard)
                for batch in rows:
                    for row in batch:
                        sharded.ingest_row(shard, row)

        coordinator = Coordinator(str(store_path), shard_size=SHARD_SIZE,
                                  ledger_path=str(ledger_path))
        try:
            assert coordinator.resume_from_ledger() == [1]
            status = coordinator.job_status(1)
        finally:
            coordinator.stop()
        assert status["state"] == "complete"
        assert status["merged"] == status["shards"] == 3
        assert resumed_record(ledger_path)["adopted"] == 3
        assert resumed_record(ledger_path)["requeued"] == 0
        assert identity(store_rows(store_path, spec.name)) \
            == identity(serial_rows)


@needs_fork
class TestSampledAdoption:
    CHUNK = 10
    SAMPLING = {"margin": 0.1}
    SAMPLED_IDENTITY = ("idx", "status", "label", "stratum")

    def sampled_rows(self, path, name):
        return [tuple(row[key] for key in self.SAMPLED_IDENTITY)
                for row in store_rows(path, name)]

    def test_resume_adopts_complete_chunk_databases(self, tmp_path):
        """The first two chunks finished on a worker before the crash:
        the resumed sampled job adopts them instead of re-running them
        and still lands on the single-host sampled store."""
        spec = sampled_spec("adopt")
        reference = tmp_path / "ref.db"
        with CampaignStore(str(reference)) as store:
            run_campaign(factory, spec, sample=True, chunk=self.CHUNK,
                         on_error="collect", store=store, **self.SAMPLING)

        store_path = tmp_path / "dist.db"
        ledger_path = tmp_path / "ledger.jsonl"
        write_submitted_job(store_path, ledger_path, spec, self.CHUNK,
                            sampling=self.SAMPLING)
        sampler = StratifiedSampler(spec.faults, chunk=self.CHUNK,
                                    **self.SAMPLING)
        base = spec_to_dict(spec)
        keys = [fault_key(fault) for fault in spec.faults]
        with ShardedCampaignStore(str(store_path) + ".shards") as sharded:
            for _ in range(2):
                chunk = sampler.next_chunk()
                shard = plan_chunk_shard(base, keys, chunk.ident,
                                         chunk.indices)
                rows, _complete = shard_frames(shard)
                for batch in rows:
                    for row in batch:
                        row["stratum"] = sampler.stratum_of(row["idx"])
                        sharded.ingest_row(shard, row)

        coordinator = Coordinator(str(store_path), shard_size=self.CHUNK,
                                  ledger_path=str(ledger_path))
        coordinator.drain_when_idle(True)
        processes = []
        try:
            assert coordinator.resume_from_ledger() == [1]
            assert coordinator.job_status(1)["merged"] == 2
            coordinator.start()
            processes = spawn_local_workers(coordinator.address, 1,
                                            factory)
            status = coordinator.wait(1, timeout=120)
        finally:
            coordinator.stop()
            for process in processes:
                process.join(timeout=10)
                if process.is_alive():
                    process.terminate()
        assert status["state"] == "complete", status
        assert resumed_record(ledger_path)["adopted"] == 2
        assert self.sampled_rows(store_path, spec.name) \
            == self.sampled_rows(reference, spec.name)


def write_submitted_job(store_path, ledger_path, spec, shard_size,
                        sampling=None):
    """The state a coordinator leaves on disk right after ``submit``."""
    with CampaignStore(str(store_path)) as store:
        campaign_id = store.open_campaign(spec)
        if sampling is not None:
            store.record_sampling(campaign_id, 0, sampling["margin"], 0.95,
                                  "site-phase", shard_size)
    ledger = CoordinatorLedger(str(ledger_path))
    ledger.record(
        "job_submitted", job=1, name=spec.name, spec=spec_to_dict(spec),
        netlist=None, config=None, shard_size=shard_size, shards=0,
        sampling=sampling,
    )
    ledger.close()


def resumed_record(ledger_path):
    return [r for r in read_ledger(str(ledger_path))
            if r["rec"] == "resumed"][0]


class TestSubmit:
    def test_empty_spec_rejected(self, tmp_path):
        spec = make_spec()
        spec.faults = []
        coordinator = Coordinator(str(tmp_path / "dist.db"))
        try:
            with pytest.raises(ShardError, match="no faults"):
                coordinator.submit(spec)
        finally:
            coordinator.stop()

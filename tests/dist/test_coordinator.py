"""Coordinator lifecycle, driven frame by frame over real sockets.

The test plays the worker side of the wire protocol itself, so it
decides exactly when each shard's rows and ``complete`` arrive.  That
pins down what the fleet tests cannot force:

* a later shard that completes first waits until every earlier shard
  has merged — shards merge strictly in chunk order — and the final
  store is still row-identical to a serial run;
* every row is written once, to the final store: one commit per
  ``rows`` frame, none by a merge, and a rejected frame writes nothing;
* the shards an exhaustive job leases are exactly
  :func:`~repro.dist.plan_shards`' slices, so provisional rows written
  from that plan are adopted by a resumed coordinator;
* a resumed sampled job adopts complete chunks the same way;
* everything a resume needs — job ids, parameters, shard states and
  lease counts — comes back from the store alone.
"""

import json
import os
import socket
import time
from contextlib import contextmanager

import pytest

from repro.campaign import run_campaign
from repro.campaign.sampling import StratifiedSampler
from repro.campaign.supervisor import RetryPolicy
from repro.dist import (
    Coordinator,
    CoordinatorError,
    Shard,
    ShardError,
    connect,
    execute_shard,
    plan_shards,
    run_distributed,
    spawn_local_workers,
)
from repro.dist import coordinator as coordinator_module
from repro.dist.shards import plan_chunk_shard
from repro.obs.journal import close_journal, open_journal
from repro.store import CampaignStore, ShardedCampaignStore
from repro.store.serialize import fault_key, skipped_to_row, spec_to_dict

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
            "store": str(base / "dist.db"),
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


    def test_finished_job_is_not_resumed(self, run, tmp_path):
        coordinator = Coordinator(run["store"])
        try:
            resumed, event = resume_journaled(coordinator,
                                              tmp_path / "resume.jsonl")
        finally:
            coordinator.stop()
        assert resumed == []
        assert event["jobs"] == 0


def resume_journaled(coordinator, journal_path):
    """``coordinator.resume()`` and the ``coordinator_resumed`` event."""
    open_journal(str(journal_path))
    try:
        resumed = coordinator.resume()
    finally:
        close_journal()
    with open(journal_path) as handle:
        events = [json.loads(line) for line in handle if line.strip()]
    return resumed, [event for event in events
                     if event["event"] == "coordinator_resumed"][0]


def commits(statements):
    return sum(1 for stmt in statements if stmt.strip() == "COMMIT")


def run_inserts(statements):
    return sum(1 for stmt in statements if "INTO runs" in stmt)


class TestOneWritePerRow:
    def test_frames_commit_once_and_merges_copy_nothing(self, tmp_path,
                                                        serial_rows):
        """Each ``rows`` frame is one transaction on the final store;
        merging a shard writes no run row; nothing else lands on disk."""
        spec = make_spec()
        store_path = tmp_path / "dist.db"
        # No lease may expire mid-test: a revocation is one more commit.
        coordinator = Coordinator(str(store_path), shard_size=SHARD_SIZE,
                                  lease_timeout_s=300.0)
        statements = []
        worker = None
        try:
            job = coordinator.submit(spec)
            coordinator._store._conn.set_trace_callback(statements.append)
            coordinator.start()
            worker = HandWorker(coordinator.address)
            leased = [worker.lease() for _ in range(3)]
            delivered = 0
            for shard, token in leased:
                frames, complete = shard_frames(shard)
                for rows in frames:
                    mark = len(statements)
                    worker.conn.send("rows", token=token, rows=rows)
                    delivered += len(rows)
                    wait_until(lambda: coordinator.job_status(job)["rows"]
                               == delivered)
                    assert commits(statements[mark:]) <= 1
                mark = len(statements)
                worker.conn.send("complete", token=token, **complete)
                wait_until(lambda: coordinator.job_status(job)["merged"]
                           == shard.shard_id + 1)
                assert run_inserts(statements[mark:]) == 0
            status = coordinator.wait(job, timeout=30)
        finally:
            if worker is not None:
                worker.close()
            coordinator.stop()
        assert status["state"] == "complete"
        assert run_inserts(statements) == len(spec.faults)
        assert identity(store_rows(store_path, spec.name)) \
            == identity(serial_rows)
        assert set(os.listdir(tmp_path)) \
            <= {"dist.db", "dist.db-wal", "dist.db-shm"}

    @pytest.mark.parametrize("bad_row", [
        lambda row: dict(row, idx=99),
        lambda row: dict(row, status="banana"),
        lambda row: skipped_to_row(row["idx"], row["key"]),
        lambda row: dict(row, classification=None),
    ], ids=["foreign-index", "made-up-status", "worker-skipped",
            "ok-without-classification"])
    def test_rejected_frame_writes_nothing(self, tmp_path, serial_rows,
                                           bad_row):
        """A frame with one row outside its shard, or one that does not
        describe a terminal run, is refused whole."""
        spec = make_spec()
        store_path = tmp_path / "dist.db"
        coordinator = Coordinator(str(store_path), shard_size=SHARD_SIZE)
        worker = None
        try:
            job = coordinator.submit(spec)
            coordinator.start()
            worker = HandWorker(coordinator.address)
            leased = [worker.lease() for _ in range(3)]
            payloads = [shard_frames(shard) for shard, _ in leased]
            first_row, second_row = payloads[0][0][0][0], payloads[0][0][1][0]
            worker.conn.send("rows", token=leased[0][1],
                             rows=[first_row, bad_row(second_row)])
            assert worker.conn.recv(timeout=10)["frame"] == "error"
            assert coordinator.job_status(job)["rows"] == 0
            assert store_rows(store_path, spec.name) == []
            for (_shard, token), (rows, complete) in zip(leased, payloads):
                worker.deliver(token, rows, complete)
            status = coordinator.wait(job, timeout=30)
        finally:
            if worker is not None:
                worker.close()
            coordinator.stop()
        assert status["state"] == "complete"
        assert identity(store_rows(store_path, spec.name)) \
            == identity(serial_rows)


class TestLeaseCeiling:
    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        """Shard 1 streams two rows, then errors, on both of its leases."""
        store_path = tmp_path_factory.mktemp("ceiling") / "dist.db"
        spec = make_spec()
        coordinator = Coordinator(str(store_path), shard_size=SHARD_SIZE,
                                  max_leases=2)
        worker = None
        try:
            job = coordinator.submit(spec)
            coordinator.start()
            worker = HandWorker(coordinator.address)
            leased = [worker.lease() for _ in range(3)]
            for shard, token in (leased[0], leased[2]):
                worker.deliver(token, *shard_frames(shard))
            shard, token = leased[1]
            for attempt in range(2):
                if attempt:
                    shard, token = worker.lease()
                    assert shard.shard_id == 1
                for rows in shard_frames(shard)[0][:2]:
                    worker.conn.send("rows", token=token, rows=rows)
                worker.conn.send("error", token=token, message="poisoned")
            status = coordinator.wait(job, timeout=30)
        finally:
            if worker is not None:
                worker.close()
            coordinator.stop()
        with CampaignStore(str(store_path)) as store:
            shards = store.shard_rows(spec.name)
        return {"spec": spec, "status": status, "shards": shards,
                "store": str(store_path),
                "rows": store_rows(store_path, spec.name)}

    def test_job_ends_with_errors(self, run):
        status = run["status"]
        assert status["state"] == "errors"
        assert status["failed"] == [1]
        assert status["merged"] == 2

    def test_shards_table_records_the_failure(self, run):
        states = {row["shard_id"]: (row["state"], row["leases"])
                  for row in run["shards"]}
        assert states == {0: ("merged", 1), 1: ("failed", 2),
                          2: ("merged", 1)}

    def test_failed_shard_leaves_no_rows(self, run, serial_rows):
        failed = set(plan_shards(run["spec"], SHARD_SIZE)[1].indices)
        assert not failed & {row["idx"] for row in run["rows"]}
        assert identity(run["rows"]) == identity(
            [row for row in serial_rows if row["idx"] not in failed]
        )

    def test_nothing_to_resume(self, run):
        coordinator = Coordinator(run["store"])
        try:
            assert coordinator.resume() == []
        finally:
            coordinator.stop()


class TestResumeFromStore:
    SIZE = 3   # 12 faults -> 4 shards

    @pytest.fixture
    def crashed(self, tmp_path):
        """A job stopped mid-flight with one shard in every state:
        0 merged, 1 leased, 2 revoked once (queued), 3 failed."""
        store_path = str(tmp_path / "dist.db")
        coordinator = Coordinator(store_path, shard_size=self.SIZE,
                                  max_leases=2)
        worker = None
        try:
            job = coordinator.submit(make_spec())
            coordinator.start()
            worker = HandWorker(coordinator.address)
            leased = {}
            for _ in range(4):
                shard, token = worker.lease()
                leased[shard.shard_id] = (shard, token)
            worker.deliver(leased[0][1], *shard_frames(leased[0][0]))
            worker.conn.send("error", token=leased[3][1], message="x")
            shard, token = worker.lease()
            assert shard.shard_id == 3
            worker.conn.send("error", token=token, message="x")
            worker.conn.send("error", token=leased[2][1], message="x")
            wait_until(lambda: coordinator.job_status(job)["queued"] == 1)
        finally:
            # Stop first, as a crash would: a goodbye would revoke the
            # lease shard 1 is meant to hold.
            coordinator.stop()
            if worker is not None:
                worker.conn.close()
        with CampaignStore(store_path) as store:
            states = {row["shard_id"]: (row["state"], row["leases"])
                      for row in store.shard_rows("par")}
        assert states == {0: ("merged", 1), 1: ("leased", 1),
                          2: ("queued", 1), 3: ("failed", 2)}
        return store_path

    def test_merged_adopted_failed_stay_failed(self, crashed, tmp_path):
        coordinator = Coordinator(crashed, shard_size=self.SIZE,
                                  max_leases=2)
        try:
            resumed, event = resume_journaled(coordinator,
                                              tmp_path / "resume.jsonl")
            status = coordinator.job_status(1)
        finally:
            coordinator.stop()
        assert resumed == [1]
        assert (event["adopted"], event["requeued"]) == (1, 2)
        assert status["merged"] == 1
        assert status["failed"] == [3]
        assert status["queued"] == 2
        with CampaignStore(crashed) as store:
            states = {row["shard_id"]: (row["state"], row["leases"])
                      for row in store.shard_rows("par")}
        # Adoption keeps the merged shard's lease count: no credit.
        assert states[0] == ("merged", 1)
        assert states[3] == ("failed", 2)

    def test_lease_counts_carry_over(self, crashed):
        """Shard 1 was leased at the crash: that lease is credited back.
        Shard 2's lease was revoked before it: the strike stays."""
        coordinator = Coordinator(crashed, shard_size=self.SIZE,
                                  max_leases=2)
        worker = None
        try:
            assert coordinator.resume() == [1]
            coordinator.start()
            worker = HandWorker(coordinator.address)
            tokens = {shard.shard_id: token
                      for shard, token in (worker.lease(), worker.lease())}
        finally:
            if worker is not None:
                worker.close()
            coordinator.stop()
        assert tokens == {1: "1:1:1", 2: "1:2:2"}

    def test_job_parameters_come_back(self, tmp_path):
        spec = sampled_spec("params")
        netlist = {"name": "dut", "instances": []}
        config = {"warm_start": True}
        sampling = {"margin": 0.2, "confidence": 0.9, "seed": 7,
                    "strata": "site"}
        store_path = str(tmp_path / "dist.db")
        coordinator = Coordinator(store_path, shard_size=5)
        try:
            coordinator.submit(spec, netlist=netlist, config=config,
                               sampling=sampling)
        finally:
            coordinator.stop()
        coordinator = Coordinator(store_path)   # default shard size
        worker = None
        try:
            assert coordinator.resume() == [1]
            status = coordinator.job_status(1)
            coordinator.start()
            worker = HandWorker(coordinator.address)
            shard, _token = worker.lease()
        finally:
            if worker is not None:
                worker.close()
            coordinator.stop()
        first = StratifiedSampler(spec.faults, chunk=5, **sampling)
        assert status["sampled"] is True
        assert shard.netlist == netlist
        assert shard.config == config
        assert shard.size == 5
        assert shard.indices == list(first.next_chunk().indices)

    def test_job_ids_are_unique_across_coordinators(self, tmp_path):
        """Coordinators taking turns on one store never reuse an id."""
        store_path = str(tmp_path / "dist.db")
        specs = [make_spec(), sampled_spec("second")]
        ids = []
        for spec in specs:
            coordinator = Coordinator(store_path, shard_size=SHARD_SIZE)
            try:
                ids.append(coordinator.submit(spec))
            finally:
                coordinator.stop()
        assert ids == [1, 2]
        coordinator = Coordinator(store_path, shard_size=SHARD_SIZE)
        try:
            assert coordinator.resume() == [1, 2]
            statuses = [coordinator.job_status(job) for job in ids]
        finally:
            coordinator.stop()
        assert [status["name"] for status in statuses] \
            == [spec.name for spec in specs]
        assert [status["queued"] for status in statuses] \
            == [len(spec.faults) // SHARD_SIZE for spec in specs]


class TestPlanShardRowsAdopt:
    def test_resume_adopts_rows_written_from_plan_shards(
        self, tmp_path, serial_rows
    ):
        """Provisional rows written from ``plan_shards``' slices — the
        static plan a coordinator used to lease from — are complete
        shards to a resumed coordinator: adopted, not re-run."""
        spec = make_spec()
        store_path = tmp_path / "dist.db"
        with write_submitted_job(store_path, spec, SHARD_SIZE) as sharded:
            for shard in plan_shards(spec, SHARD_SIZE):
                rows, _complete = shard_frames(shard)
                for batch in rows:
                    sharded.ingest_row(shard, batch)

        coordinator = Coordinator(str(store_path), shard_size=SHARD_SIZE)
        try:
            resumed, event = resume_journaled(coordinator,
                                              tmp_path / "resume.jsonl")
            status = coordinator.job_status(1)
        finally:
            coordinator.stop()
        assert resumed == [1]
        assert status["state"] == "complete"
        assert status["merged"] == status["shards"] == 3
        assert event["adopted"] == 3
        assert event["requeued"] == 0
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

    def test_resume_adopts_complete_chunks(self, tmp_path):
        """The first two chunks finished on a worker before the crash:
        the resumed sampled job adopts them instead of re-running them
        and still lands on the single-host sampled store."""
        spec = sampled_spec("adopt")
        reference = tmp_path / "ref.db"
        with CampaignStore(str(reference)) as store:
            run_campaign(factory, spec, sample=True, chunk=self.CHUNK,
                         on_error="collect", store=store, **self.SAMPLING)

        store_path = tmp_path / "dist.db"
        sampler = StratifiedSampler(spec.faults, chunk=self.CHUNK,
                                    **self.SAMPLING)
        base = spec_to_dict(spec)
        keys = [fault_key(fault) for fault in spec.faults]
        with write_submitted_job(store_path, spec, self.CHUNK,
                                 sampling=self.SAMPLING) as sharded:
            for _ in range(2):
                chunk = sampler.next_chunk()
                shard = plan_chunk_shard(base, keys, chunk.ident,
                                         chunk.indices)
                rows, _complete = shard_frames(shard)
                for batch in rows:
                    for row in batch:
                        row["stratum"] = sampler.stratum_of(row["idx"])
                    sharded.ingest_row(shard, batch)

        coordinator = Coordinator(str(store_path), shard_size=self.CHUNK)
        coordinator.drain_when_idle(True)
        processes = []
        try:
            resumed, event = resume_journaled(coordinator,
                                              tmp_path / "resume.jsonl")
            assert resumed == [1]
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
        assert event["adopted"] == 2
        assert self.sampled_rows(store_path, spec.name) \
            == self.sampled_rows(reference, spec.name)


@contextmanager
def write_submitted_job(store_path, spec, shard_size, sampling=None):
    """The store a coordinator leaves right after ``submit``.

    Yields the campaign's :class:`ShardedCampaignStore`, for the test
    to stream provisional rows into as a coordinator would.
    """
    with CampaignStore(str(store_path)) as store:
        campaign_id = store.open_campaign(spec)
        if sampling is not None:
            store.record_sampling(campaign_id, 0, sampling["margin"], 0.95,
                                  "site-phase", shard_size)
        store.record_job(campaign_id, None, None, shard_size)
        yield ShardedCampaignStore(store, campaign_id)


def assert_nothing_stored(path):
    with CampaignStore(str(path)) as store:
        assert store.status() == []
        assert store.job_rows() == []


#: Execution configs a fleet job refuses, and a word of each reason.
BAD_CONFIGS = [
    ({"warm_strat": True}, "warm_strat"),
    ({"retry": RetryPolicy(attempts=3)}, "JSON serializable"),
    ({"batch": "sideways"}, "batch must be"),
    ({"on_error": "ignore"}, "on_error"),
    ({"store": "other.db"}, "sampling="),
    ({"resume": True}, "sampling="),
    ({"retry_quarantined": True}, "sampling="),
    ({"margin": 0.1}, "sampling="),
    ({"sample": True, "margin": 0.1}, "sampling="),
    (["warm_start"], "must be a mapping"),
]


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

    @pytest.mark.parametrize("config, reason", BAD_CONFIGS)
    def test_bad_config_refused_before_anything_is_stored(
        self, tmp_path, config, reason
    ):
        coordinator = Coordinator(str(tmp_path / "dist.db"))
        try:
            with pytest.raises(CoordinatorError, match=reason):
                coordinator.submit(make_spec(), config=config)
        finally:
            coordinator.stop()
        assert_nothing_stored(tmp_path / "dist.db")

    @needs_fork
    def test_run_distributed_refuses_before_recording(self, tmp_path):
        """A refused config leaves no campaign behind, so a corrected
        rerun under the same name can start."""
        path = tmp_path / "dist.db"
        with pytest.raises(CoordinatorError, match="warm_strat"):
            run_distributed(factory, make_spec(), store_path=str(path),
                            config={"warm_strat": True})
        assert_nothing_stored(path)

    @pytest.mark.parametrize("fields, reason", [
        ({"config": {"warm_strat": True}}, "warm_strat"),
        ({"config": {"margin": 0.1}}, "sampling="),
        ({"sampling": {"confidence": 0.9}}, "need a margin"),
        ({"spec": "empty"}, "fault"),
    ])
    def test_client_submit_gets_the_reason(self, tmp_path, fields, reason):
        spec = make_spec()
        if fields.pop("spec", None) == "empty":
            spec.faults = []
        coordinator = Coordinator(str(tmp_path / "dist.db"),
                                  shard_size=SHARD_SIZE)
        try:
            coordinator.start()
            conn = connect(*coordinator.address)
            try:
                conn.send("hello", role="client", name="test-client")
                assert conn.recv(timeout=10)["frame"] == "welcome"
                conn.send("submit", spec=spec_to_dict(spec), **fields)
                reply = conn.recv(timeout=10)
            finally:
                conn.close()
        finally:
            coordinator.stop()
        assert reply["frame"] == "error"
        assert reason in reply["message"]
        assert "internal" not in reply["message"]
        assert_nothing_stored(tmp_path / "dist.db")


class TestHelloReaping:
    def test_silent_socket_is_reaped_and_worker_kept(self, tmp_path,
                                                     monkeypatch):
        """A socket that never says hello is closed once the hello
        timeout passes; a hello'd worker connected for longer still
        gets its lease."""
        monkeypatch.setattr(coordinator_module, "DEFAULT_HELLO_TIMEOUT_S",
                            0.5)
        coordinator = Coordinator(str(tmp_path / "dist.db"),
                                  shard_size=SHARD_SIZE)
        worker = None
        try:
            job = coordinator.submit(make_spec())
            coordinator.start()
            worker = HandWorker(coordinator.address)
            with socket.create_connection(coordinator.address,
                                          timeout=10) as silent:
                assert silent.recv(1) == b""
            shard, _token = worker.lease()
            assert shard.shard_id == 0
            assert coordinator.job_status(job)["state"] == "running"
        finally:
            if worker is not None:
                worker.close()
            coordinator.stop()

"""Worker-side execution: the streaming store, the shard runner and
the coordinator link."""

import signal
import socket
import threading

import pytest

from repro.dist import (
    CoordinatorLost,
    ProtocolError,
    RowStreamStore,
    execute_shard,
    plan_shards,
    run_worker,
)

from ..store.test_resume import factory, make_spec


@pytest.fixture(scope="module")
def spec():
    return make_spec()  # 12 bit-flip faults


def collect_frames():
    """A fake ``send`` that records every frame it is handed."""
    frames = []

    def send(frame_type, **fields):
        frames.append({"frame": frame_type, **fields})

    return frames, send


class TestRowStreamStore:
    def test_rows_carry_global_indices(self, spec):
        shard = plan_shards(spec, shard_size=4)[1]  # faults 4..7
        frames, send = collect_frames()
        execute_shard(shard, factory=factory, send=send)
        rows = [row for f in frames if f["frame"] == "rows"
                for row in f["rows"]]
        assert sorted(row["idx"] for row in rows) == shard.indices

    def test_rows_carry_parent_fault_keys(self, spec):
        shard = plan_shards(spec, shard_size=4)[2]
        frames, send = collect_frames()
        execute_shard(shard, factory=factory, send=send)
        rows = [row for f in frames if f["frame"] == "rows"
                for row in f["rows"]]
        by_idx = {row["idx"]: row["key"] for row in rows}
        for idx, key in zip(shard.indices, shard.fault_keys):
            assert by_idx[idx] == key

    def test_sink_captures_golden_and_execution(self, spec):
        shard = plan_shards(spec, shard_size=4)[0]
        sink = execute_shard(shard, factory=factory)
        assert sink.golden  # probe digests for cross-worker checks
        assert sink.execution["status"] == "complete"
        assert sink.rows_sent == shard.size
        assert sink.done == shard.size

    def test_identical_shards_yield_identical_golden(self, spec):
        shard = plan_shards(spec, shard_size=6)[0]
        a = execute_shard(shard, factory=factory)
        b = execute_shard(shard, factory=factory)
        assert a.golden == b.golden

    def test_pending_indices_always_full(self, spec):
        shard = plan_shards(spec, shard_size=4)[0]
        sink = RowStreamStore(shard, lambda *_a, **_k: None)
        assert sink.pending_indices(0, shard.size) \
            == list(range(shard.size))


class TestExecuteShard:
    def test_no_design_source_rejected(self, spec):
        shard = plan_shards(spec, shard_size=4)[0]  # no netlist attached
        with pytest.raises(ProtocolError, match="no netlist"):
            execute_shard(shard)

    def test_shard_config_reaches_runner(self, spec):
        shard = plan_shards(spec, shard_size=4,
                            config={"warm_start": True})[0]
        sink = execute_shard(shard, factory=factory)
        # Warm-started runs report their checkpoint hit rate.
        assert "warm_hits" in sink.execution

    def test_shard_rows_match_serial_rows(self, spec):
        """The distribution invariant, one shard at a time: every row a
        shard streams equals the row a serial run records for the same
        global fault index."""
        from repro.campaign import run_campaign
        from repro.store.serialize import result_to_row

        serial = run_campaign(factory, spec)
        serial_rows = {}
        for idx, run in enumerate(serial.runs):
            row = result_to_row(idx, "", run)
            serial_rows[idx] = (row["status"], row["label"],
                                row["classification"],
                                row["comparisons"])
        for shard in plan_shards(spec, shard_size=5):
            frames, send = collect_frames()
            execute_shard(shard, factory=factory, send=send)
            for f in frames:
                if f["frame"] != "rows":
                    continue
                for row in f["rows"]:
                    assert (row["status"], row["label"],
                            row["classification"],
                            row["comparisons"]) \
                        == serial_rows[row["idx"]]


class TestCoordinatorLink:
    def test_no_redials_fails_at_the_first_dial_without_waiting(self):
        """``max_reconnects=0`` makes the first failed dial raise
        :class:`CoordinatorLost` with no backoff wait, and the worker
        gives back the SIGTERM handler it installed."""
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]   # closed once the probe is
        waits = []
        stop = threading.Event()
        stop.wait = waits.append
        handler = signal.getsignal(signal.SIGTERM)
        with pytest.raises(CoordinatorLost):
            run_worker(("127.0.0.1", port), max_reconnects=0, stop=stop)
        assert waits == []
        assert signal.getsignal(signal.SIGTERM) is handler

"""Flight recorder ring buffer and post-mortem files."""

import json
import os

import pytest

from repro.core import AnalogBlock, RunBudget, Simulator
from repro.core.errors import ReproError
from repro.core.events import PRIORITY_MONITOR, PRIORITY_NORMAL
from repro.faults import BitFlip
from repro.obs.flightrec import (
    FlightRecorder,
    POSTMORTEM_VERSION,
    build_postmortem,
    postmortem_path,
    write_postmortem,
    write_worker_postmortem,
)


class Ramp(AnalogBlock):
    """Writes t (in ns) to its node every step."""

    def __init__(self, sim, name, node):
        super().__init__(sim, name)
        self.out = self.writes_node(node)

    def step(self, t, dt):
        self.out.set(t * 1e9)


def analog_sim():
    sim = Simulator(dt=1e-9)
    node = sim.node("n")
    Ramp(sim, "r", node)
    sim.probe(node, name="n")
    return sim


class TestFlightRecorderRing:
    def test_validation(self):
        with pytest.raises(ReproError):
            FlightRecorder(capacity=0)
        with pytest.raises(ReproError):
            FlightRecorder(stride=0)

    def test_solver_hook_records_strided_entries(self):
        sim = analog_sim()
        recorder = FlightRecorder(capacity=8, stride=4)
        sim.analog.recorder = recorder
        sim.run(20e-9)
        assert recorder.steps_seen >= 20
        entries = recorder.entries()
        assert 0 < len(entries) <= 8
        # Each entry is (t, value-per-node); times strictly increase.
        times = [entry[0] for entry in entries]
        assert times == sorted(times)
        assert all(len(entry) == 2 for entry in entries)

    def test_ring_keeps_most_recent_entries(self):
        sim = analog_sim()
        recorder = FlightRecorder(capacity=4, stride=1)
        sim.analog.recorder = recorder
        sim.run(20e-9)
        entries = recorder.entries()
        assert len(entries) == 4
        assert recorder.steps_seen > 4
        # Oldest-first ordering survives the wraparound.
        times = [entry[0] for entry in entries]
        assert times == sorted(times)
        assert times[0] > 0.0  # early steps were evicted

    def test_stride_skips_steps(self):
        sim = analog_sim()
        fine = FlightRecorder(capacity=1024, stride=1)
        sim.analog.recorder = fine
        sim.run(20e-9)
        sim2 = analog_sim()
        coarse = FlightRecorder(capacity=1024, stride=5)
        sim2.analog.recorder = coarse
        sim2.run(20e-9)
        assert len(coarse.entries()) < len(fine.entries())


class TestSnapshot:
    def test_snapshot_shape(self):
        sim = analog_sim()
        recorder = FlightRecorder(capacity=8, stride=2)
        sim.analog.recorder = recorder
        sim.run(10e-9)
        snap = recorder.snapshot(sim)
        assert snap["node_names"] == ["n"]
        assert snap["t_now"] == pytest.approx(10e-9)
        assert "n" in snap["nodes_now"]
        assert snap["solver_stride"] == 2
        assert snap["steps_seen"] == recorder.steps_seen
        assert snap["solver_steps"]
        assert "n" in snap["trace_tails"]
        assert len(snap["trace_tails"]["n"]) <= 16
        assert isinstance(snap["event_queue_tail"], list)

    def test_queue_tail_is_the_next_live_events(self):
        """The tail lists the next 16 *live* events in (time, priority,
        seq) order, however many cancelled ones sort before them."""

        def monitor():
            pass

        def first():
            pass

        def second():
            pass

        sim = Simulator()
        by_time = {}
        for k in range(40, 0, -1):
            t = k * 1e-9
            by_time[k] = [
                sim._queue.push(t, monitor, PRIORITY_MONITOR),
                sim.at(t, first),
                sim.at(t, second),
            ]
        for k in range(1, 11):
            for event in by_time[k]:
                event.cancel()
        tail = FlightRecorder().snapshot(sim)["event_queue_tail"]
        expected = [
            (k * 1e-9, priority, name)
            for k in range(11, 41)
            for priority, name in ((PRIORITY_NORMAL, "first"),
                                   (PRIORITY_NORMAL, "second"),
                                   (PRIORITY_MONITOR, "monitor"))
        ][:16]
        assert [
            (e["t"], e["priority"], e["callback"].rsplit(".", 1)[-1])
            for e in tail
        ] == expected

    def test_snapshot_without_sim(self):
        recorder = FlightRecorder()
        snap = recorder.snapshot(None)
        assert snap["t_now"] is None
        assert snap["nodes_now"] == {}
        assert snap["solver_steps"] == []


class TestPostmortemFiles:
    def test_deterministic_path(self, tmp_path):
        path = postmortem_path(tmp_path, 7)
        assert path == os.path.join(str(tmp_path), "fault_00007.postmortem.json")

    def test_write_creates_directory_and_is_loadable(self, tmp_path):
        directory = tmp_path / "deep" / "pm"
        path = write_postmortem(directory, 3, {"status": "diverged"})
        assert json.load(open(path)) == {"status": "diverged"}
        assert not os.path.exists(path + ".tmp")

    def test_write_replaces_atomically(self, tmp_path):
        write_postmortem(tmp_path, 0, {"attempt": 1})
        path = write_postmortem(tmp_path, 0, {"attempt": 2})
        assert json.load(open(path))["attempt"] == 2

    def test_build_postmortem_payload(self, tmp_path):
        sim = analog_sim()
        recorder = FlightRecorder(capacity=8, stride=2)
        sim.analog.recorder = recorder
        sim.run(10e-9)
        fault = BitFlip("top/u.q", 5e-9)
        budget = RunBudget(max_wall_s=1.0, max_events=100)
        payload = build_postmortem(
            sim, recorder, fault=fault, index=4, status="timeout",
            error=TimeoutError("too slow"), budget=budget, attempt=2,
        )
        assert payload["postmortem_version"] == POSTMORTEM_VERSION
        assert payload["index"] == 4
        assert payload["status"] == "timeout"
        assert payload["attempt"] == 2
        assert payload["error"] == "TimeoutError: too slow"
        assert payload["fault"]["describe"] == fault.describe()
        assert payload["budget"]["max_events"] == 100
        assert payload["recorder"]["solver_steps"]
        # The payload must be JSON-serializable end to end.
        path = write_postmortem(tmp_path, 4, payload)
        assert json.load(open(path))["index"] == 4

    def test_build_postmortem_minimal(self):
        payload = build_postmortem(None, None)
        assert payload["fault"] is None
        assert payload["budget"] is None
        assert payload["error"] is None
        assert payload["recorder"]["solver_steps"] == []

    def test_worker_death_postmortem(self, tmp_path):
        fault = BitFlip("top/u.q", 5e-9)
        path = write_worker_postmortem(
            tmp_path, 9, fault=fault, status="crashed",
            error="worker SIGKILLed", pid=1234, exitcode=-9,
            last_heartbeat={"pid": 1234, "index": 9, "phase": "simulate"},
        )
        assert path == postmortem_path(tmp_path, 9)
        payload = json.load(open(path))
        assert payload["kind"] == "worker_death"
        assert payload["worker"] == {"pid": 1234, "exitcode": -9}
        assert payload["last_heartbeat"]["phase"] == "simulate"

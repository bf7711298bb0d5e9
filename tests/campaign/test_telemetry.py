"""Campaign telemetry end to end.

The observability contract of a supervised campaign: the event
journal tells the story of the run (and survives interrupts), worker
heartbeats and lifecycle land in the journal and the store, failed
runs leave flight-recorder post-mortems referenced from their store
rows, and the per-run phase breakdown reaches the execution record,
the metrics registry and the text report.
"""

import json
import multiprocessing
import os
import sys
import time

import pytest

from repro.campaign import (
    CampaignSpec,
    Design,
    RetryPolicy,
    RUN_CRASHED,
    RUN_DIVERGED,
    execution_summary,
    exhaustive_bitflips,
    run_campaign,
)
from repro.campaign.supervisor import WorkerSupervisor
from repro.core import Component, L0, NumericalDivergenceError, Simulator
from repro.digital import Bus, ClockGen, Counter, ParityGen
from repro.obs import journal, metrics
from repro.obs.journal import read_journal
from repro.store import CampaignStore

needs_fork = pytest.mark.skipif(
    sys.platform == "win32"
    or "fork" not in multiprocessing.get_all_start_methods(),
    reason="parallel campaigns need the fork start method",
)


def factory():
    sim = Simulator(dt=1e-9)
    top = Component(sim, "top")
    clk = sim.signal("clk", init=L0)
    ClockGen(sim, "ck", clk, period=10e-9, parent=top)
    q = Bus(sim, "cnt", 4)
    Counter(sim, "counter", clk, q, parent=top)
    par = sim.signal("parity")
    ParityGen(sim, "par", q, par, parent=top)
    probes = {"parity": sim.probe(par), "cnt[0]": sim.probe(q.bits[0])}
    return Design(sim=sim, root=top, probes=probes)


def make_spec(name="tele"):
    faults = exhaustive_bitflips(
        ["top/counter.q[0]", "top/counter.q[1]"], [33e-9, 55e-9]
    )
    return CampaignSpec(name=name, faults=faults, t_end=200e-9,
                        outputs=["parity"])


def targets_time(fault):
    return fault.targets()[0], fault.time


def diverger_on(target, t_inj):
    def hook(design, fault):
        if targets_time(fault) == (target, t_inj):
            raise NumericalDivergenceError("forced divergence")
        return {}

    return hook


@pytest.fixture(autouse=True)
def clean_journal():
    journal.close_journal()
    yield
    journal.close_journal()


class TestJournalFromCampaign:
    def test_serial_campaign_event_stream(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal.open_journal(path)
        run_campaign(factory, make_spec())
        journal.close_journal()
        events = list(read_journal(path))
        names = [e["event"] for e in events]
        assert names[0] == "campaign_started"
        assert names[-1] == "campaign_finished"
        assert names.count("run_started") == 4
        assert names.count("run_finished") == 4
        started = events[0]
        assert started["name"] == "tele"
        assert started["total"] == 4
        assert started["mode"] == "cold"
        finished = [e for e in events if e["event"] == "run_finished"]
        assert all(e["status"] == "ok" for e in finished)
        assert all(e["label"] for e in finished)
        assert sorted(e["index"] for e in finished) == [0, 1, 2, 3]
        # The envelope sequence is gapless and ordered.
        assert [e["seq"] for e in events] == list(range(len(events)))
        assert events[-1]["execution"]["completed"] == 4

    def test_warm_campaign_journals_checkpoint_restores(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal.open_journal(path)
        run_campaign(factory, make_spec(), warm_start=True)
        journal.close_journal()
        events = list(read_journal(path))
        assert [e for e in events if e["event"] == "checkpoint_restored"]
        assert events[0]["mode"] == "warm"

    def test_batched_campaign_journals_batch_plans(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal.open_journal(path)
        run_campaign(factory, make_spec(), warm_start=True, batch=True)
        journal.close_journal()
        events = list(read_journal(path))
        planned = [e for e in events if e["event"] == "batch_planned"]
        assert planned
        assert all(e["size"] >= 1 for e in planned)
        assert events[0]["mode"] == "batched"

    def test_retry_and_quarantine_reach_the_journal(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal.open_journal(path)
        run_campaign(
            factory, make_spec(), on_error="collect",
            metric_hooks=[diverger_on("top/counter.q[1]", 55e-9)],
            retry=RetryPolicy(attempts=2, backoff_s=0.01),
        )
        journal.close_journal()
        events = list(read_journal(path))
        (retry,) = [e for e in events if e["event"] == "retry"]
        assert retry["attempt"] == 1
        assert retry["status"] == RUN_DIVERGED
        (quarantined,) = [e for e in events if e["event"] == "quarantined"]
        assert quarantined["index"] == retry["index"]
        assert quarantined["attempts"] == 2
        failed = [e for e in events
                  if e["event"] == "run_finished" and e["status"] != "ok"]
        assert [e["status"] for e in failed] == [RUN_DIVERGED]

    def test_interrupted_campaign_leaves_valid_journal(self, tmp_path):
        path = tmp_path / "j.jsonl"
        seen = []

        def interrupter(design, fault):
            seen.append(fault)
            if len(seen) == 3:
                raise KeyboardInterrupt
            return {}

        journal.open_journal(path)
        with pytest.raises(KeyboardInterrupt):
            run_campaign(factory, make_spec(), metric_hooks=[interrupter])
        journal.close_journal()
        # Everything up to the interrupt parses cleanly.
        events = list(read_journal(path))
        names = [e["event"] for e in events]
        assert names[0] == "campaign_started"
        assert "campaign_finished" not in names
        assert names.count("run_finished") == 2

    def test_store_records_journal_location(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal.open_journal(path)
        with CampaignStore(tmp_path / "c.sqlite") as store:
            run_campaign(factory, make_spec(), store=store)
            assert store.journal_location("tele") == (str(path), 0)
        journal.close_journal()

    def test_campaign_without_journal_emits_nothing(self, tmp_path):
        # The disabled-journal path: no sink, no file, no errors.
        run_campaign(factory, make_spec())
        assert not journal.enabled()


class TestPhaseProfiling:
    def test_cold_phase_breakdown(self, tmp_path):
        with CampaignStore(tmp_path / "c.sqlite") as store:
            result = run_campaign(factory, make_spec(), store=store)
        phases = result.execution["phases"]
        assert set(phases) == {"restore", "step", "classify", "store_write"}
        assert phases["restore"] == 0.0  # cold start never restores
        assert phases["step"] > 0.0
        assert phases["classify"] > 0.0
        assert phases["store_write"] > 0.0
        assert "phase breakdown" in execution_summary(result)

    def test_warm_start_accrues_restore_time(self):
        result = run_campaign(factory, make_spec(), warm_start=True)
        phases = result.execution["phases"]
        assert phases["restore"] > 0.0
        assert phases["step"] > 0.0

    def test_batched_digital_accrues_restore_and_step(self):
        """Golden walks and node restores are restore; mutants are step."""
        result = run_campaign(factory, make_spec(), batch="digital")
        assert result.execution["batch"]["scalar_runs"] == 0
        phases = result.execution["phases"]
        assert phases["restore"] > 0.0
        assert phases["step"] > 0.0

    def test_phases_reach_the_metrics_registry(self):
        metrics.enable()
        run_campaign(factory, make_spec())
        histograms = metrics.snapshot()["histograms"]
        for name in ("campaign.phase.step_s", "campaign.phase.classify_s"):
            assert histograms[name]["count"] == 1


class TestPostmortems:
    def test_diverged_run_dumps_referenced_postmortem(self, tmp_path):
        pm_dir = tmp_path / "pm"
        journal.open_journal(tmp_path / "j.jsonl")
        with CampaignStore(tmp_path / "c.sqlite") as store:
            result = run_campaign(
                factory, make_spec(), on_error="collect", store=store,
                metric_hooks=[diverger_on("top/counter.q[1]", 55e-9)],
                postmortem_dir=pm_dir,
            )
            (err,) = result.errors
            assert err.status == RUN_DIVERGED
            assert err.postmortem is not None
            payload = json.load(open(err.postmortem))
            assert payload["status"] == RUN_DIVERGED
            assert payload["index"] == err.index
            assert "forced divergence" in payload["error"]
            assert payload["fault"]["describe"] == err.fault.describe()
            # The store row references the same file.
            campaign_id = store.campaign_id("tele")
            (stored,) = store.load_errors(campaign_id, make_spec().faults)
            assert stored.postmortem == err.postmortem
        journal.close_journal()
        events = list(read_journal(tmp_path / "j.jsonl"))
        written = [e for e in events if e["event"] == "postmortem_written"]
        assert written
        assert written[0]["index"] == err.index

    def test_no_postmortem_dir_means_no_dump(self, tmp_path):
        result = run_campaign(
            factory, make_spec(), on_error="collect",
            metric_hooks=[diverger_on("top/counter.q[1]", 55e-9)],
        )
        (err,) = result.errors
        assert err.postmortem is None

    @needs_fork
    def test_sigkilled_worker_leaves_worker_death_postmortem(self, tmp_path):
        def killer(design, fault):
            if targets_time(fault) == ("top/counter.q[0]", 55e-9):
                os.kill(os.getpid(), 9)
            return {}

        pm_dir = tmp_path / "pm"
        journal.open_journal(tmp_path / "j.jsonl")
        with CampaignStore(tmp_path / "c.sqlite") as store:
            result = run_campaign(
                factory, make_spec("kill"), metric_hooks=[killer],
                workers=2, on_error="collect", retries=0, store=store,
                postmortem_dir=pm_dir,
            )
            (err,) = result.errors
            assert err.status == RUN_CRASHED
            assert err.postmortem is not None
            payload = json.load(open(err.postmortem))
            assert payload["kind"] == "worker_death"
            assert payload["worker"]["exitcode"] == -9
            campaign_id = store.campaign_id("kill")
            (stored,) = store.load_errors(campaign_id, make_spec().faults)
            assert stored.postmortem == err.postmortem
        journal.close_journal()
        events = list(read_journal(tmp_path / "j.jsonl"))
        names = [e["event"] for e in events]
        assert "worker_spawned" in names
        assert "worker_died" in names
        (died,) = [e for e in events if e["event"] == "worker_died"]
        assert died["exitcode"] == -9


@needs_fork
class TestWorkerTelemetry:
    def test_parallel_campaign_journals_worker_lifecycle(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal.open_journal(path)
        with CampaignStore(tmp_path / "c.sqlite") as store:
            run_campaign(factory, make_spec(), workers=2, store=store)
            rows = store.worker_rows("tele")
        journal.close_journal()
        events = list(read_journal(path))
        spawned = [e for e in events if e["event"] == "worker_spawned"]
        # The pool grows lazily: a fast campaign may need only one.
        assert 1 <= len(spawned) <= 2
        pids = {e["pid"] for e in spawned}
        started = [e for e in events if e["event"] == "run_started"]
        assert len(started) == 4
        assert all(e["worker_pid"] in pids for e in started)
        # Worker rows landed in the store, one per spawned pid.
        assert sorted(r["pid"] for r in rows) == sorted(pids)
        assert all(r["state"] == "alive" for r in rows)

    def test_worker_rows_written_on_lifecycle_not_per_task(self, tmp_path):
        """Spawn, heartbeat and death write worker rows; a task does
        not, so a pool of fast faults writes fewer rows than runs."""

        class CountingStore(CampaignStore):
            worker_writes = 0

            def record_worker(self, *args, **kwargs):
                self.worker_writes += 1
                super().record_worker(*args, **kwargs)

        faults = exhaustive_bitflips(
            [f"top/counter.q[{i}]" for i in range(4)],
            [13e-9 + 10e-9 * k for k in range(10)],
        )
        spec = CampaignSpec(name="rows", faults=faults, t_end=150e-9,
                            outputs=["parity"])
        with CountingStore(tmp_path / "c.sqlite") as store:
            result = run_campaign(factory, spec, workers=2, store=store)
            rows = store.worker_rows("rows")
        assert len(result.runs) == 40
        assert store.worker_writes < len(result.runs)
        assert rows and all(row["state"] == "alive" for row in rows)

    def test_dead_worker_row_records_exit(self, tmp_path):
        def killer(design, fault):
            if targets_time(fault) == ("top/counter.q[0]", 55e-9):
                os.kill(os.getpid(), 9)
            return {}

        with CampaignStore(tmp_path / "c.sqlite") as store:
            run_campaign(
                factory, make_spec("kill"), metric_hooks=[killer],
                workers=2, on_error="collect", retries=0, store=store,
            )
            rows = store.worker_rows("kill")
        dead = [r for r in rows if r["state"] == "dead"]
        assert len(dead) == 1
        assert dead[0]["exitcode"] == -9
        assert dead[0]["fault_idx"] is not None

    def test_supervisor_heartbeats_carry_phase(self):
        events = []

        def body(task):
            time.sleep(0.3)
            return (task, True, f"done-{task}", 0.3)

        supervisor = WorkerSupervisor(
            multiprocessing.get_context("fork"), body, workers=1,
            heartbeat_s=0.05, monitor=events.append,
        )
        outcomes = list(supervisor.outcomes([0, 1]))
        assert sorted(o[0] for o in outcomes) == [0, 1]
        kinds = [e["event"] for e in events]
        assert "spawned" in kinds
        assert kinds.count("task") == 2
        beats = [e for e in events if e["event"] == "heartbeat"]
        # 0.6 s of busy worker at 0.05 s cadence: plenty of beats.
        assert len(beats) >= 2
        busy = [b for b in beats if b["phase"] == "running"]
        assert busy
        assert all(b["index"] in (0, 1) for b in busy)
        assert all(b["pid"] for b in beats)

    def test_monitor_exceptions_do_not_break_the_run(self):
        def bad_monitor(info):
            raise RuntimeError("monitor bug")

        def body(task):
            return (task, True, "ok", 0.0)

        supervisor = WorkerSupervisor(
            multiprocessing.get_context("fork"), body, workers=1,
            monitor=bad_monitor,
        )
        outcomes = list(supervisor.outcomes([0, 1, 2]))
        assert sorted(o[0] for o in outcomes) == [0, 1, 2]

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
from contextlib import closing

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


def record_into(events):
    """An event-stream listener appending ``dict(event=..., **fields)``."""
    return lambda event, fields: events.append(dict(fields, event=event))


def sixty_fault_spec(name):
    faults = exhaustive_bitflips(
        [f"top/counter.q[{i}]" for i in range(4)],
        [33e-9 + 10e-9 * k for k in range(15)],
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

    @needs_fork
    def test_pool_warm_campaign_reports_worker_phases(self):
        """Forked workers send each task's restore and step seconds
        back with its outcome."""
        result = run_campaign(factory, make_spec(), warm_start=True,
                              workers=2)
        assert result.execution["workers"] == 2
        phases = result.execution["phases"]
        assert phases["restore"] > 0.0
        assert phases["step"] > 0.0

    @needs_fork
    def test_pool_digital_batches_report_peak_branch_nodes(self):
        result = run_campaign(factory, make_spec(), batch="digital",
                              workers=2)
        assert result.execution["workers"] == 2
        assert result.execution["batch"]["batches"] >= 1
        assert result.execution["batch"]["branch_peak_live"] > 0
        assert result.execution["phases"]["step"] > 0.0

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
        assert all(r["state"] == "stopped" for r in rows)

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
        assert rows and all(row["state"] == "stopped" for row in rows)

    def test_sampled_pool_campaign_leaves_no_alive_worker_row(self, tmp_path):
        """Every worker a sampled pool campaign started ends it
        stopped."""
        spec = sixty_fault_spec("pool")
        with CampaignStore(tmp_path / "c.sqlite") as store:
            result = run_campaign(
                factory, spec, sample=True, margin=0.1, chunk=10,
                warm_start=True, batch="digital", workers=2,
                on_error="collect", store=store,
            )
            rows = store.worker_rows("pool")
        assert result.execution["sampling"]["chunks"] >= 2
        assert rows
        assert [row for row in rows if row["state"] == "alive"] == []

    def test_one_pool_serves_every_pass_of_a_campaign(self, tmp_path):
        """Each chunk's batch pass and scalar pass reuse the campaign's
        two workers, stopped once at the end, and the rows equal the
        in-process run's."""
        spec = sixty_fault_spec("pool")

        def run(workers):
            with CampaignStore(tmp_path / f"c{workers}.sqlite") as store:
                result = run_campaign(
                    factory, spec, sample=True, margin=0.1, chunk=10,
                    warm_start=True, batch="digital", workers=workers,
                    on_error="collect", store=store,
                )
                rows = store.run_rows(store.campaign_id("pool"))
                return (result, [dict(row, wall_s=None) for row in rows],
                        store.worker_rows("pool"))

        journal.open_journal(tmp_path / "j.jsonl")
        result, pool_rows, worker_rows = run(2)
        journal.close_journal()
        _result, serial_rows, _workers = run(1)
        assert result.execution["workers"] == 2
        assert result.execution["sampling"]["chunks"] == 4
        spawned = [e["pid"] for e in read_journal(tmp_path / "j.jsonl")
                   if e["event"] == "worker_spawned"]
        assert len(spawned) == 2
        assert [row["state"] for row in worker_rows] == ["stopped"] * 2
        assert sorted(row["pid"] for row in worker_rows) == sorted(spawned)
        assert pool_rows == serial_rows

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

        with closing(WorkerSupervisor(
            multiprocessing.get_context("fork"), body, workers=1,
            heartbeat_s=0.05,
        )) as supervisor, journal.listening(record_into(events)):
            outcomes = list(supervisor.outcomes([0, 1]))
        assert sorted(o[0] for o in outcomes) == [0, 1]
        kinds = [e["event"] for e in events]
        assert "worker_spawned" in kinds
        assert kinds.count("run_started") == 2
        beats = [e for e in events if e["event"] == "worker_heartbeat"]
        # 0.6 s of busy worker at 0.05 s cadence: plenty of beats.
        assert len(beats) >= 2
        busy = [b for b in beats if b["phase"] == "running"]
        assert busy
        assert all(b["index"] in (0, 1) for b in busy)
        assert all(b["pid"] for b in beats)

    def test_pool_starts_a_worker_per_queued_task(self):
        """Two short tasks start two workers at once, not a second
        worker only after the first has been busy for a poll."""
        events = []

        def body(task):
            time.sleep(0.01)
            return (task, True, "ok", 0.01)

        with closing(WorkerSupervisor(
            multiprocessing.get_context("fork"), body, workers=2,
            heartbeat_s=None,
        )) as supervisor, journal.listening(record_into(events)):
            outcomes = list(supervisor.outcomes(list(range(8))))
        assert sorted(o[0] for o in outcomes) == list(range(8))
        spawned = {e["pid"] for e in events if e["event"] == "worker_spawned"}
        assert len(spawned) == 2
        assert {
            e["worker_pid"] for e in events if e["event"] == "run_started"
        } == spawned

    def test_pool_campaign_journal_has_one_writer(self, tmp_path):
        """Workers close the inherited journal: the parent writes every
        line, so ``seq`` counts the lines in file order."""
        path = tmp_path / "j.jsonl"
        journal.open_journal(path)
        run_campaign(factory, make_spec(), warm_start=True, workers=2)
        journal.close_journal()
        events = list(read_journal(path))
        assert [e["seq"] for e in events] == list(range(len(events)))
        assert sum(e["event"] == "run_started" for e in events) == 4

    def test_listener_exceptions_do_not_break_the_run(self):
        def bad_listener(event, fields):
            raise RuntimeError("listener bug")

        def body(task):
            return (task, True, "ok", 0.0)

        with closing(WorkerSupervisor(
            multiprocessing.get_context("fork"), body, workers=1,
        )) as supervisor, journal.listening(bad_listener):
            outcomes = list(supervisor.outcomes([0, 1, 2]))
        assert sorted(o[0] for o in outcomes) == [0, 1, 2]

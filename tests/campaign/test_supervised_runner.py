"""Tests for supervised campaign execution.

Covers the robustness contract end to end: run budgets and guards
armed on faulty runs, retry with backoff, quarantine, worker crash
and deadline supervision, serial fallback without ``fork``, and the
statuses flowing through results, reports and the store.
"""

import logging
import multiprocessing
import os
import sys
import time

import pytest

from repro.campaign import (
    CampaignRunner,
    CampaignSpec,
    Design,
    RetryPolicy,
    RUN_CRASHED,
    RUN_DIVERGED,
    RUN_ERROR,
    RUN_OK,
    RUN_QUARANTINED,
    RUN_TIMEOUT,
    classify_failure,
    exhaustive_bitflips,
    execution_summary,
    full_report,
    run_campaign,
)
from repro.core import (
    BudgetExceededError,
    Component,
    L0,
    NumericalDivergenceError,
    Simulator,
    WorkerCrashError,
)
from repro.core.errors import ReproError, SimulationError
from repro.digital import Bus, ClockGen, Counter, ParityGen
from repro.obs.flightrec import postmortem_path
from repro.store import SCHEMA_VERSION, CampaignStore

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


def make_spec(name="sup"):
    faults = exhaustive_bitflips(
        [f"top/counter.q[{i}]" for i in range(4)], [33e-9, 55e-9, 77e-9]
    )
    return CampaignSpec(name=name, faults=faults, t_end=300e-9,
                        outputs=["parity"])


def targets_time(fault):
    return fault.targets()[0], fault.time


def hook_raising_on(target, t_inj, exc_type=RuntimeError):
    def hook(design, fault):
        if targets_time(fault) == (target, t_inj):
            raise exc_type("injected test failure")
        return {}

    return hook


FAST_RETRY = RetryPolicy(attempts=2, backoff_s=0.01)


class TestClassifyFailure:
    def test_mapping(self):
        assert classify_failure(BudgetExceededError("b")) == RUN_TIMEOUT
        assert classify_failure(NumericalDivergenceError("n")) == RUN_DIVERGED
        assert classify_failure(WorkerCrashError("w")) == RUN_CRASHED
        assert classify_failure(SimulationError("s")) == RUN_ERROR
        assert classify_failure(ValueError("v")) == RUN_ERROR


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(attempts=5, backoff_s=1.0, backoff_cap_s=3.0)
        assert policy.delay(1) == 1.0
        assert policy.delay(2) == 2.0
        assert policy.delay(3) == 3.0  # capped
        assert policy.delay(4) == 3.0

    def test_validation(self):
        with pytest.raises(ReproError):
            RetryPolicy(attempts=0)
        with pytest.raises(ReproError):
            RetryPolicy(backoff_s=-1.0)


class TestSerialSupervision:
    def test_collect_records_status_and_attempts(self):
        result = run_campaign(
            factory, make_spec(),
            metric_hooks=[hook_raising_on("top/counter.q[2]", 55e-9)],
            on_error="collect", retry=FAST_RETRY,
        )
        assert len(result.runs) == 11
        (err,) = result.errors
        assert err.status == RUN_ERROR
        assert err.attempts == 2
        assert err.quarantined
        assert "[error]" in err.describe()
        assert "(2 attempts)" in err.describe()

    def test_retry_then_succeed(self, tmp_path):
        marker = tmp_path / "failed-once"

        def flaky(design, fault):
            if targets_time(fault) == ("top/counter.q[1]", 33e-9):
                if not marker.exists():
                    marker.write_text("x")
                    raise RuntimeError("transient glitch")
            return {}

        result = run_campaign(factory, make_spec(), metric_hooks=[flaky],
                              on_error="collect", retry=FAST_RETRY)
        assert not result.errors
        assert len(result.runs) == 12
        assert result.execution["retries"] == 1
        assert result.execution["quarantined"] == 0

    def test_retries_zero_disables(self):
        result = run_campaign(
            factory, make_spec(),
            metric_hooks=[hook_raising_on("top/counter.q[2]", 55e-9)],
            on_error="collect", retries=0,
        )
        (err,) = result.errors
        assert err.attempts == 1
        assert result.execution["retries"] == 0

    def test_raise_mode_propagates_first_error(self):
        with pytest.raises(RuntimeError):
            run_campaign(
                factory, make_spec(),
                metric_hooks=[hook_raising_on("top/counter.q[2]", 55e-9)],
                on_error="raise",
            )

    @pytest.mark.parametrize("warm_start", [False, True])
    def test_raise_mode_propagates_the_original_exception(self, tmp_path,
                                                         warm_start):
        """The first failure's own exception object aborts the campaign,
        once its post-mortem is dumped as for a collected failure."""
        boom = RuntimeError("injected test failure")

        def hook(design, fault):
            if targets_time(fault) == ("top/counter.q[2]", 55e-9):
                raise boom
            return {}

        with pytest.raises(RuntimeError) as caught:
            run_campaign(factory, make_spec(), metric_hooks=[hook],
                         on_error="raise", warm_start=warm_start,
                         postmortem_dir=tmp_path)
        assert caught.value is boom
        assert os.path.exists(postmortem_path(tmp_path, 7))

    def test_event_budget_classifies_timeout(self):
        result = run_campaign(factory, make_spec(), on_error="collect",
                              event_budget=40, retries=0)
        assert len(result.errors) == 12
        assert all(err.status == RUN_TIMEOUT for err in result.errors)
        assert result.execution["timeouts"] == 12
        assert "BudgetExceededError" in result.errors[0].message

    def test_status_counts(self):
        result = run_campaign(
            factory, make_spec(),
            metric_hooks=[hook_raising_on("top/counter.q[2]", 55e-9)],
            on_error="collect", retry=FAST_RETRY,
        )
        counts = result.status_counts()
        assert counts[RUN_OK] == 11
        assert counts[RUN_ERROR] == 1
        assert counts[RUN_QUARANTINED] == 1

    def test_execution_summary_renders_supervision(self):
        result = run_campaign(
            factory, make_spec(),
            metric_hooks=[hook_raising_on("top/counter.q[2]", 55e-9)],
            on_error="collect", retry=FAST_RETRY,
        )
        text = execution_summary(result)
        assert "retries" in text
        assert "quarantined" in text
        report = full_report(result)
        assert "[error]" in report


class TestSerialFallback:
    def test_missing_fork_degrades_to_serial(self, monkeypatch, caplog):
        monkeypatch.setattr(
            CampaignRunner, "_fork_context", staticmethod(lambda: None)
        )
        with caplog.at_level(logging.WARNING, logger="repro.campaign"):
            result = run_campaign(factory, make_spec(), workers=4)
        assert len(result.runs) == 12
        assert any("falling back to serial" in rec.message
                   for rec in caplog.records)


@needs_fork
class TestParallelSupervision:
    def test_collect_with_raising_worker(self, tmp_path):
        store = CampaignStore(tmp_path / "c.sqlite")
        with store:
            result = run_campaign(
                factory, make_spec(),
                metric_hooks=[hook_raising_on("top/counter.q[2]", 55e-9)],
                workers=3, on_error="collect", retry=FAST_RETRY,
                store=store,
            )
            assert len(result.runs) == 11
            (err,) = result.errors
            assert err.status == RUN_ERROR
            assert err.attempts == 2
            # The store holds every completed row plus the error row.
            campaign_id = store.campaign_id("sup")
            assert len(store.completed_indices(campaign_id)) == 11
            stored_errors = store.load_errors(
                campaign_id, make_spec().faults
            )
            assert [e.index for e in stored_errors] == [err.index]
            assert stored_errors[0].quarantined

    def test_collect_with_sigkilled_worker(self, tmp_path):
        def killer(design, fault):
            if targets_time(fault) == ("top/counter.q[0]", 77e-9):
                os.kill(os.getpid(), 9)
            return {}

        store = CampaignStore(tmp_path / "c.sqlite")
        with store:
            result = run_campaign(
                factory, make_spec("kill"), metric_hooks=[killer],
                workers=3, on_error="collect", retry=FAST_RETRY,
                store=store,
            )
            assert len(result.runs) + len(result.errors) == 12
            (err,) = result.errors
            assert err.status == RUN_CRASHED
            assert err.attempts == 2
            assert "exitcode -9" in err.message
            assert result.execution["crashed"] == 1
            # Every completed run was persisted despite the dead worker.
            campaign_id = store.campaign_id("kill")
            assert len(store.completed_indices(campaign_id)) == 11

    def test_deadline_kill_classifies_timeout(self):
        def sleeper(design, fault):
            if targets_time(fault) == ("top/counter.q[1]", 33e-9):
                time.sleep(60)
            return {}

        result = run_campaign(
            factory, make_spec(), metric_hooks=[sleeper],
            workers=3, on_error="collect", timeout=0.5, retries=0,
        )
        assert len(result.runs) == 11
        (err,) = result.errors
        assert err.status == RUN_TIMEOUT
        assert result.execution["timeouts"] == 1

    def test_raise_mode_propagates_crash(self):
        def killer(design, fault):
            if targets_time(fault) == ("top/counter.q[0]", 77e-9):
                os.kill(os.getpid(), 9)
            return {}

        with pytest.raises(WorkerCrashError):
            run_campaign(factory, make_spec(), metric_hooks=[killer],
                         workers=3, on_error="raise")

    def test_matches_serial_classifications(self):
        serial = run_campaign(factory, make_spec(), on_error="collect")
        parallel = run_campaign(factory, make_spec(), workers=4,
                                on_error="collect")
        assert [r.label for r in serial.runs] == \
            [r.label for r in parallel.runs]


class TestQuarantineResume:
    def test_quarantined_skipped_then_retried_on_request(self, tmp_path):
        path = tmp_path / "c.sqlite"
        bad = hook_raising_on("top/counter.q[2]", 55e-9)

        with CampaignStore(path) as store:
            first = run_campaign(factory, make_spec(), metric_hooks=[bad],
                                 on_error="collect", retry=FAST_RETRY,
                                 store=store)
            assert first.errors and first.errors[0].quarantined

        # Plain resume skips the quarantined fault but still reports it.
        with CampaignStore(path) as store:
            resumed = run_campaign(factory, make_spec(), metric_hooks=[bad],
                                   on_error="collect", retry=FAST_RETRY,
                                   store=store, resume=True)
            assert resumed.execution["completed"] == 0
            assert len(resumed.errors) == 1
            assert resumed.errors[0].quarantined
            assert len(resumed.runs) == 11

        # retry_quarantined re-runs it; with the hook gone it succeeds,
        # and the merged result matches an uninterrupted campaign.
        with CampaignStore(path) as store:
            final = run_campaign(factory, make_spec(), on_error="collect",
                                 retry=FAST_RETRY, store=store, resume=True,
                                 retry_quarantined=True)
            assert not final.errors
            assert len(final.runs) == 12

        clean = run_campaign(factory, make_spec(), on_error="collect")
        with CampaignStore(path) as store:
            loaded = store.load_result("sup")
        assert [r.label for r in loaded.runs] == \
            [r.label for r in clean.runs]

    def test_failed_but_not_quarantined_is_retried(self, tmp_path):
        path = tmp_path / "c.sqlite"
        bad = hook_raising_on("top/counter.q[2]", 55e-9)

        with CampaignStore(path) as store:
            first = run_campaign(factory, make_spec(), metric_hooks=[bad],
                                 on_error="collect", retries=0, store=store)
            # retries=0 still quarantines? No: quarantine marks retry
            # exhaustion, and attempts(1) >= policy attempts(1).
            assert first.errors[0].quarantined

    def test_store_migrates_v1_database(self, tmp_path):
        import sqlite3

        path = tmp_path / "old.sqlite"
        conn = sqlite3.connect(path)
        conn.executescript(
            """
            CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);
            INSERT INTO meta VALUES ('schema_version', '1');
            CREATE TABLE campaigns (
                id INTEGER PRIMARY KEY AUTOINCREMENT,
                name TEXT UNIQUE NOT NULL, spec_json TEXT NOT NULL,
                fault_digest TEXT NOT NULL, golden_json TEXT,
                execution_json TEXT,
                status TEXT NOT NULL DEFAULT 'running',
                created_at TEXT NOT NULL, updated_at TEXT NOT NULL);
            CREATE TABLE faults (
                campaign_id INTEGER NOT NULL, idx INTEGER NOT NULL,
                kind TEXT NOT NULL, key TEXT NOT NULL,
                description TEXT NOT NULL, descriptor_json TEXT NOT NULL,
                PRIMARY KEY (campaign_id, idx));
            CREATE TABLE runs (
                campaign_id INTEGER NOT NULL, fault_idx INTEGER NOT NULL,
                status TEXT NOT NULL, label TEXT,
                classification_json TEXT, comparisons_json TEXT,
                metrics_json TEXT, error TEXT, wall_s REAL,
                kernel_events INTEGER, completed_at TEXT NOT NULL,
                PRIMARY KEY (campaign_id, fault_idx));
            INSERT INTO runs VALUES
                (1, 0, 'error', NULL, NULL, NULL, NULL, 'old', 0.1,
                 NULL, 'now');
            """
        )
        conn.commit()
        conn.close()

        with CampaignStore(path) as store:
            row = store._conn.execute(
                "SELECT attempts, quarantined FROM runs"
            ).fetchone()
            # v1 rows read back as single-attempt, not quarantined.
            assert row["attempts"] is None
            assert row["quarantined"] == 0
            version = store._conn.execute(
                "SELECT value FROM meta WHERE key = 'schema_version'"
            ).fetchone()["value"]
            assert version == str(SCHEMA_VERSION)
            # And v2 writes work against the migrated table.
            store.record_error(1, 1, "new", status=RUN_TIMEOUT,
                               attempts=2, quarantined=True)
            assert store.quarantined_indices(1) == {1}

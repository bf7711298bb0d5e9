"""The campaign event stream and its sinks.

Every campaign fact is emitted once (``repro.obs.journal.emit``); the
journal, the metrics registry and the running campaign's listeners
are its sinks.  These tests pin the registry to what the execution
record and the store's rows say, for every campaign shape.
"""

import os
import signal
from collections import Counter as Tally

import pytest

from repro.campaign import RetryPolicy, run_campaign
from repro.obs import journal, metrics
from repro.obs.journal import read_journal
from repro.store import CampaignStore

from tests.campaign.test_batched_runner import (
    BENIGN,
    DISRUPTIVE,
    pll_factory,
    pll_spec,
)
from tests.campaign.test_digital_batch import shiftreg_factory, shiftreg_spec
from tests.campaign.test_telemetry import (
    diverger_on,
    factory,
    make_spec,
    needs_fork,
    sixty_fault_spec,
    targets_time,
)

FAILED = ("timeout", "diverged", "crashed", "error")


def killer_once(marker, target, t_inj):
    """A hook that SIGKILLs its process on the first attempt of one
    fault only (``marker`` records that it fired)."""

    def hook(design, fault):
        if targets_time(fault) == (target, t_inj) and not os.path.exists(
            marker
        ):
            open(marker, "w").close()
            os.kill(os.getpid(), signal.SIGKILL)
        return {}

    return hook


def shape(name, tmp_path):
    """``(factory, spec, run_campaign options)`` of one campaign shape."""
    if name == "cold":
        return factory, make_spec("cold"), {}
    if name == "warm":
        return factory, make_spec("warm"), {"warm_start": True}
    if name == "auto-peel":
        return pll_factory, pll_spec(BENIGN + [DISRUPTIVE], "peel"), {
            "batch": "auto",
        }
    if name == "digital-converge":
        return shiftreg_factory, shiftreg_spec("converge"), {
            "batch": "digital",
        }
    if name == "pool":
        hooks = [
            killer_once(str(tmp_path / "killed"), "top/counter.q[0]", 55e-9),
            diverger_on("top/counter.q[1]", 55e-9),
        ]
        return factory, make_spec("pool"), {
            "workers": 2, "on_error": "collect", "metric_hooks": hooks,
            "retry": RetryPolicy(attempts=2, backoff_s=0.01),
        }
    assert name == "sampled"
    return factory, sixty_fault_spec("sampled"), {
        "sample": True, "margin": 0.1, "chunk": 10, "warm_start": True,
        "batch": "digital", "on_error": "collect",
    }


def expected_metrics(execution, rows, worker_rows):
    """The campaign counters and histogram counts the execution record
    and the stored rows imply."""
    ok = [row for row in rows if row["status"] == "ok"]
    failed = [row for row in rows if row["status"] in FAILED]
    counters = {
        "campaign.runs": len(ok),
        "campaign.errors": len(failed),
        "campaign.timeout": execution["timeouts"],
        "campaign.diverged": execution["diverged"],
        "campaign.crashed": execution["crashed"],
        "campaign.quarantined": execution["quarantined"],
        "campaign.retries": execution["retries"],
        "campaign.retried_runs": sum(row["attempts"] > 1 for row in ok),
        "campaign.worker_deaths": sum(
            row["state"] == "dead" for row in worker_rows
        ),
    }
    for label, count in Tally(row["label"] for row in ok).items():
        counters[f"campaign.class.{label}"] = count
    histograms = {"campaign.run_wall_s": len(ok)}
    batch = execution.get("batch")
    if batch is None:
        counters["campaign.runs.scalar"] = len(ok) + len(failed)
    else:
        counters.update({
            "campaign.batch.count": batch["batches"],
            "campaign.batch.analog": batch["analog_batches"],
            "campaign.batch.digital": batch["digital_batches"],
            "campaign.batch.peeled": batch["peeled"],
            "campaign.batch.converged": batch["converged"],
            "campaign.batch.fallback": batch["fallbacks"],
            "campaign.runs.batched": batch["batched_runs"],
            "campaign.runs.scalar": batch["scalar_runs"],
        })
        histograms["campaign.batch.size"] = batch["batches"]
    if "warm_hits" in execution:
        counters["campaign.warm.hit"] = execution["warm_hits"]
        counters["campaign.warm.miss"] = execution["warm_misses"]
    for phase in execution["phases"]:
        histograms[f"campaign.phase.{phase}_s"] = 1
    return counters, histograms


SHAPES = ["cold", "warm", "auto-peel", "digital-converge",
          pytest.param("pool", marks=needs_fork), "sampled"]


class TestRegistryAgreesWithExecution:
    @pytest.mark.parametrize("name", SHAPES)
    def test_counters_match_rows_and_execution(self, name, tmp_path):
        design, spec, options = shape(name, tmp_path)
        metrics.enable()
        with CampaignStore(tmp_path / "c.sqlite") as store:
            result = run_campaign(design, spec, store=store, **options)
            rows = store.run_rows(store.campaign_id(spec.name))
            worker_rows = store.worker_rows(spec.name)
        execution = result.execution
        snapshot = metrics.snapshot()
        counters = {
            key: value for key, value in snapshot["counters"].items()
            if key.startswith("campaign.")
        }
        histograms = {
            key: value for key, value in snapshot["histograms"].items()
            if key.startswith("campaign.")
        }
        want_counters, want_histograms = expected_metrics(
            execution, rows, worker_rows
        )
        assert {
            key: counters.get(key, 0) for key in want_counters
        } == want_counters
        # No campaign counter counts something the record does not.
        assert {key for key, value in counters.items() if value} <= set(
            want_counters
        )
        assert {
            key: summary["count"] for key, summary in histograms.items()
        } == want_histograms
        for phase, seconds in execution["phases"].items():
            total = histograms[f"campaign.phase.{phase}_s"]["total"]
            assert total == pytest.approx(seconds, abs=1e-6)
        # Not vacuous: each shape exercises what it is named for.
        batch = execution.get("batch", {})
        if name == "auto-peel":
            assert batch["peeled"] >= 1
        if name == "digital-converge":
            assert batch["converged"] >= 1
        if name == "pool":
            assert execution["workers"] == 2
            assert want_counters["campaign.worker_deaths"] == 1
            assert want_counters["campaign.retried_runs"] == 1
            assert want_counters["campaign.quarantined"] == 1
        if name == "sampled":
            assert execution["sampling"]["chunks"] >= 2


class TestEmit:
    def test_one_emit_feeds_journal_registry_and_listeners(self, tmp_path):
        seen = []
        journal.open_journal(tmp_path / "j.jsonl")
        metrics.enable()
        with journal.listening(lambda event, fields: seen.append(
                (event, fields))):
            journal.emit("retry", index=3, attempt=1, delay_s=0.25,
                         status="timeout")
        journal.emit("retry", index=3, attempt=2, delay_s=0.5,
                     status="timeout")
        journal.close_journal()
        lines = list(read_journal(tmp_path / "j.jsonl"))
        assert [line["attempt"] for line in lines] == [1, 2]
        assert metrics.snapshot()["counters"]["campaign.retries"] == 2
        # The listener heard only what was emitted inside its block.
        assert seen == [("retry", {"index": 3, "attempt": 1,
                                   "delay_s": 0.25, "status": "timeout"})]

    def test_disabled_sinks_record_nothing(self):
        journal.emit("worker_died", pid=1, index=None, exitcode=-9,
                     killed=False)
        assert metrics.snapshot()["counters"] == {}

    def test_a_raising_listener_is_logged_not_fatal(self, caplog):
        def broken(event, fields):
            raise RuntimeError("listener bug")

        with journal.listening(broken):
            journal.emit("worker_spawned", pid=1)
        assert "listener bug" in caplog.text

    def test_detach_closes_the_journal_and_drops_listeners(self, tmp_path):
        """What a forked worker does first: the block it inherited is
        never exited in the child."""
        seen = []
        journal.open_journal(tmp_path / "j.jsonl")
        block = journal.listening(lambda event, fields: seen.append(event))
        block.__enter__()
        journal.detach()
        journal.emit("campaign_started", name="child")
        assert not journal.enabled()
        assert seen == []
        assert list(read_journal(tmp_path / "j.jsonl")) == []

    def test_every_mapped_event_is_a_journal_event(self):
        assert set(metrics.EVENT_METRICS) <= set(journal.EVENT_TYPES)


class TestForkedWorkers:
    def test_in_process_tasks_reach_the_listener(self):
        seen = []
        with journal.listening(lambda event, fields: seen.append(event)):
            run_campaign(factory, make_spec(), warm_start=True)
        assert seen.count("checkpoint_restored") == 4
        assert seen.count("run_started") == 4

    @needs_fork
    def test_pool_workers_never_call_parent_listeners(self, tmp_path):
        """A pool worker emits ``checkpoint_restored`` for each warm run
        (the in-process twin above hears them), but it drops the
        listeners it inherited: only the parent ever calls them."""
        calls = tmp_path / "calls.txt"

        def listener(event, fields):
            with open(calls, "a") as handle:
                handle.write(f"{os.getpid()} {event}\n")

        with journal.listening(listener):
            result = run_campaign(factory, make_spec(), warm_start=True,
                                  workers=2)
        assert result.execution["workers"] == 2
        lines = [line.split() for line in calls.read_text().splitlines()]
        assert {pid for pid, _event in lines} == {str(os.getpid())}
        events = [event for _pid, event in lines]
        assert events.count("run_started") == 4
        assert "worker_spawned" in events
        assert "checkpoint_restored" not in events

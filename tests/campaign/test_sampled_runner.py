"""Integration tests for confidence-bounded sampled campaigns.

A sampled campaign must stop early with a defensible interval, be
exactly reproducible from its seed, and survive interruption: resuming
an interrupted sampled run replays the stored rows through the same
sampler and lands on a store row-identical to the uninterrupted run.
"""

import pytest

from repro.campaign import (
    CampaignSpec,
    Design,
    exhaustive_bitflips,
    full_report,
    run_campaign,
    sampling_headline,
)
from repro.core import Component, L0, Simulator
from repro.core.errors import CampaignError
from repro.digital import Bus, ClockGen, Counter, ParityGen
from repro.obs.journal import close_journal, open_journal, read_journal
from repro.store import CampaignStore

ROW_IDENTITY = ("idx", "status", "label", "stratum")


def factory():
    sim = Simulator(dt=1e-9)
    top = Component(sim, "top")
    clk = sim.signal("clk", init=L0)
    ClockGen(sim, "ck", clk, period=10e-9, parent=top)
    q = Bus(sim, "cnt", 4)
    Counter(sim, "counter", clk, q, parent=top)
    par = sim.signal("parity")
    ParityGen(sim, "par", q, par, parent=top)
    probes = {
        "parity": sim.probe(par),
        "cnt[0]": sim.probe(q.bits[0]),
    }
    return Design(sim=sim, root=top, probes=probes)


def make_spec(name="sampled"):
    faults = exhaustive_bitflips(
        [f"top/counter.q[{i}]" for i in range(4)],
        [33e-9 + 10e-9 * k for k in range(15)],
    )
    return CampaignSpec(name=name, faults=faults, t_end=200e-9,
                        outputs=["parity"])


def rows_of(store, name):
    campaign_id = store.campaign_id(name)
    return [tuple(row[key] for key in ROW_IDENTITY)
            for row in store.run_rows(campaign_id)]


def run_sampled(store=None, name="sampled", **kwargs):
    kwargs.setdefault("sample", True)
    kwargs.setdefault("margin", 0.1)
    kwargs.setdefault("warm_start", True)
    return run_campaign(factory, make_spec(name), on_error="collect",
                        store=store, **kwargs)


class TestSampledRun:
    @pytest.fixture(scope="class")
    def journaled(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("journal") / "sampled.jsonl"
        open_journal(str(path))
        try:
            result = run_sampled()
        finally:
            close_journal()
        return result, list(read_journal(str(path)))

    @pytest.fixture(scope="class")
    def result(self, journaled):
        return journaled[0]

    def test_stops_early(self, result):
        sampling = result.execution["sampling"]
        assert sampling["reason"] == "converged"
        assert sampling["simulated"] < sampling["population"]
        assert sampling["skipped"] > 0
        assert result.execution["completed"] == sampling["simulated"]

    def test_journals_one_stop(self, journaled):
        result, events = journaled
        stops = [event for event in events
                 if event["event"] == "sampling_stopped"]
        assert len(stops) == 1
        assert stops[0]["reason"] == "converged"
        assert stops[0]["skipped"] == result.execution["sampling"]["skipped"]

    def test_interval_honors_margin(self, result):
        sampling = result.execution["sampling"]
        assert sampling["half_width"] <= 0.1
        assert sampling["low"] <= sampling["estimate"] <= sampling["high"]

    def test_result_covers_only_simulated(self, result):
        sampling = result.execution["sampling"]
        assert len(result) == sampling["trials"]

    def test_report_has_sampling_section(self, result):
        report = full_report(result)
        assert "--- sampling estimate ---" in report
        assert "error rate" in report
        assert "early stop      : converged" in report
        headline = sampling_headline(result.execution["sampling"])
        assert "±" in headline and "confidence" in headline

    def test_sample_without_margin_raises(self):
        with pytest.raises((CampaignError, TypeError)):
            run_campaign(factory, make_spec(), sample=True,
                         on_error="collect")

    def test_sample_without_margin_leaves_the_store_empty(self, tmp_path):
        with CampaignStore(tmp_path / "c.sqlite") as store:
            with pytest.raises(CampaignError, match="need a margin"):
                run_campaign(factory, make_spec(), sample=True,
                             on_error="collect", store=store)
            assert store.status() == []


    @pytest.mark.parametrize("option", [{"margin": 0.1}, {"chunk": 8}])
    def test_margin_or_chunk_without_sample_refused(self, tmp_path, option):
        """Before, the option was dropped and every fault ran."""
        with CampaignStore(tmp_path / "c.sqlite") as store:
            with pytest.raises(CampaignError, match="need sample=True"):
                run_campaign(factory, make_spec(), on_error="collect",
                             store=store, **option)
            assert store.status() == []

    def test_margin_without_sample_refused_on_resume(self, tmp_path):
        """A resume continues the stored sampling configuration; a
        margin passed beside it would be silently ignored."""
        with CampaignStore(tmp_path / "c.sqlite") as store:
            run_sampled(store)
            with pytest.raises(CampaignError, match="need sample=True"):
                run_campaign(factory, make_spec(), resume=True,
                             on_error="collect", store=store, margin=0.01)


class TestExhaustiveReportInterval:
    def test_wilson_line_without_sampling(self):
        spec = make_spec("exhaustive")
        spec = CampaignSpec(name="exhaustive", faults=spec.faults[:12],
                            t_end=200e-9, outputs=["parity"])
        result = run_campaign(factory, spec, warm_start=True,
                              on_error="collect")
        report = full_report(result)
        assert "Wilson CI" in report
        assert "--- sampling estimate ---" not in report


class TestDeterminismAndResume:
    @pytest.fixture(scope="class")
    def reference(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("sampled") / "ref.db"
        with CampaignStore(str(path)) as store:
            run_sampled(store)
            return rows_of(store, "sampled")

    def test_same_seed_row_identical(self, reference, tmp_path):
        with CampaignStore(str(tmp_path / "again.db")) as store:
            run_sampled(store)
            assert rows_of(store, "sampled") == reference

    def test_resume_of_completed_run_is_noop(self, reference, tmp_path):
        path = str(tmp_path / "done.db")
        with CampaignStore(path) as store:
            run_sampled(store)
        with CampaignStore(path) as store:
            result = run_campaign(factory, make_spec(), resume=True,
                                  on_error="collect", store=store)
            assert result.execution["completed"] == 0
            assert result.execution["sampling"]["reason"] == "converged"
            assert rows_of(store, "sampled") == reference

    def test_interrupt_then_resume_matches_uninterrupted(
        self, reference, tmp_path
    ):
        class Interrupt(Exception):
            pass

        calls = [0]

        def progress(i, n, fault):
            calls[0] += 1
            if calls[0] > 12:
                raise Interrupt()

        path = str(tmp_path / "int.db")
        with CampaignStore(path) as store:
            with pytest.raises(Interrupt):
                run_sampled(store, progress=progress)
            partial = rows_of(store, "sampled")
            assert 0 < len(partial) < len(reference)
        with CampaignStore(path) as store:
            run_campaign(factory, make_spec(), resume=True,
                         on_error="collect", store=store)
            assert rows_of(store, "sampled") == reference

    def test_skipped_rows_distinct_from_missing(self, reference):
        statuses = {status for _, status, _, _ in reference}
        assert "skipped" in statuses
        indices = sorted(idx for idx, _, _, _ in reference)
        assert indices == list(range(60))


class TestBatchedSampled:
    def test_digital_batched_sampling(self):
        result = run_sampled(warm_start=False, batch="digital")
        sampling = result.execution["sampling"]
        assert sampling["reason"] == "converged"
        assert sampling["skipped"] > 0
        batch = result.execution["batch"]
        assert batch["batched_runs"] + batch["scalar_runs"] \
            == sampling["simulated"]

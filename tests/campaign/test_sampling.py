"""Unit tests for the stratified adaptive sampler and the exhaustive plan.

Everything here drives :class:`StratifiedSampler` and
:class:`ExhaustivePlan` directly with synthetic outcomes — no
simulator — so the draw sequence, the stopping rule, and the
resume/replay contract are pinned down independently of the runner
integrations.
"""

import pytest

from repro.campaign import exhaustive_bitflips
from repro.campaign.sampling import (
    DEFAULT_CHUNK,
    STRATA_MODES,
    ExhaustivePlan,
    StratifiedSampler,
    row_outcome,
    stored_outcomes,
    stratify,
)
from repro.core.errors import CampaignError


def make_faults(targets=4, times=15):
    return exhaustive_bitflips(
        [f"top/dut.q[{i}]" for i in range(targets)],
        [33e-9 + 10e-9 * k for k in range(times)],
    )


def drive(sampler, oracle):
    """Serially simulate the campaign: every pending index gets
    ``oracle(index)`` as its outcome."""
    while not sampler.finished:
        chunk = sampler.next_chunk()
        if chunk is None:
            break
        for index in chunk.pending:
            sampler.record(index, oracle(index))
        sampler.finish_chunk(chunk)
    return sampler


class TestValidation:
    def test_empty_faults(self):
        with pytest.raises(CampaignError):
            StratifiedSampler([], margin=0.1)

    def test_margin_bounds(self):
        faults = make_faults(1, 2)
        for margin in (0.0, 1.0, -0.1):
            with pytest.raises(CampaignError):
                StratifiedSampler(faults, margin=margin)

    def test_confidence_bounds(self):
        faults = make_faults(1, 2)
        with pytest.raises(CampaignError):
            StratifiedSampler(faults, margin=0.1, confidence=1.0)

    def test_chunk_bounds(self):
        faults = make_faults(1, 2)
        with pytest.raises(CampaignError):
            StratifiedSampler(faults, margin=0.1, chunk=0)


class TestStratify:
    def test_none_mode(self):
        faults = make_faults(3, 5)
        assert stratify(faults, "none") == ["all"] * 15

    def test_site_mode(self):
        faults = make_faults(4, 15)
        labels = stratify(faults, "site")
        assert len(set(labels)) == 4
        # product order: all times of one target are contiguous
        assert labels[0] == labels[14]
        assert labels[0] != labels[15]

    def test_phase_mode(self):
        faults = make_faults(4, 16)
        labels = stratify(faults, "phase")
        assert set(labels) == {"p0", "p1", "p2", "p3"}
        # equal-count buckets over 16 distinct times
        assert labels.count("p0") == 16

    def test_site_phase_mode(self):
        faults = make_faults(2, 8)
        labels = stratify(faults, "site-phase")
        assert len(set(labels)) == 2 * 4
        assert all("/" in label for label in labels)

    def test_single_time_collapses_phases(self):
        faults = make_faults(3, 1)
        assert set(stratify(faults, "phase")) == {"p0"}

    def test_callable_mode(self):
        faults = make_faults(2, 3)
        labels = stratify(faults, lambda fault: "even" if fault.time < 60e-9
                          else "odd")
        assert set(labels) <= {"even", "odd"}

    def test_unknown_mode_raises(self):
        with pytest.raises(CampaignError):
            stratify(make_faults(1, 2), "banana")

    def test_modes_tuple_is_exhaustive(self):
        for mode in STRATA_MODES:
            assert len(stratify(make_faults(2, 4), mode)) == 8


class TestRowOutcome:
    def test_ok_silent(self):
        assert row_outcome({"status": "ok", "label": "silent"}) is False

    def test_ok_error(self):
        assert row_outcome({"status": "ok", "label": "failure"}) is True

    def test_failed_run(self):
        assert row_outcome({"status": "timeout", "label": None}) is None

    def test_stored_outcomes_skips_skipped(self):
        rows = [
            {"idx": 0, "status": "ok", "label": "silent"},
            {"idx": 1, "status": "skipped", "label": None},
            {"idx": 2, "status": "ok", "label": "failure"},
        ]
        assert stored_outcomes(rows) == {0: False, 2: True}


class TestDeterminism:
    def test_same_seed_identical_draws(self):
        faults = make_faults(4, 25)
        a = StratifiedSampler(faults, margin=0.1, seed=7, chunk=10)
        b = StratifiedSampler(faults, margin=0.1, seed=7, chunk=10)
        for _ in range(6):
            ca, cb = a.next_chunk(), b.next_chunk()
            if ca is None:
                assert cb is None
                break
            assert (ca.ident, ca.round_index, ca.indices, ca.pending) \
                == (cb.ident, cb.round_index, cb.indices, cb.pending)
            for index in ca.pending:
                a.record(index, index % 7 == 0)
                b.record(index, index % 7 == 0)
            a.finish_chunk(ca)
            b.finish_chunk(cb)

    def test_different_seed_different_order(self):
        faults = make_faults(4, 25)
        a = StratifiedSampler(faults, margin=0.1, seed=0, chunk=25)
        b = StratifiedSampler(faults, margin=0.1, seed=1, chunk=25)
        assert a.next_chunk().indices != b.next_chunk().indices


class TestStopping:
    def test_converges_early_on_clean_design(self):
        # All-silent, single stratum: the Wilson 0/n half-width hits
        # 0.15 at 10 trials, well inside the first 40-draw round.
        faults = make_faults(8, 25)   # population 200
        sampler = drive(
            StratifiedSampler(faults, margin=0.15, strata="none",
                              chunk=10),
            lambda index: False,
        )
        assert sampler.stopped and sampler.converged
        assert sampler.reason == "converged"
        assert sampler.trials == 10
        assert sampler.simulated < sampler.population
        assert len(sampler.skipped_indices()) \
            == sampler.population - sampler.simulated

    def test_exhausts_when_margin_unreachable(self):
        faults = make_faults(3, 4)    # population 12
        sampler = drive(
            StratifiedSampler(faults, margin=0.01, strata="none"),
            lambda index: False,
        )
        assert sampler.stopped and not sampler.converged
        assert sampler.reason == "exhausted"
        assert sampler.simulated == 12
        assert sampler.skipped_indices() == []

    def test_converges_with_errors(self):
        faults = make_faults(4, 100)  # population 400, ~20% error rate
        sampler = drive(
            StratifiedSampler(faults, margin=0.1, strata="site",
                              chunk=25),
            lambda index: index % 5 == 0,
        )
        assert sampler.converged
        assert sampler.half_width() <= 0.1
        estimate, (low, high) = sampler.pooled()
        assert low <= 0.2 <= high
        assert sampler.trials < sampler.population

    def test_failed_runs_excluded_from_trials(self):
        faults = make_faults(3, 4)
        sampler = drive(
            StratifiedSampler(faults, margin=0.01, strata="none"),
            lambda index: None if index % 2 else False,
        )
        assert sampler.reason == "exhausted"
        assert sampler.failed == 6
        assert sampler.trials == 6
        assert sampler.simulated == 12

    def test_vacuous_interval_before_data(self):
        sampler = StratifiedSampler(make_faults(2, 4), margin=0.1)
        assert sampler.half_width() == 0.5
        assert sampler.pooled() == (0.0, (0.0, 1.0))

    def test_record_is_idempotent(self):
        sampler = StratifiedSampler(make_faults(2, 4), margin=0.1,
                                    strata="none")
        sampler.record(0, True)
        sampler.record(0, False)
        assert sampler.trials == 1 and sampler.errors == 1


class TestChunkProtocol:
    def make(self, chunk=5):
        # round 0 plans 4 * chunk draws -> exactly four chunks queued
        return StratifiedSampler(make_faults(4, 25), margin=0.05,
                                 strata="none", chunk=chunk)

    def test_none_while_round_in_flight(self):
        sampler = self.make()
        chunks = [sampler.next_chunk() for _ in range(4)]
        assert all(c is not None for c in chunks)
        assert sampler.next_chunk() is None
        assert not sampler.finished

    def test_out_of_order_finish_raises(self):
        sampler = self.make()
        first = sampler.next_chunk()
        second = sampler.next_chunk()
        for index in second.pending:
            sampler.record(index, False)
        with pytest.raises(CampaignError, match="out of order"):
            sampler.finish_chunk(second)
        # the in-order chunk still finishes fine
        for index in first.pending:
            sampler.record(index, False)
        sampler.finish_chunk(first)
        sampler.finish_chunk(second)

    def test_unrecorded_outcome_raises(self):
        sampler = self.make()
        chunk = sampler.next_chunk()
        with pytest.raises(CampaignError, match="unrecorded"):
            sampler.finish_chunk(chunk)

    def test_finish_unknown_chunk_raises(self):
        sampler = self.make()
        chunk = sampler.next_chunk()
        for index in chunk.pending:
            sampler.record(index, False)
        sampler.finish_chunk(chunk)
        with pytest.raises(CampaignError, match="not outstanding"):
            sampler.finish_chunk(chunk)

    def test_default_chunk(self):
        sampler = StratifiedSampler(make_faults(8, 25), margin=0.05,
                                    strata="none")
        assert len(sampler.next_chunk().indices) == DEFAULT_CHUNK


class TestReplay:
    ORACLE = staticmethod(lambda index: index % 9 == 0)

    def run_reference(self):
        faults = make_faults(4, 50)
        sampler = drive(
            StratifiedSampler(faults, margin=0.08, seed=3, chunk=20),
            self.ORACLE,
        )
        return faults, sampler

    def outcomes_of(self, sampler):
        skipped = set(sampler.skipped_indices())
        return {
            index: self.ORACLE(index)
            for index in range(sampler.population)
            if index not in skipped
        }

    def test_full_replay_reaches_same_state(self):
        faults, reference = self.run_reference()
        stored = self.outcomes_of(reference)
        replayed = StratifiedSampler(faults, margin=0.08, seed=3,
                                     chunk=20, stored=stored)

        def no_simulation(index):
            raise AssertionError(f"index {index} should be stored")

        drive(replayed, no_simulation)
        assert replayed.summary() == reference.summary()
        assert replayed.skipped_indices() == reference.skipped_indices()

    def test_partial_replay_continues_sequence(self):
        faults, reference = self.run_reference()
        stored = self.outcomes_of(reference)
        # keep only the first half of the recorded outcomes, as if the
        # campaign were interrupted mid-run
        partial = dict(sorted(stored.items())[: len(stored) // 2])
        resumed = drive(
            StratifiedSampler(faults, margin=0.08, seed=3, chunk=20,
                              stored=partial),
            self.ORACLE,
        )
        assert resumed.summary() == reference.summary()

    def test_summary_flags_starved_strata(self):
        faults = make_faults(2, 3)    # 6 faults, unreachable margin
        sampler = drive(
            StratifiedSampler(faults, margin=0.01, strata="site"),
            lambda index: False,
        )
        summary = sampler.summary()
        assert summary["reason"] == "exhausted"
        assert all(s["starved"] for s in summary["strata"])
        assert summary["skipped"] == 0

    def test_summary_round_trip_is_json_safe(self):
        import json
        _, reference = self.run_reference()
        summary = reference.summary()
        assert json.loads(json.dumps(summary)) == summary


class TestExhaustivePlan:
    """The degenerate sampler: every index, in order, no early stop."""

    def test_index_order_in_fixed_chunks(self):
        plan = ExhaustivePlan(10, chunk=4)
        chunks = list(iter(plan.next_chunk, None))
        assert [c.ident for c in chunks] == [0, 1, 2]
        assert [c.indices for c in chunks] == [
            (0, 1, 2, 3), (4, 5, 6, 7), (8, 9),
        ]
        assert [c.pending for c in chunks] == [c.indices for c in chunks]
        assert plan.next_chunk() is None

    def test_default_chunk(self):
        plan = ExhaustivePlan(3 * DEFAULT_CHUNK)
        assert len(plan.next_chunk().indices) == DEFAULT_CHUNK

    def test_bad_chunk_rejected(self):
        with pytest.raises(CampaignError, match="chunk"):
            ExhaustivePlan(10, chunk=0)

    def test_stored_indices_replay(self):
        stored = {1: True, 3: None, 4: False, 5: False}
        plan = ExhaustivePlan(6, chunk=3, stored=stored)
        first, second = plan.next_chunk(), plan.next_chunk()
        assert first.indices == (0, 1, 2)
        assert first.pending == (0, 2)
        assert second.pending == ()
        for index in first.pending:
            plan.record(index, False)
        assert not plan.finish_chunk(first)
        # a fully replayed chunk finishes without a single new outcome
        assert plan.finish_chunk(second)
        assert plan.finished

    def test_never_stops_early(self):
        plan = ExhaustivePlan(9, chunk=3)
        finished = []
        while True:
            chunk = plan.next_chunk()
            if chunk is None:
                break
            for index in chunk.pending:
                plan.record(index, True)  # every run an error
            finished.append(plan.finish_chunk(chunk))
        assert finished == [False, False, True]
        assert plan.finished

    def test_all_chunks_hand_out_before_any_finishes(self):
        plan = ExhaustivePlan(9, chunk=3)
        chunks = [plan.next_chunk() for _ in range(3)]
        assert all(chunk is not None for chunk in chunks)
        assert not plan.finished

    def test_out_of_order_finish_raises(self):
        plan = ExhaustivePlan(6, chunk=3)
        first, second = plan.next_chunk(), plan.next_chunk()
        for index in first.indices + second.indices:
            plan.record(index, False)
        with pytest.raises(CampaignError, match="out of order"):
            plan.finish_chunk(second)
        assert not plan.finish_chunk(first)
        assert plan.finish_chunk(second)

    def test_unrecorded_outcome_raises(self):
        plan = ExhaustivePlan(6, chunk=3)
        chunk = plan.next_chunk()
        plan.record(0, False)
        with pytest.raises(CampaignError, match="unrecorded"):
            plan.finish_chunk(chunk)

    def test_finish_unknown_chunk_raises(self):
        plan = ExhaustivePlan(6, chunk=3)
        chunk = plan.next_chunk()
        for index in chunk.pending:
            plan.record(index, False)
        plan.finish_chunk(chunk)
        with pytest.raises(CampaignError, match="not outstanding"):
            plan.finish_chunk(chunk)

    def test_no_strata(self):
        plan = ExhaustivePlan(4, chunk=2)
        assert [plan.stratum_of(i) for i in range(4)] == [None] * 4

    def test_empty_population_is_finished(self):
        plan = ExhaustivePlan(0)
        assert plan.finished
        assert plan.next_chunk() is None

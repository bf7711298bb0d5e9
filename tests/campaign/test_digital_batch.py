"""Digital copy-on-divergence batching must be indistinguishable from scalar.

The contract: ``run_campaign(..., batch="digital")`` produces bit-identical
traces, the same per-fault classifications and the same CSV export as the
scalar warm-start flow — whether mutants re-converge with the golden
trajectory (and get spliced golden tails) or run all the way to ``t_end``
— and a resumed, store-backed batched campaign equals an uninterrupted
one.
"""

import numpy as np
import pytest

from repro.campaign import (
    BATCH_MODES,
    CampaignSpec,
    Design,
    digital_batch_key,
    exhaustive_bitflips,
    normalize_batch_mode,
    run_campaign,
    to_csv,
)
from repro.campaign.runner import CampaignRunner
from repro.core import Component, L0, Simulator
from repro.core.errors import CampaignError
from repro.digital import Bus, ClockGen, Counter, LFSR, ParityGen, ShiftRegister
from repro.faults import BitFlip, SETPulse
from repro.store import CampaignStore

from .test_warm_start import pll_factory

CLK_PERIOD = 10e-9


def shiftreg_factory():
    """LFSR stimulus feeding a shift register: every bit-flip self-heals.

    A corrupted bit marches toward the serial output and falls off
    within 8 clock cycles, after which the mutant state is exactly the
    golden state — the re-convergence early-out's best case.
    """
    sim = Simulator(dt=1e-9)
    top = Component(sim, "top")
    clk = sim.signal("clk", init=L0)
    ClockGen(sim, "ck", clk, period=CLK_PERIOD, parent=top)
    stim = Bus(sim, "stim", 8)
    LFSR(sim, "lfsr", clk, stim, parent=top)
    q = Bus(sim, "q", 8)
    ShiftRegister(sim, "sr1", clk, stim.bits[0], q, parent=top)
    par = sim.signal("parity")
    ParityGen(sim, "pargen", q, par, parent=top)
    probes = {
        "parity": sim.probe(par),
        "q[7]": sim.probe(q.bits[7]),
    }
    return Design(sim=sim, root=top, probes=probes)


def shiftreg_spec(name="sr-batch", times=(205e-9, 355e-9)):
    faults = exhaustive_bitflips(
        [f"top/sr1.q[{i}]" for i in range(4)], list(times)
    )
    return CampaignSpec(
        name=name, faults=faults, t_end=4e-6, outputs=["parity"]
    )


def counter_factory():
    """A free-running counter: flipped count bits never self-heal."""
    sim = Simulator(dt=1e-9)
    top = Component(sim, "top")
    clk = sim.signal("clk", init=L0)
    ClockGen(sim, "ck", clk, period=CLK_PERIOD, parent=top)
    q = Bus(sim, "cnt", 4)
    Counter(sim, "counter", clk, q, parent=top)
    par = sim.signal("parity")
    ParityGen(sim, "par", q, par, parent=top)
    probes = {
        "parity": sim.probe(par),
        "cnt[0]": sim.probe(q.bits[0]),
    }
    return Design(sim=sim, root=top, probes=probes)


def counter_spec(name="cnt-batch"):
    faults = exhaustive_bitflips(
        [f"top/counter.q[{i}]" for i in range(4)], [33e-9, 55e-9, 77e-9]
    )
    return CampaignSpec(
        name=name, faults=faults, t_end=300e-9, outputs=["parity"]
    )


def assert_same_outcome(scalar, batched):
    assert to_csv(scalar) == to_csv(batched)
    for name, golden in scalar.golden_probes.items():
        other = batched.golden_probes[name]
        assert golden._times == other._times
        assert golden._values == other._values
    for run_s, run_b in zip(scalar.runs, batched.runs):
        assert run_s.label == run_b.label
        for name in run_s.comparisons:
            assert (
                run_s.comparisons[name].match
                == run_b.comparisons[name].match
            )


class TestDigitalBatchEquivalence:
    def test_self_healing_mutants_match_scalar(self):
        """Shift-register flips re-converge and splice golden tails."""
        spec = shiftreg_spec()
        scalar = run_campaign(shiftreg_factory, spec, warm_start=True)
        batched = run_campaign(shiftreg_factory, spec, batch="digital")
        assert_same_outcome(scalar, batched)
        stats = batched.execution["batch"]
        assert batched.execution["mode"] == "batched"
        assert stats["mode"] == "digital"
        # One batch per flip time, every mutant batched, every mutant
        # re-converged before t_end (the shift register self-heals).
        assert stats["digital_batches"] == 2
        assert stats["batched_runs"] == len(spec.faults)
        assert stats["converged"] == len(spec.faults)
        assert stats["branch_snapshots"] > 0
        assert stats["peeled"] == 0
        assert stats["fallbacks"] == 0
        # The flips must actually be observable (no vacuous equality).
        assert any(run.label != "silent" for run in scalar)

    def test_non_converging_mutants_match_scalar(self):
        """Counter flips never heal: every mutant runs to t_end."""
        spec = counter_spec()
        scalar = run_campaign(counter_factory, spec, warm_start=True)
        batched = run_campaign(counter_factory, spec, batch="digital")
        assert_same_outcome(scalar, batched)
        stats = batched.execution["batch"]
        assert stats["batched_runs"] == len(spec.faults)
        assert stats["converged"] == 0
        assert stats["fallbacks"] == 0

    def test_traces_bit_identical(self):
        """Spliced golden tails reproduce every scalar sample bitwise."""
        spec = shiftreg_spec()
        scalar = CampaignRunner(shiftreg_factory, spec)
        batched = CampaignRunner(shiftreg_factory, spec)
        completed, leftovers, info = batched.run_batch_digital(
            list(range(len(spec.faults)))
        )
        assert not leftovers and not info["fallback"]
        assert len(completed) == len(spec.faults)
        assert info["converged"] == len(spec.faults)
        for index, (probes, _metrics, _events), _wall in completed:
            ref, _, _ = scalar.run_fault_warm(spec.faults[index])
            for name, trace in ref.items():
                got = probes[name]
                assert np.array_equal(trace.times, got.times)
                assert np.array_equal(
                    trace.values, got.values, equal_nan=True
                )

    def test_single_mutant_batch(self):
        """A k=1 digital batch is just a branch walk plus one mutant."""
        spec = shiftreg_spec()
        scalar = CampaignRunner(shiftreg_factory, spec)
        batched = CampaignRunner(shiftreg_factory, spec)
        completed, leftovers, info = batched.run_batch_digital([0])
        assert not leftovers and not info["fallback"]
        [(index, (probes, _metrics, _events), _wall)] = completed
        assert index == 0
        ref, _, _ = scalar.run_fault_warm(spec.faults[0])
        for name, trace in ref.items():
            got = probes[name]
            assert np.array_equal(trace.times, got.times)
            assert np.array_equal(trace.values, got.values, equal_nan=True)

    def test_auto_mode_batches_digital_faults(self):
        spec = shiftreg_spec()
        batched = run_campaign(shiftreg_factory, spec, batch=True)
        stats = batched.execution["batch"]
        assert stats["mode"] == "auto"
        assert stats["digital_batches"] == 2
        assert stats["analog_batches"] == 0

    def test_batched_run_reports_the_workers_it_used(self):
        """Batches run on the pool like any other task: ``workers`` is
        kept, the execution record says so, and the rows equal the
        in-process batched run's."""
        serial = run_campaign(shiftreg_factory, shiftreg_spec(),
                              batch="digital")
        batched = run_campaign(shiftreg_factory, shiftreg_spec(),
                               batch="digital", workers=2)
        assert batched.execution["workers"] == 2
        assert_same_outcome(serial, batched)

    def test_analog_mode_leaves_digital_faults_scalar(self):
        """``batch="analog"`` must not touch bit-flip campaigns."""
        spec = shiftreg_spec()
        scalar = run_campaign(shiftreg_factory, spec, warm_start=True)
        batched = run_campaign(shiftreg_factory, spec, batch="analog")
        assert_same_outcome(scalar, batched)
        stats = batched.execution["batch"]
        assert stats["batches"] == 0
        assert stats["scalar_runs"] == len(spec.faults)


class TestGoldenNodeMemo:
    """Golden nodes come from the checkpoint tree's memo, never stale.

    Batches look up their flip-time and horizon nodes by time and walk
    the golden trajectory only from the latest node held; the nodes
    they capture serve later batches.  Whatever the memo holds or has
    evicted, every row must equal the scalar reference.
    """

    def test_forced_eviction_matches_scalar(self):
        """A two-node memo churns inside multi-flip-time batches."""
        spec = shiftreg_spec(times=[205e-9 + 30e-9 * k for k in range(8)])
        scalar = run_campaign(shiftreg_factory, spec, warm_start=True)
        batched = run_campaign(
            shiftreg_factory, spec, batch="digital", max_checkpoints=2
        )
        assert_same_outcome(scalar, batched)
        stats = batched.execution["batch"]
        assert stats["batched_runs"] == len(spec.faults)
        assert stats["digital_batches"] < 8  # batches span flip times
        assert stats["branch_peak_live"] == 2
        assert stats["branch_snapshots"] > stats["branch_peak_live"]

    def test_sampled_chunks_revisit_memoised_nodes(self, tmp_path):
        """Chunks revisit flip times; rows equal the exhaustive run's."""
        times = [205e-9 + 20e-9 * k for k in range(6)]
        faults = exhaustive_bitflips(
            [f"top/sr1.q[{i}]" for i in range(8)], times
        )
        spec = CampaignSpec(
            name="sr-memo", faults=faults, t_end=2e-6, outputs=["parity"]
        )
        identity = ("key", "status", "label", "classification",
                    "comparisons")

        def rows(name, **kwargs):
            with CampaignStore(tmp_path / f"{name}.db") as store:
                result = run_campaign(
                    shiftreg_factory, spec, batch="digital", store=store,
                    **kwargs,
                )
                stored = store.run_rows(store.campaign_id(spec.name))
            return result, {
                row["idx"]: tuple(row[key] for key in identity)
                for row in stored if row["status"] == "ok"
            }

        exhaustive, full = rows("exhaustive")
        sampled, drawn = rows("sampled", sample=True, margin=0.05, chunk=8)
        sampling = sampled.execution["sampling"]
        assert sampling["chunks"] > 1
        assert 0 < len(drawn) < len(spec.faults)
        assert drawn == {index: full[index] for index in drawn}
        stats = sampled.execution["batch"]
        assert stats["digital_batches"] > len(times)  # revisits
        # Revisited flip times hit the memo instead of re-walking.
        assert stats["branch_snapshots"] \
            <= exhaustive.execution["batch"]["branch_snapshots"]

    @pytest.mark.parametrize("max_checkpoints", [None, 2])
    def test_mixed_signal_pll_flips_match_scalar(self, max_checkpoints):
        """Bit-flips in a PLL's divider and PFD, analog loop running."""
        sites = ["pll/pfd.up", "pll/pfd.down"] + [
            f"pll/divider.count[{i}]" for i in range(4)
        ]
        spec = CampaignSpec(
            name="pll-flips",
            faults=exhaustive_bitflips(sites, [1.03e-6, 1.51e-6, 2.07e-6]),
            t_end=3e-6, outputs=["vctrl", "fout"], analog_tolerance=0.02,
        )
        scalar = run_campaign(pll_factory, spec, warm_start=True)
        batched = run_campaign(
            pll_factory, spec, batch="digital",
            max_checkpoints=max_checkpoints,
        )
        assert_same_outcome(scalar, batched)
        stats = batched.execution["batch"]
        assert stats["batched_runs"] == len(spec.faults)
        assert stats["fallbacks"] == 0


class TestDigitalBatchSupervision:
    def test_budget_falls_back_to_scalar(self):
        """An armed run budget disables splicing for the whole batch.

        Budget ceilings are per run call over the restored suffix, so
        a segmented branch-walk run could trip differently than the
        scalar run it must classify like; the batch detects the armed
        budget and every mutant re-runs on the ordinary scalar path.
        """
        spec = shiftreg_spec()
        scalar = run_campaign(
            shiftreg_factory, spec, warm_start=True, event_budget=10_000_000
        )
        batched = run_campaign(
            shiftreg_factory, spec, batch="digital",
            event_budget=10_000_000,
        )
        assert_same_outcome(scalar, batched)
        stats = batched.execution["batch"]
        assert stats["fallbacks"] == 2
        assert stats["batched_runs"] == 0
        assert stats["scalar_runs"] == len(spec.faults)

    def test_store_roundtrip_and_resume(self, tmp_path):
        spec = shiftreg_spec()
        with CampaignStore(tmp_path / "c.sqlite") as store:
            first = run_campaign(
                shiftreg_factory, spec, batch="digital", store=store
            )
            resumed = run_campaign(
                shiftreg_factory, spec, batch="digital", store=store,
                resume=True,
            )
        assert resumed.execution["completed"] == 0
        assert resumed.execution["skipped"] == len(spec.faults)
        assert to_csv(first) == to_csv(resumed)

    def test_interrupted_batched_campaign_resumes_equal(self, tmp_path):
        """Kill a batched campaign between batch flushes; resume matches.

        Batched campaigns commit one store transaction per batch
        (``record_runs``), so an interrupt lands with the first
        batch's mutants committed and the rest pending; the resumed
        campaign re-plans batches over the survivors only and the
        merged result must equal an uninterrupted scalar campaign.
        """

        class Interrupted(CampaignStore):
            def __init__(self, path, after):
                super().__init__(path)
                self.after = after
                self.commits = 0

            def record_runs(self, *args, **kwargs):
                super().record_runs(*args, **kwargs)
                self.commits += 1
                if self.commits >= self.after:
                    raise KeyboardInterrupt

        spec = shiftreg_spec()
        reference = run_campaign(shiftreg_factory, spec, warm_start=True)
        path = tmp_path / "campaign.db"
        flaky = Interrupted(path, after=1)
        with pytest.raises(KeyboardInterrupt):
            run_campaign(shiftreg_factory, spec, batch="digital", store=flaky)
        flaky.close()
        first_batch = len(spec.faults) // 2
        with CampaignStore(path) as store:
            assert len(
                store.completed_indices(store.campaign_id())
            ) == first_batch
            resumed = run_campaign(
                shiftreg_factory, spec, batch="digital", store=store,
                resume=True,
            )
        assert resumed.execution["skipped"] == first_batch
        assert resumed.execution["completed"] == len(spec.faults) - first_batch
        assert to_csv(resumed) == to_csv(reference)
        with CampaignStore(path) as store:
            loaded = store.load_result()
        assert to_csv(loaded) == to_csv(reference)


class TestBatchModeSelection:
    def test_normalize_batch_mode(self):
        assert normalize_batch_mode(True) == "auto"
        assert normalize_batch_mode(False) == "off"
        assert normalize_batch_mode(None) == "off"
        for mode in BATCH_MODES:
            assert normalize_batch_mode(mode) == mode

    def test_invalid_mode_rejected(self):
        with pytest.raises(CampaignError):
            normalize_batch_mode("turbo")

    def test_digital_batch_key(self):
        assert digital_batch_key(BitFlip("top/sr.q[0]", 1e-9)) == "top/sr.q[0]"
        assert digital_batch_key(SETPulse("top/wire", 1e-9, 1e-10)) == "top/wire"
        assert digital_batch_key(object()) is None

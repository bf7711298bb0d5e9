"""Kernel and campaign hot paths feed the global instruments."""

import numpy as np

from repro import obs
from repro.campaign import (
    CampaignSpec,
    Design,
    RetryPolicy,
    exhaustive_bitflips,
    run_campaign,
)
from repro.core import Component, L0, Simulator
from repro.digital import Bus, ClockGen, Counter, ParityGen
from repro.obs import metrics, tracer


def build_sim():
    sim = Simulator(dt=1e-9)
    top = Component(sim, "top")
    clk = sim.signal("clk", init=L0)
    ClockGen(sim, "ck", clk, period=10e-9, parent=top)
    q = Bus(sim, "cnt", 4)
    Counter(sim, "counter", clk, q, parent=top)
    par = sim.signal("parity")
    ParityGen(sim, "par", q, par, parent=top)
    probes = {"parity": sim.probe(par)}
    return sim, top, probes


def factory():
    sim, top, probes = build_sim()
    return Design(sim=sim, root=top, probes=probes)


def make_spec():
    faults = exhaustive_bitflips(
        [f"top/counter.q[{i}]" for i in range(2)], [35e-9, 55e-9]
    )
    return CampaignSpec(name="obs", faults=faults, t_end=200e-9,
                        outputs=["parity"])


class TestKernelInstrumentation:
    def test_run_records_event_deltas_and_span(self):
        obs.enable()
        sim, _top, _probes = build_sim()
        sim.run(100e-9)
        snap = metrics.snapshot()
        assert snap["counters"]["kernel.events"] == sim.events_executed
        assert snap["histograms"]["kernel.run_wall_s"]["count"] == 1
        names = [span.name for span in tracer.TRACER.spans]
        assert "kernel.run" in names

    def test_snapshot_restore_instrumented(self):
        obs.enable()
        sim, _top, _probes = build_sim()
        sim.run(50e-9)
        snap = sim.snapshot()
        sim.run(100e-9)
        sim.restore(snap)
        counters = metrics.snapshot()["counters"]
        assert counters["kernel.snapshots"] == 1
        assert counters["kernel.restores"] == 1
        restore_span = [
            span for span in tracer.TRACER.spans
            if span.name == "kernel.restore"
        ]
        assert restore_span and restore_span[0].attrs["to"] == snap.time

    def test_disabled_kernel_records_nothing(self):
        sim, _top, _probes = build_sim()
        sim.run(100e-9)
        assert metrics.snapshot() == {"counters": {}, "histograms": {}}
        assert tracer.TRACER.spans == []

    def test_instrumented_run_matches_uninstrumented(self):
        sim_a, _t, probes_a = build_sim()
        sim_a.run(200e-9)
        obs.enable()
        sim_b, _t, probes_b = build_sim()
        sim_b.run(200e-9)
        assert sim_a.events_executed == sim_b.events_executed
        assert np.array_equal(
            probes_a["parity"].values, probes_b["parity"].values,
            equal_nan=True,
        )


class TestCampaignInstrumentation:
    def test_campaign_counters_and_spans(self):
        obs.enable()
        result = run_campaign(factory, make_spec())
        counters = metrics.snapshot()["counters"]
        assert counters["campaign.runs"] == len(result)
        class_total = sum(
            count for name, count in counters.items()
            if name.startswith("campaign.class.")
        )
        assert class_total == len(result)
        names = [span.name for span in tracer.TRACER.spans]
        assert names.count("campaign.fault_run") == len(result)
        assert "campaign.golden" in names

    def test_warm_campaign_counts_hits(self):
        obs.enable()
        run_campaign(factory, make_spec(), warm_start=True)
        counters = metrics.snapshot()["counters"]
        assert counters.get("campaign.warm.hit", 0) == 4
        assert counters.get("campaign.warm.miss", 0) == 0

    def test_retried_runs_counts_successes_after_a_retry(self):
        """One fault succeeds on its third attempt and one is
        quarantined after three: four retries, one retried run."""
        faults = exhaustive_bitflips(
            [f"top/counter.q[{i}]" for i in range(4)], [33e-9, 55e-9, 77e-9]
        )
        spec = CampaignSpec(name="retried", faults=faults, t_end=300e-9,
                            outputs=["parity"])
        calls = {"top/counter.q[1]": 0, "top/counter.q[2]": 0}

        def flaky(design, fault):
            target = fault.targets()[0]
            if fault.time == 55e-9 and target in calls:
                calls[target] += 1
                if target == "top/counter.q[2]" or calls[target] < 3:
                    raise RuntimeError("injected failure")
            return {}

        obs.enable()
        result = run_campaign(
            factory, spec, metric_hooks=[flaky], on_error="collect",
            retry=RetryPolicy(attempts=3, backoff_s=0),
        )
        (err,) = result.errors
        assert err.quarantined and err.attempts == 3
        assert len(result.runs) == 11
        assert result.execution["retries"] == 4
        counters = metrics.snapshot()["counters"]
        assert counters["campaign.retries"] == 4
        assert counters["campaign.retried_runs"] == 1

    def test_run_wall_histogram_populated(self):
        obs.enable()
        result = run_campaign(factory, make_spec())
        hist = metrics.snapshot()["histograms"]["campaign.run_wall_s"]
        assert hist["count"] == len(result)
        assert hist["total"] > 0.0

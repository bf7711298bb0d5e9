"""Tests for the parallel (fork-based) campaign runner."""

import multiprocessing
import sys

import pytest

from repro.campaign import CampaignSpec, Design, exhaustive_bitflips, run_campaign
from repro.core import Component, L0, Simulator
from repro.digital import Bus, ClockGen, Counter, ParityGen
from repro.store import CampaignStore

from .test_sampled_runner import run_sampled

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
    probes = {
        "parity": sim.probe(par),
        "cnt[0]": sim.probe(q.bits[0]),
    }
    return Design(sim=sim, root=top, probes=probes)


def make_spec():
    faults = exhaustive_bitflips(
        [f"top/counter.q[{i}]" for i in range(4)], [33e-9, 55e-9, 77e-9]
    )
    return CampaignSpec(name="par", faults=faults, t_end=300e-9,
                        outputs=["parity"])


@needs_fork
class TestParallelRunner:
    def test_matches_serial_results(self):
        serial = run_campaign(factory, make_spec())
        parallel = run_campaign(factory, make_spec(), workers=4)
        assert len(parallel) == len(serial)
        for s_run, p_run in zip(serial.runs, parallel.runs):
            assert s_run.fault == p_run.fault
            assert s_run.label == p_run.label
            s_cmp = s_run.comparisons["parity"]
            p_cmp = p_run.comparisons["parity"]
            assert s_cmp.first_divergence == p_cmp.first_divergence

    def test_metric_hooks_run_in_workers(self):
        def hook(design, fault):
            return {"events": design.sim.events_executed}

        result = run_campaign(factory, make_spec(), workers=2,
                              metric_hooks=[hook])
        assert all(r.metrics["events"] > 0 for r in result)

    def test_order_preserved(self):
        result = run_campaign(factory, make_spec(), workers=3)
        expected = [f.target for f in make_spec().faults]
        assert [r.fault.target for r in result] == expected

    def test_workers_one_falls_back_to_serial(self):
        result = run_campaign(factory, make_spec(), workers=1)
        assert len(result) == 12

    def test_closure_factory_supported(self):
        """Fork inheritance means even closures work as factories."""
        period = 10e-9

        def closure_factory():
            sim = Simulator(dt=1e-9)
            top = Component(sim, "top")
            clk = sim.signal("clk", init=L0)
            ClockGen(sim, "ck", clk, period=period, parent=top)
            q = Bus(sim, "cnt", 4)
            Counter(sim, "counter", clk, q, parent=top)
            par = sim.signal("parity")
            ParityGen(sim, "par", q, par, parent=top)
            return Design(sim=sim, root=top,
                          probes={"parity": sim.probe(par)})

        result = run_campaign(closure_factory, make_spec(), workers=2)
        assert len(result) == 12


@needs_fork
class TestParallelSampled:
    """``workers`` composes with sampling: each chunk runs on the pool."""

    @staticmethod
    def run_stored(path, **kwargs):
        with CampaignStore(str(path)) as store:
            result = run_sampled(store, **kwargs)
            rows = [
                {k: v for k, v in row.items() if k != "wall_s"}
                for row in store.run_rows(store.campaign_id("sampled"))
            ]
        return result.execution, rows

    def test_pool_is_row_identical_to_serial(self, tmp_path):
        serial, serial_rows = self.run_stored(tmp_path / "serial.db")
        pool, pool_rows = self.run_stored(tmp_path / "pool.db", workers=2)
        assert pool_rows == serial_rows
        assert pool["sampling"] == serial["sampling"]
        assert pool["workers"] == 2
        assert serial["workers"] == 1

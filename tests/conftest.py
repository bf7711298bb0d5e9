"""Shared fixtures and helpers for the repro test suite."""

from __future__ import annotations

import os
import signal
import threading

import pytest

from repro import obs
from repro.core import Simulator

#: Per-test wall-clock guard in seconds (0 disables).  The supervised
#: campaign tests deliberately kill and time out workers; if a
#: regression ever made the supervisor itself hang, this guard turns
#: the hang into a failing test instead of a stuck CI job.
TEST_TIMEOUT_S = float(os.environ.get("REPRO_TEST_TIMEOUT", "300"))


@pytest.fixture(autouse=True)
def _per_test_timeout():
    """SIGALRM-based per-test deadline (no pytest-timeout dependency).

    Active only on platforms with ``SIGALRM`` (POSIX) and in the main
    thread.  Forked campaign workers do not inherit the interval
    timer, so long individual faulty runs are unaffected — only the
    parent-side test body is bounded.
    """
    if (
        TEST_TIMEOUT_S <= 0
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _timed_out(signum, frame):
        raise TimeoutError(
            f"test exceeded the {TEST_TIMEOUT_S:.0f}s per-test guard "
            "(tune with REPRO_TEST_TIMEOUT)"
        )

    previous = signal.signal(signal.SIGALRM, _timed_out)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIMEOUT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(autouse=True)
def clean_instruments():
    """Every test starts and ends with the process-global metrics
    registry and tracer off and empty, and no journal or listener."""
    obs.disable()
    obs.reset()
    obs.journal.detach()
    yield
    obs.disable()
    obs.reset()
    obs.journal.detach()


@pytest.fixture
def sim():
    """A fresh simulator with a 1 ns analog step."""
    return Simulator(dt=1e-9)


def make_fast_pll(sim, preset_locked=True, **overrides):
    """A PLL scaled for fast tests: 5 MHz reference, /10, 50 MHz out.

    Same 50 MHz output clock as the paper's PLL but a 10x higher
    reference and loop bandwidth (~250 kHz crossover), so lock
    dynamics and recovery play out in a few microseconds instead of
    tens — keeping PLL unit tests under a second each.
    """
    from repro.ams import PLL

    params = dict(
        f_ref="5MHz",
        n_div=10,
        kvco="10MHz",
        i_pump="100uA",
        r="15.7kOhm",
        c1="162pF",
        c2="16pF",
        preset_locked=preset_locked,
    )
    params.update(overrides)
    return PLL(sim, "pll", **params)

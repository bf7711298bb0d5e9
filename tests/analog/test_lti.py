"""Tests for LTI state-space integration, validated against scipy."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import signal as sp_signal

from repro.analog import LTISystem, integrator, single_pole
from repro.core.errors import SimulationError


class TestConstruction:
    def test_shapes_validated(self):
        with pytest.raises(SimulationError):
            LTISystem(a=[[1, 2]], b=[[1]], c=[[1]])  # A not square

    def test_c_width_validated(self):
        with pytest.raises(SimulationError):
            LTISystem(a=[[1]], b=[[1]], c=[[1, 2]])

    def test_x0_shape_validated(self):
        with pytest.raises(SimulationError):
            LTISystem(a=[[1]], b=[[1]], c=[[1]], x0=[1.0, 2.0])

    def test_default_d_is_zero(self):
        sys_ = single_pole(gain=2.0, pole_hz=1e3)
        assert np.all(sys_.d == 0.0)


class TestSinglePole:
    def test_step_response_time_constant(self):
        pole_hz = 1e6
        sys_ = single_pole(gain=1.0, pole_hz=pole_hz)
        tau = 1.0 / (2 * np.pi * pole_hz)
        y = sys_.step([1.0], tau)
        assert float(y[0]) == pytest.approx(1.0 - np.exp(-1.0), rel=1e-9)

    def test_dc_gain(self):
        sys_ = single_pole(gain=3.5, pole_hz=1e3)
        assert float(sys_.dc_gain()[0][0]) == pytest.approx(3.5)

    def test_many_small_steps_match_one_large(self):
        """Exact discretisation: subdividing the interval is lossless."""
        sys_a = single_pole(gain=1.0, pole_hz=1e5)
        sys_b = single_pole(gain=1.0, pole_hz=1e5)
        ya = sys_a.step([1.0], 1e-5)
        for _ in range(100):
            yb = sys_b.step([1.0], 1e-7)
        assert float(ya[0]) == pytest.approx(float(yb[0]), rel=1e-10)


class TestIntegrator:
    def test_ramp_accumulates(self):
        sys_ = integrator(gain=2.0)
        for _ in range(10):
            sys_.step([1.0], 0.1)
        assert float(sys_.output([1.0])[0]) == pytest.approx(2.0)

    def test_dc_gain_undefined(self):
        sys_ = integrator()
        with pytest.raises(SimulationError):
            sys_.dc_gain()

    def test_singular_a_discretizes(self):
        """The augmented-matrix expm handles pure integrators."""
        sys_ = integrator(gain=1.0)
        ad, bd = sys_.discretize(0.5)
        assert float(ad[0][0]) == pytest.approx(1.0)
        assert float(bd[0][0]) == pytest.approx(0.5)


class TestAgainstScipy:
    def test_second_order_step_matches_lsim(self):
        # Underdamped 2nd-order system.
        wn, zeta = 2 * np.pi * 1e4, 0.3
        a = [[0.0, 1.0], [-wn * wn, -2 * zeta * wn]]
        b = [[0.0], [wn * wn]]
        c = [[1.0, 0.0]]
        ours = LTISystem(a=a, b=b, c=c)
        dt = 1e-6
        n = 300
        y_ours = []
        for _ in range(n):
            y_ours.append(float(ours.step([1.0], dt)[0]))
        t = np.arange(1, n + 1) * dt
        _t, y_ref, _x = sp_signal.lsim((a, b, c, [[0.0]]), np.ones(n), t - dt,
                                       X0=[0, 0])
        # Compare at the final, settled point and mid-transient.
        assert y_ours[-1] == pytest.approx(float(y_ref[-1]), rel=1e-2)

    @settings(max_examples=15, deadline=None)
    @given(
        st.floats(min_value=1e2, max_value=1e6),
        st.floats(min_value=0.1, max_value=5.0),
    )
    def test_single_pole_matches_analytic(self, pole_hz, gain):
        sys_ = single_pole(gain=gain, pole_hz=pole_hz)
        dt = 0.05 / pole_hz
        total = 0.0
        y = 0.0
        for _ in range(50):
            y = float(sys_.step([1.0], dt)[0])
            total += dt
        w = 2 * np.pi * pole_hz
        expected = gain * (1 - np.exp(-w * total))
        assert y == pytest.approx(expected, rel=1e-6)


class TestStateManagement:
    def test_reset_to_zero(self):
        sys_ = single_pole(1.0, 1e3)
        sys_.step([1.0], 1e-3)
        sys_.reset()
        assert np.all(sys_.x == 0.0)

    def test_reset_to_vector(self):
        sys_ = single_pole(1.0, 1e3)
        sys_.reset([0.7])
        assert float(sys_.output()[0]) == pytest.approx(0.7)

    def test_reset_bad_shape(self):
        sys_ = single_pole(1.0, 1e3)
        with pytest.raises(SimulationError):
            sys_.reset([1.0, 2.0])

    def test_zero_dt_does_not_advance(self):
        sys_ = single_pole(1.0, 1e3)
        y0 = float(sys_.step([1.0], 0.0)[0])
        assert y0 == 0.0
        assert np.all(sys_.x == 0.0)

    def test_cache_eviction(self):
        sys_ = single_pole(1.0, 1e3, x0=None)
        sys_._cache_size = 4
        for k in range(10):
            sys_.discretize(1e-6 * (k + 1))
        assert len(sys_._cache) <= 4

    def test_cache_reuse(self):
        sys_ = single_pole(1.0, 1e3)
        pair1 = sys_.discretize(1e-6)
        pair2 = sys_.discretize(1e-6)
        assert pair1 is pair2


def _siso_systems():
    """1- and 2-state SISO systems, with and without feedthrough."""
    w = 2 * np.pi * 1e5
    wn, zeta = 2 * np.pi * 2e5, 0.4
    first = dict(a=[[-w]], b=[[w * 1.5]], c=[[1.0]])
    second = dict(a=[[0.0, 1.0], [-wn * wn, -2 * zeta * wn]],
                  b=[[0.0], [wn * wn]], c=[[1.0, -0.5]])
    return {
        "1-state": first,
        "1-state-feedthrough": dict(first, d=[[0.25]]),
        "2-states": second,
        "2-states-feedthrough": dict(second, d=[[-0.3]]),
    }


class TestEnsembleStep:
    @pytest.mark.parametrize("name", sorted(_siso_systems()))
    def test_promoted_step_matches_scalar_copies(self, name):
        """``step_siso`` on a state promoted to k columns, with a
        ``(k,)`` input, is bitwise k scalar copies stepped one by one."""
        matrices = _siso_systems()[name]
        rng = np.random.default_rng(11)
        k = 17
        x0 = rng.uniform(-1.0, 1.0, len(matrices["a"]))
        ensemble = LTISystem(x0=x0, **matrices)
        copies = [LTISystem(x0=x0, **matrices) for _ in range(k)]
        assert ensemble.siso_fast
        ensemble.promote_state(k)
        for dt in (1e-7, 2.5e-7, 0.0, 1e-7, 4e-8):
            u = rng.uniform(-1.0, 1.0, k)
            y = ensemble.step_siso(u, dt)
            expected = np.array([copy.step_siso(float(uj), dt)
                                 for copy, uj in zip(copies, u)])
            assert y.tobytes() == expected.tobytes()
            states = np.stack([copy.x for copy in copies], axis=1)
            assert ensemble.x.tobytes() == states.tobytes()

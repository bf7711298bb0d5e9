"""Tests for waveform traces."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core import L0, L1, LINEAR, STEP, Logic, Trace, difference
from repro.core.errors import MeasurementError


def ramp_trace(n=11, slope=1.0):
    tr = Trace("ramp", interp=LINEAR)
    for i in range(n):
        tr.append(i * 1.0, i * slope)
    return tr


class TestConstruction:
    def test_append_and_len(self):
        tr = Trace("t")
        tr.append(0.0, 1.0)
        tr.append(1.0, 2.0)
        assert len(tr) == 2

    def test_non_monotonic_rejected(self):
        tr = Trace("t")
        tr.append(1.0, 0.0)
        with pytest.raises(MeasurementError):
            tr.append(0.5, 0.0)

    def test_equal_times_allowed(self):
        tr = Trace("t")
        tr.append(1.0, 0.0)
        tr.append(1.0, 5.0)
        assert len(tr) == 2

    def test_from_arrays(self):
        tr = Trace.from_arrays("t", [0, 1, 2], [5, 6, 7])
        assert tr.at(1.0) == 6.0

    def test_from_arrays_length_mismatch(self):
        with pytest.raises(MeasurementError):
            Trace.from_arrays("t", [0, 1], [5])

    def test_bad_interp(self):
        with pytest.raises(MeasurementError):
            Trace("t", interp="cubic")

    def test_logic_values_map_to_float(self):
        tr = Trace("t", interp=STEP)
        tr.append(0.0, L0)
        tr.append(1.0, L1)
        tr.append(2.0, Logic.X)
        values = tr.values
        assert values[0] == 0.0 and values[1] == 1.0 and np.isnan(values[2])


class TestInterpolation:
    def test_linear_midpoint(self):
        tr = ramp_trace()
        assert tr.at(2.5) == pytest.approx(2.5)

    def test_step_holds_previous(self):
        tr = Trace("t", interp=STEP)
        tr.append(0.0, 1.0)
        tr.append(10.0, 5.0)
        assert tr.at(9.9) == 1.0
        assert tr.at(10.0) == 5.0

    def test_clamp_before_and_after(self):
        tr = ramp_trace()
        assert tr.at(-5.0) == 0.0
        assert tr.at(100.0) == 10.0

    def test_value_at_returns_payload(self):
        tr = Trace("t", interp=STEP)
        tr.append(0.0, "IDLE")
        tr.append(5.0, "RUN")
        assert tr.value_at(3.0) == "IDLE"
        assert tr.value_at(5.0) == "RUN"

    def test_resample_linear(self):
        tr = ramp_trace()
        grid = np.array([0.5, 1.5, 9.5])
        np.testing.assert_allclose(tr.resample(grid), [0.5, 1.5, 9.5])

    def test_resample_step(self):
        tr = Trace("t", interp=STEP)
        tr.append(0.0, 0.0)
        tr.append(2.0, 1.0)
        np.testing.assert_allclose(tr.resample([0.0, 1.9, 2.0, 3.0]),
                                   [0, 0, 1, 1])


class TestCrossings:
    def test_rising_crossing_interpolated(self):
        tr = Trace("t", interp=LINEAR)
        tr.append(0.0, 0.0)
        tr.append(1.0, 2.0)
        crossings = tr.crossings(1.0, "rise")
        assert crossings == pytest.approx([0.5])

    def test_fall_and_both(self):
        tr = Trace("t", interp=LINEAR)
        for t, v in [(0, 0), (1, 2), (2, 0)]:
            tr.append(float(t), float(v))
        assert len(tr.crossings(1.0, "rise")) == 1
        assert len(tr.crossings(1.0, "fall")) == 1
        assert len(tr.crossings(1.0, "both")) == 2

    def test_bad_direction(self):
        tr = ramp_trace()
        with pytest.raises(MeasurementError):
            tr.crossings(1.0, direction="sideways")

    def test_nan_blocks_crossing(self):
        tr = Trace("t", interp=LINEAR)
        tr.append(0.0, 0.0)
        tr.append(1.0, float("nan"))
        tr.append(2.0, 2.0)
        assert len(tr.crossings(1.0, "rise")) == 0

    def test_digital_edges(self):
        tr = Trace("t", interp=STEP)
        for t, v in [(0, L0), (3, L1), (7, L0), (9, L1)]:
            tr.append(float(t), v)
        np.testing.assert_allclose(tr.edges("rise"), [3.0, 9.0])
        np.testing.assert_allclose(tr.edges("fall"), [7.0])

    def test_periods(self):
        tr = Trace("t", interp=STEP)
        for i in range(8):
            tr.append(i * 10.0, L1 if i % 2 == 0 else L0)
        # Rises at 20, 40 and 60 (the t=0 sample is initial state,
        # not an edge) -> two periods of 20.
        periods = tr.periods()
        np.testing.assert_allclose(periods, [20.0, 20.0])


class TestSegmentsAndStats:
    def test_segment_bounds(self):
        tr = ramp_trace()
        seg = tr.segment(2.0, 5.0)
        assert seg.t_start == 2.0 and seg.t_end == 5.0
        assert len(seg) == 4

    def test_segment_open_ended(self):
        tr = ramp_trace()
        assert tr.segment(None, 3.0).t_end == 3.0
        assert tr.segment(7.0, None).t_start == 7.0

    def test_min_max(self):
        tr = ramp_trace()
        assert tr.minimum() == 0.0
        assert tr.maximum() == 10.0
        assert tr.maximum(0.0, 4.0) == 4.0

    def test_mean_of_ramp(self):
        tr = ramp_trace()
        assert tr.mean() == pytest.approx(5.0)

    def test_final(self):
        tr = ramp_trace()
        assert tr.final == 10.0

    def test_empty_trace_raises(self):
        tr = Trace("t")
        with pytest.raises(MeasurementError):
            _ = tr.final


class TestDifference:
    def test_identical_traces(self):
        a = ramp_trace()
        b = ramp_trace()
        grid, delta = difference(a, b)
        assert np.allclose(delta, 0.0)

    def test_offset(self):
        a = ramp_trace()
        b = Trace.from_arrays("b", [0.0, 10.0], [1.0, 11.0])
        _grid, delta = difference(b, a)
        assert np.allclose(delta, 1.0)

    def test_disjoint_raises(self):
        a = Trace.from_arrays("a", [0.0, 1.0], [0, 0])
        b = Trace.from_arrays("b", [5.0, 6.0], [0, 0])
        with pytest.raises(MeasurementError):
            difference(a, b)


class TestClone:
    """A clone copies each sample once, straight from its source."""

    @pytest.mark.parametrize("payload", ["float", "object"])
    def test_clone_equals_source_and_stays_independent(self, payload,
                                                       monkeypatch):
        from repro.core.trace import _SampleBuffer

        def no_copy(self):
            raise AssertionError("clone copied through copy_data")

        if payload == "float":
            source = ramp_trace(n=50)
        else:
            source = Trace("q", interp=STEP)
            for i in range(40):
                source.append(i * 1.0, L1 if i % 3 else L0)
        monkeypatch.setattr(_SampleBuffer, "copy_data", no_copy)
        dup = source.clone()
        assert (dup.name, dup.interp) == (source.name, source.interp)
        assert dup._times == source._times
        assert dup._values == source._values
        assert dup.raw_values == source.raw_values
        last = source.raw_values[-1]
        source.append(100.0, last)
        assert len(dup) == len(source) - 1
        dup.append(200.0, last)
        dup.append(201.0, last)
        assert len(source) == len(dup) - 1
        assert source.times[-1] == 100.0 and dup.times[-1] == 201.0


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=100, allow_nan=False),
            st.floats(min_value=-10, max_value=10, allow_nan=False),
        ),
        min_size=2,
        max_size=40,
    )
)
def test_at_within_value_range(points):
    """Linear interpolation never exceeds the sample value range."""
    points = sorted(points, key=lambda p: p[0])
    tr = Trace("h", interp=LINEAR)
    for t, v in points:
        tr.append(t, v)
    lo = min(v for _t, v in points)
    hi = max(v for _t, v in points)
    for q in np.linspace(points[0][0], points[-1][0], 17):
        assert lo - 1e-9 <= tr.at(float(q)) <= hi + 1e-9


@given(st.integers(min_value=2, max_value=30))
def test_segment_then_resample_consistent(n):
    """Resampling a segment equals resampling the parent inside it."""
    tr = ramp_trace(n=n)
    seg = tr.segment(1.0, n - 1.0)
    grid = np.linspace(1.0, min(n - 1.0, seg.t_end), 7)
    np.testing.assert_allclose(seg.resample(grid), tr.resample(grid))

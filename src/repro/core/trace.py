"""Waveform traces.

Both the digital and the analog sides of the kernel record activity
into :class:`Trace` objects: time-ordered ``(t, value)`` samples.  A
digital trace is *event sampled* (one sample per value change, step
interpolation); an analog trace is *step sampled* (one sample per
solver step, linear interpolation).

Traces are what the paper's "results (traces) analysis" stage consumes:
the campaign engine compares a faulty trace against the golden trace,
with an amplitude tolerance for analog nodes (Section 4.1).

Storage: each sample column lives in a :class:`_SampleBuffer` — an
amortized-growth float64 numpy array for the dominant case (analog
solver samples are plain floats), demoting itself to a Python object
list the first time a non-float payload (a Logic level, an int, ...)
is appended.  In float mode the ``times``/``values`` properties return
zero-copy views, so reading a trace no longer reconverts the whole
sample list after every append the way the old list-backed cache did.
"""

from __future__ import annotations

import bisect

import numpy as np

from .errors import MeasurementError
from .logic import Logic

#: Interpolation styles.
STEP = "step"
LINEAR = "linear"

#: Starting capacity of a sample buffer (doubles on overflow).
_INITIAL_CAPACITY = 16


def _to_float(value):
    """Map a trace payload to a float for numeric analysis.

    Logic levels map to 0.0/1.0 with NaN for non-boolean levels;
    numbers pass through; anything else raises.
    """
    if isinstance(value, Logic):
        if value.is_high():
            return 1.0
        if value.is_low():
            return 0.0
        return float("nan")
    if isinstance(value, bool):
        return 1.0 if value else 0.0
    if isinstance(value, (int, float)):
        return float(value)
    raise MeasurementError(f"trace value {value!r} is not numeric")


class _SampleBuffer:
    """One sample column with amortized-growth storage.

    Float payloads land in a pre-allocated float64 numpy array that
    doubles when full; the first non-float payload demotes the buffer
    to a plain Python list so raw payloads (Logic levels, ints) are
    preserved exactly.  The surface is deliberately list-like —
    ``append``/``len``/iteration/indexing/``==`` — because the
    kernel's compiled probe samplers bind ``buffer.append`` directly
    and checkpoint restore truncates buffers in place, so the buffer
    *object* must stay alive for the lifetime of its trace.
    """

    __slots__ = ("_data", "_n", "_objects")

    def __init__(self):
        self._data = np.empty(_INITIAL_CAPACITY, dtype=np.float64)
        self._n = 0
        self._objects = None

    # -- hot path ---------------------------------------------------------

    def append(self, value):
        objects = self._objects
        if objects is not None:
            objects.append(value)
            return
        if isinstance(value, float):
            n = self._n
            data = self._data
            if n == data.shape[0]:
                data = self._grow(n + 1)
            data[n] = value
            self._n = n + 1
            return
        self._demote().append(value)

    def _grow(self, need):
        capacity = max(2 * self._data.shape[0], need, _INITIAL_CAPACITY)
        data = np.empty(capacity, dtype=np.float64)
        data[: self._n] = self._data[: self._n]
        self._data = data
        return data

    def _demote(self):
        """Switch to object-list storage, keeping existing samples."""
        self._objects = self._data[: self._n].tolist()
        return self._objects

    def extend(self, values):
        """Append many payloads (bulk copy for float64 arrays)."""
        if self._objects is not None:
            self._objects.extend(values)
            return
        if not isinstance(values, (list, tuple, np.ndarray, _SampleBuffer)):
            values = list(values)
        if isinstance(values, _SampleBuffer):
            if values._objects is not None:
                self._demote().extend(values._objects)
                return
            values = values.view()
        arr = np.asarray(values) if not isinstance(values, np.ndarray) else values
        if arr.ndim == 1 and arr.dtype == np.float64:
            need = self._n + arr.shape[0]
            if need > self._data.shape[0]:
                self._grow(need)
            self._data[self._n : need] = arr
            self._n = need
            return
        for value in values:
            self.append(value)

    # -- views and copies -------------------------------------------------

    @property
    def is_float(self):
        """True while every payload has been a float (numpy mode)."""
        return self._objects is None

    def view(self):
        """Zero-copy float64 view of the live samples (float mode only)."""
        return self._data[: self._n]

    def raw_list(self):
        """The payloads as a new Python list."""
        if self._objects is not None:
            return list(self._objects)
        return self._data[: self._n].tolist()

    def copy_data(self):
        """An independent capture for later :meth:`load_prefix`."""
        if self._objects is not None:
            return list(self._objects)
        return self._data[: self._n].copy()

    # -- in-place mutation (checkpoint / warm-start machinery) ------------

    def truncate(self, n):
        """Drop samples beyond the first ``n``, in place."""
        if self._objects is not None:
            del self._objects[n:]
        elif n < self._n:
            self._n = max(n, 0)

    def load_prefix(self, data, n):
        """Become the first ``n`` entries of ``data``, in place.

        ``data`` is a capture from :meth:`copy_data` (float64 array or
        list); the buffer object identity is preserved so bound-method
        fast paths and snapshot references stay valid.
        """
        if isinstance(data, np.ndarray):
            self._objects = None
            if self._data.shape[0] < n:
                self._data = np.empty(
                    max(n, _INITIAL_CAPACITY), dtype=np.float64
                )
            self._data[:n] = data[:n]
            self._n = n
        else:
            if self._objects is None:
                self._objects = []
            self._objects[:] = data[:n]

    def load_from(self, other):
        """Become a copy of ``other`` (a :class:`_SampleBuffer`)."""
        self.load_prefix(other.copy_data(), len(other))

    # -- list-like surface ------------------------------------------------

    def __len__(self):
        if self._objects is not None:
            return len(self._objects)
        return self._n

    def __iter__(self):
        if self._objects is not None:
            return iter(self._objects)
        return iter(self._data[: self._n].tolist())

    def __getitem__(self, index):
        if self._objects is not None:
            return self._objects[index]
        if isinstance(index, slice):
            return self._data[: self._n][index].tolist()
        n = self._n
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("sample index out of range")
        return float(self._data[index])

    def __eq__(self, other):
        if isinstance(other, _SampleBuffer):
            if self._objects is None and other._objects is None:
                a, b = self.view(), other.view()
                return a.shape == b.shape and bool(np.array_equal(a, b))
            return self.raw_list() == other.raw_list()
        if isinstance(other, (list, tuple)):
            return self.raw_list() == list(other)
        return NotImplemented

    __hash__ = None

    def __array__(self, dtype=None, copy=None):
        if self._objects is None:
            arr = self._data[: self._n]
        else:
            arr = np.asarray(self._objects)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        return np.array(arr) if copy else arr

    def __repr__(self):
        mode = "object" if self._objects is not None else "float64"
        return f"<_SampleBuffer n={len(self)} mode={mode}>"


class Trace:
    """A time-ordered sequence of waveform samples.

    :param name: label used in reports.
    :param interp: :data:`STEP` for event-sampled digital traces,
        :data:`LINEAR` for analog traces.
    """

    def __init__(self, name, interp=LINEAR):
        if interp not in (STEP, LINEAR):
            raise MeasurementError(f"unknown interpolation {interp!r}")
        self.name = name
        self.interp = interp
        self._times = _SampleBuffer()
        self._values = _SampleBuffer()
        self._cache = None

    # -- construction ---------------------------------------------------

    def append(self, time, value):
        """Append one sample; times must be non-decreasing."""
        times = self._times
        if len(times) and time < times[-1]:
            raise MeasurementError(
                f"trace {self.name}: time {time} precedes last sample "
                f"{times[-1]}"
            )
        times.append(time)
        self._values.append(value)
        self._cache = None

    @classmethod
    def from_arrays(cls, name, times, values, interp=LINEAR):
        """Build a trace from parallel arrays (copied)."""
        trace = cls(name, interp=interp)
        trace.extend(times, values)
        if len(trace._times) != len(trace._values):
            raise MeasurementError("times and values must have equal length")
        tb = trace._times
        if tb.is_float:
            view = tb.view()
            if view.shape[0] > 1 and bool(np.any(np.diff(view) < 0)):
                raise MeasurementError("times must be non-decreasing")
        else:
            seq = tb.raw_list()
            if any(b < a for a, b in zip(seq, seq[1:])):
                raise MeasurementError("times must be non-decreasing")
        return trace

    # -- basic access -----------------------------------------------------

    def __len__(self):
        return len(self._times)

    def __iter__(self):
        return iter(zip(self._times, self._values))

    @property
    def times(self):
        """Sample times as a numpy array (zero-copy in float mode)."""
        times = self._times
        if times.is_float:
            return times.view()
        self._ensure_cache()
        return self._cache[0]

    @property
    def values(self):
        """Sample values as a float numpy array.

        Logic values map to 0/1/NaN; see :func:`_to_float`.  Float-mode
        traces return a zero-copy view of the backing buffer.
        """
        values = self._values
        if values.is_float:
            return values.view()
        self._ensure_cache()
        return self._cache[1]

    @property
    def raw_values(self):
        """The unconverted sample payloads (list)."""
        return self._values.raw_list()

    def _ensure_cache(self):
        if self._cache is None:
            tb, vb = self._times, self._values
            times = (
                tb.view()
                if tb.is_float
                else np.asarray(tb.raw_list(), dtype=float)
            )
            if vb.is_float:
                values = vb.view()
            else:
                values = np.asarray(
                    [_to_float(v) for v in vb.raw_list()], dtype=float
                )
            self._cache = (times, values)

    @property
    def t_start(self):
        """Time of the first sample."""
        self._require_samples()
        return self._times[0]

    @property
    def t_end(self):
        """Time of the last sample."""
        self._require_samples()
        return self._times[-1]

    @property
    def final(self):
        """Payload of the last sample."""
        self._require_samples()
        return self._values[-1]

    def _require_samples(self, n=1):
        if len(self._times) < n:
            raise MeasurementError(
                f"trace {self.name} needs at least {n} sample(s), has "
                f"{len(self._times)}"
            )

    # -- in-place mutation (checkpoint / warm-start machinery) ------------

    def truncate(self, n):
        """Drop samples beyond the first ``n``, in place.

        Checkpoint restore uses this; the backing buffers survive so
        the kernel's compiled samplers and signal listeners keep
        pointing at live storage.
        """
        self._times.truncate(n)
        self._values.truncate(n)
        self._cache = None

    def clone(self):
        """An independent copy (same name/interp, copied samples)."""
        dup = Trace(self.name, interp=self.interp)
        dup._times.load_from(self._times)
        dup._values.load_from(self._values)
        return dup

    def extend(self, times, values):
        """Append many samples at once (bulk copy, no ordering check)."""
        self._times.extend(times)
        self._values.extend(values)
        self._cache = None

    def copy_data(self):
        """The samples as an independent ``(times, values)`` capture."""
        return self._times.copy_data(), self._values.copy_data()

    def load_prefix(self, data, n):
        """Become the first ``n`` samples of a :meth:`copy_data` capture,
        in place (the backing buffers survive, as in :meth:`truncate`)."""
        times, values = data
        self._times.load_prefix(times, n)
        self._values.load_prefix(values, n)
        self._cache = None

    # -- interpolation ------------------------------------------------------

    def at(self, time):
        """Value at ``time`` using the trace's interpolation style.

        Before the first sample the first value is returned; after the
        last, the last value.
        """
        self._require_samples()
        idx = bisect.bisect_right(self._times, time) - 1
        if idx < 0:
            return _to_float(self._values[0])
        if self.interp == STEP or idx >= len(self._times) - 1:
            return _to_float(self._values[idx])
        t0, t1 = self._times[idx], self._times[idx + 1]
        v0 = _to_float(self._values[idx])
        v1 = _to_float(self._values[idx + 1])
        if t1 == t0:
            return v1
        frac = (time - t0) / (t1 - t0)
        return v0 + frac * (v1 - v0)

    def value_at(self, time):
        """Raw payload in effect at ``time`` (step semantics)."""
        self._require_samples()
        idx = bisect.bisect_right(self._times, time) - 1
        return self._values[max(idx, 0)]

    def resample(self, grid):
        """Values on an arbitrary time grid (numpy array result)."""
        grid = np.asarray(grid, dtype=float)
        if self.interp == LINEAR:
            return np.interp(grid, self.times, self.values)
        idx = np.searchsorted(self.times, grid, side="right") - 1
        idx = np.clip(idx, 0, len(self) - 1)
        return self.values[idx]

    # -- slicing ---------------------------------------------------------

    def segment(self, t0=None, t1=None):
        """Sub-trace with samples in ``[t0, t1]`` (same interpolation)."""
        self._require_samples()
        lo = 0 if t0 is None else bisect.bisect_left(self._times, t0)
        hi = (
            len(self._times)
            if t1 is None
            else bisect.bisect_right(self._times, t1)
        )
        sub = Trace(self.name, interp=self.interp)
        tb, vb = self._times, self._values
        sub._times.extend(tb.view()[lo:hi] if tb.is_float else tb[lo:hi])
        sub._values.extend(vb.view()[lo:hi] if vb.is_float else vb[lo:hi])
        return sub

    # -- events ------------------------------------------------------------

    def crossings(self, level, direction="rise"):
        """Times at which the waveform crosses ``level``.

        For linear traces the crossing time is linearly interpolated;
        for step traces it is the change time.  NaN samples never
        participate in a crossing.

        :param direction: ``"rise"``, ``"fall"`` or ``"both"``.
        """
        if direction not in ("rise", "fall", "both"):
            raise MeasurementError(f"unknown direction {direction!r}")
        times = self.times
        values = self.values
        result = []
        for i in range(1, len(times)):
            v0, v1 = values[i - 1], values[i]
            if np.isnan(v0) or np.isnan(v1):
                continue
            rising = v0 < level <= v1
            falling = v0 > level >= v1
            if not (rising or falling):
                continue
            if direction == "rise" and not rising:
                continue
            if direction == "fall" and not falling:
                continue
            if self.interp == LINEAR and v1 != v0:
                frac = (level - v0) / (v1 - v0)
                result.append(times[i - 1] + frac * (times[i] - times[i - 1]))
            else:
                result.append(times[i])
        return np.asarray(result)

    def edges(self, direction="rise"):
        """Change times of a digital trace (0->1 rises, 1->0 falls)."""
        return self.crossings(0.5, direction=direction)

    def periods(self, level=0.5, direction="rise"):
        """Successive intervals between same-direction crossings."""
        crossing_times = self.crossings(level, direction=direction)
        return np.diff(crossing_times)

    # -- statistics ---------------------------------------------------------

    def minimum(self, t0=None, t1=None):
        """Minimum value over ``[t0, t1]`` (NaN-aware)."""
        return float(np.nanmin(self._window_values(t0, t1)))

    def maximum(self, t0=None, t1=None):
        """Maximum value over ``[t0, t1]`` (NaN-aware)."""
        return float(np.nanmax(self._window_values(t0, t1)))

    def mean(self, t0=None, t1=None):
        """Time-weighted mean over ``[t0, t1]`` via trapezoidal rule."""
        seg = self.segment(t0, t1)
        seg._require_samples(2)
        times, values = seg.times, seg.values
        span = times[-1] - times[0]
        if span == 0:
            return float(values[-1])
        return float(np.trapezoid(values, times) / span)

    def _window_values(self, t0, t1):
        seg = self.segment(t0, t1)
        seg._require_samples()
        return seg.values

    def __repr__(self):
        return f"<Trace {self.name} n={len(self)} interp={self.interp}>"


def difference(trace_a, trace_b, grid=None):
    """Pointwise ``a - b`` on a shared grid; returns (grid, delta).

    When ``grid`` is omitted the union of both traces' sample times
    restricted to the overlapping interval is used.
    """
    if grid is None:
        t0 = max(trace_a.t_start, trace_b.t_start)
        t1 = min(trace_a.t_end, trace_b.t_end)
        if t1 < t0:
            raise MeasurementError(
                f"traces {trace_a.name} and {trace_b.name} do not overlap"
            )
        merged = np.union1d(trace_a.times, trace_b.times)
        grid = merged[(merged >= t0) & (merged <= t1)]
    grid = np.asarray(grid, dtype=float)
    return grid, trace_a.resample(grid) - trace_b.resample(grid)

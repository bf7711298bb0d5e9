"""Counter and histogram metrics with near-zero disabled overhead.

Campaigns over millions of faults need the same run telemetry that
emulation-based environments (DAVOS, OpenSEA) treat as first-class
output: how many kernel events were dispatched, how long each faulty
run took, how often a warm start actually hit a checkpoint.  This
module provides that as a process-global :class:`MetricsRegistry` of
named :class:`Counter` and :class:`Histogram` instruments.

The design constraint is the *disabled* cost, not the enabled one:
instrumented hot paths (the kernel event loop, the analog solver) must
pay nothing when nobody asked for metrics.  Two rules achieve that:

* hot code guards on the single boolean :attr:`MetricsRegistry.enabled`
  (exposed as :func:`enabled`) and takes the uninstrumented path when
  it is False — no dict lookups, no dead calls;
* where a count already exists for free (the kernel's
  ``events_executed`` counter), instrumentation records *deltas* at
  coarse boundaries (once per ``Simulator.run`` call) instead of
  touching the per-event loop at all.

Instruments are created on first use and live until :func:`reset`.
The campaign layer calls neither :meth:`~MetricsRegistry.inc` nor
:meth:`~MetricsRegistry.observe`: its typed events
(:func:`repro.obs.journal.emit`) feed :data:`EVENT_METRICS`.
"""

from __future__ import annotations

from ..core.errors import ReproError


class MetricsError(ReproError):
    """Raised for invalid metric names or values."""


class Counter:
    """A monotonically increasing named count.

    :ivar name: registry key.
    :ivar value: current count.
    """

    __slots__ = ("name", "value")

    def __init__(self, name):
        self.name = name
        self.value = 0

    def inc(self, n=1):
        """Add ``n`` (default 1) to the count."""
        self.value += n

    def __repr__(self):
        return f"<Counter {self.name}={self.value}>"


class Histogram:
    """Summary statistics over recorded samples.

    Keeps count, sum, min and max — enough for mean/rate reporting
    without unbounded memory, which matters for per-fault-run samples
    in million-fault campaigns.

    :ivar name: registry key.
    """

    __slots__ = ("name", "count", "total", "min", "max")

    def __init__(self, name):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = None
        self.max = None

    def record(self, value):
        """Fold one sample into the summary."""
        value = float(value)
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self):
        """Arithmetic mean of the samples (None when empty)."""
        return self.total / self.count if self.count else None

    def summary(self):
        """Plain-dict rendering: count, total, min, max, mean."""
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
        }

    def __repr__(self):
        return f"<Histogram {self.name} n={self.count} mean={self.mean}>"


class MetricsRegistry:
    """Named instruments plus the global enabled flag.

    All mutating helpers (:meth:`inc`, :meth:`observe`) are no-ops
    while :attr:`enabled` is False, so call sites that cannot afford
    even a dict lookup can guard on the attribute themselves and
    everything else can call unconditionally.

    :ivar enabled: master switch; start disabled.
    """

    def __init__(self):
        self.enabled = False
        self._counters = {}
        self._histograms = {}

    # -- lifecycle ---------------------------------------------------------

    def enable(self):
        """Turn metric recording on."""
        self.enabled = True

    def disable(self):
        """Turn metric recording off (instruments keep their values)."""
        self.enabled = False

    def reset(self):
        """Drop every instrument and its value (flag unchanged)."""
        self._counters.clear()
        self._histograms.clear()

    # -- instruments --------------------------------------------------------

    def counter(self, name):
        """The :class:`Counter` called ``name``, created on first use."""
        if not name or not isinstance(name, str):
            raise MetricsError(f"invalid metric name {name!r}")
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def histogram(self, name):
        """The :class:`Histogram` called ``name``, created on first use."""
        if not name or not isinstance(name, str):
            raise MetricsError(f"invalid metric name {name!r}")
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name)
        return instrument

    def inc(self, name, n=1):
        """Increment counter ``name`` by ``n`` — no-op while disabled."""
        if self.enabled:
            self.counter(name).inc(n)

    def observe(self, name, value):
        """Record ``value`` into histogram ``name`` — no-op while disabled."""
        if self.enabled:
            self.histogram(name).record(value)

    # -- export --------------------------------------------------------------

    def snapshot(self):
        """JSON-ready dict of every instrument's current state."""
        return {
            "counters": {
                name: c.value for name, c in sorted(self._counters.items())
            },
            "histograms": {
                name: h.summary()
                for name, h in sorted(self._histograms.items())
            },
        }


#: The process-global registry every instrumented module records into.
REGISTRY = MetricsRegistry()


def enable():
    """Enable the global registry."""
    REGISTRY.enable()


def disable():
    """Disable the global registry."""
    REGISTRY.disable()


def enabled():
    """True when the global registry is recording."""
    return REGISTRY.enabled


def reset():
    """Clear every instrument in the global registry."""
    REGISTRY.reset()


def inc(name, n=1):
    """Increment a global counter (no-op while disabled)."""
    REGISTRY.inc(name, n)


def observe(name, value):
    """Record a global histogram sample (no-op while disabled)."""
    REGISTRY.observe(name, value)


def snapshot():
    """Snapshot of the global registry."""
    return REGISTRY.snapshot()


# -- the campaign event stream's sink ----------------------------------------


def _run_started(registry, fields):
    if fields["attempt"] == 1:      # a fault's first attempt: one run placed
        registry.inc("campaign.runs.scalar")


def _run_finished(registry, fields):
    status = fields["status"]
    if status == "ok":
        registry.inc("campaign.runs")
        registry.inc(f"campaign.class.{fields['label']}")
        registry.observe("campaign.run_wall_s", fields["wall_s"])
        if fields["attempts"] > 1:
            registry.inc("campaign.retried_runs")
    else:
        registry.inc("campaign.errors")
        if status in ("timeout", "diverged", "crashed"):
            registry.inc(f"campaign.{status}")


def _batch_finished(registry, fields):
    registry.inc("campaign.batch.count")
    registry.inc(f"campaign.batch.{fields['kind']}")
    registry.observe("campaign.batch.size", fields["size"])
    for key in ("peeled", "converged", "fallback"):
        if fields[key]:
            registry.inc(f"campaign.batch.{key}", int(fields[key]))
    registry.inc("campaign.runs.batched", fields["completed"])


def _campaign_finished(registry, fields):
    execution = fields["execution"]
    if "warm_hits" in execution:
        registry.inc("campaign.warm.hit", execution["warm_hits"])
        registry.inc("campaign.warm.miss", execution["warm_misses"])
    for name, seconds in execution.get("phases", {}).items():
        registry.observe(f"campaign.phase.{name}_s", seconds)


def _count(name):
    return lambda registry, fields: registry.inc(name)


#: The one event→metric table: event type -> recorder ``(registry,
#: fields)``.
EVENT_METRICS = {
    "run_started": _run_started,
    "run_finished": _run_finished,
    "retry": _count("campaign.retries"),
    "quarantined": _count("campaign.quarantined"),
    "worker_died": _count("campaign.worker_deaths"),
    "batch_finished": _batch_finished,
    "campaign_finished": _campaign_finished,
}


def record_event(event, fields):
    """Feed one campaign event to the global registry through
    :data:`EVENT_METRICS` (no-op while disabled)."""
    if REGISTRY.enabled and event in EVENT_METRICS:
        EVENT_METRICS[event](REGISTRY, fields)

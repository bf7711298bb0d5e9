"""Fault-list generation.

Builders for the campaign's fault list: exhaustive products of targets
and injection times, or seeded random samples when the exhaustive space
is too large — the standard trade-off of simulation-based injection
("new techniques for speeding up fault-injection campaigns", paper
reference [3], attack exactly this cost).

All random generation takes an explicit seed so campaigns are exactly
reproducible.
"""

from __future__ import annotations

import itertools
import random

from ..core.errors import CampaignError
from ..faults.bitflip import BitFlip, MultipleBitUpset
from ..faults.set_pulse import SETPulse
from ..injection.controller import CurrentInjection


def exhaustive_bitflips(targets, times):
    """One :class:`BitFlip` per (target, time) pair, in product order."""
    targets = list(targets)
    times = list(times)
    if not targets or not times:
        raise CampaignError("need at least one target and one time")
    return [
        BitFlip(target, time)
        for target, time in itertools.product(targets, times)
    ]


def random_bitflips(targets, t_window, count, seed=0):
    """``count`` seeded-random bit-flips in a time window.

    :param t_window: ``(t_min, t_max)`` injection window.
    """
    targets = list(targets)
    t_min, t_max = t_window
    if not targets:
        raise CampaignError("need at least one target")
    if t_max <= t_min:
        raise CampaignError("empty time window")
    rng = random.Random(seed)
    return [
        BitFlip(rng.choice(targets), rng.uniform(t_min, t_max))
        for _ in range(count)
    ]


def random_mbus(targets, t_window, count, multiplicity=2, seed=0):
    """Seeded-random multiple-bit upsets (adjacent-target clusters)."""
    targets = list(targets)
    if len(targets) < multiplicity:
        raise CampaignError(
            f"need >= {multiplicity} targets for multiplicity "
            f"{multiplicity}"
        )
    t_min, t_max = t_window
    rng = random.Random(seed)
    faults = []
    for _ in range(count):
        start = rng.randrange(len(targets) - multiplicity + 1)
        cluster = targets[start : start + multiplicity]
        faults.append(MultipleBitUpset(cluster, rng.uniform(t_min, t_max)))
    return faults


def set_sweep(target, times, width):
    """SET pulses on one wire swept over injection times.

    The classical latch-window experiment: sweep the pulse across a
    clock cycle and observe which alignments get captured.
    """
    return [SETPulse(target, t, width) for t in times]


def analog_injections(nodes, times, transients):
    """Exhaustive :class:`CurrentInjection` product.

    One injection per (node, time, transient) triple — the analog
    campaign of Section 4.1, where the designer specifies the pulse
    parameter ranges and the injection times.
    """
    nodes = list(nodes)
    times = list(times)
    transients = list(transients)
    if not nodes or not times or not transients:
        raise CampaignError("need nodes, times and transients")
    return [
        CurrentInjection(transient, node, time)
        for node, time, transient in itertools.product(nodes, times, transients)
    ]


def random_analog_injections(nodes, t_window, transients, count, seed=0):
    """Seeded-random analog injections."""
    nodes = list(nodes)
    transients = list(transients)
    t_min, t_max = t_window
    if not nodes or not transients:
        raise CampaignError("need nodes and transients")
    rng = random.Random(seed)
    return [
        CurrentInjection(
            rng.choice(transients), rng.choice(nodes), rng.uniform(t_min, t_max)
        )
        for _ in range(count)
    ]


def batch_key(fault):
    """Ensemble-batching group key for ``fault``, or ``None``.

    Faults sharing a key target the same circuit site with the same
    injection mechanism and may execute together as one vectorized
    ensemble (see :mod:`repro.core.ensemble`), varying only their
    pulse parameters and times.  Only analog current injections
    batch: each maps to exactly one saboteur (keyed by node), and its
    waveform evaluates per-variant inside the solver step.  Digital
    faults, parametric faults and anything unrecognised return
    ``None`` and always run scalar.
    """
    if isinstance(fault, CurrentInjection):
        return fault.node
    return None


def schedule_time(fault):
    """When ``fault`` first disturbs the design (``time`` or ``t_start``).

    Anchors its restore point, digital batch and phase stratum.  A
    fault without a numeric time anchors at 0.0: a full replay, always
    correct, never fast.
    """
    for attr in ("time", "t_start"):
        value = getattr(fault, attr, None)
        if isinstance(value, (int, float)):
            return float(value)
    return 0.0


def digital_batch_key(fault):
    """Grouping key for digital faults eligible for bit-flip batching.

    Bit-flips, multi-bit upsets and SET pulses return their primary
    target name; these are the mechanisms whose mutants can fork off a
    shared golden branch walk (copy-on-divergence) and re-join it via
    state re-convergence.  Stuck-ats (often unbounded), parametric and
    analog faults return ``None`` and take their own paths.
    """
    from ..faults.bitflip import BitFlip, MultipleBitUpset
    from ..faults.set_pulse import SETPulse

    if isinstance(fault, (BitFlip, MultipleBitUpset)):
        return fault.targets()[0]
    if isinstance(fault, SETPulse):
        return fault.target
    return None


def sample(faults, count, seed=0):
    """A reproducible without-replacement sample of a fault list."""
    faults = list(faults)
    if count > len(faults):
        raise CampaignError(
            f"cannot sample {count} faults from {len(faults)}"
        )
    rng = random.Random(seed)
    return rng.sample(faults, count)


def cycle_times(t_start, period, n_cycles, phase=0.0):
    """Injection times hitting ``n_cycles`` consecutive clock cycles.

    ``phase`` (0..1) positions the injection within each cycle — the
    paper notes that for analog blocks "the exact injection time (and
    not only the injection cycle ...) may have a noticeable impact".
    """
    if period <= 0 or n_cycles < 1:
        raise CampaignError("period must be positive and n_cycles >= 1")
    if not 0.0 <= phase < 1.0:
        raise CampaignError("phase must be in [0, 1)")
    return [t_start + (k + phase) * period for k in range(n_cycles)]


def intra_cycle_times(t_cycle_start, period, n_points):
    """``n_points`` injection times spread inside one clock cycle."""
    if n_points < 1:
        raise CampaignError("n_points must be >= 1")
    return [
        t_cycle_start + period * (k + 0.5) / n_points for k in range(n_points)
    ]

"""JSON serialization of campaign specs, faults, classifications and runs.

The persistent campaign store (and the CLI fault-file format) need a
stable, human-readable descriptor for every fault model.  This module
owns the bidirectional mapping:

* :func:`fault_to_dict` / :func:`fault_from_dict` — fault instance
  <-> JSON descriptor (the same schema the CLI fault files use);
* :func:`spec_to_dict` / :func:`spec_from_dict` — a complete
  :class:`~repro.campaign.spec.CampaignSpec` <-> JSON;
* the **run-row format** (:data:`ROW_FIELDS`): :func:`result_to_row`,
  :func:`error_to_row` and :func:`skipped_to_row` render one terminal
  run outcome as a row dict, :func:`row_to_result` and
  :func:`row_to_error` rebuild it, and :func:`check_row` is the check
  every store write applies.  This is the only place run outcomes map
  to row dicts and back: the store maps row dicts to columns, the
  distributed wire protocol ships them as they are;
* :func:`fault_key` / :func:`faults_digest` — content digests used by
  campaign resume to verify that a stored fault list matches the one
  being rerun;
* :func:`trace_digest` — a digest of one golden trace, stored so a
  resumed campaign can prove the regenerated golden run is identical
  to the one the stored classifications were computed against.

Times are stored as raw float seconds: JSON round-trips Python floats
exactly, so a descriptor written by one session re-creates a fault
whose ``describe()`` line is byte-identical in the next.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from ..campaign.classify import (
    CLASSES,
    FAILURE_STATUSES,
    RUN_OK,
    RUN_SKIPPED,
    Classification,
)
from ..campaign.compare import TraceComparison
from ..campaign.results import CampaignRunError, FaultResult
from ..core.errors import ReproError
from ..faults import (
    BitFlip,
    DoubleExponentialPulse,
    MultipleBitUpset,
    ParametricFault,
    SETPulse,
    StuckAt,
    TrapezoidPulse,
)
from ..injection import CurrentInjection


class SerializationError(ReproError):
    """Raised for descriptors or faults that cannot be (de)serialized."""


def _logic_char(value):
    """Render a logic value as its character (None passes through)."""
    if value is None:
        return None
    return getattr(value, "char", str(value))


def fault_to_dict(fault):
    """The JSON descriptor of one fault-model instance.

    Inverse of :func:`fault_from_dict`; the schema matches the CLI
    fault-file format documented in :mod:`repro.cli`.

    :raises SerializationError: for unsupported fault types.
    """
    if isinstance(fault, BitFlip):
        return {"kind": "bitflip", "target": fault.target, "time": fault.time}
    if isinstance(fault, MultipleBitUpset):
        return {
            "kind": "mbu",
            "targets": list(fault.targets()),
            "time": fault.time,
        }
    if isinstance(fault, SETPulse):
        return {
            "kind": "set",
            "target": fault.target,
            "time": fault.time,
            "width": fault.width,
            "value": _logic_char(fault.value),
        }
    if isinstance(fault, StuckAt):
        return {
            "kind": "stuck",
            "target": fault.target,
            "value": fault.value.char,
            "t_start": fault.t_start,
            "t_end": fault.t_end,
        }
    if isinstance(fault, CurrentInjection):
        transient = fault.transient
        if isinstance(transient, TrapezoidPulse):
            pulse = {
                "pa": transient.pa,
                "rt": transient.rt,
                "ft": transient.ft,
                "pw": transient.pw,
            }
        elif isinstance(transient, DoubleExponentialPulse):
            pulse = {
                "i0": transient.i0,
                "tau_r": transient.tau_r,
                "tau_f": transient.tau_f,
            }
        else:
            raise SerializationError(
                f"cannot serialize analog transient {transient!r}"
            )
        return {
            "kind": "current",
            "node": fault.node,
            "time": fault.time,
            "pulse": pulse,
        }
    if isinstance(fault, ParametricFault):
        return {
            "kind": "parametric",
            "component": fault.component,
            "attribute": fault.attribute,
            "factor": fault.factor,
            "delta": fault.delta,
            "t_start": fault.t_start,
            "t_end": fault.t_end,
        }
    raise SerializationError(f"cannot serialize fault {fault!r}")


def fault_from_dict(data):
    """Build a fault-model instance from a JSON descriptor.

    Inverse of :func:`fault_to_dict`; also the parser behind CLI fault
    files, so descriptors accept ``"35ns"``-style quantity strings as
    well as raw float seconds.

    :raises SerializationError: for unknown kinds or malformed
        descriptors.
    """
    kind = data.get("kind")
    try:
        if kind == "bitflip":
            return BitFlip(data["target"], data["time"])
        if kind == "mbu":
            return MultipleBitUpset(data["targets"], data["time"])
        if kind == "set":
            return SETPulse(data["target"], data["time"], data["width"],
                            value=data.get("value"))
        if kind == "stuck":
            return StuckAt(data["target"], data["value"],
                           t_start=data.get("t_start") or 0.0,
                           t_end=data.get("t_end"))
        if kind == "current":
            pulse = data["pulse"]
            if "tau_r" in pulse:
                transient = DoubleExponentialPulse(
                    pulse["i0"], pulse["tau_r"], pulse["tau_f"]
                )
            else:
                transient = TrapezoidPulse(
                    pulse["pa"], pulse["rt"], pulse["ft"], pulse["pw"]
                )
            return CurrentInjection(transient, data["node"], data["time"])
        if kind == "parametric":
            return ParametricFault(
                data["component"], data["attribute"],
                factor=data.get("factor"), delta=data.get("delta"),
                t_start=data.get("t_start") or 0.0, t_end=data.get("t_end"),
            )
    except KeyError as exc:
        raise SerializationError(
            f"fault descriptor {data!r} is missing key {exc}"
        ) from exc
    raise SerializationError(f"unknown fault kind {kind!r}")


def fault_key(fault):
    """A stable content digest of one fault (resume identity)."""
    descriptor = fault_to_dict(fault)
    canonical = json.dumps(descriptor, sort_keys=True, separators=(",", ":"))
    return hashlib.sha1(canonical.encode()).hexdigest()


def faults_digest(faults):
    """One digest over a whole fault list, order-sensitive."""
    digest = hashlib.sha1()
    for fault in faults:
        digest.update(fault_key(fault).encode())
    return digest.hexdigest()


def spec_to_dict(spec):
    """JSON-ready rendering of a :class:`CampaignSpec`."""
    return {
        "name": spec.name,
        "faults": [fault_to_dict(fault) for fault in spec.faults],
        "t_end": spec.t_end,
        "outputs": list(spec.outputs),
        "tolerances": dict(spec.tolerances),
        "time_tolerances": dict(spec.time_tolerances),
        "analog_tolerance": spec.analog_tolerance,
        "compare_from": spec.compare_from,
        "metadata": dict(spec.metadata),
    }


def spec_from_dict(data):
    """Rebuild a :class:`CampaignSpec` from :func:`spec_to_dict` output."""
    from ..campaign.spec import CampaignSpec

    return CampaignSpec(
        name=data["name"],
        faults=[fault_from_dict(entry) for entry in data["faults"]],
        t_end=data["t_end"],
        outputs=data["outputs"],
        tolerances=data.get("tolerances") or {},
        time_tolerances=data.get("time_tolerances") or {},
        analog_tolerance=data.get("analog_tolerance", 0.01),
        compare_from=data.get("compare_from"),
        metadata=data.get("metadata") or {},
    )


def classification_to_dict(classification):
    """JSON-ready rendering of a run :class:`Classification`."""
    return {
        "label": classification.label,
        "first_output_divergence": classification.first_output_divergence,
        "output_mismatch_time": classification.output_mismatch_time,
        "diverged_outputs": list(classification.diverged_outputs),
        "diverged_internal": list(classification.diverged_internal),
        "latent_traces": list(classification.latent_traces),
    }


def comparisons_to_dict(comparisons):
    """JSON-ready rendering of a per-trace comparison map.

    Analog comparisons carry numpy scalars (np.bool_/np.float64);
    coerce to plain Python so json.dumps never chokes on them.
    """
    def _opt_float(value):
        return None if value is None else float(value)

    return {
        name: {
            "match": bool(cmp_result.match),
            "first_divergence": _opt_float(cmp_result.first_divergence),
            "last_divergence": _opt_float(cmp_result.last_divergence),
            "mismatch_time": _opt_float(cmp_result.mismatch_time),
            "max_deviation": _opt_float(cmp_result.max_deviation),
            "final_match": bool(cmp_result.final_match),
        }
        for name, cmp_result in comparisons.items()
    }


#: The canonical per-run **row** schema shared by the campaign store
#: and the distributed wire protocol: one
#: JSON-ready dict per terminal run outcome.  ``idx`` is the fault's
#: index in its campaign and ``key`` its content digest
#: (:func:`fault_key`), which shard-reassignment deduplication keys on;
#: a row bound for a local store may leave ``key`` None, since the
#: store joins it from its fault list.
ROW_FIELDS = (
    "idx", "key", "status", "label", "classification", "comparisons",
    "metrics", "error", "wall_s", "kernel_events", "attempts",
    "quarantined", "postmortem", "stratum",
)


def _row(index, key, status, stratum, **fields):
    """A run-row dict: ``fields`` over None, ``quarantined`` 0."""
    row = dict.fromkeys(ROW_FIELDS)
    row.update(idx=int(index), key=key, status=status, quarantined=0,
               stratum=stratum)
    row.update(fields)
    return row


def result_to_row(index, key, fault_result, wall_s=None,
                  kernel_events=None, attempts=1, stratum=None):
    """Render one successful :class:`FaultResult` as a run-row dict."""
    return _row(
        index, key, RUN_OK, stratum, label=fault_result.label,
        classification=classification_to_dict(fault_result.classification),
        comparisons=comparisons_to_dict(fault_result.comparisons),
        metrics=dict(fault_result.metrics), wall_s=wall_s,
        kernel_events=kernel_events, attempts=attempts,
    )


def error_to_row(index, key, message, status="error", wall_s=None,
                 attempts=1, quarantined=False, postmortem=None,
                 stratum=None):
    """Render one failed run as a run-row dict."""
    return _row(
        index, key, status, stratum, error=message, wall_s=wall_s,
        attempts=attempts, quarantined=1 if quarantined else 0,
        postmortem=None if postmortem is None else str(postmortem),
    )


def skipped_to_row(index, key, stratum=None):
    """Render a fault skipped by sampling early stop as a run-row dict.

    Carries no classification or error: the fault was never simulated
    because the campaign's estimate converged first.
    """
    return _row(index, key, RUN_SKIPPED, stratum, attempts=0)


def check_row(row, skipped=False):
    """Refuse a row dict that does not describe one terminal run.

    A row carries every :data:`ROW_FIELDS` entry.  An ``ok`` row
    carries a label from :data:`~repro.campaign.classify.CLASSES` equal
    to its classification's label, plus classification and comparison
    mappings; any other row carries a status from
    :data:`~repro.campaign.classify.FAILURE_STATUSES`, or ``skipped``
    where ``skipped`` allows it (only sampling early stop writes
    those).

    :raises SerializationError: naming the row's fault index and what
        is wrong with it.
    """
    missing = [name for name in ROW_FIELDS if name not in row]
    status = row.get("status")
    if missing:
        problem = f"lacks {', '.join(missing)}"
    elif status == RUN_OK:
        classification = row["classification"]
        if not (isinstance(classification, dict)
                and isinstance(row["comparisons"], dict)):
            problem = "has no classification or comparisons"
        elif (row["label"] not in CLASSES
              or classification.get("label") != row["label"]):
            problem = (f"is labelled {row['label']!r} but classified "
                       f"{classification.get('label')!r}")
        else:
            return
    elif status in FAILURE_STATUSES or (skipped and status == RUN_SKIPPED):
        return
    else:
        problem = f"has status {status!r}"
    raise SerializationError(f"run row for fault {row.get('idx')} {problem}")


def row_to_result(row, fault):
    """Rebuild the :class:`FaultResult` of an ``ok`` row.

    Inverse of :func:`result_to_row`; ``fault`` is the instance the
    result references.
    """
    return FaultResult(
        fault=fault,
        classification=Classification(**row["classification"]),
        comparisons={
            name: TraceComparison(name=name, **fields)
            for name, fields in row["comparisons"].items()
        },
        metrics=row["metrics"] or {},
    )


def row_to_error(row, fault):
    """Rebuild the :class:`CampaignRunError` of a failed row.

    Inverse of :func:`error_to_row`; rows written before attempts were
    recorded read back as one attempt.
    """
    return CampaignRunError(
        index=row["idx"],
        fault=fault,
        message=row["error"] or "",
        status=row["status"],
        attempts=row["attempts"] or 1,
        quarantined=bool(row["quarantined"]),
        postmortem=row["postmortem"],
    )


def trace_digest(trace):
    """A content digest of one trace's samples.

    Digital traces store logic objects; those hash through their
    string rendering, analog traces through their raw float bytes —
    both deterministic across processes.
    """
    digest = hashlib.sha1()
    digest.update(np.asarray(trace._times, dtype=float).tobytes())
    try:
        digest.update(np.asarray(trace._values, dtype=float).tobytes())
    except (TypeError, ValueError):
        digest.update("\x00".join(str(v) for v in trace._values).encode())
    return digest.hexdigest()


def probes_digest(probes):
    """Mapping probe name -> :func:`trace_digest` for a probe set."""
    return {name: trace_digest(trace) for name, trace in sorted(probes.items())}

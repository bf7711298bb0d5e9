"""Reference outputs of the benchmark workloads, and the checks on them.

``reference.json`` holds, per workload, the label of every fault as a
serial warm run computes it -- the reference semantics batched, pooled
and distributed execution are tested against.  The three digital
workloads do not draw their faults from the seed, so they record their
whole fault list and every seed is checked in full; ``pll-sweep`` does,
so only the default seed has labels.  For ``digital-sampled`` the
default seed also records the drawn indices, the estimate and its
interval.

Regenerate (about a minute) with::

    python3 perfbench/reference.py
"""

from __future__ import annotations

import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
PATH = os.path.join(HERE, "reference.json")

LABEL_CODES = {
    "silent": "s", "latent": "l", "transient-error": "t", "failure": "f",
}


def encode(labels):
    return "".join(LABEL_CODES[label] for label in labels)


def load():
    with open(PATH) as handle:
        return json.load(handle)


def check(reference, workload, seed, inputs, execution, rows):
    """Compare one campaign's store rows with the reference.

    Returns ``(attempted, failed, problems)``: fault runs attempted,
    how many of them failed (error status, no row, or a label that
    differs from the reference), and a description of every problem,
    failed runs included.
    """
    from workloads import DEFAULT_SEED

    faults = inputs.spec.faults
    entry = reference[workload.NAME]
    expected = None
    if "labels" in entry:
        expected = entry["labels"]
    elif seed == DEFAULT_SEED:
        expected = entry["seed_labels"]
    by_index = {row["idx"]: row for row in rows}
    problems = []
    sampling = execution.get("sampling")
    if sampling is not None:
        simulated = [
            index for index, row in by_index.items()
            if row["status"] != "skipped"
        ]
        attempted = len(simulated)
        skipped = len(by_index) - attempted
        if attempted != sampling["simulated"]:
            problems.append(
                f"{attempted} simulated rows, sampler says "
                f"{sampling['simulated']}"
            )
        if skipped != len(faults) - sampling["simulated"]:
            problems.append(f"{skipped} skipped rows")
        if sampling["half_width"] > workload.MARGIN:
            problems.append(
                f"half-width {sampling['half_width']} above the margin"
            )
        if seed == DEFAULT_SEED:
            drawn = entry["seed_sampling"]
            if sorted(simulated) != drawn["indices"]:
                problems.append("simulated indices differ from the reference")
            for key in ("estimate", "low", "high"):
                if not math.isclose(sampling[key], drawn[key], rel_tol=1e-9):
                    problems.append(
                        f"{key} {sampling[key]} != reference {drawn[key]}"
                    )
        indices = simulated
    else:
        attempted = len(faults)
        indices = range(len(faults))
    failed = 0
    for index in indices:
        row = by_index.get(index)
        if row is None:
            problem = "no row"
        elif row["status"] != "ok":
            problem = f"status {row['status']}"
        elif row["label"] not in LABEL_CODES:
            problem = f"label {row['label']!r}"
        elif expected is not None and (
            LABEL_CODES[row["label"]] != expected[index]
        ):
            problem = (
                f"label {row['label']} != reference {expected[index]!r}"
            )
        else:
            continue
        failed += 1
        problems.append(f"fault {index}: {problem}")
    extra = set(by_index) - set(range(len(faults)))
    if extra:
        problems.append(f"rows for unknown faults {sorted(extra)[:5]}")
    return attempted, failed, problems


def record():
    """Recompute every reference with serial warm runs."""
    from repro.campaign import run_campaign
    from workloads import DEFAULT_SEED, WORKLOADS

    def serial_labels(inputs):
        result = run_campaign(inputs.factory, inputs.spec, warm_start=True)
        if len(result.runs) != len(inputs.spec.faults):
            raise RuntimeError(f"reference run failed: {result.errors}")
        return encode(run.label for run in result.runs)

    reference = {}
    for name, workload in WORKLOADS.items():
        inputs = workload.make(DEFAULT_SEED)
        print(f"{name}: {len(inputs.spec.faults)} faults", flush=True)
        if name == "pll-sweep":
            reference[name] = {"seed_labels": serial_labels(inputs)}
            continue
        reference[name] = {"labels": serial_labels(inputs)}
        if name == "digital-sampled":
            result = run_campaign(
                inputs.factory, inputs.spec, warm_start=True, sample=True,
                margin=workload.MARGIN, chunk=workload.CHUNK,
                strata="site-phase", sample_seed=DEFAULT_SEED,
            )
            summary = result.execution["sampling"]
            reference[name]["seed_sampling"] = {
                "indices": sorted(
                    inputs.spec.faults.index(run.fault) for run in result.runs
                ),
                "estimate": summary["estimate"],
                "low": summary["low"],
                "high": summary["high"],
            }
    with open(PATH, "w") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {PATH}")


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    record()

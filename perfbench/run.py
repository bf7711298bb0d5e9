"""Campaign benchmark: four workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload digital-sampled --seed 1 \\
        --seconds 20 --trace 0

Workloads (see ``workloads.py`` for why each is here): digital-sampled,
pll-sweep, cpu-parallel, digital-dist.  The library is imported from
``src/`` of the checkout; imports, a host calibration loop and a warm-up
campaign on an eighth of the faults run before any timed region.  Then
the benchmark repeats the campaign until ``--seconds`` have passed (at
least three times), each repetition in a forked child with its store in
a fresh directory, and reports the median of each metric.  Every
repetition checks its store against ``reference.json``; a missing,
errored or differing row counts as a failed run.

``--trace 0`` reports the end-to-end metrics of one campaign:

* ``wall_s``: first library call to the returned result;
* ``setup_s``: until fault runs can start (design, golden run and
  checkpoints, store and fault list, sampler plan; for the fleet also
  coordinator, submit and worker spawn);
* ``runs_per_s``: fault runs simulated / (``wall_s`` - ``setup_s``);
* ``cpu_s``: CPU seconds of the campaign process and its workers;
* ``peak_rss_mb``: the larger of its own and its largest worker's peak;
* ``store_mb``: databases and WAL files left on disk.

``--trace 1`` alternates untraced and traced repetitions (at least two
of each) and reports the per-layer metrics of the traced ones (spans
recorded by ``layers.py``), plus the tracing overhead.  The last line
of standard output is one JSON object: ``{"correct", "attempted",
"failed", "metrics"}``.  ``failed_frac`` is ``failed / attempted``
there; it is not a metric because it is 0 on a correct run.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import heapq
import json
import multiprocessing
import os
import platform
import random
import resource
import select
import shutil
import signal
import sys
import traceback
from statistics import median
from time import monotonic, perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: End-to-end metrics and their units.
END_TO_END = {
    "wall_s": "s", "setup_s": "s", "runs_per_s": "1/s", "cpu_s": "s",
    "peak_rss_mb": "MiB", "store_mb": "MiB",
}

#: Per-layer metrics and their units; see layers.layer_metrics.
PER_LAYER = {
    "campaign.runner.prepare_s": "s",
    "campaign.runner.self_s": "s",
    "campaign.runner.batches": "count",
    "campaign.runner.batch_size": "runs/batch",
    "campaign.runner.batched_runs": "count",
    "campaign.runner.peeled": "count",
    "campaign.runner.converged": "count",
    "campaign.runner.branch_snapshots": "count",
    "campaign.runner.scalar_runs": "count",
    "campaign.runner.run_ms_p50": "ms",
    "campaign.runner.run_ms_p90": "ms",
    "campaign.runner.run_ms_n": "count",
    "campaign.sampling.s": "s",
    "campaign.sampling.simulated": "count",
    "campaign.sampling.simulated_frac": "ratio",
    "campaign.sampling.chunks": "count",
    "campaign.compare.s": "s",
    "campaign.compare.calls": "count",
    "campaign.supervisor.wait_s": "s",
    "campaign.supervisor.parent_busy_frac": "ratio",
    "campaign.supervisor.worker_busy_frac": "ratio",
    "core.kernel.golden_s": "s",
    "core.kernel.fault_s": "s",
    "core.kernel.events": "count",
    "core.kernel.golden_events": "count",
    "core.kernel.events_per_s": "1/s",
    "core.snapshot.capture_s": "s",
    "core.snapshot.captures": "count",
    "core.snapshot.restore_s": "s",
    "core.snapshot.restores": "count",
    "core.snapshot.match_s": "s",
    "core.snapshot.matches": "count",
    "core.snapshot.match_hit_frac": "ratio",
    "core.ensemble.batch_s": "s",
    "core.ensemble.peel_frac": "ratio",
    "store.setup_s": "s",
    "store.write_s": "s",
    "store.commits": "count",
    "store.rows_per_commit": "rows/commit",
    "store.read_s": "s",
    "dist.setup_s": "s",
    "dist.wait_s": "s",
    "dist.ingest_s": "s",
    "dist.merge_s": "s",
    "dist.stream_s": "s",
    "dist.rows": "count",
    "dist.shards": "count",
    "dist.leases": "count",
    "dist.worker_busy_frac": "ratio",
    "dist.teardown_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_frac": "ratio",
    "trace.worker_dumps": "count",
}

#: Exact work counters: identical in every repetition of one seed.
COUNTER_KEYS = (
    "kernel_events", "golden_events", "fault_events", "batches",
    "batched_runs", "peeled", "converged", "scalar_runs",
    "branch_snapshots", "simulated", "chunks", "rows", "shards", "leases",
)
#: Per-layer counts that must repeat exactly too.
EXACT_LAYER_KEYS = (
    "core.snapshot.captures", "core.snapshot.restores",
    "core.snapshot.matches", "campaign.compare.calls", "dist.rows",
    "trace.worker_dumps",
)

#: Fewest rounds per run: untraced repetitions, or untraced + traced pairs.
MIN_ROUNDS = {0: 3, 1: 2}
#: A repetition that runs longer than this is killed and the run fails.
REP_TIMEOUT_S = 60.0
#: No repetition starts after this long, so a run ends within 180 s.
LAST_START_S = 100.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def calibrate():
    """Seconds of a fixed pure-Python heap loop (recorded, never used)."""
    rng = random.Random(0)
    heap = []
    start = perf_counter()
    for i in range(60_000):
        heapq.heappush(heap, (rng.random(), i))
    while heap:
        heapq.heappop(heap)
    return perf_counter() - start


def host_record():
    import numpy
    from repro.core import kernels

    return {
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": kernels.USE_NUMBA,
        "numba_status": kernels.NUMBA_STATUS,
        "calibration_s": round(min(calibrate() for _ in range(3)), 6),
    }


def cpu_seconds():
    """CPU seconds of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_utime + own.ru_stime
            + children.ru_utime + children.ru_stime)


def store_bytes(directory):
    """Bytes of every database and WAL file under ``directory``."""
    total = 0
    for base, _dirs, files in os.walk(directory):
        for name in files:
            if name.endswith((".db", ".db-wal")):
                total += os.path.getsize(os.path.join(base, name))
    return total


def counters_of(execution, rows, shard_rows):
    batch = execution.get("batch") or {}
    sampling = execution.get("sampling") or {}
    counters = {
        "kernel_events": execution.get("kernel_events"),
        "golden_events": execution.get("golden_events"),
        "fault_events": execution.get("fault_events"),
        "simulated": sampling.get("simulated"),
        "chunks": sampling.get("chunks"),
        "rows": len(rows),
        "shards": len(shard_rows),
        "leases": sum(row["leases"] or 0 for row in shard_rows),
    }
    for key in ("batches", "batched_runs", "peeled", "converged",
                "scalar_runs", "branch_snapshots"):
        counters[key] = batch.get(key)
    return {key: counters[key] for key in COUNTER_KEYS
            if counters[key] is not None}


def campaign_rep(workload, inputs, seed, expected, workdir, traced):
    """One timed campaign plus its checks; runs in a forked child."""
    import layers
    from reference import check
    from repro.store import CampaignStore

    os.makedirs(workdir)
    span_dir = os.path.join(workdir, "spans")
    os.makedirs(span_dir)
    recorder = layers.RECORDER
    if traced:
        layers.install(span_dir)
    else:
        layers.install_setup_marker()
    recorder.reset()
    recorder.setup_end = None
    gc.collect()

    cpu_start = cpu_seconds()
    start = perf_counter()
    outcome = workload.execute(inputs, workdir)
    finished = perf_counter()
    cpu_s = cpu_seconds() - cpu_start
    # The checks below call wrapped store methods: keep them out.
    spans, counts = list(recorder.spans), dict(recorder.counts)

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    end = outcome.result_end or finished
    wall_s = end - start
    setup_s = (outcome.setup_end or recorder.setup_end) - start
    with CampaignStore(outcome.store_path) as store:
        rows = store.run_rows(store.campaign_id(inputs.spec.name))
        shard_rows = store.shard_rows(inputs.spec.name)
    attempted, failed, problems = check(
        expected, workload, seed, inputs, outcome.execution, rows
    )
    rep = {
        "metrics": {
            "wall_s": wall_s,
            "setup_s": setup_s,
            "runs_per_s": outcome.simulated / (wall_s - setup_s),
            "cpu_s": cpu_s,
            "peak_rss_mb": max(own, children) / 1024.0,
            "store_mb": store_bytes(workdir) / 2**20,
        },
        "teardown_s": finished - end,
        "simulated": outcome.simulated,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "counters": counters_of(outcome.execution, rows, shard_rows),
        "phases": outcome.execution.get("phases"),
    }
    if traced:
        workers = recorder.worker_dumps()
        rep["layers"] = layers.layer_metrics(
            spans, counts, recorder.main_thread, workers, wall_s, setup_s,
            outcome.execution, rows, shard_rows, len(inputs.spec.faults),
        )
        rep["layers"]["dist.teardown_s"] = rep["teardown_s"]
        rep["layer_self_s"] = layers.layer_self_times(spans, workers)
    return rep


def forked(fn):
    """Run ``fn()`` in a forked child; return its JSON-able result.

    The child leads its own process group, so a repetition that
    outlives :data:`REP_TIMEOUT_S` is killed with every worker it
    forked.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.setpgid(0, 0)
        os.close(read_fd)
        code = 0
        try:
            payload = fn()
        except BaseException:
            payload = {"error": traceback.format_exc()}
            code = 1
        try:
            for child in multiprocessing.active_children():
                child.kill()
                child.join()
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(json.dumps(payload).encode())
        finally:
            os._exit(code)
    os.close(write_fd)
    chunks = []
    deadline = monotonic() + REP_TIMEOUT_S
    try:
        while True:
            remaining = deadline - monotonic()
            if remaining <= 0:
                raise TimeoutError(
                    f"repetition exceeded {REP_TIMEOUT_S:.0f} s"
                )
            ready, _, _ = select.select([read_fd], [], [], remaining)
            if ready:
                chunk = os.read(read_fd, 1 << 16)
                if not chunk:
                    break
                chunks.append(chunk)
    except TimeoutError as exc:
        os.killpg(pid, signal.SIGKILL)
        return {"error": str(exc)}
    finally:
        os.close(read_fd)
        os.waitpid(pid, 0)
    if not chunks:
        return {"error": "repetition died without a result"}
    return json.loads(b"".join(chunks))


def shrunk(inputs):
    """The first eighth of the faults: the warm-up campaign."""
    faults = inputs.spec.faults[: max(8, len(inputs.spec.faults) // 8)]
    return dataclasses.replace(
        inputs, spec=dataclasses.replace(inputs.spec, faults=faults)
    )


def report_line(name, unit, values):
    spread = " ".join(f"{value:.6g}" for value in values)
    print(f"  {name:<38} {median(values):>14.6g} {unit:<11} [{spread}]")


def main(argv=None):
    args = parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the library from src/: {exc}",
              file=sys.stderr)
        return 2
    if not os.path.abspath(repro.__file__).startswith(
        os.path.join(ROOT, "src") + os.sep
    ):
        print(f"perfbench: imported {repro.__file__}, not this checkout's "
              "src/", file=sys.stderr)
        return 2
    import reference
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    run_start = monotonic()
    host = host_record()
    expected = reference.load()
    inputs = workload.make(args.seed)
    work = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(work)
    try:
        return measure(args, workload, inputs, expected, host, work,
                       run_start)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run still uses it


def measure(args, workload, inputs, expected, host, work, run_start):
    print(f"perfbench {workload.NAME} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}: "
          f"{len(inputs.spec.faults)} faults")
    print(f"  why: {workload.WHY}")
    print(f"  host: {json.dumps(host, sort_keys=True)}")

    warm_dir = os.path.join(work, "warmup")
    os.makedirs(warm_dir)
    workload.execute(shrunk(inputs), warm_dir)
    gc.collect()

    plain, traced = [], []
    errors = []
    measure_start = monotonic()
    kinds = [False, True] if args.trace else [False]
    index = 0
    while True:
        for kind in kinds:
            index += 1
            rep = forked(lambda kind=kind, index=index: campaign_rep(
                workload, inputs, args.seed, expected,
                os.path.join(work, f"rep{index}"), kind,
            ))
            if "error" in rep:
                errors.append(rep["error"])
            else:
                (traced if kind else plain).append(rep)
        done = monotonic() - measure_start
        rounds = index // len(kinds)
        if errors or monotonic() - run_start > LAST_START_S:
            break
        if rounds >= MIN_ROUNDS[args.trace]:
            # Stop rather than overrun by more than half a round.
            if done + 0.5 * done / rounds > args.seconds:
                break

    reps = plain + traced
    # A repetition that died attempted every fault and completed none.
    lost = len(errors) * len(inputs.spec.faults)
    attempted = sum(rep["attempted"] for rep in reps) + lost
    failed = sum(rep["failed"] for rep in reps) + lost
    problems = [p for rep in reps for p in rep["problems"]]
    for error in errors:
        print(error, file=sys.stderr)
    drift = [
        key for key in COUNTER_KEYS
        if len({json.dumps(rep["counters"].get(key)) for rep in reps}) > 1
    ]
    if traced:
        drift += [
            key for key in EXACT_LAYER_KEYS
            if len({rep["layers"][key] for rep in traced}) > 1
        ]

    print(f"  repetitions: {len(plain)} untraced"
          + (f", {len(traced)} traced" if args.trace else "")
          + f" in {monotonic() - measure_start:.1f} s")
    print("  end-to-end (median, unit, per repetition):")
    for name, unit in END_TO_END.items():
        values = [rep["metrics"][name] for rep in plain]
        if values:
            report_line(name, unit, values)
    print(f"  failed_frac {failed / attempted:.6g} ({failed} of {attempted} "
          f"attempted runs; {reps[0]['simulated'] if reps else 0} "
          "simulated per repetition)")
    for problem in problems[:20]:
        print(f"  problem: {problem}")
    if reps:
        print(f"  counters: {json.dumps(reps[0]['counters'])}")
    print("  counters exact across repetitions: "
          + ("yes" if not drift else f"NO, drifting: {', '.join(drift)}"))
    for key in drift:
        values = [rep["counters"].get(key) for rep in reps] if (
            key in COUNTER_KEYS
        ) else [rep["layers"][key] for rep in traced]
        print(f"    {key}: {values}")
    if plain:
        print(f"  runner phases (execution['phases']): "
              f"{json.dumps(plain[0]['phases'])}")
        print("  worker teardown after the result (s): " + " ".join(
            f"{rep['teardown_s']:.3g}" for rep in plain
        ))

    correct = not problems and not errors and failed == 0 and bool(plain)
    if args.trace:
        metrics = traced_metrics(plain, traced)
    else:
        metrics = {
            name: {"value": median([rep["metrics"][name] for rep in plain]),
                   "unit": unit}
            for name, unit in END_TO_END.items()
        } if plain else {}
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return 0


def traced_metrics(plain, traced):
    """Medians of the traced repetitions, and the attribution report."""
    if not traced or not plain:
        return {}
    metrics = {}
    print("  per-layer (median over traced repetitions):")
    for name, unit in PER_LAYER.items():
        if name == "trace.overhead_frac":
            value = (
                median([rep["metrics"]["wall_s"] for rep in traced])
                / median([rep["metrics"]["wall_s"] for rep in plain]) - 1.0
            )
            values = [value]
        else:
            values = [rep["layers"][name] for rep in traced]
        report_line(name, unit, values)
        metrics[name] = {"value": median(values), "unit": unit}
    rep = traced[len(traced) // 2]
    wall = rep["metrics"]["wall_s"]
    phases = rep["phases"]
    print(f"  attribution of one traced repetition, wall {wall:.4f} s:")
    if phases:
        print(f"    runner phases cover {sum(phases.values()):.4f} s "
              f"({sum(phases.values()) / wall:.1%} of wall): "
              f"{json.dumps(phases)}")
    else:
        print("    runner phases: not in this execution record")
    self_s = rep["layer_self_s"]
    print("    traced layers' self time, all processes: " + ", ".join(
        f"{layer} {value:.4f}" for layer, value in self_s.items()
    ))
    print(f"    unattributed on the campaign thread: "
          f"{rep['layers']['trace.unattributed_frac']:.1%} of wall")
    return metrics


if __name__ == "__main__":
    sys.exit(main())

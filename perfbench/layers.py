"""Per-layer spans, recorded by wrapping the library's public calls.

Nothing under ``src/`` changes.  :func:`install` replaces a few dozen
methods on their classes with wrappers that record one span per call:
a name ``"<layer>:<call>"``, its start, its duration, its self time
(duration minus its child spans) and a link to its parent span.  Only
calls made at most a few thousand times per campaign are wrapped -- no
per-event or per-step wrapper exists.  Spans stay in memory; forked
workers (fork pool and loopback fleet) write theirs to a file when they
exit, and the benchmark reads those files after the campaign.

Layers are named after the library modules they wrap.
"""

from __future__ import annotations

import functools
import itertools
import json
import multiprocessing.util
import os
import threading
from collections import defaultdict
from time import perf_counter

from repro import dist
from repro.campaign import runner as runner_module
from repro.campaign.runner import CampaignRunner
from repro.campaign.sampling import StratifiedSampler
from repro.campaign.supervisor import WorkerSupervisor
from repro.core.ensemble import Ensemble
from repro.core.kernel import Simulator
from repro.core.snapshot import Snapshot
from repro.dist.worker import RowStreamStore
from repro.injection.controller import InjectionController
from repro.store import CampaignStore, ShardedCampaignStore

#: Entry points of fault execution: their first call ends set-up.
FAULT_ENTRY = (
    (CampaignRunner, "run_batch_digital"),
    (CampaignRunner, "run_batch_warm"),
    (CampaignRunner, "run_fault_warm"),
)

#: ``(owner, attribute, span name)`` of every plain wrapped call.
SPANNED = [
    (CampaignRunner, "run", "campaign.runner:run"),
    (CampaignRunner, "prepare_warm", "campaign.runner:prepare_warm"),
    (CampaignRunner, "run_batch_digital", "campaign.runner:run_batch_digital"),
    (CampaignRunner, "run_batch_warm", "campaign.runner:run_batch_warm"),
    (CampaignRunner, "run_fault_warm", "campaign.runner:run_fault_warm"),
    (runner_module, "compare_probe_sets",
     "campaign.compare:compare_probe_sets"),
    (runner_module, "classify", "campaign.compare:classify"),
    (Simulator, "snapshot", "core.snapshot:capture"),
    (Simulator, "restore", "core.snapshot:restore"),
    (CampaignStore, "__init__", "store.setup:open"),
    (CampaignStore, "open_campaign", "store.setup:open_campaign"),
    (CampaignStore, "check_golden", "store.setup:check_golden"),
    (CampaignStore, "record_sampling", "store.setup:record_sampling"),
    (CampaignStore, "run_rows", "store.read:run_rows"),
    (CampaignStore, "load_result", "store.read:load_result"),
    (dist.Coordinator, "__init__", "dist.setup:Coordinator"),
    (dist.Coordinator, "submit", "dist.setup:submit"),
    (dist.Coordinator, "start", "dist.setup:start"),
    (dist, "spawn_local_workers", "dist.setup:spawn_local_workers"),
    (dist.Coordinator, "wait", "dist.wait:wait"),
    (dist.Coordinator, "stop", "dist.wait:stop"),
    (ShardedCampaignStore, "ingest_row", "dist.ingest:ingest_row"),
    (ShardedCampaignStore, "merge_into", "dist.merge:merge_into"),
]
for _name in ("__init__", "next_chunk", "finish_chunk", "record",
              "stratum_of", "pooled", "summary", "skipped_indices"):
    SPANNED.append(
        (StratifiedSampler, _name, f"campaign.sampling:{_name}")
    )
#: Store writes; each commits once.  The value counts run rows.
STORE_WRITES = {
    "record_run": lambda args: 1,
    "record_runs": lambda args: len(args[2]),
    "record_error": lambda args: 1,
    "record_skipped": lambda args: len(args[2]),
    "record_row": lambda args: 1,
    "record_shard": lambda args: 0,
    "record_worker": lambda args: 0,
    "record_execution": lambda args: 0,
    "record_journal": lambda args: 0,
    "record_golden_digests": lambda args: 0,
}
for _name in STORE_WRITES:
    SPANNED.append((CampaignStore, _name, f"store.write:{_name}"))
for _name in ("record_run", "record_runs", "record_error"):
    SPANNED.append((RowStreamStore, _name, f"dist.stream:{_name}"))


class Recorder:
    """Spans and counts of one campaign, in one process."""

    def __init__(self):
        self.setup_end = None
        self.reset()

    def reset(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.injected = False
        self.pid = os.getpid()
        self.main_thread = threading.get_ident()
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs):
        stack = self._stack()
        frame = [next(self._ids), 0.0]
        parent = stack[-1][0] if stack else 0
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][1] += duration
            self.spans.append((
                frame[0], parent, name, start, duration,
                duration - frame[1], threading.get_ident(),
            ))

    # -- forked workers ------------------------------------------------------

    def follow_forks(self, directory):
        """Make every multiprocessing child dump its spans on exit."""
        self._dump_dir = directory
        multiprocessing.util.register_after_fork(self, Recorder._forked)

    def _forked(self):
        self.reset()
        multiprocessing.util.Finalize(None, self._dump, exitpriority=100)

    def _dump(self):
        path = os.path.join(self._dump_dir, f"spans-{self.pid}.json")
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "counts": self.counts}, handle)

    def worker_dumps(self):
        dumps = []
        for entry in sorted(os.listdir(self._dump_dir)):
            if entry.startswith("spans-"):
                with open(os.path.join(self._dump_dir, entry)) as handle:
                    dumps.append(json.load(handle))
        return dumps


RECORDER = Recorder()


def _replace(owner, attr, make_wrapper):
    original = owner.__dict__[attr] if isinstance(owner, type) else getattr(
        owner, attr
    )
    wrapper = functools.wraps(original)(make_wrapper(original))
    setattr(owner, attr, wrapper)


def _setup_marker(fn):
    def wrapper(*args, **kwargs):
        if RECORDER.setup_end is None:
            RECORDER.setup_end = perf_counter()
        return fn(*args, **kwargs)
    return wrapper


def install_setup_marker():
    """Stamp the end of set-up at the first fault-execution call.

    The only wrappers of an untraced run: one comparison per call.
    """
    for owner, attr in FAULT_ENTRY:
        _replace(owner, attr, _setup_marker)
    _replace(WorkerSupervisor, "outcomes", _setup_marker)


def install(directory):
    """Wrap every layer boundary; forked workers dump to ``directory``."""
    rec = RECORDER
    rec.follow_forks(directory)

    def spanned(name):
        def make(fn):
            def wrapper(*args, **kwargs):
                return rec.call(name, fn, args, kwargs)
            return wrapper
        return make

    for owner, attr, name in SPANNED:
        _replace(owner, attr, spanned(name))

    def store_write(attr):
        rows_of = STORE_WRITES[attr]

        def make(fn):
            def wrapper(*args, **kwargs):
                rec.counts["store.commits"] += 1
                rec.counts["store.rows"] += rows_of(args)
                return fn(*args, **kwargs)
            return wrapper
        return make

    for attr in STORE_WRITES:
        _replace(CampaignStore, attr, store_write(attr))

    def kernel_run(fn):
        # Golden unless a fault was applied since the last restore.
        def wrapper(*args, **kwargs):
            name = "core.kernel:" + ("fault" if rec.injected else "golden")
            return rec.call(name, fn, args, kwargs)
        return wrapper

    _replace(Simulator, "run", kernel_run)

    def marks_injected(fn):
        def wrapper(*args, **kwargs):
            rec.injected = True
            return fn(*args, **kwargs)
        return wrapper

    _replace(InjectionController, "apply", marks_injected)
    _replace(Ensemble, "attach", marks_injected)

    def clears_injected(fn):
        def wrapper(*args, **kwargs):
            rec.injected = False
            return fn(*args, **kwargs)
        return wrapper

    # Wrapped after their spans, so the flag flips before timing starts.
    _replace(Simulator, "restore", clears_injected)
    _replace(CampaignRunner, "prepare_warm", clears_injected)

    def matches_live(fn):
        def wrapper(*args, **kwargs):
            hit = rec.call("core.snapshot:match", fn, args, kwargs)
            rec.counts["core.snapshot.match_hits"] += bool(hit)
            return hit
        return wrapper

    _replace(Snapshot, "matches_live", matches_live)

    def batch(fn):
        # Batch statistics per process: distributed executions lose them.
        def wrapper(*args, **kwargs):
            completed, leftovers, info = fn(*args, **kwargs)
            rec.counts["batch.batches"] += 1
            rec.counts["batch.batched_runs"] += len(completed)
            for key in ("peeled", "converged", "branch_snapshots"):
                rec.counts[f"batch.{key}"] += info.get(key, 0)
            return completed, leftovers, info
        return wrapper

    _replace(CampaignRunner, "run_batch_digital", batch)
    _replace(CampaignRunner, "run_batch_warm", batch)

    def outcomes(fn):
        # A generator: the parent blocks in each next() call.
        def wrapper(*args, **kwargs):
            stream = fn(*args, **kwargs)
            try:
                while True:
                    try:
                        outcome = rec.call(
                            "campaign.supervisor:next", next, (stream,), {}
                        )
                    except StopIteration:
                        return
                    yield outcome
            finally:
                stream.close()
        return wrapper

    _replace(WorkerSupervisor, "outcomes", outcomes)
    install_setup_marker()


# -- per-layer metrics --------------------------------------------------------


def _sum(spans, prefix, field):
    return sum(span[field] for span in spans if span[2].startswith(prefix))


def _count(spans, prefix):
    return sum(1 for span in spans if span[2].startswith(prefix))


#: Fields of a span tuple: (id, parent id, name, start, duration,
#: self time, thread).
DURATION, SELF, THREAD = 4, 5, 6


def layer_metrics(own_spans, own_counts, main_thread, workers, wall_s,
                  setup_s, execution, rows, shard_rows, population):
    """Every per-layer metric of one traced campaign.

    ``own_spans``/``own_counts`` were recorded in the campaign process,
    whose calling thread is ``main_thread``; ``workers`` are the span
    dumps of its forked workers; ``rows`` the store's run rows.  Times
    sum over every process that ran the layer.
    """
    spans = list(own_spans)
    counts = defaultdict(int, own_counts)
    for dump in workers:
        spans.extend(tuple(span) for span in dump["spans"])
        for key, value in dump["counts"].items():
            counts[key] += value
    sampling = execution.get("sampling") or {}
    walls = sorted(
        row["wall_s"] for row in rows
        if row["status"] == "ok" and row["wall_s"] is not None
    )
    execute_s = max(wall_s - setup_s, 1e-9)
    golden_s = _sum(spans, "core.kernel:golden", DURATION)
    fault_s = _sum(spans, "core.kernel:fault", DURATION)
    events = execution.get("kernel_events", 0)
    matches = _count(spans, "core.snapshot:match")
    batches = counts["batch.batches"]
    batched = counts["batch.batched_runs"]
    peeled = counts["batch.peeled"]
    commits = counts["store.commits"]
    compare_s = _sum(spans, "campaign.compare:", DURATION)
    main = [span for span in own_spans if span[THREAD] == main_thread]
    parent_busy = _sum(main, "store.write:", DURATION) + _sum(
        main, "campaign.compare:", DURATION
    )
    main_self = sum(span[SELF] for span in main)
    runner_self = sum(
        span[SELF] for span in spans
        if span[2] in (
            "campaign.runner:run", "campaign.runner:run_batch_digital",
            "campaign.runner:run_batch_warm", "campaign.runner:run_fault_warm",
        )
    )
    distributed = execution.get("mode", "").endswith("distributed")
    pool = execution.get("workers", 1) > 1 and not distributed
    worker_busy = sum(walls) / (execution.get("workers", 1) * execute_s)
    metrics = {
        "campaign.runner.prepare_s": _sum(
            spans, "campaign.runner:prepare_warm", DURATION
        ),
        "campaign.runner.self_s": runner_self,
        "campaign.runner.batches": batches,
        "campaign.runner.batch_size": batched / batches if batches else 0.0,
        "campaign.runner.batched_runs": batched,
        "campaign.runner.peeled": peeled,
        "campaign.runner.converged": counts["batch.converged"],
        "campaign.runner.branch_snapshots": counts["batch.branch_snapshots"],
        "campaign.runner.scalar_runs": _count(
            spans, "campaign.runner:run_fault_warm"
        ),
        "campaign.runner.run_ms_p50": 1e3 * _percentile(walls, 0.5),
        "campaign.runner.run_ms_p90": 1e3 * _percentile(walls, 0.9),
        "campaign.runner.run_ms_n": len(walls),
        "campaign.sampling.s": _sum(spans, "campaign.sampling:", SELF),
        "campaign.sampling.simulated": sampling.get("simulated", 0),
        "campaign.sampling.simulated_frac": sampling.get("simulated", 0)
        / population if sampling else 0.0,
        "campaign.sampling.chunks": sampling.get("chunks", 0),
        "campaign.compare.s": compare_s,
        "campaign.compare.calls": _count(spans, "campaign.compare:"),
        "campaign.supervisor.wait_s": _sum(
            spans, "campaign.supervisor:", DURATION
        ),
        "campaign.supervisor.parent_busy_frac": (
            parent_busy / execute_s if pool else 0.0
        ),
        "campaign.supervisor.worker_busy_frac": worker_busy if pool else 0.0,
        "core.kernel.golden_s": golden_s,
        "core.kernel.fault_s": fault_s,
        "core.kernel.events": events,
        "core.kernel.golden_events": execution.get("golden_events", 0),
        "core.kernel.events_per_s": events / (golden_s + fault_s)
        if golden_s + fault_s > 0 else 0.0,
        "core.snapshot.capture_s": _sum(
            spans, "core.snapshot:capture", DURATION
        ),
        "core.snapshot.captures": _count(spans, "core.snapshot:capture"),
        "core.snapshot.restore_s": _sum(
            spans, "core.snapshot:restore", DURATION
        ),
        "core.snapshot.restores": _count(spans, "core.snapshot:restore"),
        "core.snapshot.match_s": _sum(spans, "core.snapshot:match", DURATION),
        "core.snapshot.matches": matches,
        "core.snapshot.match_hit_frac": counts["core.snapshot.match_hits"]
        / matches if matches else 0.0,
        "core.ensemble.batch_s": _sum(
            spans, "campaign.runner:run_batch_warm", DURATION
        ),
        "core.ensemble.peel_frac": peeled / (batched + peeled)
        if _count(spans, "campaign.runner:run_batch_warm") else 0.0,
        "store.setup_s": _sum(spans, "store.setup:", DURATION),
        "store.write_s": _sum(spans, "store.write:", DURATION),
        "store.commits": commits,
        "store.rows_per_commit": counts["store.rows"] / commits
        if commits else 0.0,
        "store.read_s": _sum(spans, "store.read:", DURATION),
        "dist.setup_s": _sum(spans, "dist.setup:", DURATION),
        "dist.wait_s": _sum(spans, "dist.wait:", SELF),
        "dist.ingest_s": _sum(spans, "dist.ingest:", DURATION),
        "dist.merge_s": _sum(spans, "dist.merge:", DURATION),
        "dist.stream_s": _sum(spans, "dist.stream:", DURATION),
        "dist.rows": _count(spans, "dist.ingest:"),
        "dist.shards": len(shard_rows),
        "dist.leases": sum(row["leases"] or 0 for row in shard_rows),
        "dist.worker_busy_frac": worker_busy if distributed else 0.0,
        "trace.unattributed_frac": max(0.0, 1.0 - main_self / wall_s),
        "trace.worker_dumps": len(workers),
    }
    return metrics


def layer_self_times(own_spans, workers):
    """Self seconds per layer over every process (for the report)."""
    totals = defaultdict(float)
    spans = list(own_spans)
    for dump in workers:
        spans.extend(tuple(span) for span in dump["spans"])
    for span in spans:
        totals[span[2].split(":")[0]] += span[SELF]
    return dict(sorted(totals.items()))


def _percentile(values, q):
    if not values:
        return 0.0
    position = q * (len(values) - 1)
    low = int(position)
    high = min(low + 1, len(values) - 1)
    return values[low] + (values[high] - values[low]) * (position - low)

"""The coordinator's durable job ledger (append-only JSONL).

PR 8's coordinator kept every job, lease and merge cursor in memory:
one SIGKILL lost the campaign even though every *row* was already
crash-durable in the per-shard databases.  The ledger closes that gap
with the same flush-per-line idiom as :mod:`repro.obs.journal` — one
JSON object per line, written and fsynced before the state change it
describes is acted on, so a coordinator restarted with
``campaign serve --resume`` can rebuild its world:

* ``job_submitted`` carries the full spec (plus netlist/config and the
  shard size), so the deterministic shard planner re-plans the *same*
  shards;
* ``shard_merged`` marks shards whose rows already live in the final
  store — re-adopted idempotently, never re-run;
* ``lease_granted`` / ``lease_revoked`` reconstruct the per-shard
  lease counts so a poisoned shard cannot dodge its ``--max-leases``
  ceiling by crashing the coordinator;
* ``job_finished`` marks jobs that need nothing at all.

Ledger records are *control-plane* events only — run rows never pass
through it, so it stays tiny (a handful of lines per shard) and the
fsync per record costs nothing measurable against a campaign.
"""

from __future__ import annotations

import json
import os

from ..core.errors import ReproError

#: Version of the ledger record schema, stamped on every line.
LEDGER_SCHEMA_VERSION = 1

#: The record kinds a coordinator appends, in rough lifecycle order.
RECORD_KINDS = (
    "job_submitted",    # job, name, spec, netlist, config, shard_size,
                        # shards, sampling (None for exhaustive jobs)
    "lease_granted",    # job, shard, worker, token, count
    "lease_revoked",    # job, shard, reason
    "shard_merged",     # job, shard, rows
    "shard_failed",     # job, shard
    "stop_sampling",    # job, reason, revoked (sampling early stop)
    "job_finished",     # job, state
    "resumed",          # jobs, adopted, requeued
)


class LedgerError(ReproError):
    """Raised for invalid ledger usage or unreadable ledger files."""


class CoordinatorLedger:
    """Append-only, fsync-per-record coordinator event log.

    Construct with ``path=None`` for a disabled (no-op) ledger — the
    in-process ``run_distributed`` path, where durability across
    coordinator restarts is meaningless.
    """

    def __init__(self, path=None):
        self.path = None if path is None else str(path)
        self.enabled = self.path is not None
        self._handle = None
        self._seq = 0

    def _open(self):
        if self._handle is None:
            self._handle = open(self.path, "a", buffering=1)
        return self._handle

    def record(self, kind, **fields):
        """Append one record and force it to disk before returning.

        :raises LedgerError: for kinds outside :data:`RECORD_KINDS`
            (schema drift dies at the write site, not during a resume
            months later).
        """
        if not self.enabled:
            return
        if kind not in RECORD_KINDS:
            raise LedgerError(
                f"unknown ledger record kind {kind!r};"
                f" expected one of {RECORD_KINDS}"
            )
        record = {"v": LEDGER_SCHEMA_VERSION, "seq": self._seq, "rec": kind}
        record.update(fields)
        self._seq += 1
        handle = self._open()
        handle.write(json.dumps(record, default=str) + "\n")
        handle.flush()
        os.fsync(handle.fileno())

    def close(self):
        """Close the sink (idempotent); the ledger stays enabled."""
        if self._handle is not None:
            try:
                self._handle.close()
            finally:
                self._handle = None


def read_ledger(path):
    """Yield parsed records from a ledger file, oldest first.

    Tolerates the one artifact a crash can leave: a truncated final
    line is skipped.  A malformed line *followed by* complete records
    means the file is not a ledger — that raises.

    :raises LedgerError: on malformed non-final lines or a missing
        file.
    """
    try:
        handle = open(path)
    except OSError as exc:
        raise LedgerError(f"cannot read ledger {path}: {exc}") from exc
    with handle:
        pending_error = None
        for line in handle:
            if pending_error is not None:
                raise LedgerError(pending_error)
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError:
                pending_error = (
                    f"malformed ledger line in {path}: {line[:80]!r}"
                )


class LedgerJob:
    """One job's replayed state: what the ledger proves happened."""

    def __init__(self, record):
        self.job_id = int(record["job"])
        self.name = record.get("name")
        self.spec = record["spec"]
        self.netlist = record.get("netlist")
        self.config = record.get("config") or {}
        self.shard_size = int(record["shard_size"])
        self.sampling = record.get("sampling")
        self.merged = set()
        self.failed = set()
        self.lease_counts = {}
        self.live_leases = {}     # shard_id -> grants not yet revoked
        self.finished = None      # terminal state string, or None


def replay_ledger(path):
    """Fold a ledger file into per-job state, keyed by job id.

    Returns ``{job_id: LedgerJob}``.  Leases that were granted but
    neither revoked nor merged when the coordinator died are *live at
    crash*: they are subtracted from the replayed lease counts, so a
    shard interrupted by a coordinator crash is not charged a strike
    toward its ``max_leases`` ceiling.

    :raises LedgerError: on unreadable or malformed ledgers.
    """
    jobs = {}
    for record in read_ledger(path):
        kind = record.get("rec")
        if kind == "job_submitted":
            try:
                job = LedgerJob(record)
            except (KeyError, TypeError, ValueError) as exc:
                raise LedgerError(
                    f"malformed job_submitted record in {path}: {exc}"
                ) from exc
            jobs[job.job_id] = job
            continue
        if kind == "resumed" or "job" not in record:
            continue
        job = jobs.get(int(record["job"]))
        if job is None:
            continue  # a record for a job submitted before log rotation
        shard = record.get("shard")
        shard = None if shard is None else int(shard)
        if kind == "lease_granted":
            job.lease_counts[shard] = max(
                job.lease_counts.get(shard, 0), int(record.get("count", 1))
            )
            job.live_leases[shard] = job.live_leases.get(shard, 0) + 1
        elif kind == "lease_revoked":
            if job.live_leases.get(shard):
                job.live_leases[shard] -= 1
        elif kind == "shard_merged":
            job.merged.add(shard)
            job.live_leases.pop(shard, None)
        elif kind == "shard_failed":
            job.failed.add(shard)
        elif kind == "job_finished":
            job.finished = record.get("state", "complete")
    for job in jobs.values():
        for shard, live in job.live_leases.items():
            if live > 0 and shard not in job.merged:
                job.lease_counts[shard] = max(
                    0, job.lease_counts.get(shard, 0) - live
                )
    return jobs

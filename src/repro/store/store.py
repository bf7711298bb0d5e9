"""SQLite-backed persistent campaign results.

The campaign database is a first-class artifact of the flow — the
moral equivalent of DAVOS's fault-injection database: it records the
campaign specification, the full fault list, and one row per completed
faulty run (classification, per-trace comparison summaries, metrics,
timing, kernel-event counts).  Rows are committed as each run
completes (a batch's rows in one transaction), so a crashed or killed
campaign loses at most the run or batch in flight, and a later session
can

* **resume** — re-run only the faults without a successful row
  (:meth:`CampaignStore.pending_indices`), after verifying that the
  stored fault list and the regenerated golden traces match; and
* **query** — rebuild a full :class:`CampaignResult` *without
  re-simulating* (:meth:`CampaignStore.load_result`), from which the
  standard reports and fault dictionaries regenerate exactly.

Writes go through a **single writer** (the campaign parent process);
fork-parallel workers ship results back to the parent, which owns the
connection.  That keeps the store free of cross-process locking while
still recording parallel campaigns incrementally.

A run is stored as the row dict :mod:`repro.store.serialize` renders
and checks; this module only maps row dicts to columns, in one
``INSERT`` (:meth:`CampaignStore._write_runs`) and one reader
(:meth:`CampaignStore.run_rows`).
"""

from __future__ import annotations

import json
import sqlite3
from datetime import datetime, timezone

from ..core.errors import ReproError
from .backend import StoreBackend
from .serialize import (
    SerializationError,
    check_row,
    error_to_row,
    fault_key,
    fault_to_dict,
    faults_digest,
    probes_digest,
    result_to_row,
    row_to_error,
    row_to_result,
    skipped_to_row,
    spec_from_dict,
    spec_to_dict,
)

#: Schema version recorded in the ``meta`` table.
#:
#: * v1 — campaigns/faults/runs with binary ok/error run status.
#: * v2 — supervised execution: ``runs`` gains ``attempts`` and
#:   ``quarantined`` columns, and ``status`` may carry any of the
#:   terminal :data:`~repro.campaign.classify.RUN_STATUSES`
#:   (``timeout``/``diverged``/``crashed`` in addition to
#:   ``ok``/``error``).  v1 files migrate in place on open.
#: * v3 — telemetry: ``runs`` gains a ``postmortem`` column (path of
#:   the flight-recorder dump for a failed run), ``campaigns`` gains
#:   ``journal_path``/``journal_offset`` (where this campaign's event
#:   stream lives inside a possibly shared journal file), and a new
#:   ``workers`` table tracks supervised worker liveness (fed by
#:   heartbeats; surfaced by ``campaign status``/``campaign watch``).
#:   Older files migrate in place on open.
#: * v4 — distributed campaigns behind the store **backend
#:   interface** (:class:`~repro.store.backend.StoreBackend`):
#:   ``runs`` gains a ``shard_id`` column (which distributed shard
#:   produced the row; NULL for single-host campaigns), and a new
#:   ``shards`` table tracks shard lifecycle (lease count, worker,
#:   state) for campaigns executed by the :mod:`repro.dist`
#:   coordinator.  Older files migrate in place on open.
#: * v5 — adaptive sampling: ``campaigns`` gains
#:   ``sampling_seed``/``sampling_margin``/``sampling_confidence``/
#:   ``sampling_strata``/``sampling_chunk`` (the full deterministic
#:   sampling configuration, so ``--resume`` continues the same draw
#:   sequence), ``runs`` gains a ``stratum`` column, and ``status``
#:   may carry ``skipped`` — a fault an adaptively sampled campaign
#:   never simulated because its estimate converged first ("skipped
#:   by early stop", as opposed to "not sampled" = no row at all).
#:   Older files migrate in place on open.
#: * v6 — one durable record for distributed campaigns: a new ``jobs``
#:   table (store-assigned job id, campaign, netlist, execution config,
#:   shard size) replaces the coordinator's JSONL ledger, and
#:   streamed rows land in ``runs`` directly, tagged with their
#:   ``shard_id`` and *provisional* until that shard's ``shards`` row
#:   reads ``merged``.  Older files gain the table on open.
SCHEMA_VERSION = 6

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS campaigns (
    id             INTEGER PRIMARY KEY AUTOINCREMENT,
    name           TEXT UNIQUE NOT NULL,
    spec_json      TEXT NOT NULL,
    fault_digest   TEXT NOT NULL,
    golden_json    TEXT,
    execution_json TEXT,
    status         TEXT NOT NULL DEFAULT 'running',
    created_at     TEXT NOT NULL,
    updated_at     TEXT NOT NULL,
    sampling_seed       INTEGER,
    sampling_margin     REAL,
    sampling_confidence REAL,
    sampling_strata     TEXT,
    sampling_chunk      INTEGER
);
CREATE TABLE IF NOT EXISTS faults (
    campaign_id     INTEGER NOT NULL REFERENCES campaigns(id),
    idx             INTEGER NOT NULL,
    kind            TEXT NOT NULL,
    key             TEXT NOT NULL,
    description     TEXT NOT NULL,
    descriptor_json TEXT NOT NULL,
    PRIMARY KEY (campaign_id, idx)
);
CREATE TABLE IF NOT EXISTS runs (
    campaign_id         INTEGER NOT NULL REFERENCES campaigns(id),
    fault_idx           INTEGER NOT NULL,
    status              TEXT NOT NULL,
    label               TEXT,
    classification_json TEXT,
    comparisons_json    TEXT,
    metrics_json        TEXT,
    error               TEXT,
    wall_s              REAL,
    kernel_events       INTEGER,
    completed_at        TEXT NOT NULL,
    attempts            INTEGER,
    quarantined         INTEGER NOT NULL DEFAULT 0,
    postmortem          TEXT,
    shard_id            INTEGER,
    stratum             TEXT,
    PRIMARY KEY (campaign_id, fault_idx)
);
CREATE INDEX IF NOT EXISTS runs_by_label ON runs (campaign_id, label);
CREATE TABLE IF NOT EXISTS shards (
    campaign_id INTEGER NOT NULL REFERENCES campaigns(id),
    shard_id    INTEGER NOT NULL,
    state       TEXT NOT NULL,
    worker      TEXT,
    n_faults    INTEGER,
    leases      INTEGER NOT NULL DEFAULT 0,
    updated_at  TEXT NOT NULL,
    PRIMARY KEY (campaign_id, shard_id)
);
CREATE TABLE IF NOT EXISTS jobs (
    id           INTEGER PRIMARY KEY AUTOINCREMENT,
    campaign_id  INTEGER NOT NULL REFERENCES campaigns(id),
    netlist_json TEXT,
    config_json  TEXT,
    shard_size   INTEGER NOT NULL,
    created_at   TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS workers (
    campaign_id INTEGER NOT NULL REFERENCES campaigns(id),
    pid         INTEGER NOT NULL,
    state       TEXT NOT NULL,
    fault_idx   INTEGER,
    phase       TEXT,
    exitcode    INTEGER,
    spawned_at  TEXT NOT NULL,
    updated_at  TEXT NOT NULL,
    PRIMARY KEY (campaign_id, pid)
);
"""


class StoreError(ReproError):
    """Raised for campaign-store consistency or usage errors."""


def _now():
    return datetime.now(timezone.utc).isoformat()


def _dumps(value):
    """A row-dict mapping as its JSON column (None stays NULL)."""
    return None if value is None else json.dumps(value, default=str)


def _loads(text):
    """Inverse of :func:`_dumps`."""
    return None if text is None else json.loads(text)


def _rebuild(rows, faults):
    """``({index: FaultResult}, [CampaignRunError])`` from run rows.

    ``faults`` supplies the fault instances; ``rows`` hold no
    ``skipped`` row (:meth:`CampaignStore.run_rows` with
    ``skipped=False``).

    :raises StoreError: for a row past the end of ``faults``.
    """
    runs, errors = {}, []
    for row in rows:
        index = row["idx"]
        if index >= len(faults):
            raise StoreError(f"run row for fault {index} exceeds fault list")
        if row["status"] == "ok":
            runs[index] = row_to_result(row, faults[index])
        else:
            errors.append(row_to_error(row, faults[index]))
    return runs, errors


class CampaignStore(StoreBackend):
    """One SQLite file holding any number of named campaigns.

    Usable as a context manager; :meth:`close` is idempotent.

    :param path: database file path (created on first open).  The
        special name ``":memory:"`` works for tests.
    """

    def __init__(self, path):
        self.path = str(path)
        # check_same_thread=False: the store itself is not thread-safe
        # (callers serialise access — the distributed coordinator opens
        # the final store at submit time and writes from its event-loop
        # thread under a lock), but it must not be thread-*pinned*.
        self._conn = sqlite3.connect(self.path, check_same_thread=False)
        self._conn.row_factory = sqlite3.Row
        # WAL lets readers (``campaign watch``/``status``) poll while
        # a writer streams rows — no more transient ``database is
        # locked`` during a live campaign — and the busy timeout makes
        # the residual write/write contention wait instead of raising.
        # Both pragmas are best-effort: ``:memory:`` databases and
        # filesystems without shared-memory support simply keep the
        # default journal mode.
        try:
            self._conn.execute("PRAGMA journal_mode=WAL")
        except sqlite3.Error:
            pass
        # Every commit reaches the disk before it returns, whatever
        # default SQLite was built with: the distributed coordinator's
        # crash recovery rests on these commits alone.
        self._conn.execute("PRAGMA synchronous=FULL")
        self._conn.execute("PRAGMA busy_timeout=5000")
        self._conn.executescript(_SCHEMA)
        self._migrate()
        self._conn.execute(
            "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
            ("schema_version", str(SCHEMA_VERSION)),
        )
        self._conn.commit()

    def _migrate(self):
        """Upgrade an older database in place (additive columns only).

        ``CREATE TABLE IF NOT EXISTS`` leaves existing tables
        untouched, so newer columns are added here; existing rows read
        back with the new columns NULL (``attempts`` NULL is treated
        as 1, ``quarantined`` defaults to 0), which is exactly what
        the older campaign meant.  The ``workers`` (v3), ``shards``
        (v4) and ``jobs`` (v6) tables are new and created by the
        schema script itself.
        """
        columns = {
            row["name"]
            for row in self._conn.execute("PRAGMA table_info(runs)")
        }
        if "attempts" not in columns:
            self._conn.execute("ALTER TABLE runs ADD COLUMN attempts INTEGER")
        if "quarantined" not in columns:
            self._conn.execute(
                "ALTER TABLE runs ADD COLUMN quarantined INTEGER"
                " NOT NULL DEFAULT 0"
            )
        if "postmortem" not in columns:
            self._conn.execute("ALTER TABLE runs ADD COLUMN postmortem TEXT")
        if "shard_id" not in columns:
            self._conn.execute("ALTER TABLE runs ADD COLUMN shard_id INTEGER")
        if "stratum" not in columns:
            self._conn.execute("ALTER TABLE runs ADD COLUMN stratum TEXT")
        campaign_columns = {
            row["name"]
            for row in self._conn.execute("PRAGMA table_info(campaigns)")
        }
        if "journal_path" not in campaign_columns:
            self._conn.execute(
                "ALTER TABLE campaigns ADD COLUMN journal_path TEXT"
            )
        if "journal_offset" not in campaign_columns:
            self._conn.execute(
                "ALTER TABLE campaigns ADD COLUMN journal_offset INTEGER"
            )
        if "sampling_seed" not in campaign_columns:
            self._conn.execute(
                "ALTER TABLE campaigns ADD COLUMN sampling_seed INTEGER"
            )
            self._conn.execute(
                "ALTER TABLE campaigns ADD COLUMN sampling_margin REAL"
            )
            self._conn.execute(
                "ALTER TABLE campaigns ADD COLUMN sampling_confidence REAL"
            )
            self._conn.execute(
                "ALTER TABLE campaigns ADD COLUMN sampling_strata TEXT"
            )
            self._conn.execute(
                "ALTER TABLE campaigns ADD COLUMN sampling_chunk INTEGER"
            )

    # -- lifecycle ---------------------------------------------------------

    def close(self):
        """Close the underlying connection."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self):
        """Context-manager entry: returns the store itself."""
        return self

    def __exit__(self, *_exc):
        """Context-manager exit: closes the connection."""
        self.close()
        return False

    # -- campaign registration ----------------------------------------------

    def open_campaign(self, spec, resume=False):
        """Register ``spec`` (or re-attach to it) and return its row id.

        A campaign is keyed by its name.  First open inserts the spec
        and fault list; re-opening requires ``resume=True`` *and* an
        identical fault list (by content digest), so results from
        different campaign definitions can never silently mix.

        :raises StoreError: on name collisions without ``resume`` or
            on fault-list mismatches.
        """
        digest = faults_digest(spec.faults)
        row = self._conn.execute(
            "SELECT id, fault_digest FROM campaigns WHERE name = ?",
            (spec.name,),
        ).fetchone()
        if row is not None:
            if not resume:
                raise StoreError(
                    f"campaign {spec.name!r} already exists in {self.path}; "
                    "pass resume=True (CLI: --resume) to continue it"
                )
            if row["fault_digest"] != digest:
                raise StoreError(
                    f"campaign {spec.name!r} in {self.path} was recorded "
                    "with a different fault list; refusing to resume"
                )
            return row["id"]

        cursor = self._conn.execute(
            "INSERT INTO campaigns (name, spec_json, fault_digest, status,"
            " created_at, updated_at) VALUES (?, ?, ?, 'running', ?, ?)",
            (spec.name, json.dumps(spec_to_dict(spec)), digest,
             _now(), _now()),
        )
        campaign_id = cursor.lastrowid
        self._conn.executemany(
            "INSERT INTO faults (campaign_id, idx, kind, key, description,"
            " descriptor_json) VALUES (?, ?, ?, ?, ?, ?)",
            [
                (campaign_id, index, descriptor.get("kind", "?"),
                 fault_key(fault), fault.describe(),
                 json.dumps(descriptor))
                for index, (fault, descriptor) in enumerate(
                    (fault, fault_to_dict(fault)) for fault in spec.faults
                )
            ],
        )
        self._conn.commit()
        return campaign_id

    def check_golden(self, campaign_id, probes):
        """Record or verify the golden-run trace digests.

        First call stores the digests; later calls (resume) compare
        and raise when the regenerated golden run differs — a changed
        design factory would otherwise corrupt the merged results.

        :raises StoreError: on digest mismatch.
        """
        self.check_golden_digests(campaign_id, probes_digest(probes))

    def record_golden_digests(self, campaign_id, digests):
        """Store golden digests without verification, first write wins.

        For recorders whose digests are not globally comparable: the
        distributed coordinator keeps the campaign row's golden as a
        reference sample (the first completed shard's), but shards
        pause their golden runs at their *own* fault times, so
        cross-shard digests legitimately differ and comparison
        happens per shard in the coordinator instead.
        """
        row = self._conn.execute(
            "SELECT golden_json FROM campaigns WHERE id = ?", (campaign_id,)
        ).fetchone()
        if row is None:
            raise StoreError(f"no campaign with id {campaign_id}")
        if row["golden_json"] is not None:
            return
        self._conn.execute(
            "UPDATE campaigns SET golden_json = ?, updated_at = ?"
            " WHERE id = ?",
            (json.dumps(digests), _now(), campaign_id),
        )
        self._conn.commit()

    def check_golden_digests(self, campaign_id, digests):
        """Record or verify golden digests that were computed elsewhere.

        The digest-level sibling of :meth:`check_golden`, for callers
        that never see the golden traces themselves and must prove a
        regenerated golden matches the stored campaign before mixing
        new rows into it.

        :raises StoreError: on digest mismatch.
        """
        row = self._conn.execute(
            "SELECT golden_json FROM campaigns WHERE id = ?", (campaign_id,)
        ).fetchone()
        if row is None:
            raise StoreError(f"no campaign with id {campaign_id}")
        if row["golden_json"] is None:
            self._conn.execute(
                "UPDATE campaigns SET golden_json = ?, updated_at = ?"
                " WHERE id = ?",
                (json.dumps(digests), _now(), campaign_id),
            )
            self._conn.commit()
            return
        stored = json.loads(row["golden_json"])
        if stored != digests:
            changed = sorted(
                name for name in set(stored) | set(digests)
                if stored.get(name) != digests.get(name)
            )
            raise StoreError(
                "golden run differs from the stored campaign "
                f"(changed traces: {', '.join(changed)}); the design or "
                "its parameters changed — refusing to mix results"
            )

    # -- run recording --------------------------------------------------------

    def completed_indices(self, campaign_id):
        """Set of fault indices with a successful run row."""
        rows = self._conn.execute(
            "SELECT fault_idx FROM runs WHERE campaign_id = ?"
            " AND status = 'ok'",
            (campaign_id,),
        ).fetchall()
        return {row["fault_idx"] for row in rows}

    def quarantined_indices(self, campaign_id):
        """Set of fault indices parked by the retry policy."""
        rows = self._conn.execute(
            "SELECT fault_idx FROM runs WHERE campaign_id = ?"
            " AND quarantined != 0",
            (campaign_id,),
        ).fetchall()
        return {row["fault_idx"] for row in rows}

    def pending_indices(self, campaign_id, total, include_quarantined=False):
        """Fault indices still to run, in campaign order.

        Failed runs count as pending — a resume retries them — with
        one exception: faults a previous execution *quarantined*
        (retries exhausted) stay parked unless ``include_quarantined``
        asks for another round.
        """
        done = self.completed_indices(campaign_id)
        if not include_quarantined:
            done = done | self.quarantined_indices(campaign_id)
        return [index for index in range(total) if index not in done]

    def _write_runs(self, campaign_id, rows, keep_first=False,
                    shard_id=None, skipped=False):
        """The one ``INSERT INTO runs``: row dicts, one transaction.

        Every row passes :func:`~repro.store.serialize.check_row`
        before any is written.  A later row replaces an earlier one of
        the same fault unless ``keep_first`` (first writer wins);
        ``skipped`` admits ``skipped`` rows.

        :raises StoreError: on a malformed row.
        """
        try:
            for row in rows:
                check_row(row, skipped=skipped)
        except SerializationError as exc:
            raise StoreError(f"refusing to record: {exc}") from exc
        if not rows:
            return
        now = _now()
        self._conn.executemany(
            f"INSERT OR {'IGNORE' if keep_first else 'REPLACE'} INTO runs"
            " (campaign_id, fault_idx, status, label, classification_json,"
            " comparisons_json, metrics_json, error, wall_s, kernel_events,"
            " completed_at, attempts, quarantined, postmortem, shard_id,"
            " stratum)"
            " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            [
                (
                    campaign_id,
                    int(row["idx"]),
                    row["status"],
                    row["label"],
                    _dumps(row["classification"]),
                    _dumps(row["comparisons"]),
                    _dumps(row["metrics"]),
                    row["error"],
                    row["wall_s"],
                    row["kernel_events"],
                    now,
                    row["attempts"],
                    1 if row["quarantined"] else 0,
                    row["postmortem"],
                    shard_id,
                    row["stratum"],
                )
                for row in rows
            ],
        )
        self._conn.commit()

    def record_run(self, campaign_id, index, fault_result,
                   wall_s=None, kernel_events=None, attempts=1,
                   stratum=None):
        """Persist one completed faulty run (commits immediately)."""
        self._write_runs(campaign_id, [result_to_row(
            index, None, fault_result, wall_s=wall_s,
            kernel_events=kernel_events, attempts=attempts, stratum=stratum,
        )])

    def record_runs(self, campaign_id, rows):
        """Persist one outcome group of runs in **one** transaction.

        The campaign runner's only run writer: one call per outcome
        group — a scalar run, failed or not, or a whole batch, whose
        single ``executemany`` amortises the fsync that otherwise
        dominates many-small-runs campaigns.  Crash durability is per
        group: an interrupted campaign loses at most the run or the
        batch in flight, which resume re-runs.

        :param rows: row dicts (:func:`~repro.store.serialize.result_to_row`
            or :func:`~repro.store.serialize.error_to_row`).
        """
        self._write_runs(campaign_id, rows)

    def record_error(self, campaign_id, index, message, wall_s=None,
                     status="error", attempts=1, quarantined=False,
                     postmortem=None, stratum=None):
        """Persist one failed faulty run (commits immediately).

        :param status: terminal failure status — one of
            :data:`~repro.campaign.classify.FAILURE_STATUSES`.
        :param attempts: how many times the fault was attempted.
        :param quarantined: True parks the fault: resume skips it
            unless quarantined faults are explicitly re-requested.
        :param postmortem: optional path of the flight-recorder dump
            written for this failure (see :mod:`repro.obs.flightrec`).
        """
        self._write_runs(campaign_id, [error_to_row(
            index, None, message, status=status, wall_s=wall_s,
            attempts=attempts, quarantined=quarantined,
            postmortem=postmortem, stratum=stratum,
        )])

    def record_skipped(self, campaign_id, rows):
        """Mark faults skipped by sampling early stop, one transaction.

        Written once a sampled campaign converges: every fault the
        sampler never drew (or drew but abandoned at the stop) gets a
        ``skipped`` row, distinguishing "skipped by early stop" from
        "not sampled" (no row — the campaign was interrupted before
        converging).  First writer wins, so re-running a resumed,
        already converged campaign is idempotent.

        :param rows: iterable of ``(index, stratum)`` pairs.
        """
        self._write_runs(
            campaign_id,
            [skipped_to_row(index, None, stratum=stratum)
             for index, stratum in rows],
            keep_first=True, skipped=True,
        )

    def record_sampling(self, campaign_id, seed, margin, confidence,
                        strata, chunk):
        """Persist (or verify) a campaign's sampling configuration.

        The configuration *is* the draw sequence — seed, margin,
        confidence, strata mode and chunk size together determine
        every round the sampler will plan — so resuming with a
        different configuration would silently change which faults
        get simulated.  First write records; later writes verify.

        :raises StoreError: when a stored configuration differs.
        """
        stored = self.sampling_config(campaign_id)
        config = {
            "seed": int(seed),
            "margin": float(margin),
            "confidence": float(confidence),
            "strata": str(strata),
            "chunk": int(chunk),
        }
        if stored is not None:
            if stored != config:
                raise StoreError(
                    f"campaign sampling configuration changed: stored "
                    f"{stored}, requested {config}; refusing to resume "
                    "with a different draw sequence"
                )
            return
        self._conn.execute(
            "UPDATE campaigns SET sampling_seed = ?, sampling_margin = ?,"
            " sampling_confidence = ?, sampling_strata = ?,"
            " sampling_chunk = ?, updated_at = ? WHERE id = ?",
            (config["seed"], config["margin"], config["confidence"],
             config["strata"], config["chunk"], _now(), campaign_id),
        )
        self._conn.commit()

    def sampling_config(self, campaign_id):
        """The stored sampling configuration dict, or None.

        ``None`` means the campaign is (so far) exhaustive; a resumed
        campaign with a configuration continues sampled even without
        the CLI flags.
        """
        row = self._conn.execute(
            "SELECT sampling_seed, sampling_margin, sampling_confidence,"
            " sampling_strata, sampling_chunk FROM campaigns WHERE id = ?",
            (campaign_id,),
        ).fetchone()
        if row is None:
            raise StoreError(f"no campaign with id {campaign_id}")
        if row["sampling_seed"] is None:
            return None
        return {
            "seed": row["sampling_seed"],
            "margin": row["sampling_margin"],
            "confidence": row["sampling_confidence"],
            "strata": row["sampling_strata"],
            "chunk": row["sampling_chunk"],
        }

    def record_row(self, campaign_id, row, shard_id=None):
        """Persist one run from its **row dict** rendering (commits).

        A one-row :meth:`record_shard_rows`; ``shard_id`` defaults to
        the row's own (a :meth:`run_rows` row carries one).
        """
        self._write_runs(
            campaign_id, [row], keep_first=True,
            shard_id=row.get("shard_id") if shard_id is None else shard_id,
        )

    def record_shard_rows(self, campaign_id, shard_id, rows):
        """Persist one streamed frame of row dicts in **one** transaction.

        ``rows`` follow :data:`~repro.store.serialize.ROW_FIELDS` and
        are tagged with ``shard_id``, provisional until the shard's
        ``shards`` row reads ``merged``.  First writer wins (``INSERT
        OR IGNORE``): reassignment is at-least-once, so a fault may
        legitimately arrive twice, and ignoring the duplicate keeps
        the store independent of arrival order.  A malformed row
        rejects the whole frame before any row is written.
        """
        self._write_runs(campaign_id, rows, keep_first=True,
                         shard_id=shard_id)

    def drop_provisional_rows(self, campaign_id):
        """Delete the rows of every shard not ``merged`` (one transaction).

        Called when a distributed job stops: a finished campaign keeps
        only the rows of merged shards (plus its ``skipped`` rows), so
        a half-streamed or abandoned shard never reaches a report.
        """
        self._conn.execute(
            "DELETE FROM runs WHERE campaign_id = ? AND shard_id IS NOT NULL"
            " AND shard_id NOT IN (SELECT shard_id FROM shards"
            " WHERE campaign_id = ? AND state = 'merged')",
            (campaign_id, campaign_id),
        )
        self._conn.commit()

    def run_rows(self, campaign_id, skipped=True):
        """Every recorded run as a row dict, in fault-index order.

        The one reader of the ``runs`` table's full rows: the inverse
        of :meth:`record_row`, with the fault's content ``key`` joined
        in from the fault list and the row's ``shard_id``.
        ``skipped=False`` leaves the ``skipped`` rows out in SQL: on a
        sampled store they can outnumber the simulated runs several
        times over, and :meth:`load_runs`, :meth:`load_errors` and
        :meth:`load_result` rebuild objects from the rest.  The
        coordinator's resume and row-identity tests read every row.
        """
        return [
            {
                "idx": row["fault_idx"],
                "key": row["fault_key"],
                "status": row["status"],
                "label": row["label"],
                "classification": _loads(row["classification_json"]),
                "comparisons": _loads(row["comparisons_json"]),
                "metrics": _loads(row["metrics_json"]),
                "error": row["error"],
                "wall_s": row["wall_s"],
                "kernel_events": row["kernel_events"],
                "attempts": row["attempts"],
                "quarantined": row["quarantined"],
                "postmortem": row["postmortem"],
                "shard_id": row["shard_id"],
                "stratum": row["stratum"],
            }
            for row in self._conn.execute(
                "SELECT r.*, f.key AS fault_key FROM runs r"
                " LEFT JOIN faults f ON f.campaign_id = r.campaign_id"
                " AND f.idx = r.fault_idx"
                " WHERE r.campaign_id = ?"
                + ("" if skipped else " AND r.status != 'skipped'")
                + " ORDER BY r.fault_idx",
                (campaign_id,),
            )
        ]

    def record_shard(self, campaign_id, shard_id, state, worker=None,
                     n_faults=None, leases=None):
        """Upsert one distributed shard's lifecycle row.

        The coordinator calls this as shards move through
        ``queued`` -> ``leased`` -> ``merged`` (or ``failed`` past the
        lease ceiling, ``abandoned`` by a sampling early stop), with
        ``leases`` counting at-least-once reassignments.  ``merged``
        makes the shard's provisional rows final.  ``campaign status``,
        post-mortem queries and a resuming coordinator read it back via
        :meth:`shard_rows`.
        """
        now = _now()
        cursor = self._conn.execute(
            "UPDATE shards SET state = ?,"
            " worker = COALESCE(?, worker),"
            " n_faults = COALESCE(?, n_faults),"
            " leases = COALESCE(?, leases), updated_at = ?"
            " WHERE campaign_id = ? AND shard_id = ?",
            (state, worker, n_faults, leases, now, campaign_id, shard_id),
        )
        if cursor.rowcount == 0:
            self._conn.execute(
                "INSERT INTO shards (campaign_id, shard_id, state, worker,"
                " n_faults, leases, updated_at)"
                " VALUES (?, ?, ?, ?, ?, ?, ?)",
                (campaign_id, shard_id, state, worker, n_faults,
                 leases or 0, now),
            )
        self._conn.commit()

    def shard_rows(self, name=None):
        """Distributed shard lifecycle rows for one campaign.

        Returns a list of dicts (``shard_id``, ``state``, ``worker``,
        ``n_faults``, ``leases``, ``updated_at``) in shard order;
        empty for single-host campaigns.
        """
        campaign_id = self.campaign_id(name)
        return [
            dict(row)
            for row in self._conn.execute(
                "SELECT shard_id, state, worker, n_faults, leases,"
                " updated_at FROM shards WHERE campaign_id = ?"
                " ORDER BY shard_id",
                (campaign_id,),
            )
        ]

    def record_job(self, campaign_id, netlist, config, shard_size):
        """Register a distributed job on a campaign; returns its job id.

        The store assigns the id, so coordinators that take turns on
        one store never reuse one.  Together with the campaign's spec,
        sampling configuration and ``shards`` rows, the job row is
        everything a restarted coordinator needs to resume the job.
        """
        cursor = self._conn.execute(
            "INSERT INTO jobs (campaign_id, netlist_json, config_json,"
            " shard_size, created_at) VALUES (?, ?, ?, ?, ?)",
            (campaign_id, json.dumps(netlist), json.dumps(config),
             int(shard_size), _now()),
        )
        self._conn.commit()
        return cursor.lastrowid

    def job_rows(self):
        """Every distributed job, oldest first.

        Returns a list of dicts (``job``, ``campaign_id``, ``name``,
        ``status`` — the campaign's, ``running`` until the job is
        terminal — ``netlist``, ``config``, ``shard_size``).
        """
        return [
            {
                "job": row["id"],
                "campaign_id": row["campaign_id"],
                "name": row["name"],
                "status": row["status"],
                "netlist": json.loads(row["netlist_json"]),
                "config": json.loads(row["config_json"]),
                "shard_size": row["shard_size"],
            }
            for row in self._conn.execute(
                "SELECT j.id, j.campaign_id, j.netlist_json, j.config_json,"
                " j.shard_size, c.name, c.status FROM jobs j"
                " JOIN campaigns c ON c.id = j.campaign_id ORDER BY j.id"
            )
        ]

    def record_journal(self, campaign_id, path, offset=0):
        """Record where this campaign's journal event stream lives.

        ``offset`` is the byte position at which this execution's
        events start (non-zero when appending to a shared journal
        file), so a consumer can seek straight to them.
        """
        self._conn.execute(
            "UPDATE campaigns SET journal_path = ?, journal_offset = ?,"
            " updated_at = ? WHERE id = ?",
            (str(path), int(offset), _now(), campaign_id),
        )
        self._conn.commit()

    def record_worker(self, campaign_id, pid, state, fault_idx=None,
                      phase=None, exitcode=None):
        """Upsert one supervised worker's liveness row.

        Called by the campaign parent on worker lifecycle events
        (spawn, heartbeat, death); ``campaign status`` and ``campaign
        watch`` render the result as the workers section.
        """
        now = _now()
        cursor = self._conn.execute(
            "UPDATE workers SET state = ?, fault_idx = ?, phase = ?,"
            " exitcode = ?, updated_at = ?"
            " WHERE campaign_id = ? AND pid = ?",
            (state, fault_idx, phase, exitcode, now, campaign_id, pid),
        )
        if cursor.rowcount == 0:
            self._conn.execute(
                "INSERT INTO workers (campaign_id, pid, state, fault_idx,"
                " phase, exitcode, spawned_at, updated_at)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                (campaign_id, pid, state, fault_idx, phase, exitcode,
                 now, now),
            )
        self._conn.commit()

    def record_execution(self, campaign_id, execution, status="complete"):
        """Store the final execution-stats dict and campaign status."""
        self._conn.execute(
            "UPDATE campaigns SET execution_json = ?, status = ?,"
            " updated_at = ? WHERE id = ?",
            (json.dumps(execution), status, _now(), campaign_id),
        )
        self._conn.commit()

    # -- queries ---------------------------------------------------------------

    def campaign_id(self, name=None):
        """Resolve a campaign name to its row id.

        With ``name=None`` the database must hold exactly one
        campaign.

        :raises StoreError: for unknown or ambiguous names.
        """
        if name is None:
            rows = self._conn.execute(
                "SELECT id, name FROM campaigns ORDER BY id"
            ).fetchall()
            if not rows:
                raise StoreError(f"{self.path} holds no campaigns")
            if len(rows) > 1:
                names = ", ".join(row["name"] for row in rows)
                raise StoreError(
                    f"{self.path} holds several campaigns ({names}); "
                    "pick one by name"
                )
            return rows[0]["id"]
        row = self._conn.execute(
            "SELECT id FROM campaigns WHERE name = ?", (name,)
        ).fetchone()
        if row is None:
            raise StoreError(f"no campaign named {name!r} in {self.path}")
        return row["id"]

    def load_spec(self, campaign_id):
        """Rebuild the stored :class:`CampaignSpec` (real fault objects)."""
        row = self._conn.execute(
            "SELECT spec_json FROM campaigns WHERE id = ?", (campaign_id,)
        ).fetchone()
        if row is None:
            raise StoreError(f"no campaign with id {campaign_id}")
        return spec_from_dict(json.loads(row["spec_json"]))

    def load_runs(self, campaign_id, faults):
        """Completed runs as ``{index: FaultResult}`` over ``faults``.

        ``faults`` supplies the fault instances the rebuilt
        :class:`FaultResult` objects reference — pass the live spec's
        list when merging into a resumed campaign, or the stored
        spec's when loading standalone.
        """
        return _rebuild(self.run_rows(campaign_id, skipped=False), faults)[0]

    def load_errors(self, campaign_id, faults):
        """Failed runs as a list of :class:`CampaignRunError`.

        Mirrors :meth:`load_runs` for the rows that did *not* complete
        — a resumed or loaded campaign accounts for quarantined and
        still-failing faults the same way a live one does.  Rows a
        sampled campaign *skipped* by early stop are not errors and
        are excluded.
        """
        return _rebuild(self.run_rows(campaign_id, skipped=False), faults)[1]

    def journal_location(self, name=None):
        """The recorded ``(journal_path, journal_offset)`` (or None)."""
        campaign_id = self.campaign_id(name)
        row = self._conn.execute(
            "SELECT journal_path, journal_offset FROM campaigns"
            " WHERE id = ?",
            (campaign_id,),
        ).fetchone()
        if row is None or row["journal_path"] is None:
            return None
        return row["journal_path"], row["journal_offset"] or 0

    def worker_rows(self, name=None):
        """Supervised worker liveness rows for one campaign.

        Returns a list of dicts (``pid``, ``state``, ``fault_idx``,
        ``phase``, ``exitcode``, ``spawned_at``, ``updated_at``) in
        spawn order; empty for serial campaigns.
        """
        campaign_id = self.campaign_id(name)
        return [
            dict(row)
            for row in self._conn.execute(
                "SELECT pid, state, fault_idx, phase, exitcode,"
                " spawned_at, updated_at FROM workers"
                " WHERE campaign_id = ? ORDER BY spawned_at, pid",
                (campaign_id,),
            )
        ]

    def load_result(self, name=None):
        """Rebuild a full :class:`CampaignResult` without simulating.

        The result carries the stored spec (with reconstructed fault
        instances), every successful run in fault-list order, the
        stored execution stats, and empty golden probes (traces are
        not persisted — only their digests are).
        """
        from ..campaign.results import CampaignResult

        campaign_id = self.campaign_id(name)
        spec = self.load_spec(campaign_id)
        result = CampaignResult(spec)
        runs, result.errors = _rebuild(
            self.run_rows(campaign_id, skipped=False), spec.faults
        )
        result.runs = list(runs.values())
        row = self._conn.execute(
            "SELECT execution_json FROM campaigns WHERE id = ?",
            (campaign_id,),
        ).fetchone()
        if row["execution_json"]:
            result.execution = json.loads(row["execution_json"])
        return result

    def status(self):
        """Per-campaign progress summary for every stored campaign.

        Returns a list of dicts with ``name``, ``status``, ``total``,
        ``completed``, ``errors``, ``skipped``, ``sampled``,
        ``created_at``, ``updated_at`` and ``mode`` (the recorded
        execution mode — ``cold`` / ``warm`` / ``batched``, suffixed
        with the batch mode when one was recorded; ``"?"`` until an
        execution record lands).  ``skipped`` counts faults a sampled
        campaign skipped by early stop — they are not errors.
        """
        summaries = []
        for row in self._conn.execute(
            "SELECT id, name, status, created_at, updated_at,"
            " execution_json, sampling_seed FROM campaigns ORDER BY id"
        ):
            mode = "?"
            if row["execution_json"]:
                execution = json.loads(row["execution_json"])
                mode = execution.get("mode", "?")
                batch_mode = (execution.get("batch") or {}).get("mode")
                if mode == "batched" and batch_mode:
                    mode = f"batched/{batch_mode}"
            total = self._conn.execute(
                "SELECT COUNT(*) AS n FROM faults WHERE campaign_id = ?",
                (row["id"],),
            ).fetchone()["n"]
            # Every status but ``ok`` and ``skipped`` is a failure.
            counts = self.run_status_counts(row["name"])
            completed = counts.pop("ok", 0)
            skipped = counts.pop("skipped", 0)
            quarantined = self._conn.execute(
                "SELECT COUNT(*) AS n FROM runs WHERE campaign_id = ?"
                " AND quarantined != 0",
                (row["id"],),
            ).fetchone()["n"]
            summaries.append(
                {
                    "name": row["name"],
                    "status": row["status"],
                    "mode": mode,
                    "total": total,
                    "completed": completed,
                    "errors": sum(counts.values()),
                    "skipped": skipped,
                    "quarantined": quarantined,
                    "sampled": row["sampling_seed"] is not None,
                    "created_at": row["created_at"],
                    "updated_at": row["updated_at"],
                }
            )
        return summaries

    def run_status_counts(self, name=None):
        """Terminal run status -> row count, straight from SQL.

        ``ok`` counts completed runs; failure statuses (``timeout``/
        ``diverged``/``crashed``/``error``) count their terminal rows.
        The live view (``campaign watch``) polls this.
        """
        campaign_id = self.campaign_id(name)
        return {
            row["status"]: row["n"]
            for row in self._conn.execute(
                "SELECT status, COUNT(*) AS n FROM runs"
                " WHERE campaign_id = ? GROUP BY status ORDER BY status",
                (campaign_id,),
            )
        }

    def class_counts(self, name=None):
        """Classification label -> run count, straight from SQL."""
        campaign_id = self.campaign_id(name)
        return {
            row["label"]: row["n"]
            for row in self._conn.execute(
                "SELECT label, COUNT(*) AS n FROM runs"
                " WHERE campaign_id = ? AND status = 'ok'"
                " GROUP BY label ORDER BY label",
                (campaign_id,),
            )
        }

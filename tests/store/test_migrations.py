"""Schema migration chain: v1 -> v2 -> v3 -> today, and v5 -> v6.

Each fixture is a database created with the *historical* DDL of one
schema version (copied verbatim from the store's git history) and
populated with real campaign rows limited to that version's columns.
Opening it with today's :class:`CampaignStore` must migrate it in
place — additive columns and tables only — and a campaign recorded
under the old schema must then **resume** and complete exactly like
one recorded today.  A v5 store finished by a distributed coordinator
gains the v6 ``jobs`` table and keeps its rows, with nothing to resume.
"""

import json
import sqlite3
from datetime import datetime, timezone

import pytest

from repro.campaign import run_campaign
from repro.dist import Coordinator
from repro.store import SCHEMA_VERSION, CampaignStore
from repro.store.serialize import (
    fault_key,
    fault_to_dict,
    faults_digest,
    spec_to_dict,
)

from .test_resume import factory, make_spec

# Historical DDL, verbatim from the store's git history.  v1 shipped
# with the first persistent store; v2 added retry/quarantine columns;
# v3 added post-mortems and the workers table (journal columns arrived
# by migration); v4 added shard_id and the shards table; v5 (below)
# added sampling columns and is the last schema without a jobs table.

_RUNS_V1_COLUMNS = """
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
"""

_COMMON = """
CREATE TABLE meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE campaigns (
    id             INTEGER PRIMARY KEY AUTOINCREMENT,
    name           TEXT UNIQUE NOT NULL,
    spec_json      TEXT NOT NULL,
    fault_digest   TEXT NOT NULL,
    golden_json    TEXT,
    execution_json TEXT,
    status         TEXT NOT NULL DEFAULT 'running',
    created_at     TEXT NOT NULL,
    updated_at     TEXT NOT NULL
);
CREATE TABLE faults (
    campaign_id     INTEGER NOT NULL REFERENCES campaigns(id),
    idx             INTEGER NOT NULL,
    kind            TEXT NOT NULL,
    key             TEXT NOT NULL,
    description     TEXT NOT NULL,
    descriptor_json TEXT NOT NULL,
    PRIMARY KEY (campaign_id, idx)
);
CREATE INDEX runs_by_label ON runs (campaign_id, label);
"""

_WORKERS_V3 = """
CREATE TABLE workers (
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

SCHEMAS = {
    1: "CREATE TABLE runs (" + _RUNS_V1_COLUMNS + """
    completed_at        TEXT NOT NULL,
    PRIMARY KEY (campaign_id, fault_idx)
);
""" + _COMMON,
    2: "CREATE TABLE runs (" + _RUNS_V1_COLUMNS + """
    attempts            INTEGER,
    quarantined         INTEGER NOT NULL DEFAULT 0,
    completed_at        TEXT NOT NULL,
    PRIMARY KEY (campaign_id, fault_idx)
);
""" + _COMMON,
    3: "CREATE TABLE runs (" + _RUNS_V1_COLUMNS + """
    attempts            INTEGER,
    quarantined         INTEGER NOT NULL DEFAULT 0,
    postmortem          TEXT,
    completed_at        TEXT NOT NULL,
    PRIMARY KEY (campaign_id, fault_idx)
);
""" + _COMMON + _WORKERS_V3,
}

#: The v5 DDL, as the last ledger-era coordinator wrote it: verbatim
#: plus the journal columns every v5 open added by migration.
SCHEMA_V5 = """
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
ALTER TABLE campaigns ADD COLUMN journal_path TEXT;
ALTER TABLE campaigns ADD COLUMN journal_offset INTEGER;
"""

#: Columns a run row carried at each historical version.
ROW_COLUMNS = {
    1: ("status", "label", "classification_json", "comparisons_json",
        "metrics_json", "error", "wall_s", "kernel_events"),
    2: ("status", "label", "classification_json", "comparisons_json",
        "metrics_json", "error", "wall_s", "kernel_events", "attempts",
        "quarantined"),
    3: ("status", "label", "classification_json", "comparisons_json",
        "metrics_json", "error", "wall_s", "kernel_events", "attempts",
        "quarantined", "postmortem"),
}


@pytest.fixture(scope="module")
def reference_rows(tmp_path_factory):
    """Real run rows from a complete serial campaign (source data)."""
    path = tmp_path_factory.mktemp("ref") / "reference.db"
    spec = make_spec()
    with CampaignStore(path) as store:
        run_campaign(factory, spec, store=store)
        campaign_id = store.campaign_id(spec.name)
        rows = [
            dict(row)
            for row in store._conn.execute(
                "SELECT * FROM runs WHERE campaign_id = ?"
                " ORDER BY fault_idx", (campaign_id,),
            )
        ]
    return rows


def build_fixture(path, version, spec, rows, completed):
    """A database exactly as schema ``version`` would have left it,
    holding ``spec`` with its first ``completed`` runs recorded."""
    conn = sqlite3.connect(str(path))
    conn.executescript(SCHEMAS[version])
    now = datetime.now(timezone.utc).isoformat()
    conn.execute(
        "INSERT INTO meta (key, value) VALUES ('schema_version', ?)",
        (str(version),),
    )
    cursor = conn.execute(
        "INSERT INTO campaigns (name, spec_json, fault_digest, status,"
        " created_at, updated_at) VALUES (?, ?, ?, 'running', ?, ?)",
        (spec.name, json.dumps(spec_to_dict(spec)),
         faults_digest(spec.faults), now, now),
    )
    campaign_id = cursor.lastrowid
    for idx, fault in enumerate(spec.faults):
        descriptor = fault_to_dict(fault)
        conn.execute(
            "INSERT INTO faults (campaign_id, idx, kind, key, description,"
            " descriptor_json) VALUES (?, ?, ?, ?, ?, ?)",
            (campaign_id, idx, descriptor["kind"], fault_key(fault),
             fault.describe(), json.dumps(descriptor)),
        )
    columns = ROW_COLUMNS[version]
    for row in rows[:completed]:
        conn.execute(
            "INSERT INTO runs (campaign_id, fault_idx, completed_at, "
            + ", ".join(columns) + ") VALUES (?, ?, ?, "
            + ", ".join("?" * len(columns)) + ")",
            (campaign_id, row["fault_idx"], now)
            + tuple(row[name] for name in columns),
        )
    conn.commit()
    conn.close()


@pytest.mark.parametrize("version", [1, 2, 3])
def test_migration_upgrades_schema_in_place(tmp_path, version,
                                            reference_rows):
    spec = make_spec()
    path = tmp_path / f"v{version}.db"
    build_fixture(path, version, spec, reference_rows, completed=5)
    with CampaignStore(path) as store:
        meta = store._conn.execute(
            "SELECT value FROM meta WHERE key = 'schema_version'"
        ).fetchone()
        assert meta["value"] == str(SCHEMA_VERSION)
        run_columns = {
            row["name"]
            for row in store._conn.execute("PRAGMA table_info(runs)")
        }
        assert {"attempts", "quarantined", "postmortem",
                "shard_id"} <= run_columns
        campaign_columns = {
            row["name"]
            for row in store._conn.execute("PRAGMA table_info(campaigns)")
        }
        assert {"journal_path", "journal_offset"} <= campaign_columns
        tables = {
            row["name"]
            for row in store._conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            )
        }
        assert {"workers", "shards"} <= tables
        # The old rows survived untouched.
        campaign_id = store.campaign_id(spec.name)
        assert len(store.run_rows(campaign_id)) == 5


@pytest.mark.parametrize("version", [1, 2, 3])
def test_resume_completes_migrated_campaign(tmp_path, version,
                                            reference_rows):
    spec = make_spec()
    path = tmp_path / f"v{version}.db"
    build_fixture(path, version, spec, reference_rows, completed=5)
    with CampaignStore(path) as store:
        result = run_campaign(
            factory, spec, store=store, resume=True, on_error="collect"
        )
        assert len(result.runs) == len(spec.faults)
        assert not result.errors
        # Only the remaining faults re-ran.
        assert result.execution["completed"] == len(spec.faults) - 5
        assert result.execution["skipped"] == 5
    # The migrated, resumed store is fully queryable and row-complete.
    with CampaignStore(path) as store:
        campaign_id = store.campaign_id(spec.name)
        rows = store.run_rows(campaign_id)
        assert [row["idx"] for row in rows] == list(range(len(spec.faults)))
        assert all(row["status"] == "ok" for row in rows)


def test_migrated_labels_match_fresh_run(tmp_path, reference_rows):
    """Classifications stored under v1 equal today's, post-resume."""
    spec = make_spec()
    path = tmp_path / "v1_labels.db"
    build_fixture(path, 1, spec, reference_rows, completed=5)
    with CampaignStore(path) as store:
        run_campaign(factory, spec, store=store, resume=True)
        campaign_id = store.campaign_id(spec.name)
        labels = [row["label"] for row in store.run_rows(campaign_id)]
    assert labels == [row["label"] for row in reference_rows]


def build_v5_distributed_store(path, spec, rows, shard_size=4):
    """A finished distributed campaign as a v5 coordinator left it:
    every row tagged with its shard, every shard merged, no job row
    (the job lived in the ledger)."""
    conn = sqlite3.connect(str(path))
    conn.executescript(SCHEMA_V5)
    now = datetime.now(timezone.utc).isoformat()
    conn.execute(
        "INSERT INTO meta (key, value) VALUES ('schema_version', '5')"
    )
    cursor = conn.execute(
        "INSERT INTO campaigns (name, spec_json, fault_digest,"
        " execution_json, status, created_at, updated_at)"
        " VALUES (?, ?, ?, ?, 'complete', ?, ?)",
        (spec.name, json.dumps(spec_to_dict(spec)),
         faults_digest(spec.faults), json.dumps({"mode": "distributed"}),
         now, now),
    )
    campaign_id = cursor.lastrowid
    for idx, fault in enumerate(spec.faults):
        descriptor = fault_to_dict(fault)
        conn.execute(
            "INSERT INTO faults (campaign_id, idx, kind, key, description,"
            " descriptor_json) VALUES (?, ?, ?, ?, ?, ?)",
            (campaign_id, idx, descriptor["kind"], fault_key(fault),
             fault.describe(), json.dumps(descriptor)),
        )
    columns = ROW_COLUMNS[3]
    for row in rows:
        conn.execute(
            "INSERT INTO runs (campaign_id, fault_idx, completed_at,"
            " shard_id, " + ", ".join(columns) + ") VALUES (?, ?, ?, ?, "
            + ", ".join("?" * len(columns)) + ")",
            (campaign_id, row["fault_idx"], now,
             row["fault_idx"] // shard_size)
            + tuple(row[name] for name in columns),
        )
    for shard_id in range(-(-len(spec.faults) // shard_size)):
        conn.execute(
            "INSERT INTO shards (campaign_id, shard_id, state, worker,"
            " n_faults, leases, updated_at)"
            " VALUES (?, ?, 'merged', 'w0', ?, 1, ?)",
            (campaign_id, shard_id, shard_size, now),
        )
    conn.commit()
    conn.close()


def test_v5_distributed_store_gains_jobs_and_resumes_nothing(
    tmp_path, reference_rows
):
    spec = make_spec()
    path = tmp_path / "v5.db"
    build_v5_distributed_store(path, spec, reference_rows)
    with CampaignStore(path) as store:
        meta = store._conn.execute(
            "SELECT value FROM meta WHERE key = 'schema_version'"
        ).fetchone()
        assert meta["value"] == str(SCHEMA_VERSION) == "6"
        tables = {
            row["name"]
            for row in store._conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            )
        }
        assert "jobs" in tables
        assert store.job_rows() == []
        rows = store.run_rows(store.campaign_id(spec.name))
        assert [row["idx"] for row in rows] \
            == [row["fault_idx"] for row in reference_rows]
        assert [row["label"] for row in rows] \
            == [row["label"] for row in reference_rows]
        assert [row["shard_id"] for row in rows] \
            == [row["fault_idx"] // 4 for row in reference_rows]
    coordinator = Coordinator(str(path))
    try:
        assert coordinator.resume() == []
    finally:
        coordinator.stop()
    with CampaignStore(path) as store:
        assert store.status()[0]["status"] == "complete"
        assert len(store.run_rows(store.campaign_id(spec.name))) \
            == len(reference_rows)

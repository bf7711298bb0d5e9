"""One run-row format: every store writer records the renderer's row.

:mod:`repro.store.serialize` renders a run outcome as a row dict and
rebuilds it; the store only maps row dicts to columns and back.  So
for every writer, the row :meth:`CampaignStore.run_rows` returns is
the rendered row with the store's own two fields filled in (the
fault's content ``key`` and the row's ``shard_id``), and
``load_runs``/``load_errors`` rebuild the objects that were written.
"""

import pytest

from repro.campaign.results import CampaignRunError
from repro.store import CampaignStore, StoreError
from repro.store.serialize import (
    error_to_row,
    fault_key,
    result_to_row,
    skipped_to_row,
)

from .test_store import make_result, make_spec


def record_run(store, campaign_id, faults):
    result = make_result(faults[1], label="failure")
    store.record_run(campaign_id, 1, result, wall_s=0.25, kernel_events=17,
                     attempts=2, stratum="site-a")
    row = result_to_row(1, None, result, wall_s=0.25, kernel_events=17,
                        attempts=2, stratum="site-a")
    return [row], None, {1: result}, []


def record_runs(store, campaign_id, faults):
    results = {0: make_result(faults[0]),
               2: make_result(faults[2], label="transient-error")}
    rows = [result_to_row(index, None, result, wall_s=0.5 + index,
                          kernel_events=100 + index)
            for index, result in results.items()]
    store.record_runs(campaign_id, rows)
    return rows, None, results, []


def record_error(store, campaign_id, faults):
    error = CampaignRunError(2, faults[2], "BudgetExceededError: wall",
                             status="timeout", attempts=3, quarantined=True,
                             postmortem="/var/tmp/pm/fault-0002.json")
    store.record_error(campaign_id, 2, error.message, wall_s=1.5,
                       status=error.status, attempts=error.attempts,
                       quarantined=error.quarantined,
                       postmortem=error.postmortem)
    row = error_to_row(2, None, error.message, status="timeout", wall_s=1.5,
                       attempts=3, quarantined=True,
                       postmortem=error.postmortem)
    return [row], None, {}, [error]


def record_skipped(store, campaign_id, faults):
    store.record_skipped(campaign_id, [(0, "site-a"), (2, "site-b")])
    rows = [skipped_to_row(0, None, stratum="site-a"),
            skipped_to_row(2, None, stratum="site-b")]
    return rows, None, {}, []


def record_shard_rows(store, campaign_id, faults):
    result = make_result(faults[0], label="latent")
    error = CampaignRunError(1, faults[1], "NumericalDivergenceError: nan",
                             status="diverged")
    rows = [
        result_to_row(0, fault_key(faults[0]), result, wall_s=0.1,
                      kernel_events=9),
        error_to_row(1, fault_key(faults[1]), error.message,
                     status="diverged", wall_s=0.2),
    ]
    store.record_shard_rows(campaign_id, 7, rows)
    return rows, 7, {0: result}, [error]


WRITERS = [record_run, record_runs, record_error, record_skipped,
           record_shard_rows]


@pytest.fixture
def store():
    with CampaignStore(":memory:") as s:
        yield s


@pytest.mark.parametrize("writer", WRITERS, ids=lambda fn: fn.__name__)
def test_stored_row_is_the_rendered_row(store, writer):
    spec = make_spec(n=3)
    campaign_id = store.open_campaign(spec)
    rendered, shard_id, runs, errors = writer(store, campaign_id, spec.faults)
    keys = [fault_key(fault) for fault in spec.faults]
    assert store.run_rows(campaign_id) == [
        dict(row, key=keys[row["idx"]], shard_id=shard_id)
        for row in rendered
    ]
    assert store.load_runs(campaign_id, spec.faults) == runs
    assert store.load_errors(campaign_id, spec.faults) == errors


def test_malformed_row_rejects_the_whole_write(store):
    """A batch with one row lacking its classification writes nothing."""
    spec = make_spec(n=2)
    campaign_id = store.open_campaign(spec)
    good = result_to_row(0, None, make_result(spec.faults[0]))
    bad = dict(result_to_row(1, None, make_result(spec.faults[1])),
               classification=None)
    with pytest.raises(StoreError, match="fault 1 has no classification"):
        store.record_runs(campaign_id, [good, bad])
    assert store.run_rows(campaign_id) == []


@pytest.mark.parametrize("status", ["banana", "ok", "skipped", None])
def test_record_error_refuses_non_failure_statuses(store, status):
    spec = make_spec(n=1)
    campaign_id = store.open_campaign(spec)
    with pytest.raises(StoreError, match="run row for fault 0"):
        store.record_error(campaign_id, 0, "boom", status=status)
    assert store.run_rows(campaign_id) == []


def test_loaders_leave_skipped_rows_in_the_database(store, monkeypatch):
    """On a store mixing ok, failed, quarantined and skipped rows, the
    three loaders rebuild the same objects, and no skipped row is read."""
    spec = make_spec(n=6)
    campaign_id = store.open_campaign(spec)
    ok = {0: make_result(spec.faults[0]),
          3: make_result(spec.faults[3], label="failure")}
    errors = [
        CampaignRunError(1, spec.faults[1], "BudgetExceededError: wall",
                         status="timeout"),
        CampaignRunError(2, spec.faults[2], "RuntimeError: boom",
                         status="error", attempts=2, quarantined=True),
    ]
    store.record_runs(campaign_id, [
        result_to_row(index, None, result, wall_s=0.1, stratum="s")
        for index, result in ok.items()
    ] + [
        error_to_row(err.index, None, err.message, status=err.status,
                     attempts=err.attempts, quarantined=err.quarantined,
                     stratum="s")
        for err in errors
    ])
    store.record_skipped(campaign_id, [(4, "s"), (5, "s")])
    assert [row["status"] for row in store.run_rows(campaign_id)] == [
        "ok", "timeout", "error", "ok", "skipped", "skipped"
    ]

    statuses_read = []
    run_rows = CampaignStore.run_rows

    def spy(self, *args, **kwargs):
        rows = run_rows(self, *args, **kwargs)
        statuses_read.extend(row["status"] for row in rows)
        return rows

    monkeypatch.setattr(CampaignStore, "run_rows", spy)
    assert store.load_runs(campaign_id, spec.faults) == ok
    assert store.load_errors(campaign_id, spec.faults) == errors
    loaded = store.load_result()
    assert loaded.runs == list(ok.values())
    assert loaded.errors == errors
    assert statuses_read
    assert "skipped" not in statuses_read

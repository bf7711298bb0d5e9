"""One store transaction per outcome group: a scalar run, or a batch.

Every executor yields outcome groups, and the campaign parent commits
each group once with ``record_runs``.  Counting ``COMMIT`` statements
on the 12-fault resume spec pins the transactions of each execution
mode: three bookkeeping commits (the campaign, its golden digests and
its execution record) plus one per scalar run or batch, and for a
sampled campaign one for its configuration and one for its skipped
rows.  A fork pool adds its worker rows.
"""

import pytest

from repro.campaign import run_campaign
from repro.store import CampaignStore

from .test_resume import factory, make_spec, needs_fork


class CountingStore(CampaignStore):
    """A store that traces its SQL and counts worker-row writes."""

    def __init__(self, path):
        super().__init__(path)
        self.statements = []
        self.worker_writes = 0
        self._conn.set_trace_callback(self.statements.append)

    def commits(self):
        return sum(1 for stmt in self.statements if stmt.strip() == "COMMIT")

    def record_worker(self, *args, **kwargs):
        self.worker_writes += 1
        super().record_worker(*args, **kwargs)


@pytest.mark.parametrize("options, commits", [
    ({}, 3 + 12),
    ({"warm_start": True}, 3 + 12),
    # Three checkpoint times of four bit-flips each: three batches.
    ({"batch": "digital"}, 3 + 3),
    # One chunk of four runs converges; eight faults are skipped.
    ({"sample": True, "margin": 0.3, "chunk": 4}, 3 + 1 + 4 + 1),
], ids=["serial-cold", "serial-warm", "batched-digital", "sampled"])
def test_one_commit_per_outcome_group(tmp_path, options, commits):
    with CountingStore(tmp_path / "campaign.db") as store:
        run_campaign(factory, make_spec(), store=store, **options)
        assert store.commits() == commits
        assert len(store.run_rows(store.campaign_id())) == 12


@needs_fork
def test_pool_commits_each_row_once(tmp_path):
    with CountingStore(tmp_path / "campaign.db") as store:
        run_campaign(factory, make_spec(), store=store, workers=2)
        rows = store.run_rows(store.campaign_id())
        assert len(rows) == 12
        assert store.commits() == 3 + len(rows) + store.worker_writes

"""The shard-tagged view of one distributed campaign in its final store.

A distributed campaign has one durable record: the final
:class:`~repro.store.store.CampaignStore`.  Streamed rows land in it
as they arrive, one transaction per ``rows`` frame, tagged with their
shard, and stay *provisional* until that shard's ``shards`` row reads
``merged`` — so merging a shard is a one-row state change, not a
copy.  Each row's **global** fault index and content digest
(:func:`~repro.store.serialize.fault_key`) are checked against the
shard plan before any row of its frame is written, and
first-writer-wins inserts drop the duplicates that at-least-once
reassignment produces: the store stays row-identical to a serial run
regardless of worker count, shard size or arrival order.
"""

from __future__ import annotations

from .store import StoreError


class ShardedCampaignStore:
    """Provisional shard rows of one campaign, and their merge.

    :param store: the final :class:`CampaignStore`.
    :param campaign_id: the campaign's row id in it.
    """

    def __init__(self, store, campaign_id):
        self.store = store
        self.campaign_id = campaign_id
        self._keys = {}   # shard_id -> {global fault index: fault key}

    def ingest_row(self, shard, rows):
        """Write one ``rows`` frame of ``shard``, provisionally.

        Every row is checked against the shard plan first — a row
        claiming an index outside the shard, or a key that does not
        match the fault at that index, is a protocol violation — so a
        rejected frame writes nothing.  The frame then lands in one
        transaction, first writer wins on duplicates.

        :raises StoreError: on index/key mismatches.
        """
        keys = self._keys.get(shard.shard_id)
        if keys is None:
            keys = dict(zip(shard.indices, shard.fault_keys))
            self._keys[shard.shard_id] = keys
        for row in rows:
            index = int(row["idx"])
            if index not in keys:
                raise StoreError(
                    f"row for fault {index} does not belong to shard "
                    f"{shard.shard_id} (indices {shard.indices[:4]}...)"
                )
            if row.get("key") != keys[index]:
                raise StoreError(
                    f"row for fault {index} carries fault key "
                    f"{row.get('key')!r}, expected {keys[index]!r}; "
                    "refusing to ingest"
                )
        self.store.record_shard_rows(self.campaign_id, shard.shard_id, rows)

    def merge_into(self, shard, worker=None, leases=None):
        """Merge one completed shard: its rows become final.

        One ``shards`` row update; no run row is read or written.
        """
        self.store.record_shard(
            self.campaign_id, shard.shard_id, "merged", worker=worker,
            n_faults=shard.size, leases=leases,
        )

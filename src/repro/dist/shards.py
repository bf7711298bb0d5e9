"""Shard planning: a campaign spec -> self-contained work units.

A shard is the unit of distribution: a contiguous slice of the
campaign's fault dictionary packaged with everything a remote worker
needs to execute it — a complete sub-spec (JSON, via
:func:`~repro.store.serialize.spec_to_dict`), the **global** fault
indices the slice covers, the per-fault content digests
(:func:`~repro.store.serialize.fault_key`) that row deduplication
keys on, and optionally the netlist and execution configuration.

The plan is deterministic: contiguous slices in fault order, every
shard but the last exactly ``shard_size`` faults.  Determinism
matters twice over — the same spec always shards identically (so a
coordinator restart re-plans the same shards and re-attaches to their
databases), and the merged store is row-identical to a serial run
because every row's global index survives the round trip through the
shard.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..campaign.sampling import build_plan
from ..core.errors import ReproError
from ..store.serialize import fault_key, spec_from_dict, spec_to_dict

#: Default faults per shard.  Small enough that a lost worker forfeits
#: little work, large enough that the per-shard golden run amortises.
DEFAULT_SHARD_SIZE = 25


class ShardError(ReproError):
    """Raised for invalid shard plans or malformed shard payloads."""


@dataclass
class Shard:
    """One serializable unit of campaign work.

    :ivar shard_id: position in the plan (0-based, contiguous).
    :ivar campaign: the *parent* campaign's name.
    :ivar total: the parent campaign's total fault count.
    :ivar indices: global fault indices this shard covers.
    :ivar fault_keys: content digest of each fault, aligned with
        ``indices`` (the dedup/verification identity of every row).
    :ivar spec: the shard's sub-spec as a JSON-ready dict — a complete
        :class:`~repro.campaign.spec.CampaignSpec` whose fault list is
        exactly this shard's slice and whose name is
        ``{campaign}@shard{NNNN}``.
    :ivar netlist: optional netlist dict
        (:meth:`~repro.netlist.schema.Netlist.to_dict`) for workers
        that build the design from the wire instead of a local factory.
    :ivar config: execution keyword arguments for
        :func:`~repro.campaign.runner.run_campaign` (warm_start,
        batch, timeout...), applied identically on every worker.
    """

    shard_id: int
    campaign: str
    total: int
    indices: list
    fault_keys: list
    spec: dict
    netlist: dict = None
    config: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.indices) != len(self.fault_keys):
            raise ShardError(
                f"shard {self.shard_id}: {len(self.indices)} indices but "
                f"{len(self.fault_keys)} fault keys"
            )
        if len(self.indices) != len(self.spec.get("faults", ())):
            raise ShardError(
                f"shard {self.shard_id}: {len(self.indices)} indices but "
                f"{len(self.spec.get('faults', ()))} spec faults"
            )

    @property
    def size(self):
        """Number of faults in this shard."""
        return len(self.indices)

    def campaign_spec(self):
        """The shard's executable :class:`CampaignSpec` instance."""
        return spec_from_dict(self.spec)

    def to_dict(self):
        """JSON-ready rendering (the ``lease`` frame's payload)."""
        return {
            "shard_id": self.shard_id,
            "campaign": self.campaign,
            "total": self.total,
            "indices": list(self.indices),
            "fault_keys": list(self.fault_keys),
            "spec": self.spec,
            "netlist": self.netlist,
            "config": dict(self.config),
        }

    @classmethod
    def from_dict(cls, data):
        """Rebuild a shard from :meth:`to_dict` output.

        :raises ShardError: on malformed payloads.
        """
        try:
            return cls(
                shard_id=int(data["shard_id"]),
                campaign=data["campaign"],
                total=int(data["total"]),
                indices=[int(i) for i in data["indices"]],
                fault_keys=list(data["fault_keys"]),
                spec=data["spec"],
                netlist=data.get("netlist"),
                config=dict(data.get("config") or {}),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ShardError(f"malformed shard payload: {exc}") from exc


def shard_name(campaign, shard_id):
    """The sub-spec name of one shard (also its store campaign name)."""
    return f"{campaign}@shard{shard_id:04d}"


def plan_chunk_shard(base, keys, shard_id, indices, netlist=None,
                     config=None):
    """One shard over an arbitrary set of global fault indices.

    The coordinator's unit of distribution: chunk ``k`` of a job's
    plan becomes shard ``k``, covering the chunk's indices — a
    contiguous slice for exhaustive jobs, whatever the stratified draw
    produced for sampled ones.  ``base`` and ``keys`` are the full
    campaign's ``spec_to_dict`` rendering and per-fault digests,
    computed once per job — chunk shards are planned one at a time as
    the plan draws them, so the per-plan work must be O(chunk).

    :param base: the parent campaign spec as a dict
        (:func:`~repro.store.serialize.spec_to_dict`).
    :param keys: per-fault content digests aligned with
        ``base["faults"]``.
    :param shard_id: the chunk's sequential ident (also the shard id).
    :param indices: global fault indices the chunk drew, in draw order.
    :raises ShardError: for an empty chunk or out-of-range indices.
    """
    faults = base["faults"]
    if not indices:
        raise ShardError(f"chunk shard {shard_id} has no faults")
    if any(i < 0 or i >= len(faults) for i in indices):
        raise ShardError(
            f"chunk shard {shard_id} draws indices outside the "
            f"campaign's {len(faults)} faults"
        )
    sub_spec = dict(base)
    sub_spec["name"] = shard_name(base["name"], shard_id)
    sub_spec["faults"] = [faults[i] for i in indices]
    return Shard(
        shard_id=shard_id,
        campaign=base["name"],
        total=len(faults),
        indices=list(indices),
        fault_keys=[keys[i] for i in indices],
        spec=sub_spec,
        netlist=netlist,
        config=dict(config or {}),
    )


def plan_shards(spec, shard_size=DEFAULT_SHARD_SIZE, netlist=None,
                config=None):
    """Slice a campaign spec into a deterministic list of shards.

    Contiguous fault-order slices: shard 0 gets faults
    ``[0, shard_size)``, shard 1 the next slice, and so on.  Contiguity
    is deliberate — fault lists are usually generated in injection-time
    order, so a contiguous slice needs few golden checkpoints and
    batches well on the worker.  These are exactly the shards the
    coordinator cuts from an exhaustive job's chunk plan
    (:func:`~repro.campaign.sampling.build_plan` through
    :func:`plan_chunk_shard`).

    :param spec: a :class:`~repro.campaign.spec.CampaignSpec`.
    :param shard_size: faults per shard (the last may be smaller).
    :param netlist: optional netlist dict attached to every shard.
    :param config: optional execution config attached to every shard.
    :raises ShardError: for an empty spec or non-positive size.
    """
    if shard_size < 1:
        raise ShardError(f"shard_size must be >= 1, got {shard_size}")
    if not spec.faults:
        raise ShardError(f"campaign {spec.name!r} has no faults to shard")
    base = spec_to_dict(spec)
    keys = [fault_key(fault) for fault in spec.faults]
    plan = build_plan(spec.faults, chunk=shard_size)
    return [
        plan_chunk_shard(base, keys, chunk.ident, chunk.indices,
                         netlist=netlist, config=config)
        for chunk in iter(plan.next_chunk, None)
    ]

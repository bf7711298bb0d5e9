"""The campaign-store backend interface.

The campaign runner was written against one concrete store — a single
SQLite file — but a distributed worker needs another kind of sink
behind the same method surface: a socket-streaming sink that ships
rows to a remote coordinator instead of touching disk at all.
:class:`StoreBackend` names that surface: the methods
:meth:`~repro.campaign.runner.CampaignRunner.run` calls on its
``store`` argument, plus the two single-run writers
(:meth:`~StoreBackend.record_run`, :meth:`~StoreBackend.record_error`).
The runner records every run with :meth:`~StoreBackend.record_runs`:
one call, and one transaction, per outcome group (a scalar run or a
batch), failed runs included.

:class:`~repro.store.store.CampaignStore` (SQLite) is the reference
implementation; :class:`~repro.dist.worker.RowStreamStore`
(wire-protocol streaming) is the other.  The telemetry hooks
(:meth:`record_journal`, :meth:`record_worker`) default to no-ops so
lightweight backends only implement what they persist.

Both persist one **row dict** per terminal run, in the format
:mod:`repro.store.serialize` owns (:data:`~repro.store.serialize.ROW_FIELDS`):
the runner's rows arrive already rendered, and the single-run writers
render the objects they are handed with that module's renderers.
"""

from __future__ import annotations

import abc


class StoreBackend(abc.ABC):
    """Abstract campaign results sink.

    The contract mirrors the runner's store interactions:
    registration (:meth:`open_campaign`, :meth:`check_golden`), resume
    queries (:meth:`pending_indices`, :meth:`load_runs`,
    :meth:`load_errors`), run recording (:meth:`record_runs`, plus the
    single-run :meth:`record_run` and :meth:`record_error`), the final
    execution record (:meth:`record_execution`) and the optional
    telemetry hooks.
    All backends are context managers with an idempotent
    :meth:`close`.
    """

    # -- lifecycle ---------------------------------------------------------

    @abc.abstractmethod
    def close(self):
        """Release any underlying resources (idempotent)."""

    def __enter__(self):
        """Context-manager entry: returns the backend itself."""
        return self

    def __exit__(self, *_exc):
        """Context-manager exit: closes the backend."""
        self.close()
        return False

    # -- campaign registration ---------------------------------------------

    @abc.abstractmethod
    def open_campaign(self, spec, resume=False):
        """Register ``spec`` (or re-attach to it); returns a campaign id."""

    @abc.abstractmethod
    def check_golden(self, campaign_id, probes):
        """Record or verify the golden-run trace digests."""

    # -- resume queries ------------------------------------------------------

    @abc.abstractmethod
    def pending_indices(self, campaign_id, total, include_quarantined=False):
        """Fault indices still to run, in campaign order."""

    def load_runs(self, campaign_id, faults):
        """Previously completed runs as ``{index: FaultResult}``.

        Only resume-capable backends hold history; the default is
        empty (nothing to merge).
        """
        return {}

    def load_errors(self, campaign_id, faults):
        """Previously failed runs as ``[CampaignRunError]`` (default [])."""
        return []

    # -- run recording --------------------------------------------------------

    @abc.abstractmethod
    def record_run(self, campaign_id, index, fault_result,
                   wall_s=None, kernel_events=None, attempts=1,
                   stratum=None):
        """Persist one completed faulty run.

        ``stratum`` is the sampling stratum label for adaptively
        sampled campaigns (None otherwise); backends that do not
        persist strata may ignore it.
        """

    @abc.abstractmethod
    def record_runs(self, campaign_id, rows):
        """Persist one outcome group of runs (one transaction).

        :param rows: a list of row dicts rendered by
            :func:`~repro.store.serialize.result_to_row` or
            :func:`~repro.store.serialize.error_to_row`, each ``idx``
            the campaign's own fault index and ``key`` possibly None.
        """

    @abc.abstractmethod
    def record_error(self, campaign_id, index, message, wall_s=None,
                     status="error", attempts=1, quarantined=False,
                     postmortem=None, stratum=None):
        """Persist one failed faulty run."""

    @abc.abstractmethod
    def record_execution(self, campaign_id, execution, status="complete"):
        """Store the final execution-stats dict and campaign status."""

    # -- telemetry hooks (optional) -------------------------------------------

    def record_journal(self, campaign_id, path, offset=0):
        """Record where the campaign's journal stream lives (no-op)."""

    def record_worker(self, campaign_id, pid, state, fault_idx=None,
                      phase=None, exitcode=None):
        """Upsert one supervised worker's liveness row (no-op)."""

"""Command-line interface.

File-driven access to the flow, so campaigns can run from a shell or a
Makefile without writing Python::

    python -m repro types
    python -m repro info design.json
    python -m repro simulate design.json --until 1us --vcd out.vcd
    python -m repro campaign run design.json faults.json --report report.txt

Campaigns can be recorded into a persistent SQLite store as they run,
then resumed after an interruption or queried without re-simulating::

    python -m repro campaign run design.json faults.json --store camp.db
    python -m repro campaign run design.json faults.json --resume camp.db
    python -m repro campaign status --from-db camp.db
    python -m repro campaign report --from-db camp.db --dictionary

(The pre-store spelling ``repro campaign design.json faults.json`` is
still accepted and behaves like ``campaign run``.)

Observability: ``--trace spans.json`` records kernel/campaign spans,
``--metrics-out metrics.json`` dumps the counter/histogram registry,
``--journal events.jsonl`` streams typed campaign events as they
happen (``campaign watch camp.db`` tails them live), and
``--postmortem-dir dumps/`` writes a flight-recorder post-mortem per
failed run.  An interactive run shows a live progress line with
runs/sec and an ETA (force it with ``--progress``).

The fault file is a JSON list of fault descriptors::

    [
      {"kind": "bitflip", "target": "top/counter.q[0]", "time": "35ns"},
      {"kind": "mbu", "targets": ["a", "b"], "time": "35ns"},
      {"kind": "set", "target": "clk", "time": "50ns", "width": "2ns"},
      {"kind": "stuck", "target": "clk", "value": "0", "t_start": "50ns"},
      {"kind": "current", "node": "pll.icp", "time": "40us",
       "pulse": {"pa": "10mA", "rt": "100ps", "ft": "300ps", "pw": "500ps"}},
      {"kind": "parametric", "component": "pll/vco", "attribute": "kvco",
       "factor": 1.2}
    ]

Exit codes: 0 success, 1 ``--fail-on-error`` tripped, 2 usage or file
errors, 3 one or more fault runs raised simulation errors.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
from collections import deque
from datetime import datetime, timezone
from time import monotonic, sleep

from .campaign import (
    CampaignRunner,
    CampaignSpec,
    FaultDictionary,
    full_report,
    run_campaign,
    to_csv,
)
from .core.errors import ReproError
from .core.units import parse_quantity
from .core.vcd import save_vcd
from .netlist import design_factory, known_types, load_file, load_text_file
from .obs import journal as obs_journal
from .obs import metrics as obs_metrics
from .obs import tracer as obs_tracer
from .obs.tracer import atomic_write_json
from .store import CampaignStore
from .store.serialize import fault_from_dict


def load_netlist(path):
    """Read a netlist file, dispatching on format.

    ``.json`` files use the JSON schema; anything else is parsed as
    the ``.rcir`` text format.
    """
    if path.endswith(".json"):
        return load_file(path)
    return load_text_file(path)


def load_faults(path):
    """Read a JSON fault list file."""
    with open(path) as handle:
        entries = json.load(handle)
    if not isinstance(entries, list):
        raise ReproError("fault file must contain a JSON list")
    return [fault_from_dict(entry) for entry in entries]


class ProgressLine:
    """A single live stderr line: completed count, rate, ETA.

    The campaign runner invokes it as its ``progress`` callback;
    ``index`` counts already-completed (or started) runs, so the rate
    estimate is simply ``index / elapsed``.
    """

    def __init__(self, stream=None):
        self.stream = stream if stream is not None else sys.stderr
        self.t_start = monotonic()
        self._dirty = False

    def __call__(self, index, total, fault):
        """Render progress for run ``index`` of ``total``.

        Guarded against the degenerate inputs a first callback (or an
        empty campaign) produces: ``total == 0``, zero elapsed time and
        zero rate all render placeholders instead of raising or
        printing ``inf``/``nan``.
        """
        elapsed = monotonic() - self.t_start
        if index > 0 and elapsed > 0:
            runs_per_s = index / elapsed
            eta = f"{(total - index) / runs_per_s:4.0f}s"
            rate = f"{runs_per_s:6.2f}"
        else:
            rate, eta = " " * 6, "   ?s"
        percent = f"{index / total:4.0%}" if total > 0 else "   -"
        line = (
            f"\r[{index + 1:>4}/{total}] {percent}"
            f" {rate} runs/s  eta {eta}  {fault.describe():<60.60s}"
        )
        self.stream.write(line)
        self.stream.flush()
        self._dirty = True

    def finish(self):
        """Terminate the live line (idempotent)."""
        if self._dirty:
            self.stream.write("\n")
            self.stream.flush()
            self._dirty = False


# -- subcommands -----------------------------------------------------------


def cmd_types(_args):
    """List the component types a netlist may instantiate."""
    for name in known_types():
        print(name)
    return 0


def cmd_info(args):
    """Summarise a netlist file."""
    netlist = load_netlist(args.netlist)
    print(f"design   : {netlist.name}")
    print(f"dt       : {netlist.dt}")
    print(f"signals  : {', '.join(s.name for s in netlist.signals) or '-'}")
    print(f"nodes    : "
          f"{', '.join(f'{n.name}({n.kind})' for n in netlist.nodes) or '-'}")
    print(f"buses    : "
          f"{', '.join(f'{b.name}[{b.width}]' for b in netlist.buses) or '-'}")
    print("instances:")
    for inst in netlist.instances:
        ports = ", ".join(f"{p}={n}" for p, n in inst.ports.items())
        print(f"  {inst.name}: {inst.type}({ports})")
    print(f"probes   : {', '.join(netlist.probes) or '-'}")
    print(f"outputs  : {', '.join(netlist.outputs) or '-'}")
    return 0


def cmd_simulate(args):
    """Elaborate and run a netlist, optionally dumping waves."""
    netlist = load_netlist(args.netlist)
    design = design_factory(netlist)()
    until = parse_quantity(args.until, expect_unit="s")
    design.sim.run(until)
    print(f"simulated {until * 1e6:g} us: "
          f"{design.sim.events_executed} events, "
          f"{design.sim.analog_steps} analog steps")
    for name in sorted(design.probes):
        trace = design.probes[name]
        print(f"  {name}: {len(trace)} samples, final = "
              f"{trace.raw_values[-1] if len(trace) else '-'}")
    if args.vcd:
        save_vcd(design.probes, args.vcd)
        print(f"wrote {args.vcd}")
    return 0


def _write_observability(args):
    """Dump trace spans / metrics snapshots the run collected.

    Both artifacts are written atomically (temp file + rename), so an
    interrupt mid-dump leaves the previous file or the complete new
    one, never truncated JSON.
    """
    if getattr(args, "trace", None):
        obs_tracer.TRACER.save(args.trace)
        print(f"wrote {args.trace}", file=sys.stderr)
    if getattr(args, "metrics_out", None):
        atomic_write_json(args.metrics_out, obs_metrics.snapshot())
        print(f"wrote {args.metrics_out}", file=sys.stderr)


def cmd_campaign_run(args):
    """Run a fault-injection campaign from netlist + fault files."""
    netlist, spec = _build_spec(args)

    if args.trace:
        obs_tracer.reset()
        obs_tracer.enable()
    if args.metrics_out:
        obs_metrics.reset()
        obs_metrics.enable()
    if args.journal:
        # Resumed campaigns append to a shared journal file (the store
        # records this session's byte offset); fresh runs truncate.
        obs_journal.open_journal(
            args.journal, append=args.resume is not None
        )

    if args.verbose:
        progress = (lambda i, n, f: print(f"run {i + 1}/{n}: {f.describe()}",
                                          file=sys.stderr))
    elif args.progress or sys.stderr.isatty():
        progress = ProgressLine()
    else:
        progress = None

    store_path = args.resume or args.store
    store = CampaignStore(store_path) if store_path else None
    try:
        result = run_campaign(
            design_factory(netlist),
            spec,
            workers=args.workers,
            progress=progress,
            store=store,
            resume=args.resume is not None,
            on_error="collect",
            retry_quarantined=args.retry_quarantined,
            **_execution_options(args),
            sample=args.sample,
            margin=args.margin,
            confidence=args.confidence,
            sample_seed=args.sample_seed,
            strata=args.strata,
            chunk=args.chunk,
        )
    finally:
        if store is not None:
            store.close()
        if isinstance(progress, ProgressLine):
            progress.finish()
        if args.journal:
            obs_journal.close_journal()
            print(f"wrote {args.journal}", file=sys.stderr)
        _write_observability(args)
        if args.trace:
            obs_tracer.disable()
        if args.metrics_out:
            obs_metrics.disable()

    report = full_report(result, listing_limit=args.listing_limit)
    print(report)
    if args.report:
        with open(args.report, "w") as handle:
            handle.write(report + "\n")
    if args.csv:
        with open(args.csv, "w") as handle:
            handle.write(to_csv(result))
        print(f"wrote {args.csv}")

    if result.errors:
        print(
            f"error: {len(result.errors)} of {len(spec.faults)} fault "
            "runs raised simulation errors:",
            file=sys.stderr,
        )
        for err in result.errors[:10]:
            print(f"  [{err.index}] {err.describe()}", file=sys.stderr)
        if len(result.errors) > 10:
            print(f"  ... ({len(result.errors) - 10} more)", file=sys.stderr)
        if store_path:
            hint = f"(rerun with --resume {store_path} to retry the failed runs"
            if any(err.quarantined for err in result.errors):
                hint += "; add --retry-quarantined to include quarantined ones"
            print(hint + ")", file=sys.stderr)
        return 3
    errors = sum(1 for r in result if r.classification.is_error())
    return 1 if args.fail_on_error and errors else 0


def _age_seconds(iso_text):
    """Seconds since an ISO timestamp, or None when unparseable."""
    try:
        then = datetime.fromisoformat(iso_text)
    except (TypeError, ValueError):
        return None
    if then.tzinfo is None:
        then = then.replace(tzinfo=timezone.utc)
    return (datetime.now(timezone.utc) - then).total_seconds()


def _worker_lines(store, name):
    """Rendered supervised-worker rows for one campaign (may be [])."""
    try:
        rows = store.worker_rows(name)
    except ReproError:
        return []
    lines = []
    for row in rows:
        state = row["state"]
        if state == "dead" and row["exitcode"] is not None:
            state = f"dead[{row['exitcode']}]"
        task = (
            "idle" if row["fault_idx"] is None
            else f"fault {row['fault_idx']}"
        )
        if row["phase"]:
            task += f" ({row['phase']})"
        age = _age_seconds(row["updated_at"])
        updated = f"{age:.1f}s ago" if age is not None else "?"
        lines.append(
            f"worker {row['pid']}: {state:<9} {task:<24} updated {updated}"
        )
    return lines


def cmd_campaign_status(args):
    """Progress summary of every campaign in a store."""
    with CampaignStore(args.from_db) as store:
        summaries = store.status()
        if not summaries:
            print("no campaigns recorded")
            return 0
        header = (
            f"{'campaign':<24} {'status':<9} {'mode':<15} {'done':>10} "
            f"{'errors':>6} {'quar':>5} {'skip':>6}  last update"
        )
        print(header)
        print("-" * len(header))
        for row in summaries:
            done = f"{row['completed']}/{row['total']}"
            # "skip" counts faults a sampled campaign's early stop
            # never simulated; "-" marks exhaustive campaigns.
            skip = (
                str(row.get("skipped", 0)) if row.get("sampled") else "-"
            )
            print(
                f"{row['name']:<24} {row['status']:<9} "
                f"{row.get('mode', '?'):<15} {done:>10} "
                f"{row['errors']:>6} {row.get('quarantined', 0):>5} "
                f"{skip:>6}  "
                f"{row['updated_at']}"
            )
        for row in summaries:
            worker_lines = _worker_lines(store, row["name"])
            if worker_lines:
                print(f"workers ({row['name']}):")
                for line in worker_lines:
                    print(f"  {line}")
    return 0


def _watch_frame(store, name, finished, last_event, journal_path):
    """One rendered frame of the ``campaign watch`` live view."""
    stamp = datetime.now(timezone.utc).strftime("%H:%M:%S")
    lines = [f"--- campaign watch @ {stamp}Z ---"]
    try:
        summaries = store.status()
    except Exception as exc:  # writer holds the lock: show a stale frame
        lines.append(f"(store busy: {exc})")
        return "\n".join(lines)
    if name is not None:
        summaries = [s for s in summaries if s["name"] == name]
    if not summaries:
        lines.append("no campaigns recorded yet")
        return "\n".join(lines)
    window_s = 10.0
    cutoff = monotonic() - window_s
    rate = sum(1 for t in finished if t >= cutoff) / window_s
    for row in summaries:
        total = row["total"]
        percent = (
            f"{row['completed'] / total:4.0%}" if total else "   -"
        )
        lines.append(
            f"{row['name']}: {row['status']} [{row.get('mode', '?')}]  "
            f"{row['completed']}/{total} {percent}  "
            f"errors {row['errors']}  "
            f"quarantined {row.get('quarantined', 0)}"
        )
        try:
            counts = store.run_status_counts(row["name"])
        except ReproError:
            counts = {}
        if counts:
            text = "  ".join(
                f"{status}={n}" for status, n in sorted(counts.items())
            )
            lines.append(f"  status: {text}")
        for line in _worker_lines(store, row["name"]):
            lines.append(f"  {line}")
    if journal_path:
        lines.append(
            f"  rate: {rate:.2f} runs/s (last {window_s:.0f}s,"
            f" journal {journal_path})"
        )
        if last_event is not None:
            lines.append(
                f"  last event: {last_event.get('event')}"
                f" (seq {last_event.get('seq')})"
            )
    else:
        lines.append("  (no journal recorded; polling store only)")
    return "\n".join(lines)


def cmd_campaign_watch(args):
    """Live view of a (running) campaign: tail the journal, poll the
    store, render per-status counts, workers and runs/sec."""
    from .obs.journal import tail_journal

    deadline = monotonic() + args.duration if args.duration else None
    finished = deque(maxlen=1024)  # stamps of recent run_finished events
    last_event = None
    # Opening a CampaignStore *creates* the file, and a watcher must
    # not conjure an empty database where the writer expects to create
    # one (a distributed coordinator, say, that has not merged its
    # first shard yet).  Wait for the file instead.
    while not os.path.exists(args.from_db):
        stamp = datetime.now(timezone.utc).strftime("%H:%M:%S")
        print(
            f"--- campaign watch @ {stamp}Z ---\n"
            f"waiting for store {args.from_db} to appear...",
            flush=True,
        )
        if args.once:
            return 0
        if deadline is not None and monotonic() >= deadline:
            return 0
        try:
            sleep(args.interval)
        except KeyboardInterrupt:
            return 0
    with CampaignStore(args.from_db) as store:
        journal_path = args.journal
        position = 0
        if journal_path is None:
            try:
                located = store.journal_location(args.name)
            except ReproError:
                located = None
            if located:
                journal_path, position = located
        try:
            while True:
                if journal_path:
                    events, position = tail_journal(journal_path, position)
                    now = monotonic()
                    for event in events:
                        if event.get("event") == "run_finished":
                            finished.append(now)
                    if events:
                        last_event = events[-1]
                print(
                    _watch_frame(
                        store, args.name, finished, last_event,
                        journal_path,
                    ),
                    flush=True,
                )
                if args.once:
                    return 0
                if deadline is not None and monotonic() >= deadline:
                    return 0
                sleep(args.interval)
        except KeyboardInterrupt:
            return 0


def cmd_campaign_report(args):
    """Regenerate reports from a campaign store, without simulating."""
    with CampaignStore(args.from_db) as store:
        result = store.load_result(args.name)
    report = full_report(result, listing_limit=args.listing_limit)
    print(report)
    if args.dictionary:
        print()
        print("--- fault dictionary ---")
        print(FaultDictionary(result).report())
    if args.report:
        with open(args.report, "w") as handle:
            handle.write(report + "\n")
    if args.csv:
        with open(args.csv, "w") as handle:
            handle.write(to_csv(result))
        print(f"wrote {args.csv}")
    return 0


def _build_spec(args):
    """A CampaignSpec from the netlist/faults file arguments."""
    netlist = load_netlist(args.netlist)
    faults = load_faults(args.faults)
    if not netlist.outputs:
        raise ReproError(
            "netlist declares no outputs; campaigns need at least one"
        )
    spec = CampaignSpec(
        name=args.name or netlist.name,
        faults=faults,
        t_end=parse_quantity(args.until, expect_unit="s"),
        outputs=list(netlist.outputs),
        analog_tolerance=args.analog_tolerance,
        compare_from=args.compare_from,
    )
    return netlist, spec


def _execution_options(args):
    """The execution flags run, serve and submit share
    (:func:`_add_execution_options`), as ``run()`` keywords."""
    options = {key: getattr(args, key) for key in (
        "warm_start", "batch", "max_checkpoints", "postmortem_dir",
        "timeout", "event_budget", "retries",
    )}
    options["checkpoint_every"] = (
        parse_quantity(args.checkpoint_every, expect_unit="s")
        if args.checkpoint_every else None
    )
    return options


def _shard_config(args):
    """Worker-side execution kwargs shipped inside every shard: the
    shared execution flags whose values differ from ``run()``'s
    defaults.

    Sampling flags deliberately never land here: workers execute
    plain exhaustive shards of the *drawn* faults; the coordinator
    owns the sampler (see :func:`_sampling_config`).
    """
    defaults = inspect.signature(CampaignRunner.run).parameters
    return {
        key: value for key, value in _execution_options(args).items()
        if value != defaults[key].default
    }


def _sampling_config(args):
    """Coordinator-side sampling config from the CLI flags, or None."""
    if not getattr(args, "sample", False):
        if getattr(args, "margin", None) is not None:
            raise ReproError("--margin needs --sample")
        return None
    if args.margin is None:
        raise ReproError("--sample needs --margin (e.g. --margin 0.005)")
    return {
        "margin": args.margin,
        "confidence": args.confidence,
        "seed": args.sample_seed,
        "strata": args.strata,
    }


def _job_line(job_id, status):
    """The one-line verdict ``serve`` prints for a finished job."""
    return (f"job {job_id} ({status.get('name')}): {status['state']}, "
            f"{status.get('merged', 0)}/{status.get('shards', '?')} shards "
            f"merged, {status.get('rows', 0)} rows")


def cmd_campaign_serve(args):
    """Start a distributed campaign coordinator.

    With netlist + fault files the job is submitted immediately and
    the coordinator exits when it completes; without them it serves
    until interrupted, accepting jobs from ``campaign submit``.
    """
    from .dist import Coordinator
    from .dist.protocol import parse_address

    host, port = parse_address(args.listen)
    if args.ledger is not None:
        print(f"warning: --ledger is ignored: {args.db} itself records "
              "every job for --resume", file=sys.stderr)
    if args.resume and not os.path.exists(args.db):
        raise ReproError(f"--resume needs an existing store: no {args.db}")
    if args.journal:
        obs_journal.open_journal(args.journal)
    coordinator = Coordinator(
        args.db, host=host, port=port, shard_size=args.shard_size,
        lease_timeout_s=args.lease_timeout, max_leases=args.max_leases,
        reconnect_grace_s=args.reconnect_grace,
        lease_wall_s=args.lease_wall_timeout,
    )
    bound = coordinator.address
    print(f"coordinator listening on {bound[0]}:{bound[1]}, "
          f"store {args.db}", file=sys.stderr)
    try:
        if args.resume:
            resumed = coordinator.resume()
            print(f"resumed {len(resumed)} job(s) from {args.db}",
                  file=sys.stderr)
            if resumed:
                # Finish the interrupted jobs, then exit with their
                # verdict — the crash-recovery counterpart of serving
                # a netlist job to completion.
                coordinator.drain_when_idle(True)
                coordinator.start()
                ok = True
                try:
                    for job_id in resumed:
                        status = coordinator.wait(job_id)
                        print(_job_line(job_id, status), file=sys.stderr)
                        ok = ok and status["state"] == "complete"
                except KeyboardInterrupt:
                    return 3
                return 0 if ok else 3
            # Nothing interrupted: every recorded job already reached
            # a terminal state.  Exit instead of parking as a server —
            # the operator asked to finish a crash, not to serve.
            print(f"nothing to resume: every job in {args.db} is "
                  "terminal", file=sys.stderr)
            return 0
        if args.netlist:
            if not args.faults:
                raise ReproError("serve with a netlist also needs faults")
            netlist, spec = _build_spec(args)
            payload = netlist.to_dict() if args.ship_netlist else None
            coordinator.drain_when_idle(True)
            job_id = coordinator.submit(
                spec, netlist=payload, config=_shard_config(args),
                sampling=_sampling_config(args),
            )
            coordinator.start()
            try:
                status = coordinator.wait(job_id)
            except KeyboardInterrupt:
                status = coordinator.job_status(job_id)
            print(_job_line(job_id, status), file=sys.stderr)
            return 0 if status["state"] == "complete" else 3
        try:
            coordinator.serve()
        except KeyboardInterrupt:
            pass
        return 0
    finally:
        coordinator.stop()
        if args.journal:
            obs_journal.close_journal()


def cmd_campaign_worker(args):
    """Run a worker daemon against a coordinator.

    With ``--netlist`` the design is built locally and shards only
    carry fault slices; without it, shards must embed their netlist
    (``campaign submit`` ships it by default).
    """
    from .dist import run_worker

    factory = None
    if args.netlist:
        factory = design_factory(load_netlist(args.netlist))
    completed = run_worker(
        args.connect, factory=factory, name=args.name,
        max_shards=args.max_shards,
        max_reconnects=(0 if args.no_reconnect
                        else args.max_reconnects or None),
        backoff_s=args.backoff, backoff_max_s=args.backoff_max,
    )
    print(f"worker done: {completed} shards completed", file=sys.stderr)
    return 0


def cmd_campaign_submit(args):
    """Submit a campaign to a running coordinator (async job API)."""
    from .dist.protocol import PROTOCOL_VERSION, connect, parse_address
    from .store.serialize import spec_to_dict

    netlist, spec = _build_spec(args)
    sampling = _sampling_config(args)
    host, port = parse_address(args.connect)
    conn = connect(host, port)
    try:
        conn.send("hello", role="client", name="repro-submit",
                  proto=PROTOCOL_VERSION)
        welcome = conn.recv(timeout=10.0)
        if welcome is None or welcome.get("frame") != "welcome":
            raise ReproError(
                f"coordinator at {host}:{port} did not answer the hello"
            )
        conn.send(
            "submit", spec=spec_to_dict(spec),
            netlist=netlist.to_dict() if args.ship_netlist else None,
            config=_shard_config(args), sampling=sampling,
        )
        reply = conn.recv(timeout=30.0)
        if reply is None or reply.get("frame") != "job":
            raise ReproError(f"submit rejected: {reply!r}")
        job_id = reply["job"]
        print(
            f"job {job_id} accepted: {reply.get('total')} faults in "
            f"{reply.get('shards')} shards"
        )
        if not args.wait:
            return 0
        while True:
            sleep(args.poll)
            conn.send("status_request", job=job_id)
            status = conn.recv(timeout=30.0)
            if status is None:
                raise ReproError("coordinator went away while waiting")
            if status.get("frame") != "job_status":
                continue
            print(
                f"job {job_id}: {status['state']}  "
                f"shards {status.get('merged', 0)}/"
                f"{status.get('shards', '?')} merged  "
                f"rows {status.get('rows', 0)}/{status.get('total', '?')}",
                file=sys.stderr,
            )
            if status["state"] != "running":
                return 0 if status["state"] == "complete" else 3
    finally:
        conn.close()


def _add_spec_arguments(p, required=True):
    """Netlist, faults and spec options shared by run, serve and submit."""
    nargs = {} if required else {"nargs": "?", "default": None}
    p.add_argument("netlist", **nargs)
    p.add_argument("faults", help="JSON fault list file", **nargs)
    p.add_argument("--until", default="1us")
    p.add_argument("--name", default=None)
    p.add_argument("--analog-tolerance", type=float, default=0.01)
    p.add_argument("--compare-from", type=float, default=None)


def _add_execution_options(p):
    """Execution flags shared by run, serve and submit; each is the
    ``run()`` keyword of the same name (:func:`_execution_options`)."""
    p.add_argument("--warm-start", action="store_true",
                   help="restore golden checkpoints instead of "
                        "re-simulating each fault from t=0")
    p.add_argument("--batch", nargs="?", const="auto", default="off",
                   choices=["auto", "analog", "digital", "off"],
                   metavar="{auto,analog,digital,off}",
                   help="batched execution mode (implies --warm-start): "
                        "'analog' advances current-injection variants as "
                        "vectorized ensembles, 'digital' forks bit-flip "
                        "mutants off a shared golden branch walk, 'auto' "
                        "(the default when the flag is given bare) enables "
                        "both; divergent variants peel off to the scalar "
                        "path, results stay bit-identical")
    p.add_argument("--no-batch", dest="batch", action="store_const",
                   const="off", help="disable batched execution (same as "
                                     "--batch off; kept as an alias)")
    p.add_argument("--checkpoint-every", default=None,
                   help="checkpoint granularity for --warm-start, e.g. "
                        "'500ns' (default: per injection time)")
    p.add_argument("--max-checkpoints", type=int, default=None,
                   help="ceiling on retained golden checkpoints")
    p.add_argument("--postmortem-dir", metavar="DIR", default=None,
                   help="write a flight-recorder post-mortem JSON per "
                        "failed run (recent solver steps, node values, "
                        "event-queue tail, fault and budget state) into DIR")
    p.add_argument("--timeout", default=None, metavar="SECONDS",
                   help="per-fault wall-clock budget, e.g. '30s'; "
                        "overrunning runs classify as 'timeout' (pool "
                        "workers are killed a grace period later)")
    p.add_argument("--event-budget", type=int, default=None, metavar="N",
                   help="per-fault ceiling on kernel events; overrunning "
                        "runs classify as 'timeout'")
    p.add_argument("--retries", type=int, default=None, metavar="N",
                   help="extra attempts per failed fault before it is "
                        "quarantined (default 1; 0 disables)")


def _add_sampling_options(p, chunk=False):
    """Adaptive-sampling flags shared by run, serve and submit."""
    from .campaign.sampling import STRATA_MODES

    p.add_argument("--sample", action="store_true",
                   help="confidence-bounded adaptive sampling: draw "
                        "stratified samples from the fault list and "
                        "stop when the pooled Wilson interval "
                        "half-width drops to --margin; faults never "
                        "simulated get 'skipped' store rows")
    p.add_argument("--margin", type=float, default=None, metavar="FRAC",
                   help="requested interval half-width, e.g. 0.005 "
                        "for ±0.5%% (required with --sample)")
    p.add_argument("--confidence", type=float, default=0.95,
                   metavar="LEVEL",
                   help="interval confidence level (default 0.95)")
    p.add_argument("--sample-seed", type=int, default=0, metavar="N",
                   help="draw-sequence seed; same seed -> "
                        "row-identical campaign (default 0)")
    p.add_argument("--strata", default="site-phase",
                   choices=list(STRATA_MODES),
                   help="stratification: 'site' = injection site, "
                        "'phase' = schedule-time bucket, 'site-phase' "
                        "= both (default), 'none' = one pool")
    if chunk:
        p.add_argument("--chunk", type=int, default=None, metavar="N",
                       help="draws per convergence-evaluation chunk "
                            "(default 25; part of the draw sequence)")


def build_parser():
    """The argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Early SEU fault injection in digital, analog and "
        "mixed-signal circuits (DATE 2004 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_types = sub.add_parser("types", help="list netlist component types")
    p_types.set_defaults(func=cmd_types)

    p_info = sub.add_parser("info", help="summarise a netlist file")
    p_info.add_argument("netlist")
    p_info.set_defaults(func=cmd_info)

    p_sim = sub.add_parser("simulate", help="run a netlist")
    p_sim.add_argument("netlist")
    p_sim.add_argument("--until", default="1us",
                       help="simulated duration (default 1us)")
    p_sim.add_argument("--vcd", help="write probe waves to a VCD file")
    p_sim.set_defaults(func=cmd_simulate)

    p_camp = sub.add_parser("campaign", help="fault-injection campaigns")
    camp_sub = p_camp.add_subparsers(dest="campaign_command", required=True)

    p_run = camp_sub.add_parser("run", help="run an injection campaign")
    _add_spec_arguments(p_run)
    p_run.add_argument("--report", help="also write the report to a file")
    p_run.add_argument("--csv", help="write per-run results as CSV")
    p_run.add_argument("--listing-limit", type=int, default=20)
    p_run.add_argument("--workers", type=int, default=None,
                       help="run faulty simulations (and batches) in N "
                            "processes")
    _add_execution_options(p_run)
    p_run.add_argument("--store", metavar="DB", default=None,
                       help="record results into a campaign database as "
                            "each run completes")
    p_run.add_argument("--resume", metavar="DB", default=None,
                       help="resume an interrupted campaign from DB, "
                            "skipping already-completed faults "
                            "(implies --store DB)")
    p_run.add_argument("--trace", metavar="FILE", default=None,
                       help="record kernel/campaign spans to a JSON file")
    p_run.add_argument("--metrics-out", metavar="FILE", default=None,
                       help="dump the metrics registry to a JSON file")
    p_run.add_argument("--journal", metavar="FILE", default=None,
                       help="stream typed campaign events to FILE as "
                            "JSONL while the campaign runs; 'campaign "
                            "watch' tails it (with --resume the file "
                            "is appended, not truncated)")
    p_run.add_argument("--retry-quarantined", action="store_true",
                       help="with --resume, re-run previously "
                            "quarantined faults instead of skipping "
                            "them")
    p_run.add_argument("--progress", action="store_true",
                       help="force the live progress line (default: only "
                            "on a tty)")
    p_run.add_argument("--verbose", action="store_true")
    p_run.add_argument("--fail-on-error", action="store_true",
                       help="exit 1 when any fault caused an error")
    _add_sampling_options(p_run, chunk=True)
    p_run.set_defaults(func=cmd_campaign_run)

    p_status = camp_sub.add_parser(
        "status", help="progress of stored campaigns"
    )
    p_status.add_argument("--from-db", required=True, metavar="DB",
                          help="campaign database to inspect")
    p_status.set_defaults(func=cmd_campaign_status)

    p_watch = camp_sub.add_parser(
        "watch", help="live view of a running campaign"
    )
    p_watch.add_argument("from_db", metavar="DB",
                         help="campaign database to watch")
    p_watch.add_argument("--name", default=None,
                         help="campaign name (when the DB holds several)")
    p_watch.add_argument("--journal", metavar="FILE", default=None,
                         help="journal file to tail (default: the one "
                              "recorded in the store, when any)")
    p_watch.add_argument("--interval", type=float, default=1.0,
                         metavar="SECONDS",
                         help="refresh interval (default 1s)")
    p_watch.add_argument("--once", action="store_true",
                         help="render a single frame and exit")
    p_watch.add_argument("--duration", type=float, default=None,
                         metavar="SECONDS",
                         help="stop watching after SECONDS")
    p_watch.set_defaults(func=cmd_campaign_watch)

    p_report = camp_sub.add_parser(
        "report", help="regenerate reports from a campaign database"
    )
    p_report.add_argument("--from-db", required=True, metavar="DB",
                          help="campaign database to report from")
    p_report.add_argument("--name", default=None,
                          help="campaign name (when the DB holds several)")
    p_report.add_argument("--listing-limit", type=int, default=20)
    p_report.add_argument("--dictionary", action="store_true",
                          help="also print the fault-dictionary report")
    p_report.add_argument("--report", help="also write the report to a file")
    p_report.add_argument("--csv", help="write per-run results as CSV")
    p_report.set_defaults(func=cmd_campaign_report)

    def _add_spec_options(p, required=True):
        """Spec and worker options shared by serve and submit."""
        _add_spec_arguments(p, required)
        _add_execution_options(p)
        p.add_argument("--no-ship-netlist", dest="ship_netlist",
                       action="store_false", default=True,
                       help="do not embed the netlist in shards; "
                            "workers must then run with --netlist")
        _add_sampling_options(p)

    p_serve = camp_sub.add_parser(
        "serve",
        help="start a distributed campaign coordinator",
        description="Shard a campaign across connected 'campaign "
                    "worker' daemons.  With netlist+faults files the "
                    "job runs immediately and the coordinator exits on "
                    "completion; without them it accepts jobs from "
                    "'campaign submit' until interrupted.",
    )
    _add_spec_options(p_serve, required=False)
    p_serve.add_argument("--db", required=True, metavar="DB",
                         help="final merged campaign database")
    p_serve.add_argument("--listen", default="127.0.0.1:7410",
                         metavar="HOST:PORT",
                         help="listen address (default 127.0.0.1:7410; "
                              "port 0 picks an ephemeral port)")
    p_serve.add_argument("--shard-size", type=int, default=25,
                         metavar="N", help="faults per shard (default 25)")
    p_serve.add_argument("--lease-timeout", type=float, default=15.0,
                         metavar="SECONDS",
                         help="heartbeat silence before a shard lease "
                              "is revoked and reassigned (default 15s)")
    p_serve.add_argument("--max-leases", type=int, default=3, metavar="N",
                         help="lease attempts per shard before it is "
                              "declared failed (default 3)")
    p_serve.add_argument("--journal", metavar="FILE", default=None,
                         help="stream job/shard/run events to FILE as "
                              "JSONL ('campaign watch' tails it)")
    p_serve.add_argument("--ledger", metavar="FILE", default=None,
                         help="ignored, with a warning: --db records "
                              "every job (accepted so that existing "
                              "scripts keep working)")
    p_serve.add_argument("--resume", action="store_true",
                         help="finish the unfinished jobs recorded in "
                              "--db: merged shards and shards whose "
                              "rows all arrived are adopted, the rest "
                              "requeue")
    p_serve.add_argument("--reconnect-grace", type=float, default=10.0,
                         metavar="SECONDS",
                         help="how long a disconnected worker's lease "
                              "stays reserved for its reconnect before "
                              "the shard reassigns (default 10s; 0 "
                              "restores immediate reassignment)")
    p_serve.add_argument("--lease-wall-timeout", type=float,
                         default=None, metavar="SECONDS",
                         help="absolute wall-clock ceiling per lease, "
                              "heartbeats or not (default: none)")
    p_serve.set_defaults(func=cmd_campaign_serve)

    p_worker = camp_sub.add_parser(
        "worker", help="run a distributed campaign worker daemon"
    )
    p_worker.add_argument("--connect", required=True, metavar="HOST:PORT",
                          help="coordinator address")
    p_worker.add_argument("--netlist", default=None,
                          help="build the design from this local file "
                               "(otherwise shards must embed a netlist)")
    p_worker.add_argument("--name", default=None,
                          help="worker identity (default host:pid)")
    p_worker.add_argument("--max-shards", type=int, default=None,
                          metavar="N", help="exit after N shards")
    p_worker.add_argument("--no-reconnect", action="store_true",
                          help="die on the first socket failure instead "
                               "of backing off and redialing")
    p_worker.add_argument("--max-reconnects", type=int, default=8,
                          metavar="N",
                          help="consecutive failed redials before "
                               "giving up (default 8; 0 = forever)")
    p_worker.add_argument("--backoff", type=float, default=0.5,
                          metavar="SECONDS",
                          help="first reconnect backoff; doubles per "
                               "attempt (default 0.5s)")
    p_worker.add_argument("--backoff-max", type=float, default=15.0,
                          metavar="SECONDS",
                          help="reconnect backoff ceiling (default 15s)")
    p_worker.set_defaults(func=cmd_campaign_worker)

    p_submit = camp_sub.add_parser(
        "submit", help="submit a campaign to a running coordinator"
    )
    _add_spec_options(p_submit, required=True)
    p_submit.add_argument("--connect", required=True, metavar="HOST:PORT",
                          help="coordinator address")
    p_submit.add_argument("--wait", action="store_true",
                          help="poll until the job reaches a terminal "
                               "state (exit 0 complete, 3 otherwise)")
    p_submit.add_argument("--poll", type=float, default=1.0,
                          metavar="SECONDS",
                          help="status poll interval with --wait")
    p_submit.set_defaults(func=cmd_campaign_submit)

    return parser


_CAMPAIGN_SUBCOMMANDS = {
    "run", "status", "report", "watch", "serve", "worker", "submit",
}


def _normalize_argv(argv):
    """Accept the historic ``repro campaign <netlist> <faults>`` form.

    The campaign command grew subcommands (``run``/``status``/
    ``report``); a bare ``campaign`` followed by a file path is
    rewritten to ``campaign run`` so existing Makefiles keep working.
    """
    argv = list(argv)
    if (
        len(argv) >= 2
        and argv[0] == "campaign"
        and argv[1] not in _CAMPAIGN_SUBCOMMANDS
        and not argv[1].startswith("-")
    ):
        argv.insert(1, "run")
    return argv


def main(argv=None):
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(
        _normalize_argv(sys.argv[1:] if argv is None else argv)
    )
    try:
        return args.func(args)
    except (ReproError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

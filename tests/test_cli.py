"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, fault_from_dict, load_faults, main
from repro.core.errors import ReproError
from repro.faults import (
    BitFlip,
    MultipleBitUpset,
    ParametricFault,
    SETPulse,
    StuckAt,
)
from repro.injection import CurrentInjection

NETLIST = {
    "name": "dut",
    "dt": "1ns",
    "signals": [
        {"name": "clk", "init": "0"},
        {"name": "parity", "init": "U"},
    ],
    "buses": [{"name": "cnt", "width": 4, "init": 0}],
    "instances": [
        {"type": "ClockGen", "name": "ck", "ports": {"out": "clk"},
         "params": {"period": 1e-8}},
        {"type": "Counter", "name": "counter",
         "ports": {"clk": "clk", "q": "cnt"}},
        {"type": "ParityGen", "name": "par",
         "ports": {"a": "cnt", "parity": "parity"}},
    ],
    "probes": ["cnt", "parity"],
    "outputs": ["parity"],
}

FAULTS = [
    {"kind": "bitflip", "target": "dut/counter.q[0]", "time": "35ns"},
    {"kind": "stuck", "target": "clk", "value": "0", "t_start": "50ns"},
]


@pytest.fixture
def netlist_file(tmp_path):
    path = tmp_path / "design.json"
    path.write_text(json.dumps(NETLIST))
    return str(path)


@pytest.fixture
def fault_file(tmp_path):
    path = tmp_path / "faults.json"
    path.write_text(json.dumps(FAULTS))
    return str(path)


class TestFaultParsing:
    def test_bitflip(self):
        fault = fault_from_dict(
            {"kind": "bitflip", "target": "x.q", "time": "1us"})
        assert isinstance(fault, BitFlip)
        assert fault.time == pytest.approx(1e-6)

    def test_mbu(self):
        fault = fault_from_dict(
            {"kind": "mbu", "targets": ["a", "b"], "time": 1e-6})
        assert isinstance(fault, MultipleBitUpset)

    def test_set(self):
        fault = fault_from_dict(
            {"kind": "set", "target": "w", "time": "1us", "width": "2ns"})
        assert isinstance(fault, SETPulse)

    def test_stuck(self):
        fault = fault_from_dict(
            {"kind": "stuck", "target": "w", "value": "X"})
        assert isinstance(fault, StuckAt)

    def test_current_trapezoid(self):
        fault = fault_from_dict({
            "kind": "current", "node": "icp", "time": "40us",
            "pulse": {"pa": "10mA", "rt": "100ps", "ft": "300ps",
                      "pw": "500ps"},
        })
        assert isinstance(fault, CurrentInjection)
        assert fault.transient.peak() == pytest.approx(0.01)

    def test_current_double_exp(self):
        fault = fault_from_dict({
            "kind": "current", "node": "icp", "time": "40us",
            "pulse": {"i0": "14mA", "tau_r": "50ps", "tau_f": "300ps"},
        })
        assert isinstance(fault, CurrentInjection)

    def test_parametric(self):
        fault = fault_from_dict({
            "kind": "parametric", "component": "pll/vco",
            "attribute": "kvco", "factor": 1.2,
        })
        assert isinstance(fault, ParametricFault)

    def test_unknown_kind(self):
        with pytest.raises(ReproError):
            fault_from_dict({"kind": "gremlin"})

    def test_missing_key(self):
        with pytest.raises(ReproError):
            fault_from_dict({"kind": "bitflip", "target": "x"})

    def test_load_faults_file(self, fault_file):
        faults = load_faults(fault_file)
        assert len(faults) == 2

    def test_load_faults_not_a_list(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        with pytest.raises(ReproError):
            load_faults(str(path))


class TestCommands:
    def test_types(self, capsys):
        assert main(["types"]) == 0
        out = capsys.readouterr().out
        assert "PLL" in out and "Counter" in out

    def test_info(self, netlist_file, capsys):
        assert main(["info", netlist_file]) == 0
        out = capsys.readouterr().out
        assert "design   : dut" in out
        assert "counter: Counter" in out

    def test_simulate(self, netlist_file, capsys):
        assert main(["simulate", netlist_file, "--until", "200ns"]) == 0
        out = capsys.readouterr().out
        assert "simulated 0.2 us" in out
        assert "parity" in out

    def test_simulate_writes_vcd(self, netlist_file, tmp_path, capsys):
        vcd = str(tmp_path / "wave.vcd")
        assert main(["simulate", netlist_file, "--until", "100ns",
                     "--vcd", vcd]) == 0
        text = open(vcd).read()
        assert "$timescale" in text

    def test_campaign(self, netlist_file, fault_file, tmp_path, capsys):
        csv_path = str(tmp_path / "runs.csv")
        code = main(["campaign", netlist_file, fault_file,
                     "--until", "300ns", "--csv", csv_path])
        assert code == 0
        out = capsys.readouterr().out
        assert "classification summary" in out
        assert len(open(csv_path).read().splitlines()) == 3

    def test_campaign_fail_on_error(self, netlist_file, fault_file):
        code = main(["campaign", netlist_file, fault_file,
                     "--until", "300ns", "--fail-on-error"])
        assert code == 1  # the counter flip is an error

    def test_missing_file_is_error_exit(self):
        assert main(["info", "/nonexistent/x.json"]) == 2

    def test_campaign_event_budget_times_out_runs(
        self, netlist_file, fault_file, tmp_path, capsys
    ):
        """A starved event budget quarantines every fault: exit 3."""
        db = str(tmp_path / "camp.db")
        code = main(["campaign", "run", netlist_file, fault_file,
                     "--until", "300ns", "--event-budget", "10",
                     "--retries", "0", "--store", db])
        assert code == 3
        err = capsys.readouterr().err
        assert "[timeout]" in err
        assert "--retry-quarantined" in err

    def test_campaign_retry_quarantined_resume(
        self, netlist_file, fault_file, tmp_path, capsys
    ):
        db = str(tmp_path / "camp.db")
        assert main(["campaign", "run", netlist_file, fault_file,
                     "--until", "300ns", "--event-budget", "10",
                     "--retries", "0", "--store", db]) == 3
        # Plain resume skips the quarantined faults: still exit 3.
        assert main(["campaign", "run", netlist_file, fault_file,
                     "--until", "300ns", "--resume", db]) == 3
        # Lifting the budget and retrying quarantined faults completes.
        assert main(["campaign", "run", netlist_file, fault_file,
                     "--until", "300ns", "--resume", db,
                     "--retry-quarantined"]) == 0
        out = capsys.readouterr().out
        assert "classification summary" in out

    def test_campaign_timeout_flag_parses_quantities(
        self, netlist_file, fault_file
    ):
        assert main(["campaign", "run", netlist_file, fault_file,
                     "--until", "300ns", "--timeout", "30s",
                     "--retries", "1"]) == 0

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestBatchFlag:
    def parse(self, *extra):
        return build_parser().parse_args(
            ["campaign", "run", "design.json", "faults.json", *extra]
        )

    def test_default_is_off(self):
        assert self.parse().batch == "off"

    def test_bare_flag_means_auto(self):
        assert self.parse("--batch").batch == "auto"

    def test_explicit_modes(self):
        for mode in ("auto", "analog", "digital", "off"):
            assert self.parse("--batch", mode).batch == mode

    def test_invalid_mode_rejected(self):
        with pytest.raises(SystemExit):
            self.parse("--batch", "turbo")

    def test_no_batch_alias(self):
        assert self.parse("--batch", "--no-batch").batch == "off"

    def test_campaign_runs_batched(self, netlist_file, fault_file, capsys):
        assert main(["campaign", "run", netlist_file, fault_file,
                     "--until", "300ns", "--batch", "digital"]) == 0
        out = capsys.readouterr().out
        assert "batch mode" in out


class TestExecutionFlags:
    """run, serve and submit spell the execution flags one way."""

    def test_submit_ships_the_shared_flags_as_shard_config(self):
        from repro.cli import _shard_config
        from repro.dist.coordinator import check_config

        args = build_parser().parse_args([
            "campaign", "submit", "design.json", "faults.json",
            "--connect", "127.0.0.1:7410", "--event-budget", "10",
            "--retries", "0", "--checkpoint-every", "50ns",
        ])
        config = _shard_config(args)
        assert sorted(config) == ["checkpoint_every", "event_budget",
                                  "retries"]
        assert config["event_budget"] == 10 and config["retries"] == 0
        assert config["checkpoint_every"] == pytest.approx(50e-9)
        check_config(config)

    def test_defaults_ship_an_empty_config(self):
        from repro.cli import _shard_config

        args = build_parser().parse_args(
            ["campaign", "serve", "--db", "camp.db"]
        )
        assert _shard_config(args) == {}


class TestTextNetlistSupport:
    def test_rcir_file_accepted(self, tmp_path, capsys):
        deck = (
            "design textdut\n"
            "dt 1ns\n"
            "signal clk init=0\n"
            "bus cnt width=4 init=0\n"
            "ck ClockGen out=clk period=10ns\n"
            "counter Counter clk=clk q=cnt\n"
            "probe cnt\n"
        )
        path = tmp_path / "design.rcir"
        path.write_text(deck)
        assert main(["info", str(path)]) == 0
        out = capsys.readouterr().out
        assert "textdut" in out
        assert main(["simulate", str(path), "--until", "100ns"]) == 0


class TestProgressLine:
    def fault(self):
        return BitFlip("dut/counter.q[0]", 35e-9)

    def test_total_zero_renders_placeholders(self):
        import io

        from repro.cli import ProgressLine

        stream = io.StringIO()
        line = ProgressLine(stream=stream)
        line(0, 0, self.fault())  # must not raise ZeroDivisionError
        text = stream.getvalue()
        assert "inf" not in text
        assert "nan" not in text
        assert "-" in text  # percent placeholder

    def test_first_callback_has_no_rate_estimate(self):
        import io

        from repro.cli import ProgressLine

        stream = io.StringIO()
        line = ProgressLine(stream=stream)
        line(0, 10, self.fault())
        text = stream.getvalue()
        assert "?s" in text  # unknown ETA, not inf
        assert "0%" in text

    def test_rate_and_eta_appear_once_runs_complete(self):
        import io

        from repro.cli import ProgressLine

        stream = io.StringIO()
        line = ProgressLine(stream=stream)
        line.t_start -= 10.0  # pretend 10 s have elapsed
        line(5, 10, self.fault())
        text = stream.getvalue()
        assert "runs/s" in text
        assert "?s" not in text
        assert " 50%" in text

    def test_finish_is_idempotent(self):
        import io

        from repro.cli import ProgressLine

        stream = io.StringIO()
        line = ProgressLine(stream=stream)
        line(0, 2, self.fault())
        line.finish()
        line.finish()
        assert stream.getvalue().count("\n") == 1


class TestTelemetryFlags:
    def test_journal_flag_writes_parseable_journal(
        self, netlist_file, fault_file, tmp_path, capsys
    ):
        from repro.obs.journal import read_journal

        journal = str(tmp_path / "campaign.jsonl")
        assert main(["campaign", "run", netlist_file, fault_file,
                     "--until", "300ns", "--journal", journal]) == 0
        events = list(read_journal(journal))
        names = [e["event"] for e in events]
        assert names[0] == "campaign_started"
        assert names[-1] == "campaign_finished"
        assert "run_finished" in names
        assert f"wrote {journal}" in capsys.readouterr().err

    def test_postmortem_dir_flag_dumps_failed_runs(
        self, netlist_file, fault_file, tmp_path, capsys
    ):
        pm_dir = tmp_path / "pm"
        # A starved event budget forces every run to time out.
        assert main(["campaign", "run", netlist_file, fault_file,
                     "--until", "300ns", "--event-budget", "10",
                     "--retries", "0",
                     "--postmortem-dir", str(pm_dir)]) == 3
        dumps = sorted(pm_dir.glob("fault_*.postmortem.json"))
        assert dumps
        payload = json.loads(dumps[0].read_text())
        assert payload["status"] == "timeout"

    def test_watch_once_renders_store_state(
        self, netlist_file, fault_file, tmp_path, capsys
    ):
        db = str(tmp_path / "camp.db")
        journal = str(tmp_path / "campaign.jsonl")
        assert main(["campaign", "run", netlist_file, fault_file,
                     "--until", "300ns", "--store", db,
                     "--journal", journal]) == 0
        capsys.readouterr()
        assert main(["campaign", "watch", db, "--once"]) == 0
        out = capsys.readouterr().out
        assert "campaign watch @" in out
        assert "dut-campaign" in out or "2/2" in out
        assert "rate:" in out
        assert "last event: campaign_finished" in out

    def test_watch_once_without_journal_polls_store(
        self, netlist_file, fault_file, tmp_path, capsys
    ):
        db = str(tmp_path / "camp.db")
        assert main(["campaign", "run", netlist_file, fault_file,
                     "--until", "300ns", "--store", db]) == 0
        capsys.readouterr()
        assert main(["campaign", "watch", db, "--once"]) == 0
        out = capsys.readouterr().out
        assert "no journal recorded; polling store only" in out

    def test_watch_empty_store(self, tmp_path, capsys):
        from repro.store import CampaignStore

        db = str(tmp_path / "empty.db")
        with CampaignStore(db):
            pass
        assert main(["campaign", "watch", db, "--once"]) == 0
        assert "no campaigns recorded yet" in capsys.readouterr().out

"""CLI coverage for the campaign store, resume, and observability paths."""

import json

import pytest

from repro.cli import main
from repro.store import CampaignStore

from .store.test_resume import make_spec

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
    {"kind": "bitflip", "target": "dut/counter.q[1]", "time": "55ns"},
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


class TestStoreBackedRuns:
    def test_run_records_into_store(self, netlist_file, fault_file,
                                    tmp_path, capsys):
        db = str(tmp_path / "camp.db")
        assert main(["campaign", "run", netlist_file, fault_file,
                     "--until", "300ns", "--store", db]) == 0
        capsys.readouterr()
        with CampaignStore(db) as store:
            summary = store.status()[0]
        assert summary["completed"] == 3
        assert summary["status"] == "complete"

    def test_resume_skips_completed_runs(self, netlist_file, fault_file,
                                         tmp_path, capsys):
        db = str(tmp_path / "camp.db")
        main(["campaign", "run", netlist_file, fault_file,
              "--until", "300ns", "--store", db])
        first = capsys.readouterr().out
        assert main(["campaign", "run", netlist_file, fault_file,
                     "--until", "300ns", "--resume", db]) == 0
        second = capsys.readouterr().out
        assert "resumed         : 3 runs loaded from store, 0 executed" \
            in second
        # Same classification table with and without simulation.
        assert first.split("--- execution ---")[0] == \
            second.split("--- execution ---")[0]

    def test_rerun_without_resume_is_an_error(self, netlist_file,
                                              fault_file, tmp_path, capsys):
        db = str(tmp_path / "camp.db")
        main(["campaign", "run", netlist_file, fault_file,
              "--until", "300ns", "--store", db])
        code = main(["campaign", "run", netlist_file, fault_file,
                     "--until", "300ns", "--store", db])
        assert code == 2
        assert "already exists" in capsys.readouterr().err

    def test_status_table(self, netlist_file, fault_file, tmp_path, capsys):
        db = str(tmp_path / "camp.db")
        main(["campaign", "run", netlist_file, fault_file,
              "--until", "300ns", "--store", db])
        capsys.readouterr()
        assert main(["campaign", "status", "--from-db", db]) == 0
        out = capsys.readouterr().out
        assert "dut" in out
        assert "3/3" in out
        assert "mode" in out
        assert "cold" in out

    def test_status_shows_batch_mode(self, netlist_file, fault_file,
                                     tmp_path, capsys):
        db = str(tmp_path / "camp.db")
        main(["campaign", "run", netlist_file, fault_file,
              "--until", "300ns", "--store", db, "--batch", "digital"])
        capsys.readouterr()
        assert main(["campaign", "status", "--from-db", db]) == 0
        out = capsys.readouterr().out
        assert "batched/digital" in out

    def test_report_from_db_matches_live(self, netlist_file, fault_file,
                                         tmp_path, capsys):
        db = str(tmp_path / "camp.db")
        csv_live = str(tmp_path / "live.csv")
        csv_db = str(tmp_path / "db.csv")
        main(["campaign", "run", netlist_file, fault_file,
              "--until", "300ns", "--store", db, "--csv", csv_live])
        capsys.readouterr()
        assert main(["campaign", "report", "--from-db", db,
                     "--dictionary", "--csv", csv_db]) == 0
        out = capsys.readouterr().out
        assert "classification summary" in out
        assert "fault dictionary:" in out
        assert open(csv_db).read() == open(csv_live).read()

    def test_status_on_missing_db_path_errors(self, tmp_path, capsys):
        db = str(tmp_path / "empty.db")
        assert main(["campaign", "status", "--from-db", db]) == 0
        assert "no campaigns recorded" in capsys.readouterr().out


class TestErrorExitCode:
    def test_broken_fault_exits_3_with_summary(self, netlist_file,
                                               tmp_path, capsys):
        faults = FAULTS + [
            {"kind": "bitflip", "target": "dut/counter.nope", "time": "35ns"}
        ]
        fault_file = tmp_path / "faults.json"
        fault_file.write_text(json.dumps(faults))
        db = str(tmp_path / "camp.db")
        code = main(["campaign", "run", netlist_file, str(fault_file),
                     "--until", "300ns", "--store", db])
        captured = capsys.readouterr()
        assert code == 3
        assert "1 of 4 fault runs raised simulation errors" in captured.err
        assert "--resume" in captured.err
        # The three healthy runs are still committed and reported.
        assert "classification summary" in captured.out
        with CampaignStore(db) as store:
            summary = store.status()[0]
        assert summary["completed"] == 3
        assert summary["errors"] == 1
        assert summary["status"] == "errors"

    def test_resume_skips_quarantined_failed_runs(self, netlist_file,
                                                  tmp_path, capsys):
        faults = FAULTS + [
            {"kind": "bitflip", "target": "dut/counter.nope", "time": "35ns"}
        ]
        bad_faults = tmp_path / "bad.json"
        bad_faults.write_text(json.dumps(faults))
        db = str(tmp_path / "camp.db")
        assert main(["campaign", "run", netlist_file, str(bad_faults),
                     "--until", "300ns", "--store", db]) == 3
        # Index 3 exhausted its attempts and is quarantined, so a plain
        # resume loads all four stored rows -- the three good runs plus
        # the quarantined error -- and simulates nothing.
        assert main(["campaign", "run", netlist_file, str(bad_faults),
                     "--until", "300ns", "--resume", db]) == 3
        out = capsys.readouterr().out
        assert "resumed         : 4 runs loaded from store, 0 executed" \
            in out
        assert "quarantined" in out
        # --retry-quarantined gives index 3 another chance; the broken
        # target is deterministic, so it fails (and re-quarantines).
        assert main(["campaign", "run", netlist_file, str(bad_faults),
                     "--until", "300ns", "--resume", db,
                     "--retry-quarantined"]) == 3
        out = capsys.readouterr().out
        # Only index 3 was pending again; it errored, so no run completed.
        assert "resumed         : 3 runs loaded from store, 0 executed" \
            in out
        assert "(2 attempts)" in out


class TestObservabilityFlags:
    def test_trace_and_metrics_files(self, netlist_file, fault_file,
                                     tmp_path, capsys):
        trace = tmp_path / "spans.json"
        metrics = tmp_path / "metrics.json"
        assert main(["campaign", "run", netlist_file, fault_file,
                     "--until", "300ns", "--trace", str(trace),
                     "--metrics-out", str(metrics)]) == 0
        capsys.readouterr()
        spans = json.loads(trace.read_text())
        names = [span["name"] for span in spans]
        assert names.count("campaign.fault_run") == 3
        assert "campaign.golden" in names
        snapshot = json.loads(metrics.read_text())
        assert snapshot["counters"]["campaign.runs"] == 3
        assert snapshot["histograms"]["campaign.run_wall_s"]["count"] == 3

    def test_progress_line_on_stderr(self, netlist_file, fault_file,
                                     capsys):
        assert main(["campaign", "run", netlist_file, fault_file,
                     "--until", "300ns", "--progress"]) == 0
        err = capsys.readouterr().err
        assert "[   1/3]" in err
        assert "runs/s" in err


class TestArgvCompatibility:
    def test_bare_campaign_form_still_works(self, netlist_file, fault_file,
                                            capsys):
        assert main(["campaign", netlist_file, fault_file,
                     "--until", "300ns"]) == 0
        assert "classification summary" in capsys.readouterr().out


class TestServeResume:
    """``campaign serve --resume`` reads the jobs the store records."""

    @pytest.fixture
    def finished_db(self, tmp_path):
        db = str(tmp_path / "dist.db")
        with CampaignStore(db) as store:
            campaign_id = store.open_campaign(make_spec())
            store.record_job(campaign_id, None, None, 4)
            store.record_execution(campaign_id, {"mode": "distributed"})
        return db

    def serve(self, *argv):
        return main(["campaign", "serve", "--listen", "127.0.0.1:0",
                     "--resume", *argv])

    def test_terminal_jobs_leave_nothing_to_resume(self, finished_db,
                                                   capsys):
        assert self.serve("--db", finished_db) == 0
        assert "nothing to resume" in capsys.readouterr().err

    def test_missing_store_fails(self, tmp_path, capsys):
        db = tmp_path / "absent.db"
        assert self.serve("--db", str(db)) == 2
        assert "--resume needs an existing store" in capsys.readouterr().err
        assert not db.exists()

    def test_ledger_flag_is_accepted_and_ignored(self, finished_db,
                                                 tmp_path, capsys):
        ledger = tmp_path / "dist.db.ledger.jsonl"
        assert self.serve("--db", finished_db, "--ledger", str(ledger)) == 0
        err = capsys.readouterr().err
        assert "--ledger is ignored" in err
        assert "nothing to resume" in err
        assert not ledger.exists()

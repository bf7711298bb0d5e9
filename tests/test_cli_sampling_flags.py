"""Sampling flags the CLI refuses instead of ignoring."""

import pytest

from repro.cli import _sampling_config, build_parser, main
from repro.core.errors import ReproError

from .test_cli import fault_file, netlist_file  # noqa: F401  (fixtures)


def test_run_refuses_margin_without_sample(netlist_file, fault_file,
                                           tmp_path, capsys):
    """Before, all faults ran exhaustively and the exit code was 0."""
    db = tmp_path / "c.db"
    code = main(["campaign", "run", netlist_file, fault_file,
                 "--until", "200ns", "--margin", "0.05", "--store", str(db)])
    assert code == 2
    assert "need sample=True" in capsys.readouterr().err
    assert main(["campaign", "status", "--from-db", str(db)]) == 0
    assert "no campaigns" in capsys.readouterr().out.lower()


@pytest.mark.parametrize("command", ["serve", "submit"])
def test_fleet_sampling_config_refuses_margin_without_sample(
    netlist_file, fault_file, command
):
    argv = ["campaign", command, netlist_file, fault_file,
            "--margin", "0.05"]
    argv += ["--db", "unused.db"] if command == "serve" else [
        "--connect", "127.0.0.1:7410"]
    args = build_parser().parse_args(argv)
    with pytest.raises(ReproError, match="--margin needs --sample"):
        _sampling_config(args)
    args.sample = True
    assert _sampling_config(args)["margin"] == 0.05

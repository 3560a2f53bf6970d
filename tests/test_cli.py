"""Command-line interface: subcommands, exit codes, config files."""

import json

import pytest

from mehdg.bench import read_csv
from mehdg.cli import main


def test_solve_json_record(tmp_path, capsys):
    out = tmp_path / "rec.json"
    code = main(["solve", "--n", "2", "--m", "2", "--p", "1",
                 "--case", "poly1", "--mode", "mb", "--out", str(out)])
    assert code == 0
    rec = json.loads(out.read_text())
    assert rec["converged"] is True
    assert rec["p"] == 1 and rec["m"] == 2 and rec["n"] == 2
    assert rec["mode"] == "mb"


def test_solve_stdout(capsys):
    code = main(["solve", "--n", "1", "--m", "1", "--p", "1", "--case", "poly1"])
    assert code == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["dof_global"] == 2


def test_solve_nonconvergence_exit_code(tmp_path, monkeypatch):
    # starve the iteration budget so the solve cannot converge
    import mehdg.cli as cli

    real = cli.SolverConfig
    monkeypatch.setattr(
        cli, "SolverConfig",
        lambda **kw: real(maxiter=1, restart=1, **kw))
    code = main(["solve", "--n", "4", "--m", "2", "--p", "2",
                 "--case", "tanh", "--out", str(tmp_path / "r.json")])
    rec = json.loads((tmp_path / "r.json").read_text())
    assert rec["converged"] is False
    assert code == 2


def test_convergence_csv(tmp_path):
    out = tmp_path / "conv.csv"
    code = main(["convergence", "--case", "poly2", "--p-list", "1",
                 "--n-list", "1,2", "--m", "2", "--mode", "mb",
                 "--tol", "1e-10", "--out", str(out)])
    assert code == 0
    rows = read_csv(out)
    assert len(rows) == 2
    assert rows[0]["p"] == 1 and rows[1]["n"] == 2


def test_compare_csv(tmp_path):
    out = tmp_path / "cmp.csv"
    code = main(["compare", "--n", "2", "--m", "2", "--p", "1",
                 "--kappa", "0.4", "--tols", "1e-2,1e-6", "--out", str(out)])
    assert code == 0
    rows = read_csv(out)
    assert len(rows) == 4
    assert {r["mode"] for r in rows} == {"mb", "mf"}


def test_adapt_csv(tmp_path):
    out = tmp_path / "adapt.csv"
    code = main(["adapt", "--case", "tanh", "--kappa", "0.01",
                 "--advect", "1,2", "--n", "2", "--m", "2", "--p", "1",
                 "--levels", "1", "--mode", "mb", "--out", str(out)])
    assert code == 0
    rows = read_csv(out)
    assert [r["level"] for r in rows] == [0, 1]


def test_cost_csv(tmp_path):
    out = tmp_path / "cost.csv"
    code = main(["cost", "--nm", "8", "--p", "2", "--out", str(out)])
    assert code == 0
    rows = read_csv(out)
    assert [r["m"] for r in rows] == [1, 2, 4, 8]


def test_cost_d3(tmp_path):
    out = tmp_path / "cost3.csv"
    assert main(["cost", "--dim", "3", "--nm", "4", "--out", str(out)]) == 0
    rows = read_csv(out)
    assert rows[0]["N"] == 6 * 4**3


def test_mesh_dump(tmp_path, capsys):
    vtk = tmp_path / "m.vtk"
    code = main(["mesh-dump", "--n", "1", "--m", "1", "--vtk", str(vtk)])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert sum(1 for ln in lines if ln.startswith("v ")) == 4
    assert sum(1 for ln in lines if ln.startswith("e ")) == 2
    assert sum(1 for ln in lines if ln.startswith("f ")) == 5
    assert vtk.read_text().startswith("# vtk DataFile")


def test_input_error_exit_code(capsys):
    assert main(["solve", "--n", "-1"]) == 1
    assert main(["solve", "--dim", "3"]) == 1
    assert main(["solve", "--advect", "1,2,3"]) == 1
    assert main(["solve", "--kappa", "nan"]) == 1
    assert main(["solve", "--advect", "1,nan"]) == 1
    assert main(["solve", "--workers", "0"]) == 1
    assert main(["adapt", "--levels", "-1"]) == 1
    assert main(["adapt", "--theta", "0"]) == 1
    assert main(["cost", "--nm", "0"]) == 1
    capsys.readouterr()


def test_usage_error_exit_code(capsys):
    # argparse-level usage errors also exit with status 1
    for argv in (["bogus-command"], ["solve", "--mode", "direct"]):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 1
    capsys.readouterr()


def test_config_file_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 2\nm = 2\np = 1\ncase = poly1  # comment\nmode = mb\n")
    code = main(["solve", "--config", str(cfg)])
    assert code == 0
    rec = json.loads(capsys.readouterr().out)
    assert (rec["n"], rec["m"], rec["p"], rec["mode"]) == (2, 2, 1, "mb")

    # explicit flags take precedence over the config file
    code = main(["solve", "--config", str(cfg), "--p", "2"])
    assert code == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["p"] == 2 and rec["n"] == 2


def test_malformed_config(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("this is not key value\n")
    assert main(["solve", "--config", str(cfg)]) == 1

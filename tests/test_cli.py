import importlib.util
import json
import os
from types import SimpleNamespace

import pytest

from qslack.cli import main
from qslack.config import ExperimentConfig
from qslack.problems import DEFAULTS


def write_config(tmp_path, data):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_run_subcommand(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "problem": "classical_cham_primal",
        "optimizer": {"max_iters": 15},
        "schedule": {"kind": "fixed"},
        "n_runs": 1,
        "output_dir": str(tmp_path / "out"),
    })
    rc = main(["run", cfg])
    captured = capsys.readouterr().out
    assert rc == 0
    assert "oracle" in captured
    assert (tmp_path / "out" / "run_0.csv").exists()
    assert (tmp_path / "out" / "summary.csv").exists()
    assert (tmp_path / "out" / "convergence.svg").exists()


def test_run_output_dir_override(tmp_path):
    cfg = write_config(tmp_path, {
        "problem": "classical_cham_primal",
        "optimizer": {"max_iters": 5},
        "schedule": {"kind": "fixed"},
        "n_runs": 1,
        "output_dir": str(tmp_path / "ignored"),
    })
    rc = main(["run", cfg, "--output-dir", str(tmp_path / "chosen")])
    assert rc == 0
    assert (tmp_path / "chosen" / "run_0.csv").exists()
    assert not (tmp_path / "ignored").exists()


def test_oracle_subcommand(tmp_path, capsys):
    cfg = write_config(tmp_path, {"problem": "cham_dual"})
    rc = main(["oracle", cfg])
    out = capsys.readouterr().out
    assert rc == 0
    assert "-2.2096" in out
    assert "method" in out


def test_oracle_bad_config(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    rc = main(["oracle", str(path)])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_oracle_rejects_a_complex_coefficient(tmp_path, capsys):
    cfg = write_config(tmp_path, {"problem": "cham_primal", "instance": {"h": {"ZZ": "1j"}}})
    rc = main(["oracle", cfg])
    assert rc == 2
    assert "term 'ZZ' has coefficient '1j', not a finite real number" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["oracle", "run"])
def test_oracle_at_its_box_edge_is_an_error(tmp_path, capsys, command):
    # min <X> subject to <Z> >= 0.999 has the multiplier 22.3, beyond the
    # oracle's search box [0, 10].
    cfg = write_config(tmp_path, {
        "problem": "cham_dual", "n_system": 1, "output_dir": str(tmp_path / "out"),
        "instance": {"h": {"X": 1.0}, "constraints": [{"coeffs": {"Z": 1.0}, "b": 0.999}]},
    })
    rc = main([command, cfg])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: the multiplier search stopped at the edge of its box")
    assert "residual" not in captured.out
    assert not (tmp_path / "out").exists()


def test_selftest(capsys):
    rc = main(["selftest"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "all checks passed" in out
    assert "FAIL" not in out


def _suite():
    path = os.path.join(os.path.dirname(__file__), "..", "scripts", "run_convergence_suite.py")
    spec = importlib.util.spec_from_file_location("run_convergence_suite", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_convergence_suite_rejects_unknown_override_keys(capsys):
    suite = _suite()
    assert suite.main(["--set", "optimizer.perturbaton=0.02"]) == 2
    assert "unknown optimizer keys: ['perturbaton']" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        suite.main(["--set", "optimizer"])


def test_convergence_suite_writes_a_json_table(tmp_path):
    out = tmp_path / "table.json"
    _suite().main(["--problems", "tvd_dual", "--runs", "1", "--workers", "1", "--output-root", str(tmp_path),
                   "--set", "optimizer.max_iters=5", "--set", "schedule.kind=fixed", "--json", str(out)])
    table = json.loads(out.read_text())
    assert table["overrides"] == [{"optimizer.max_iters": 5}, {"schedule.kind": "fixed"}]
    (pair,) = table["pairs"]
    assert (pair["problem"], pair["ansatz"], pair["aborted"]) == ("tvd_dual", "born", 0)
    assert pair["median_error"] == pytest.approx(abs(pair["median_final"] - pair["oracle"]))
    with open(tmp_path / "tvd_dual__born" / "run_0.csv") as fh:
        assert len(fh.read().splitlines()) == 6  # header and iterations 0..4


def test_convergence_suite_runs_every_defaults_pair(tmp_path, monkeypatch):
    suite, ran = _suite(), []

    def run_experiment(cfg):
        ran.append((cfg.problem, cfg.ansatz.type))
        # without --runs and --seed every campaign keeps the config's defaults
        assert (cfg.n_runs, cfg.seed) == (ExperimentConfig.n_runs, ExperimentConfig.seed)
        return SimpleNamespace(records=[], oracle=SimpleNamespace(value=0.0))

    monkeypatch.setattr(suite, "run_experiment", run_experiment)
    suite.main(["--output-root", str(tmp_path)])
    assert sorted(ran) == sorted(DEFAULTS)


def test_convergence_suite_flags_the_cslack_pairs_at_their_bound(tmp_path, monkeypatch, capsys):
    # every pair ends 0.03 from its oracle: inside criterion 3's 5e-2, above criterion 7's 2e-2
    suite = _suite()

    def run_experiment(cfg):
        return SimpleNamespace(records=[SimpleNamespace(final_objective=1.03, aborted=False)],
                               oracle=SimpleNamespace(value=1.0))

    monkeypatch.setattr(suite, "run_experiment", run_experiment)
    assert suite.main(["--problems", "trace_distance_dual,tvd_primal,tvd_dual,classical_cham_primal,"
                       "classical_cham_dual", "--output-root", str(tmp_path)]) == 1
    flagged = {line.split()[0] for line in capsys.readouterr().out.splitlines() if "above tolerance" in line}
    assert flagged == {"tvd_dual", "classical_cham_primal", "classical_cham_dual"}

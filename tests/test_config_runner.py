import importlib
import json
import multiprocessing
import os
import re
import time
from pathlib import Path

import numpy as np
import pytest

from qslack.config import AnsatzConfig, ConfigError, ExperimentConfig, config_from_dict, load_config, resolve_output_dir
from qslack import runner
from qslack.estimate import Estimator
from qslack.objective import PenaltyObjective
from qslack.optimizer import RunRecord, aggregate_runs
from qslack.problems import DEFAULTS, PROBLEM_TAGS, build_problem
from qslack.runner import build_from_config, emit_plot, run_experiment, write_summary_csv


def tiny_config(**over):
    base = {
        "problem": "trace_distance_dual",
        "n_system": 1,
        "ansatz": {"type": "purification", "layers": 2},
        "optimizer": {"max_iters": 10, "learning_rate": 0.05},
        "schedule": {"kind": "fixed"},
        "n_runs": 2,
        "seed": 3,
        "output_dir": "out",
    }
    base.update(over)
    return base


# Shot mode: with workers > 1 the runner forks tiny_config's chunks, which it
# trains in one process in exact mode.
SHOTS = {"mode": "shots", "n": 1000}


# Values that an instance must not hold, each with the text of the error
# that names it: bad numbers as a coefficient of h, as a coefficient of a
# constraint or as a constraint bound b, and observables that are not maps.
BAD_NUMBERS = {"complex_text": "1j", "text": "0.5", "bool": True, "nan": float("nan"), "inf": float("inf")}
BAD_INSTANCE_VALUES = {
    **{f"h_{k}": ({"problem": "cham_primal", "instance": {"h": {"ZZ": v}}},
                  re.escape(f"term 'ZZ' has coefficient {v!r}, not a finite real number"))
       for k, v in BAD_NUMBERS.items()},
    **{f"coeffs_{k}": ({"problem": "classical_cham_dual",
                        "instance": {"h": {"11": 1.0}, "constraints": [{"coeffs": {"10": v}, "b": 0.1}]}},
                       re.escape(f"term '10' has coefficient {v!r}, not a finite real number"))
       for k, v in BAD_NUMBERS.items()},
    **{f"b_{k}": ({"problem": "cham_dual", "instance": {"h": {"ZZ": 1.0}, "constraints": [{"coeffs": {"YI": 1.0}, "b": v}]}},
                  re.escape(f"constraint bound b = {v!r} is not a finite real number"))
       for k, v in BAD_NUMBERS.items()},
    "h_list": ({"problem": "cham_primal", "instance": {"h": ["ZZ"]}},
               re.escape("an observable maps label text to coefficients, not ['ZZ']")),
    "coeffs_number": ({"problem": "classical_cham_primal", "instance": {"h": {"11": 1.0}, "constraints": [{"coeffs": 0.5, "b": 0.1}]}},
                      "an observable maps label text to coefficients, not 0.5"),
    "constraints_number": ({"problem": "cham_primal", "instance": {"h": {"ZZ": 1.0}, "constraints": 5}},
                           re.escape("instance key 'constraints' must hold a list of JSON objects, not 5")),
    "constraint_number": ({"problem": "cham_primal", "instance": {"h": {"ZZ": 1.0}, "constraints": [5]}},
                          re.escape("instance key 'constraints' must hold a list of JSON objects, not [5]")),
    "constraints_object": ({"problem": "cham_dual",
                            "instance": {"h": {"ZZ": 1.0}, "constraints": {"coeffs": {"ZI": 1}, "b": 0.1}}},
                           re.escape("instance key 'constraints' must hold a list of JSON objects, "
                                     "not {'coeffs': {'ZI': 1}, 'b': 0.1}")),
    "h_two_cases": ({"problem": "cham_primal", "instance": {"h": {"zz": 1.0, "ZZ": 0.5}}},
                    re.escape("texts 'zz' and 'ZZ' name the same Pauli string")),
    "instance_list": ({"problem": "cham_primal", "instance": [1, 2]},
                      re.escape("an instance must be a JSON object, not [1, 2]")),
}


# Typed field values as a config document writes them, as (section, key,
# value, held): ``held`` is the value the config holds, or None where the
# document is refused.  A section of None is the top level.
FIELD_VALUES = {
    "penalty_int": (None, "penalty", 5, 5.0),
    "normalize_text": ("optimizer", "normalize", "false", None),
    "max_iters_float": ("optimizer", "max_iters", 2.7, None),
    "workers_float": (None, "workers", 2.5, None),
    "shots_float": ("shots", "n", 1000.9, None),
    "shots_zero": ("shots", "n", 0, None),
    "shots_2_pow_63": ("shots", "n", 2**63, None),
    "shots_1e20": ("shots", "n", 10**20, None),
    "shots_n_in_exact_mode": ("shots", "mode", "exact", None),
    "n_runs_bool": (None, "n_runs", True, None),
    "seed_text": (None, "seed", "7", None),
    "penalty_nan_text": (None, "penalty", "nan", None),
    "penalty_inf": (None, "penalty", float("inf"), None),
    "learning_rate_nan_text": ("optimizer", "learning_rate", "nan", None),
    "perturbation_inf": ("optimizer", "perturbation", float("inf"), None),
    "min_lr_nan": ("schedule", "min_lr", float("nan"), None),
    "output_dir_number": (None, "output_dir", 5, None),
}


class TestConfig:
    @pytest.mark.parametrize("section, key, value, held", FIELD_VALUES.values(), ids=list(FIELD_VALUES))
    def test_field_values_checked_as_written(self, section, key, value, held):
        doc = tiny_config(shots={"mode": "shots", "n": 1000})
        if section is None:
            doc[key] = value
        else:
            doc[section] = {**doc[section], key: value}
        if held is None:
            where = section or "config"
            message = re.escape(f"{where} key {key!r} must be ") + ".*" + re.escape(f", not {value!r}")
            with pytest.raises(ConfigError, match=message):
                config_from_dict(doc)
        else:
            got = getattr(config_from_dict(doc), key)
            assert got == held and type(got) is type(held)

    def test_readme_config_example_parses(self):
        text = (Path(__file__).parents[1] / "README.md").read_text()
        cli = text[text.index("\n## CLI\n"):]
        block = cli[cli.index("```json\n") + len("```json\n"):]
        cfg = config_from_dict(json.loads(block[:block.index("```")]))
        assert cfg.problem == "trace_distance_dual" and cfg.workers == 2

    @pytest.mark.parametrize("problem", ["trace_distance_dual", "tvd_primal", "cham_dual", "tvd_dual",
                                         "classical_cham_primal", "classical_cham_dual"])
    def test_dataclass_and_document_defaults_agree(self, problem):
        parsed = config_from_dict({"problem": problem})
        distribution = problem.startswith(("tvd", "classical"))
        assert parsed.ansatz.type == ("born" if distribution else "purification")
        direct = ExperimentConfig(problem=problem, ansatz=parsed.ansatz, penalty=parsed.penalty,
                                  spsa=parsed.spsa, schedule=parsed.schedule)
        for name in ("n_system", "n_runs", "seed", "instance_seed", "output_dir", "workers"):
            assert getattr(direct, name) == getattr(parsed, name), name
        assert direct.spsa.perturbation == parsed.spsa.perturbation

    def test_direct_config_checks_its_pair(self):
        row = config_from_dict({"problem": "cham_dual", "ansatz": {"type": "convex_combination"}})
        settings = {"penalty": row.penalty, "spsa": row.spsa, "schedule": row.schedule}
        direct = ExperimentConfig(problem="cham_dual", ansatz=AnsatzConfig("convex_combination", 2, 2), **settings)
        assert direct.ansatz.type == "convex_combination"
        with pytest.raises(ConfigError, match="tvd_dual takes ansatz type born, not 'purification'"):
            ExperimentConfig(problem="tvd_dual", ansatz=AnsatzConfig("purification", 2, 2), **settings)

    def test_per_pair_settings_have_no_dataclass_default(self):
        with pytest.raises(TypeError):
            ExperimentConfig(problem="tvd_dual")

    @pytest.mark.parametrize("tag, ansatz_type", sorted(DEFAULTS))
    def test_build_problem_defaults_match_the_document(self, tag, ansatz_type):
        direct = build_problem(tag, ansatz_type=ansatz_type)
        parsed = build_from_config(config_from_dict({"problem": tag, "ansatz": {"type": ansatz_type}}))
        assert direct.objective.n_params == parsed.objective.n_params
        params = np.random.default_rng(5).uniform(0.1, 1.0, direct.objective.n_params)
        for est in (None, Estimator()):
            assert direct.objective.evaluate(params, est) == parsed.objective.evaluate(params, est)

    @pytest.mark.parametrize("tag", ["trace_distance_dual"])
    def test_build_problem_rejects_nonpositive_penalty(self, tag):
        with pytest.raises(ValueError, match="penalty constant"):
            build_problem(tag, c=0.0)

    def test_defaults_cover_every_problem(self):
        assert sorted({tag for tag, _ in DEFAULTS}) == sorted(PROBLEM_TAGS)

    @pytest.mark.parametrize("doc, message", [
        ({"problem": "cham_primal", "instance": {"h": {"ZZ": 1.0}, "constriants": []}},
         r"unknown instance keys: \['constriants'\]"),
        ({"problem": "cham_primal", "instance": {"h": {"ZZ": 1.0}, "eta": 0.1}}, r"unknown instance keys: \['eta'\]"),
        ({"problem": "classical_cham_dual",
          "instance": {"h": {"11": 1.0}, "constraints": [{"coeffs": {"10": 0.5}, "b": 0.1, "sense": "<="}]}},
         r"unknown constraint keys: \['sense'\]"),
        ({"problem": "cham_dual", "instance": {"constraints": []}}, r"instance is missing keys: \['h'\]"),
        ({"problem": "trace_distance_dual", "instance": {"h": {"ZZ": 1.0}}}, "trace_distance_dual takes no instance"),
        ({"problem": "cham_primal", "instance": {"h": {"ZZ": 1.0}, "constraints": [{"coeffs": {"ZI": 1.0}, "b": 0.1}] * 4}},
         "only up to 3 scalar constraints are supported"),
    ] + list(BAD_INSTANCE_VALUES.values()),
        ids=["typo", "eta", "constraint_key", "missing_h", "no_instance", "four_constraints", *BAD_INSTANCE_VALUES])
    def test_instance_keys_checked(self, doc, message):
        with pytest.raises(ConfigError, match=message):
            config_from_dict(doc)
        with pytest.raises(ValueError, match=message):
            build_problem(doc["problem"], instance=doc["instance"])

    def test_minimal_tvd_defaults(self):
        cfg = config_from_dict({"problem": "tvd_dual"})
        assert cfg.n_system == 2
        assert cfg.ansatz.type == "born"
        assert cfg.ansatz.layers == 2
        assert cfg.penalty == 100.0
        assert cfg.spsa.normalize is True
        assert cfg.shots.exact

    def test_table_defaults_for_td_dual(self):
        cfg = config_from_dict({"problem": "trace_distance_dual"})
        assert cfg.ansatz.layers == 3
        assert cfg.penalty == 100.0
        assert cfg.schedule.kind == "regression_window"
        assert cfg.schedule.window == 500

    def test_malformed_file_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "problem": "tvd_dual",\n  bad\n}')
        with pytest.raises(ConfigError, match="line 3"):
            load_config(str(path))

    def test_repeated_key_rejected(self, tmp_path):
        path = tmp_path / "twice.json"
        path.write_text('{"problem": "cham_primal", "instance": {"h": {"ZZ": 1.0, "ZZ": 2.0}}}')
        with pytest.raises(ConfigError, match="'ZZ' appears twice"):
            load_config(str(path))

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("/nonexistent/config.json")

    def test_negative_penalty_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"problem": "tvd_dual", "penalty": -1.0})

    def test_unknown_problem_tag(self):
        with pytest.raises(ConfigError, match="unknown problem"):
            config_from_dict({"problem": "does_not_exist"})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            config_from_dict({"problem": "tvd_dual", "typo_field": 1})

    @pytest.mark.parametrize("section, key", [
        ("optimizer", "learning_rte"), ("ansatz", "layer"), ("schedule", "kinds"),
        ("shots", "sed"), ("shots", "seed"), ("ansatz", "n_reference"), ("schedule", "factor"),
    ])
    def test_unknown_section_keys_rejected(self, section, key):
        with pytest.raises(ConfigError, match=f"unknown {section} keys: \\['{key}'\\]"):
            config_from_dict({"problem": "tvd_dual", section: {key: 1}})

    def test_negativity_needs_even_qubits(self):
        with pytest.raises(ConfigError):
            config_from_dict({"problem": "negativity_primal", "n_system": 3})

    def test_output_root_env(self, monkeypatch):
        cfg = config_from_dict({"problem": "tvd_dual", "output_dir": "rel"})
        monkeypatch.setenv("QSLACK_OUTPUT_ROOT", "/tmp/qslack-root")
        assert resolve_output_dir(cfg) == "/tmp/qslack-root/rel"
        monkeypatch.delenv("QSLACK_OUTPUT_ROOT")
        assert resolve_output_dir(cfg) == "rel"


GOLDEN_RUNS = os.path.join(os.path.dirname(__file__), "data", "golden_runs")

# Campaigns (seed 7, SPSA perturbation 0.1; 30 iterations and 2 runs unless
# the entry says otherwise) whose run CSVs in GOLDEN_RUNS were recorded from
# earlier designs.  The perturbation, and the 350-iteration campaign's
# penalty 10, are named because the defaults have moved since (to 0.02, and
# classical_cham_primal's penalty to 100).  The exact-mode td/tvd ones come
# from a loop that evaluated each SPSA point in its own call, the
# 30-iteration others from builders that bound each scalar block by hand,
# and the 350-iteration one from a loop that stepped each run on its own and
# drew each SPSA direction in its own call.
# Between them they pass every kind of scalar block: numbers, real vectors
# (alpha and beta, the slacks z and the multipliers y) and fidelity's
# complex alpha.  The 350-iteration campaign crosses the learning-rate
# checks and the exact-mode blocks of SPSA directions at 100, 200 and 300,
# ends inside a block, halves its runs' rates to different values and
# clamps its non-negative slacks.  The cham_dual campaign was recorded from
# the observable classes that parsed instances before ``pauli.Expansion``
# did, and the convex-combination exact one from the forked-chunk runner: it
# pins ``prepare``'s convex-combination branch, the mixture, the circuit
# unitary and the collision purity.  The eight shot-mode campaigns were
# re-recorded when a run's shots moved from its own generator to the first
# child that generator spawns, which lets shot mode draw its SPSA
# directions in blocks and share them with exact mode; until then they
# held the values of the earlier designs (the cham ones from the observable
# classes, the negativity and fidelity ones from an Estimator that drew one
# estimate per Pauli string).  They pin the Estimator call order of the
# cham term forms, the 16-term expansions whose coefficients move every
# iteration, the off-diagonal block, the block x expansion and block x
# state inner products, and the shot-mode convex-combination path.  No
# change may move a byte.
GOLDEN_CAMPAIGNS = {
    "td_dual_purification_exact": {"problem": "trace_distance_dual", "ansatz": {"type": "purification"}},
    "tvd_dual_born_exact": {"problem": "tvd_dual", "ansatz": {"type": "born"}},
    "td_dual_purification_shots": {"problem": "trace_distance_dual", "ansatz": {"type": "purification"},
                                   "shots": {"mode": "shots", "n": 1000}},
    "fidelity_primal_purification_exact": {"problem": "fidelity_primal", "ansatz": {"type": "purification"}},
    "negativity_dual_purification_exact": {"problem": "negativity_dual", "ansatz": {"type": "purification"}},
    "cham_primal_purification_exact": {"problem": "cham_primal", "ansatz": {"type": "purification"}},
    "cham_dual_purification_exact": {"problem": "cham_dual", "ansatz": {"type": "purification"}},
    "cham_primal_purification_shots": {"problem": "cham_primal", "ansatz": {"type": "purification"},
                                       "shots": {"mode": "shots", "n": 1000}},
    "classical_cham_dual_born_shots": {"problem": "classical_cham_dual", "ansatz": {"type": "born"},
                                       "shots": {"mode": "shots", "n": 1000}},
    "classical_cham_dual_born_exact": {"problem": "classical_cham_dual", "ansatz": {"type": "born"}},
    "negativity_primal_purification_shots": {"problem": "negativity_primal", "ansatz": {"type": "purification"},
                                             "shots": {"mode": "shots", "n": 1000}},
    "negativity_dual_purification_shots": {"problem": "negativity_dual", "ansatz": {"type": "purification"},
                                           "shots": {"mode": "shots", "n": 1000}},
    "fidelity_primal_purification_shots": {"problem": "fidelity_primal", "ansatz": {"type": "purification"},
                                           "shots": {"mode": "shots", "n": 1000}},
    "fidelity_dual_purification_shots": {"problem": "fidelity_dual", "ansatz": {"type": "purification"},
                                         "shots": {"mode": "shots", "n": 1000}},
    "td_dual_convex_combination_exact": {"problem": "trace_distance_dual", "ansatz": {"type": "convex_combination"}},
    "td_dual_convex_combination_shots": {"problem": "trace_distance_dual", "ansatz": {"type": "convex_combination"},
                                         "shots": {"mode": "shots", "n": 1000}},
    "classical_cham_primal_born_schedule": {"problem": "classical_cham_primal", "ansatz": {"type": "born"},
                                            "penalty": 10.0,
                                            "optimizer": {"max_iters": 350, "perturbation": 0.1},
                                            "n_runs": 3, "workers": 1,
                                            "schedule": {"kind": "regression_window", "window": 100}},
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CAMPAIGNS))
def test_run_csvs_match_the_recorded_text(name, tmp_path):
    cfg = config_from_dict({"optimizer": {"max_iters": 30, "perturbation": 0.1}, "n_runs": 2, **GOLDEN_CAMPAIGNS[name],
                            "seed": 7, "output_dir": str(tmp_path)})
    result = run_experiment(cfg)
    assert len(result.run_csvs) == cfg.n_runs
    for k, path in enumerate(result.run_csvs):
        with open(path) as got, open(os.path.join(GOLDEN_RUNS, f"{name}_run_{k}.csv")) as want:
            assert got.read() == want.read()


class TestRunner:
    def test_csv_schema_and_lengths(self, tmp_path):
        cfg = config_from_dict(tiny_config(output_dir=str(tmp_path / "exp")))
        result = run_experiment(cfg)
        assert result.ok
        assert len(result.run_csvs) == 2
        for path in result.run_csvs:
            lines = Path(path).read_text().strip().split("\n")
            assert lines[0] == "iter,objective,penalty,error,lr"
            assert len(lines) == 1 + 10
            for line in lines[1:]:
                parts = line.split(",")
                assert len(parts) == 5
                int(parts[0])
                [float(x) for x in parts[1:]]

    def test_summary_matches_recomputation(self, tmp_path):
        cfg = config_from_dict(tiny_config(n_runs=3, output_dir=str(tmp_path / "exp")))
        result = run_experiment(cfg)
        per_run = []
        for path in result.run_csvs:
            rows = [line.split(",") for line in Path(path).read_text().strip().split("\n")[1:]]
            per_run.append([float(r[1]) for r in rows])
        summary = [line.split(",") for line in Path(result.summary_csv).read_text().strip().split("\n")[1:]]
        for i, row in enumerate(summary):
            vals = [run[i] for run in per_run]
            assert float(row[1]) == float(np.median(vals))
            assert float(row[2]) == float(np.percentile(vals, 25))
            assert float(row[3]) == float(np.percentile(vals, 75))

    def test_byte_identical_reruns(self, tmp_path):
        cfg_a = config_from_dict(tiny_config(output_dir=str(tmp_path / "a")))
        cfg_b = config_from_dict(tiny_config(output_dir=str(tmp_path / "b")))
        ra = run_experiment(cfg_a)
        rb = run_experiment(cfg_b)
        for pa, pb in zip(ra.run_csvs, rb.run_csvs):
            assert Path(pa).read_bytes() == Path(pb).read_bytes()
        assert Path(ra.summary_csv).read_bytes() == Path(rb.summary_csv).read_bytes()

    @staticmethod
    def _files(directory: Path) -> dict[str, bytes]:
        return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}

    def test_rerun_into_one_directory_matches_a_fresh_one(self, tmp_path):
        fresh = run_experiment(config_from_dict(tiny_config(output_dir=str(tmp_path / "fresh"))))
        cfg = config_from_dict(tiny_config(output_dir=str(tmp_path / "exp")))
        run_experiment(cfg)
        again = run_experiment(cfg)
        want = self._files(Path(fresh.output_dir))
        assert sorted(want) == ["convergence.svg", "manifest.txt", "run_0.csv", "run_1.csv", "summary.csv"]
        assert self._files(Path(again.output_dir)) == want

    def test_rerun_writes_new_files(self, tmp_path):
        # a file is replaced, not truncated and rewritten: a hard link to
        # the first campaign's run_0.csv keeps that campaign's bytes
        first = run_experiment(config_from_dict(tiny_config(output_dir=str(tmp_path / "exp"))))
        before = Path(first.run_csvs[0]).read_bytes()
        os.link(first.run_csvs[0], tmp_path / "kept.csv")
        second = run_experiment(config_from_dict(tiny_config(seed=4, output_dir=str(tmp_path / "exp"))))
        assert (tmp_path / "kept.csv").read_bytes() == before
        assert Path(second.run_csvs[0]).read_bytes() != before

    def test_rerun_with_fewer_runs_removes_the_extra_csvs(self, tmp_path):
        exp = tmp_path / "exp"
        run_experiment(config_from_dict(tiny_config(n_runs=3, output_dir=str(exp))))
        # files of other names are not the program's and stay
        others = {"run_01.csv": b"a", "run_x.csv": b"b", "notes.txt": b"c"}
        for name, data in others.items():
            (exp / name).write_bytes(data)
        run_experiment(config_from_dict(tiny_config(n_runs=2, output_dir=str(exp))))
        run_experiment(config_from_dict(tiny_config(n_runs=2, output_dir=str(tmp_path / "fresh"))))
        assert self._files(exp) == {**self._files(tmp_path / "fresh"), **others}

    def test_rerun_without_a_completed_run_removes_the_summary_and_plot(self, tmp_path, monkeypatch):
        exp = tmp_path / "exp"
        run_experiment(config_from_dict(tiny_config(output_dir=str(exp))))
        assert (exp / "summary.csv").exists() and (exp / "convergence.svg").exists()

        def no_rows(problem, spsa, schedule, seeds, shots=None, oracle=None):
            return [RunRecord(aborted=True, abort_reason="stub") for _ in seeds]

        monkeypatch.setattr(runner, "run_optimization", no_rows)
        result = run_experiment(config_from_dict(tiny_config(output_dir=str(exp))))
        assert not result.ok and result.summary_csv == result.plot_svg == ""
        assert sorted(self._files(exp)) == ["manifest.txt", "run_0.csv", "run_1.csv"]
        assert (exp / "run_0.csv").read_text() == "iter,objective,penalty,error,lr\n"
        assert (exp / "manifest.txt").read_text().splitlines()[1] == "aborted: [0, 1]"

    def test_parallel_workers_match_serial(self, tmp_path):
        serial = run_experiment(config_from_dict(tiny_config(shots=SHOTS, output_dir=str(tmp_path / "s"))))
        par = run_experiment(config_from_dict(tiny_config(shots=SHOTS, output_dir=str(tmp_path / "p"), workers=2)))
        for pa, pb in zip(serial.run_csvs, par.run_csvs):
            assert Path(pa).read_text() == Path(pb).read_text()

    @pytest.mark.parametrize("shots", [{"mode": "exact"}, SHOTS])
    def test_lockstep_chunks_match_runs_alone(self, tmp_path, shots):
        # one chunk of three runs in lockstep, uneven chunks of one and two
        # runs, and every run alone in its own worker write the same bytes;
        # exact mode forks its chunks only on 8-qubit circuits (n_system 4)
        outputs = []
        n_system = 4 if shots["mode"] == "exact" else 1
        for workers in (1, 2, 3):
            res = run_experiment(config_from_dict(tiny_config(n_runs=3, workers=workers, shots=shots,
                                                              n_system=n_system,
                                                              output_dir=str(tmp_path / str(workers)))))
            outputs.append([Path(path).read_bytes() for path in res.run_csvs + [res.summary_csv]])
        assert len(outputs[0]) == 4
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize("over, forks", [
        ({}, False),
        ({"n_system": 3}, False),
        ({"n_system": 4}, True),
        ({"problem": "fidelity_dual", "n_system": 3}, True),
        ({"shots": SHOTS}, True),
    ], ids=["exact_2_qubits", "exact_6_qubits", "exact_8_qubits", "exact_widest_8_qubits", "shots"])
    def test_chunks_fork_only_where_rows_cost_work(self, tmp_path, monkeypatch, over, forks):
        # with workers=2, an exact-mode campaign on circuits below
        # runner.FORK_QUBITS trains both runs in one call in this process;
        # in shot mode, or where any template's circuit is that wide, run 1
        # is trained in a forked child
        run_single = runner._run_single

        def marked(job, runs):
            records = run_single(job, runs)
            records.marks = (os.getpid(), list(runs))
            return records

        monkeypatch.setattr(runner, "_run_single", marked)
        result = run_experiment(config_from_dict(tiny_config(workers=2, output_dir=str(tmp_path / "exp"), **over)))
        assert multiprocessing.active_children() == []
        marks = [vars(rec).get("marks") for rec in result.records]
        if forks:
            assert marks[0] == (os.getpid(), [0])
            assert marks[1][1] == [1] and marks[1][0] != os.getpid()
        else:
            assert marks == [(os.getpid(), [0, 1]), None]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_campaign_builds_its_problem_once(self, tmp_path, monkeypatch, workers):
        # A file counts the calls, so that calls made in pool workers count too.
        calls = tmp_path / "calls"
        build = runner.build_problem

        def counted(*args, **kwargs):
            with open(calls, "a") as fh:
                fh.write("build\n")
            return build(*args, **kwargs)

        monkeypatch.setattr(runner, "build_problem", counted)
        run_experiment(config_from_dict(tiny_config(n_runs=3, workers=workers, shots=SHOTS,
                                                    output_dir=str(tmp_path / "exp"))))
        assert calls.read_text().count("build") == 1

    @pytest.mark.parametrize("failing_run", [0, 1], ids=["parent_chunk", "child_chunk"])
    def test_chunk_error_is_raised(self, tmp_path, monkeypatch, failing_run):
        # with two chunks, run 0 is trained in this process and run 1 in a
        # forked child; either one's error stops the campaign, and a child
        # still training when the parent's chunk fails is stopped
        run_single = runner._run_single

        def fails(job, runs):
            if failing_run in runs:
                raise ValueError(f"run {failing_run} failed")
            if failing_run == 0:
                time.sleep(60)
            return run_single(job, runs)

        monkeypatch.setattr(runner, "_run_single", fails)
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"run {failing_run} failed"):
            run_experiment(config_from_dict(tiny_config(workers=2, shots=SHOTS, output_dir=str(tmp_path / "exp"))))
        assert time.perf_counter() - start < 30
        assert multiprocessing.active_children() == []

    def test_child_that_dies_is_named(self, tmp_path, monkeypatch):
        run_single = runner._run_single

        def dies(job, runs):
            if 1 in runs:
                os._exit(3)
            return run_single(job, runs)

        monkeypatch.setattr(runner, "_run_single", dies)
        with pytest.raises(RuntimeError, match="chunk 1 sent no records: its process ended with exit code 3"):
            run_experiment(config_from_dict(tiny_config(workers=2, shots=SHOTS, output_dir=str(tmp_path / "exp"))))
        assert multiprocessing.active_children() == []

    def test_chunk_attributes_reach_its_first_record(self, tmp_path, monkeypatch):
        run_single = runner._run_single

        def marked(job, runs):
            records = run_single(job, runs)
            records.marks = (os.getpid(), list(runs))
            return records

        monkeypatch.setattr(runner, "_run_single", marked)
        result = run_experiment(config_from_dict(tiny_config(n_runs=3, workers=3, shots=SHOTS,
                                                             output_dir=str(tmp_path / "exp"))))
        assert multiprocessing.active_children() == []
        pids = [rec.marks[0] for rec in result.records]
        assert [rec.marks[1] for rec in result.records] == [[0], [1], [2]]
        assert pids[0] == os.getpid() and len({os.getpid(), *pids}) == 3

    def test_run_without_rows(self, tmp_path, monkeypatch):
        # run 0 goes non-finite at its first record point and records no
        # row; the other runs complete, as they do beside a sound run 0
        doc = tiny_config(n_runs=3, workers=1)
        sound = run_experiment(config_from_dict({**doc, "output_dir": str(tmp_path / "sound")}))
        evaluate, calls = PenaltyObjective.evaluate, []

        def run_0_diverges_at_once(self, params, estimator=None):
            values, penalties = evaluate(self, params, estimator)
            if not calls:
                values = values.copy()
                values[0] = np.nan  # row 0 of the first stack: run 0's record point
            calls.append(params)
            return values, penalties

        monkeypatch.setattr(PenaltyObjective, "evaluate", run_0_diverges_at_once)
        cfg = config_from_dict({**doc, "output_dir": str(tmp_path / "exp")})
        result = run_experiment(cfg)
        assert not result.ok and len(result.records[0].rows) == 0
        assert Path(result.run_csvs[0]).read_text() == "iter,objective,penalty,error,lr\n"
        for got, want in zip(result.run_csvs[1:], sound.run_csvs[1:]):
            assert Path(got).read_bytes() == Path(want).read_bytes()

        agg = aggregate_runs(result.records[1:])
        assert len(agg) == 10
        write_summary_csv(str(tmp_path / "want.csv"), agg)
        assert Path(result.summary_csv).read_text() == (tmp_path / "want.csv").read_text()
        assert Path(result.plot_svg).read_text() == emit_plot(agg, result.oracle.value, title=cfg.problem)
        assert Path(result.output_dir, "manifest.txt").read_text().splitlines()[1] == "aborted: [0]"

    def test_build_from_config_oracle(self):
        cfg = config_from_dict({"problem": "classical_cham_primal"})
        problem = build_from_config(cfg)
        assert abs(problem.oracle.value - (-13.0 / 35.0)) < 1e-6

    def test_plot_file_written(self, tmp_path):
        cfg = config_from_dict(tiny_config(output_dir=str(tmp_path / "exp")))
        result = run_experiment(cfg)
        svg = Path(result.plot_svg).read_text()
        assert svg.startswith("<svg")
        assert "stroke-dasharray" in svg
        assert "polyline" in svg

    def test_shot_mode_campaign(self, tmp_path):
        cfg = config_from_dict(tiny_config(
            output_dir=str(tmp_path / "exp"),
            shots={"mode": "shots", "n": 500},
            n_runs=1,
        ))
        result = run_experiment(cfg)
        assert result.ok
        rows = Path(result.run_csvs[0]).read_text().strip().split("\n")[1:]
        assert len(rows) == 10

    def test_diverging_shot_run_aborts_without_warnings(self, tmp_path):
        # cham_dual/purification diverges at its row's settings; in shot mode
        # run 1 overflows on the way to a NaN, under the suite's
        # filterwarnings = ["error"]
        cfg = config_from_dict({"problem": "cham_dual", "ansatz": {"type": "purification"},
                                "shots": {"mode": "shots", "n": 100000}, "optimizer": {"max_iters": 40},
                                "n_runs": 4, "seed": 1, "instance_seed": 921, "workers": 1,
                                "output_dir": str(tmp_path)})
        result = run_experiment(cfg)
        assert [rec.abort_reason for rec in result.records] == [
            "", "non-finite objective (nan) at iteration 14", "", ""]


def test_perfbench_tracer_installs_and_uninstalls(tmp_path, monkeypatch):
    # perfbench/tracer.py wraps names of runner and of the layers it times;
    # renaming or deleting one of them fails here, and a forked child's
    # spans reach the parent on its chunk's first record
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracer = importlib.import_module("tracer")
    run_single = runner._run_single
    uninstall = tracer.install(tracer.Tracer())
    try:
        assert runner._run_single is not run_single
        result = runner.run_experiment(config_from_dict(tiny_config(workers=2, shots=SHOTS,
                                                                    output_dir=str(tmp_path / "exp"))))
        spans = tracer.collect_worker_spans(result.records)
    finally:
        uninstall()
    assert runner._run_single is run_single
    assert len(spans) == 1 and spans[0][0] != os.getpid()
    assert "runner.worker" in spans[0][1]["names"]


class TestEmitPlot:
    def test_empty_summary_rejected(self):
        with pytest.raises(ValueError):
            emit_plot([], 1.0)

    def test_single_point_degenerate(self):
        svg = emit_plot([(0, 1.0, 0.9, 1.1)], 0.5)
        assert "polyline" in svg

    def test_axes_cover_oracle_line(self):
        rows = [(i, 5.0 + i, 4.9 + i, 5.1 + i) for i in range(10)]
        oracle = 0.25  # far below the data band
        svg = emit_plot(rows, oracle)
        for line in svg.split("\n"):
            if "stroke-dasharray" in line:
                y = float(line.split('y1="')[1].split('"')[0])
                assert 36.0 <= y <= 480.0 - 56.0
                break
        else:
            raise AssertionError("no dashed oracle line found")

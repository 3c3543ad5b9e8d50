"""Command-line entry point: run experiments, query oracles, self-test."""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from . import linalg
from .config import config_from_dict, load_config
from .estimate import Estimator, hoeffding_shots
from .optimizer import run_optimization
from .runner import build_from_config, run_experiment


def _cmd_run(args) -> int:
    try:
        cfg = load_config(args.config)
        if args.output_dir:
            cfg = dataclasses.replace(cfg, output_dir=args.output_dir)
        result = run_experiment(cfg)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"problem: {cfg.problem}")
    print(f"oracle:  {result.oracle.value:.6f} ({result.oracle.method})")
    finals = [r.final_objective for r in result.records if not r.aborted]
    if finals:
        print(f"final objective median: {float(np.median(finals)):.6f}")
    aborted = sum(1 for r in result.records if r.aborted)
    if aborted:
        print(f"aborted runs: {aborted}")
    print(f"outputs in {result.output_dir}")
    return 0 if result.ok else 1


def _cmd_oracle(args) -> int:
    try:
        cfg = load_config(args.config)
        problem = build_from_config(cfg)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    res = problem.oracle
    print(f"problem:  {cfg.problem}")
    print(f"value:    {res.value:.8f}")
    print(f"method:   {res.method}")
    print(f"residual: {res.residual:.3e}")
    return 0


def _check(name: str, ok: bool, detail: str = "") -> bool:
    print(f"{'ok  ' if ok else 'FAIL'} {name}" + (f"  ({detail})" if detail and not ok else ""))
    return ok


def _cmd_selftest(_args) -> int:
    from . import objective as obj
    from . import oracle as orc
    from .pauli import PauliObservable, WalshObservable

    ok = True
    ket0 = np.array([1, 0], dtype=complex)
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    td = orc.exact_trace_distance(np.outer(ket0, ket0.conj()), np.outer(plus, plus.conj()))
    ok &= _check("trace distance |0> vs |+>", abs(td - 1 / np.sqrt(2)) < 1e-9, f"{td}")

    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    neg = orc.exact_negativity(np.outer(bell, bell.conj()), 2, 2)
    ok &= _check("Bell negativity", abs(neg - 2.0) < 1e-9, f"{neg}")

    h = PauliObservable.from_text(2, {"ZZ": 1.0, "XI": 1.0, "IX": 1.0})
    a1 = PauliObservable.from_text(2, {"YI": 1.0})
    a2 = PauliObservable.from_text(2, {"IZ": 1.0})
    res = orc.sdp_cham_value(h, [a1, a2], [0.2, 0.1])
    ok &= _check("constrained Hamiltonian optimum", abs(res.value - (-2.2097)) < 1e-3, f"{res.value}")
    res0 = orc.sdp_cham_value(h, [], [])
    ok &= _check("unconstrained minimum", abs(res0.value + np.sqrt(5)) < 1e-9, f"{res0.value}")

    ok &= _check("Hoeffding shot count", hoeffding_shots(0.1, 0.05) == 185)

    rng = np.random.default_rng(5)
    est = Estimator()
    rho = linalg.random_density(2, rng)
    sigma = linalg.random_density(2, rng)
    omega = linalg.random_density(2, rng)
    tau = linalg.random_density(2, rng)
    tb = obj.td_dual_objective(rho, sigma, omega, tau, 0.7, 0.3, 10.0, est)
    dense, _ = obj.td_dual_dense(rho, sigma, omega, tau, 0.7, 0.3, 10.0)
    ok &= _check("term expansion matches dense evaluation", abs(tb.value - dense) < 1e-9)

    p = np.abs(rng.standard_normal(4)); p /= p.sum()
    q = np.abs(rng.standard_normal(4)); q /= q.sum()
    r = np.abs(rng.standard_normal(4)); r /= r.sum()
    s = np.abs(rng.standard_normal(4)); s /= s.sum()
    tb = obj.td_dual_objective(p, q, r, s, 0.5, 0.5, 10.0, est)
    dense, _ = obj.tvd_dual_dense(p, q, r, s, 0.5, 0.5, 10.0)
    ok &= _check("collision expansion matches dense evaluation", abs(tb.value - dense) < 1e-9)

    hw = WalshObservable.from_text(2, {"11": 1.0})
    lp = orc.lp_classical_cham_value(hw, [WalshObservable.from_text(2, {"10": 0.5})], [0.1])
    ok &= _check("classical oracle cross-check", lp.residual < 1e-6, f"residual {lp.residual}")

    # 150 iterations cross a block of Delta draws and end inside the next
    cfg = config_from_dict({"problem": "tvd_dual", "ansatz": {"type": "born"}, "optimizer": {"max_iters": 150}})
    problem = build_from_config(cfg)
    seeds = [[cfg.seed, k] for k in range(3)]

    def train(seeds):
        return run_optimization(problem.objective, cfg.spsa, cfg.schedule, seeds, oracle=problem.oracle.value)

    together, alone = train(seeds), [train([seed])[0] for seed in seeds]
    ok &= _check("runs in lockstep match runs trained alone",
                 all(a.rows == b.rows and np.array_equal(a.final_params, b.final_params)
                     for a, b in zip(together, alone)))

    print("selftest:", "all checks passed" if ok else "FAILURES above")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="qslack",
                                     description="Variational penalty-method bounds for small SDPs and LPs")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a configured experiment campaign")
    p_run.add_argument("config", help="path to a JSON config file")
    p_run.add_argument("--output-dir", default=None, help="override the config output directory")
    p_run.set_defaults(fn=_cmd_run)

    p_or = sub.add_parser("oracle", help="print the ground-truth value for a problem config")
    p_or.add_argument("config", help="path to a JSON config file")
    p_or.set_defaults(fn=_cmd_oracle)

    p_st = sub.add_parser("selftest", help="run quick internal consistency checks")
    p_st.set_defaults(fn=_cmd_selftest)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())

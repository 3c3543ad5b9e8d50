"""Benchmark of qslack campaigns: set-up time, campaign time, iteration rate,
bound error and peak memory on four workloads, plus a traced per-layer run.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload qslack_exact --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --selftest

Each run repeats the workload's campaign (one ``run_experiment`` call per
(problem, ansatz) pair, outputs written) in whole rounds until ``--seconds``
have passed, at least twice.  With ``--trace 1`` the first round is
untraced and the later ones run with spans around every layer.  The last
line of standard output is the result as one JSON object.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
MIN_ROUNDS = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "campaign_s": "s",
    "iters_per_s": "1/s",
    "median_abs_error": "objective",
    "peak_rss_mb": "MiB",
}


def layer_unit(name: str) -> str:
    if ".us_per_gate." in name:
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith(".bytes"):
        return "B"
    return "count"


def import_program():
    sys.path.insert(0, str(SRC))
    try:
        import qslack
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import qslack from {SRC}: {exc}")
    if Path(qslack.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"perfbench: qslack was imported from {qslack.__file__}, not from {SRC}")


def machine_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


def peak_rss_mb() -> float:
    """Largest resident set of this process or of any child it has waited for."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def cpu_ticks() -> tuple[int, int]:
    """(steal, busy) jiffies of all CPUs since boot, from /proc/stat: busy is
    every state but idle and iowait, steal included."""
    with open("/proc/stat") as fh:
        user, nice, system, idle, iowait, irq, softirq, steal = (int(x) for x in fh.readline().split()[1:9])
    return steal, user + nice + system + irq + softirq + steal


class StealMeter:
    """Share of busy CPU time the host stole during a ``with`` block.

    On a virtual machine the host can take a vCPU away while it has work
    (steal time).  ``1 - steal_share`` is the share of the runnable CPU time
    the guest actually got, so a wall time scaled by it is the time the block
    would have taken on CPUs of its own.  Without steal the factor is 1."""

    def __enter__(self):
        self.ticks = cpu_ticks()
        return self

    def __exit__(self, *exc):
        steal, busy = (b - a for a, b in zip(self.ticks, cpu_ticks()))
        self.steal_share = steal / busy if busy else 0.0


def setup_seconds(docs: list[dict], repeats: int) -> float:
    times = []
    for _ in range(repeats):
        with StealMeter() as meter:
            proc = subprocess.run(
                [sys.executable, str(HERE / "setup_probe.py"), str(SRC), json.dumps(docs)],
                capture_output=True, text=True, timeout=150, check=True)
        setup_s = json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]
        times.append(setup_s * (1.0 - meter.steal_share))
    return statistics.median(times)


def dir_bytes(path: str) -> int:
    return sum(entry.stat().st_size for entry in os.scandir(path) if entry.is_file())


def run_campaign(cfg, tracing: bool):
    """One ``run_experiment`` call, timed.  Returns (seconds, outcome, rows,
    worker span tables).  The outcome keeps what the checks need and drops
    the iteration rows, so the parent holds one campaign's records at a time,
    as ``qslack run`` does."""
    import tracer as tr
    from qslack import runner

    t0 = time.perf_counter()
    try:
        res = runner.run_experiment(cfg)
    except Exception as exc:  # an aborted campaign fails all of its runs
        seconds = time.perf_counter() - t0
        print(f"perfbench: {cfg.problem}/{cfg.ansatz.type} raised {exc!r}", file=sys.stderr)
        return seconds, {"raised": repr(exc), "csvs": []}, 0, []
    seconds = time.perf_counter() - t0
    spans = tr.collect_worker_spans(res.records) if tracing else []
    runs = [SimpleNamespace(aborted=r.aborted, abort_reason=r.abort_reason,
                            final_objective=r.final_objective, final_params=r.final_params)
            for r in res.records]
    outcome = {"oracle": res.oracle.value, "csvs": res.run_csvs, "dir": res.output_dir, "runs": runs}
    return seconds, outcome, sum(len(r.rows) for r in res.records), spans


def run_rounds(cfgs, seconds: float, traced: bool) -> dict:
    """Repeat the campaign in whole rounds for ``seconds``, at least
    MIN_ROUNDS times; with ``traced``, every round after the first runs with
    the tracer's wrappers installed."""
    import tracer as tr

    tracer = tr.Tracer()
    uninstall = None
    rounds: list[dict] = []
    first_csvs: dict[str, bytes] = {}  # SHA-256 of each run CSV of the first round
    out = {"rounds": rounds, "layer_rounds": [], "spans": []}
    start = time.perf_counter()

    def another_round() -> bool:
        # Stop before a round that would overrun the window.
        if len(rounds) < MIN_ROUNDS:
            return True
        typical = statistics.median(r["wall_s"] for r in rounds)
        return time.perf_counter() - start + typical <= seconds

    try:
        while another_round():
            if traced and rounds and uninstall is None:
                uninstall = tr.install(tracer)
            outcomes, pair_s, worker_spans, rows = [], [], [], 0
            with StealMeter() as meter:
                for cfg in cfgs:
                    t, outcome, n_rows, spans = run_campaign(cfg, uninstall is not None)
                    pair_s.append(t)
                    outcomes.append(outcome)
                    rows += n_rows
                    worker_spans += spans
            # The calls themselves, without the summaries taken between them.
            wall_s = sum(pair_s)

            mismatched = set()
            for i, outcome in enumerate(outcomes):
                for k, path in enumerate(outcome["csvs"]):
                    digest = hashlib.sha256(Path(path).read_bytes()).digest()
                    if not rounds:
                        first_csvs[path] = digest
                    elif first_csvs.get(path) != digest:
                        mismatched.add((i, k))
            if not rounds:
                out["first"] = outcomes
            rounds.append({"campaign_s": wall_s * (1.0 - meter.steal_share), "wall_s": wall_s,
                           "steal_share": meter.steal_share, "rows": rows, "pair_s": pair_s,
                           "mismatched": mismatched})

            if uninstall is not None:
                parent_spans = tr.table(tracer.take())
                write_bytes = sum(dir_bytes(o["dir"]) for o in outcomes if "dir" in o)
                out["layer_rounds"].append(tr.round_metrics(parent_spans, worker_spans, rows, write_bytes))
                out["spans"].append((len(rounds) - 1, parent_spans, worker_spans))
    finally:
        if uninstall is not None:
            uninstall()
    out["seconds"] = time.perf_counter() - start
    return out


def check_first_round(cfgs, first: list[dict]) -> tuple[dict, list[float], list[dict], list[str]]:
    """Status of every run of the first round ("" when it completed and passed
    its checks), the bound errors of the completed runs, a per-pair record and
    the failed checks."""
    import checks
    from qslack import runner

    statuses: dict[tuple[int, int], str] = {}
    errors: list[float] = []
    pairs: list[dict] = []
    check_failures: list[str] = []
    for i, (cfg, out) in enumerate(zip(cfgs, first)):
        name = f"{cfg.problem}/{cfg.ansatz.type}"
        if "raised" in out:
            for k in range(cfg.n_runs):
                statuses[(i, k)] = f"campaign raised {out['raised']}"
            pairs.append({"pair": name, "status": [statuses[(i, k)] for k in range(cfg.n_runs)]})
            continue
        problem = runner.build_from_config(cfg)
        oracle_fail = checks.check_oracle(cfg.problem, cfg.ansatz.type, cfg.n_system,
                                          cfg.instance_seed, out["oracle"])
        check_failures += [f"{name}: {f}" for f in oracle_fail]
        for k, run_ in enumerate(out["runs"]):
            status = checks.run_status(run_, out["oracle"])
            if not status:
                fails = list(oracle_fail)
                fails += checks.check_expansion(problem.objective, run_.final_params)
                fails += checks.check_states(problem.objective, run_.final_params)
                if not cfg.shots.exact:
                    fails += checks.check_shot_mean(cfg.problem, problem.objective, run_.final_params,
                                                    cfg.penalty, cfg.shots.n, [cfg.seed, k, 7919])
                if fails:
                    status = "check failed: " + "; ".join(fails)
                    check_failures += [f"{name} run {k}: {f}" for f in fails]
                else:
                    errors.append(abs(run_.final_objective - out["oracle"]))
            statuses[(i, k)] = status
        pairs.append({"pair": name, "oracle": out["oracle"],
                      "finals": [run_.final_objective for run_ in out["runs"]],
                      "status": [statuses[(i, k)] for k in range(len(out["runs"]))]})
    return statuses, errors, pairs, check_failures


def run(args) -> dict:
    import_program()
    import tracer as tr
    from qslack.config import config_from_dict

    wl = WORKLOADS[args.workload]
    out_dir = OUT / wl.name
    shutil.rmtree(out_dir, ignore_errors=True)
    docs = wl.configs(args.seed, str(out_dir / "campaign"), quick=args.quick)
    cfgs = [config_from_dict(d) for d in docs]
    machine = machine_facts()
    # Flushed before any fork, so pool workers do not repeat buffered output.
    print("machine: " + json.dumps(machine), flush=True)

    measured = run_rounds(cfgs, args.seconds, bool(args.trace))
    rounds = measured["rounds"]
    peak_mb = peak_rss_mb()
    t_checks = time.perf_counter()
    statuses, errors, pairs, check_failures = check_first_round(cfgs, measured["first"])
    # A run fails in every round where it failed in the first or its CSV differs.
    failed = sum(1 for rnd in rounds for key, status in statuses.items()
                 if status or key in rnd["mismatched"])
    for rnd in rounds:
        if rnd["mismatched"]:
            check_failures.append(f"run CSVs differ from the first round: {sorted(rnd['mismatched'])}")
    phase_s = {"rounds": measured["seconds"], "checks": time.perf_counter() - t_checks}

    campaign = [r["campaign_s"] for r in rounds]
    if args.trace:
        metrics = tr.median_metrics(measured["layer_rounds"])
        coverage = metrics.pop("trace.worker_coverage")
        if coverage < tr.COVERAGE_MIN:
            check_failures.append(f"layer self times cover {coverage:.3f} of the workers' busy time")
        metrics["trace.overhead_s"] = statistics.median(campaign[1:]) - campaign[0]
        tr.write_spans(str(out_dir / f"spans_seed{args.seed}.npz"), measured["spans"])
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics = {
            "setup_s": setup_seconds(docs, 1 if args.quick else SETUP_REPEATS),
            "campaign_s": statistics.median(campaign),
            "iters_per_s": statistics.median(r["rows"] / r["campaign_s"] for r in rounds),
            "median_abs_error": statistics.median(errors) if errors else math.nan,
            "peak_rss_mb": peak_mb,
        }
        units = END_TO_END_UNITS

    result = {
        "correct": not check_failures,
        "attempted": len(rounds) * len(statuses),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    details = {"workload": wl.name, "seed": args.seed, "trace": args.trace, "quick": args.quick,
               "machine": machine, "phase_s": phase_s,
               "rounds": [{k: r[k] for k in ("campaign_s", "wall_s", "steal_share", "rows", "pair_s")}
                          for r in rounds],
               "pairs": pairs, "check_failures": check_failures, "result": result}
    if args.trace:
        details["trace_worker_coverage"] = coverage
    with open(out_dir / f"result_seed{args.seed}_trace{args.trace}.json", "w") as fh:
        json.dump(details, fh, indent=1)
    for f in check_failures:
        print(f"perfbench: CHECK FAILED {f}", file=sys.stderr)
    return result


def selftest() -> int:
    """Run every workload briefly, traced and untraced, and confirm that every
    metric named in BENCHMARK.json and both operation counts are printed."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for wl in bench["workloads"]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", wl["name"], "--seed", "1",
                   "--seconds", "1", "--trace", str(trace), "--quick"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            problems = []
            try:
                res = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                res = None
                problems.append(f"exit {proc.returncode}, no result line: {proc.stderr[-500:]}")
            if res is not None:
                if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
                    problems.append(f"result keys {sorted(res)}")
                if not (isinstance(res.get("attempted"), int) and res["attempted"] >= 1
                        and isinstance(res.get("failed"), int)):
                    problems.append("operation counts missing")
                if res.get("correct") is not True:
                    problems.append("correct is not true")
                got = res.get("metrics", {})
                for m in bench[section]:
                    entry = got.get(m["name"])
                    if entry is None or entry.get("unit") != m["unit"] or not isinstance(entry.get("value"), (int, float)):
                        problems.append(f"metric {m['name']} missing or wrong unit")
                extra = set(got) - {m["name"] for m in bench[section]}
                if extra:
                    problems.append(f"unlisted metrics {sorted(extra)}")
            ok = ok and not problems
            print(f"{'ok  ' if not problems else 'FAIL'} {wl['name']} trace={trace}"
                  + ("" if not problems else ": " + "; ".join(problems)), flush=True)
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny iteration cap, one set-up probe")
    parser.add_argument("--selftest", action="store_true", help="run every workload in quick mode and check the output")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if args.workload is None:
        parser.error("--workload is required")
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

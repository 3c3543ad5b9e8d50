"""Run the desk-scale convergence suite and print a summary table.

For every (problem, ansatz) pair of the defaults table except the
interior-point barrier, runs a seeded multi-run campaign with the pair's
defaults (exact expectations) and reports the median final error against
the problem oracle.  Outputs (per-run CSVs, summary.csv, convergence.svg)
land under --output-root.

Usage:
    python scripts/run_convergence_suite.py [--output-root OUT] [--runs 5]
    python scripts/run_convergence_suite.py --problems trace_distance_dual,tvd_dual
"""

import argparse
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from qslack.config import config_from_dict
from qslack.problems import DEFAULTS
from qslack.runner import run_experiment


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--output-root", default="suite_out")
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--workers", type=int, default=2)
    ap.add_argument("--problems", default=None,
                    help="comma-separated problem tags (default: all)")
    args = ap.parse_args()

    tags = args.problems.split(",") if args.problems else None
    combos = [(tag, ansatz) for tag, ansatz in DEFAULTS
              if tag != "cham_interior_point" and (tags is None or tag in tags)]

    print(f"{'problem':26s} {'ansatz':20s} {'oracle':>9s} {'median':>9s} {'med err':>9s} {'time':>7s}")
    failures = 0
    for tag, ansatz in combos:
        t0 = time.time()
        cfg = config_from_dict({
            "problem": tag,
            "ansatz": {"type": ansatz},
            "n_runs": args.runs,
            "seed": args.seed,
            "workers": args.workers,
            "output_dir": os.path.join(args.output_root, f"{tag}__{ansatz}"),
        })
        result = run_experiment(cfg)
        finals = [r.final_objective for r in result.records if not r.aborted]
        med = float(np.median(finals)) if finals else float("nan")
        err = abs(med - result.oracle.value)
        status = "" if err <= 5e-2 and finals else "  <-- above tolerance"
        failures += bool(status)
        print(f"{tag:26s} {ansatz:20s} {result.oracle.value:9.4f} {med:9.4f} {err:9.4f} "
              f"{time.time() - t0:6.0f}s{status}", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

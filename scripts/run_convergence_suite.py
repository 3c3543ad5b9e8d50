"""Run the desk-scale convergence suite and print a summary table.

For every (problem, ansatz) pair of the defaults table, runs a seeded
multi-run campaign with the pair's defaults (exact expectations) and reports
the median final value and the median of the runs' errors against the
problem oracle, the statistic the acceptance criteria bound.  A pair is
flagged above the bound its criterion sets: 2e-2 for the CSlack pairs of
criterion 7, 5e-2 for every other pair.  Outputs
(per-run CSVs, summary.csv, convergence.svg) land under --output-root.

``--set section.key=value`` (repeatable) lays a value over every pair's
config document, ``--set key=value`` a top-level one; the value is read as
JSON where it parses and as a string otherwise.  Every document is checked
by ``config_from_dict`` before the first campaign starts, so an unknown key
stops the suite at once.  ``--json PATH`` also writes the table as JSON.

Usage:
    python scripts/run_convergence_suite.py [--output-root OUT] [--runs N] [--seed S]
    python scripts/run_convergence_suite.py --problems trace_distance_dual,tvd_dual
    python scripts/run_convergence_suite.py --set optimizer.max_iters=8000 --json errors.json
"""

import argparse
import json
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from qslack.config import ConfigError, ExperimentConfig, config_from_dict
from qslack.problems import DEFAULTS
from qslack.runner import run_experiment

# The bound on the median error that flags a pair: acceptance criterion 7
# sets it for three CSlack problems, criterion 3 for the quantum ones.
TOLERANCE = 5e-2
TIGHT_TOLERANCE = {"tvd_dual": 2e-2, "classical_cham_primal": 2e-2, "classical_cham_dual": 2e-2}


def parse_override(text: str) -> tuple[list[str], object]:
    """``section.key=value`` or ``key=value`` as (path, value)."""
    path, sep, raw = text.partition("=")
    if not sep or not path or any(not part for part in path.split(".")) or path.count(".") > 1:
        raise argparse.ArgumentTypeError(f"expected section.key=value or key=value, got {text!r}")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return path.split("."), value


def apply_overrides(doc: dict, overrides: list[tuple[list[str], object]]) -> dict:
    for path, value in overrides:
        if len(path) == 1:
            doc[path[0]] = value
        else:
            section = doc.setdefault(path[0], {})
            if not isinstance(section, dict):
                raise ConfigError(f"config key {path[0]!r} does not hold a section")
            section[path[1]] = value
    return doc


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--output-root", default="suite_out")
    ap.add_argument("--runs", type=int, help=f"runs per pair (default: the config's, {ExperimentConfig.n_runs})")
    ap.add_argument("--seed", type=int, help=f"campaign seed (default: the config's, {ExperimentConfig.seed})")
    ap.add_argument("--workers", type=int, default=2,
                    help="the most processes one campaign trains in (default: 2); a campaign forks only in "
                         "shot mode or on circuits of at least 8 qubits")
    ap.add_argument("--problems", default=None,
                    help="comma-separated problem tags (default: all)")
    ap.add_argument("--set", dest="overrides", action="append", default=[], type=parse_override,
                    metavar="SECTION.KEY=VALUE", help="lay a value over every pair's config (repeatable)")
    ap.add_argument("--json", default=None, metavar="PATH",
                    help="also write each pair's oracle, median final value and median error")
    args = ap.parse_args(argv)

    tags = args.problems.split(",") if args.problems else None
    combos = [(tag, ansatz) for tag, ansatz in DEFAULTS if tags is None or tag in tags]
    configs = []
    for tag, ansatz in combos:
        doc = {
            "problem": tag,
            "ansatz": {"type": ansatz},
            "workers": args.workers,
            "output_dir": os.path.join(args.output_root, f"{tag}__{ansatz}"),
        }
        if args.runs is not None:
            doc["n_runs"] = args.runs
        if args.seed is not None:
            doc["seed"] = args.seed
        try:
            configs.append(config_from_dict(apply_overrides(doc, args.overrides)))
        except ConfigError as exc:
            print(f"{tag}/{ansatz}: {exc}", file=sys.stderr)
            return 2

    print(f"{'problem':26s} {'ansatz':20s} {'oracle':>9s} {'median':>9s} {'med err':>9s} {'time':>7s}")
    failures = 0
    table = []
    for (tag, ansatz), cfg in zip(combos, configs):
        t0 = time.time()
        result = run_experiment(cfg)
        finals = [r.final_objective for r in result.records if not r.aborted]
        med = float(np.median(finals)) if finals else float("nan")
        err = float(np.median([abs(f - result.oracle.value) for f in finals])) if finals else float("nan")
        status = "" if err <= TIGHT_TOLERANCE.get(tag, TOLERANCE) else "  <-- above tolerance"
        failures += bool(status)
        print(f"{tag:26s} {ansatz:20s} {result.oracle.value:9.4f} {med:9.4f} {err:9.4f} "
              f"{time.time() - t0:6.0f}s{status}", flush=True)
        table.append({"problem": tag, "ansatz": ansatz, "oracle": result.oracle.value,
                      "median_final": med if finals else None, "median_error": err if finals else None,
                      "aborted": sum(r.aborted for r in result.records)})
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"overrides": [{".".join(p): v} for p, v in args.overrides], "pairs": table}, fh, indent=2)
            fh.write("\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

"""Write every file that ``run_experiment`` produces on the benchmark workloads.

Runs each config of ``perfbench/workloads.py`` at seeds 1 and 2, each with
``workers`` 1 and 2, into OUT/<workload>/seed<s>.workers<w>/<problem>.<ansatz>.
Each config runs twice into its directory, as the benchmark repeats a
campaign, so the tree holds what a re-run leaves, not only a first write.
The outputs are deterministic, so two versions of the program compute the
same results on these workloads exactly when ``diff -r`` finds no difference
between their trees.  The benchmark's files are only imported, never changed.

Usage:
    OPENBLAS_NUM_THREADS=1 python scripts/write_workload_outputs.py OUT
    diff -r OUT_BEFORE OUT
"""

import argparse
import os
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from qslack.config import config_from_dict
from qslack.runner import run_experiment
from workloads import WORKLOADS

SEEDS = (1, 2)
WORKERS = (1, 2)
REPEATS = 2


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("out", metavar="OUT", help="directory to write the outputs under")
    args = ap.parse_args(argv)
    for name, workload in WORKLOADS.items():
        for seed in SEEDS:
            for workers in WORKERS:
                out_dir = os.path.join(args.out, name, f"seed{seed}.workers{workers}")
                for doc in workload.configs(seed, out_dir):
                    cfg = config_from_dict({**doc, "workers": workers})
                    for _ in range(REPEATS):
                        run_experiment(cfg)
                print(f"{name} seed {seed} workers {workers}: {out_dir}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

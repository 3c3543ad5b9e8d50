"""Set-up time in a fresh process: import qslack, then build each
(problem, ansatz) instance of a workload once, frozen inputs and oracle
included, the way the runner builds it.

Usage: python3 setup_probe.py <src dir> <JSON list of config documents>
Prints {"setup_s": seconds}.
"""

import json
import sys
import time

if __name__ == "__main__":
    t0 = time.perf_counter()
    sys.path.insert(0, sys.argv[1])
    from qslack.config import config_from_dict
    from qslack.runner import build_from_config

    for doc in json.loads(sys.argv[2]):
        build_from_config(config_from_dict(doc))
    print(json.dumps({"setup_s": time.perf_counter() - t0}))

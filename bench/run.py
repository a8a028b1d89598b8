"""One benchmark command for the compiler, simulator and serve daemon.

    python3 bench/run.py --workload {paper-sim,compile,serve} \
        --seed N --seconds S --trace {0,1}

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` replays the same seeded operations and times
calls into each layer instead.  Every line but the last is a readable
report; the last is one JSON object.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import time

START = time.perf_counter()     # set-up time counts from here

from common import HASH_SEED, TMP, child_env  # noqa: E402

WORKLOADS = ("paper-sim", "compile", "serve")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time as JSON and "
                        "stop (the benchmark's cold set-up samples)")
    return parser.parse_args(argv)


def main() -> int:
    args = parse_args()
    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("error: run from the repository root (src/repro not found)",
              file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED or \
            os.environ.get("PYTHONPATH") != os.path.abspath("src"):
        # Every process runs under one pinned hash seed, so every run
        # compiles identical code (the optimizer's iteration order
        # still follows the hash seed).
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  child_env())
    os.makedirs(TMP, exist_ok=True)
    try:
        if args.workload == "paper-sim":
            from paper_sim import run
        elif args.workload == "compile":
            from wl_compile import run
        else:
            from serve_wl import run
        run(args, START)
    finally:
        shutil.rmtree(TMP, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(TMP))
        except OSError:
            pass                        # another run's scratch remains
    return 0


if __name__ == "__main__":
    sys.exit(main())

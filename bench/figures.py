"""Reference figures for bench/README.md.

    python3 bench/figures.py

For each paper-sim program (streamed configuration): simulation time on
the default tiers, on the decoded loop (superops and fast-forward off)
and on the ``slow=True`` reference loop, medians of three runs after a
warm-up; then Table II's streaming reduction beside the paper's column.
Run from the repository root.
"""

from __future__ import annotations

import os
import statistics
import sys
import time

from common import HASH_SEED, child_env, options_for
from inputs import PAPER_SCALE, paper_programs

#: Table II of the paper: % fewer cycles executed with streaming
PAPER_TABLE2 = {"dot-product": 43, "dhrystone": 39, "bubblesort": 18,
                "sieve": 18, "cal": 17, "iir": 13, "banner": 5,
                "whetstone": 3, "quicksort": 1}

TIERS = (("default", {}),
         ("decoded", {"superops": False, "fast_forward": False}),
         ("slow", {"slow": True}))


def ms(fn, reps: int = 3) -> float:
    fn()
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable, [sys.executable, *sys.argv], child_env())
    from repro.compiler import compile_source
    print(f"scale {PAPER_SCALE}, streamed configuration, ms "
          f"(median of 3 after a warm-up)")
    print(f"{'program':12s} {'default':>9s} {'decoded':>9s} {'slow':>9s}")
    cycles = {}
    for name, source in paper_programs().items():
        row = []
        for config in ("base", "stream"):
            result = compile_source(source, options=options_for(config))
            cycles[(name, config)] = result.simulate().cycles
        for _tier, kwargs in TIERS:
            row.append(ms(lambda: result.simulate(**kwargs)))
        print(f"{name:12s} " + " ".join(f"{v:9.1f}" for v in row))
    print("\nTable II: % reduction in cycles executed by streaming")
    print(f"{'program':12s} {'base':>9s} {'stream':>9s} {'ours %':>7s} "
          f"{'paper %':>7s}")
    for name in paper_programs():
        base, stream = cycles[(name, "base")], cycles[(name, "stream")]
        paper = PAPER_TABLE2.get(name)
        print(f"{name:12s} {base:9d} {stream:9d} "
              f"{100 * (base - stream) / base:7.1f} "
              f"{'' if paper is None else paper:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's input programs.

Every input set is fixed: it does not depend on the workload seed, so
simulated cycles, code size and every per-layer count repeat exactly
from run to run and seed to seed.  The seed only orders the operations
inside each pass (and salts the fresh sources of ``serve``).
"""

from __future__ import annotations

import hashlib
import random

#: Table II's benchmark scale (``repro tables`` default).
PAPER_SCALE = 0.25

#: ``compile`` workload: generator seeds of its distinct programs.
COMPILE_SEEDS = tuple(range(40))
#: programs of ``compile`` re-compiled under the second hash seed
#: (a fixed draw, independent of the workload seed)
COMPILE_DIGEST_SUBSET = tuple(sorted(random.Random(1991).sample(
    range(len(COMPILE_SEEDS)), 10)))

#: ``serve`` workload, per connection: generator seeds of the programs
#: behind fresh requests (salted anew on every pass), of the hot set
#: and of the disk set (see serve_wl.py for how they are used).
SERVE_FRESH_SEEDS = (tuple(range(100, 113)), tuple(range(120, 133)))
SERVE_HOT_SEEDS = ((200, 201, 202), (210, 211, 212))
SERVE_DISK_SEEDS = (tuple(range(300, 308)), tuple(range(310, 318)))


def source_digest(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def paper_programs() -> dict[str, str]:
    from repro.benchsuite import PROGRAMS, get_program
    return {name: get_program(name, scale=PAPER_SCALE).source
            for name in PROGRAMS}


def generated(seed: int) -> str:
    from repro.qa.genprog import gen_program
    return gen_program(seed)


def compile_programs() -> dict[str, str]:
    return {f"gen{seed}": generated(seed) for seed in COMPILE_SEEDS}


def serve_programs() -> dict[str, str]:
    seeds = [s for group in (SERVE_FRESH_SEEDS, SERVE_HOT_SEEDS,
                             SERVE_DISK_SEEDS) for conn in group
             for s in conn]
    return {f"gen{seed}": generated(seed) for seed in seeds}


def all_programs() -> dict[str, str]:
    """Every input program by reference name."""
    return {**paper_programs(), **compile_programs(), **serve_programs()}

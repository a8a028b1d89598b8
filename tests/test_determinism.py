"""The same source compiles to the same code under every hash seed.

Each side compiles in a fresh interpreter under its own
``PYTHONHASHSEED``, so nothing the compiler iterates in set or dict
order can leak into the listing without this test noticing.  iir and
cal (Table II's base and streamed configurations) are the benchmarks
whose code used to move with the seed; the generated programs add
loops, branches and calls of every shape the fuzzer produces.
"""

import json
import os
import subprocess
import sys

import repro

_SCRIPT = r"""
import json, sys
from repro.benchsuite import get_program
from repro.compiler import compile_source
from repro.opt import OptOptions
from repro.qa.genprog import gen_program

out = {}
for name in ("iir", "cal"):
    source = get_program(name, scale=0.25).source
    for label, options in (("base", OptOptions.no_streaming()),
                           ("stream", OptOptions())):
        out[f"{name}/{label}"] = compile_source(
            source, options=options).listing()
for seed in (0, 1, 2, 3):
    out[f"gen{seed}"] = compile_source(gen_program(seed)).listing()
json.dump(out, sys.stdout)
"""


def _listings(hash_seed: str) -> dict:
    src_dir = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src_dir)
    proc = subprocess.run([sys.executable, "-c", _SCRIPT], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def test_listings_identical_across_hash_seeds():
    first, second = _listings("0"), _listings("1")
    assert set(first) == set(second)
    differ = sorted(name for name in first if first[name] != second[name])
    assert not differ, f"listings depend on the hash seed: {differ}"

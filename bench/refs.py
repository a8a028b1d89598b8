"""Recompute ``refs.json``: every input program's return value by gcc.

Each Mini-C input is compiled as C with ``gcc -O1 -fwrapv`` behind a
small harness that prints ``main``'s ``int``; the IR interpreter's
value is recorded beside it.  Programs where the two disagree are
listed under ``ir_only``: the benchmark then checks them against the
IR interpreter alone.

Run from the repository root:  python3 bench/refs.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from inputs import all_programs, source_digest  # noqa: E402

GCC = ["gcc", "-O1", "-fwrapv", "-w"]
COMMAND = "python3 bench/refs.py"

HARNESS = """
#undef main
#include <stdio.h>
int main(void) { printf("%d\\n", mc_main()); return 0; }
"""

#: Why each ir_only program's C reading differs from Mini-C's.
REASONS = {
    "quicksort": "C reads the constant 2654435761 as a 64-bit long; "
                 "Mini-C wraps it to a 32-bit int",
}


def gcc_value(source: str, workdir: str) -> int:
    c_path = os.path.join(workdir, "prog.c")
    exe = os.path.join(workdir, "prog")
    with open(c_path, "w") as fh:
        fh.write("#define main mc_main\n" + source + HARNESS)
    subprocess.run([*GCC, "-o", exe, c_path, "-lm"], check=True)
    out = subprocess.run([exe], check=True, capture_output=True,
                         text=True, timeout=60)
    return int(out.stdout.strip())


def main() -> int:
    from repro.ir import run as run_ir
    from repro.compiler import compile_to_ir
    programs = all_programs()
    values, ir_only = {}, {}
    with tempfile.TemporaryDirectory() as workdir:
        for name, source in programs.items():
            value = gcc_value(source, workdir)
            ir_value = run_ir(compile_to_ir(source)).value
            values[name] = {"sha256": source_digest(source), "gcc": value}
            if value != ir_value:
                ir_only[name] = REASONS.get(name, "differs from gcc")
            print(f"{name:14s} gcc {value:12d}  ir {ir_value:12d}",
                  file=sys.stderr)
    version = subprocess.run(["gcc", "--version"], capture_output=True,
                             text=True).stdout.splitlines()[0]
    out = {"command": COMMAND, "compiler": " ".join(GCC) + f" ({version})",
           "ir_only": ir_only, "programs": values}
    with open(os.path.join(HERE, "refs.json"), "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""repro: reproduction of Benitez & Davidson, "Code Generation for
Streaming: An Access/Execute Mechanism" (ASPLOS 1991).

A complete vertical slice of the paper's system, in pure Python:

* a Mini-C front end producing naive abstract machine code
  (:mod:`repro.frontend`, :mod:`repro.ir`);
* a vpo-style RTL optimizer (:mod:`repro.opt`) with the paper's two
  contributed algorithms — recurrence detection/optimization
  (:mod:`repro.recurrence`) and streaming code generation
  (:mod:`repro.streaming`);
* machine descriptions for WM, the Motorola 68020, and parametric
  scalar cost models (:mod:`repro.machine`);
* a cycle-level WM simulator with IFU/IEU/FEU/SCUs and data FIFOs
  (:mod:`repro.sim`);
* the paper's benchmark programs (:mod:`repro.benchsuite`) and
  harnesses regenerating every table and figure
  (:mod:`repro.reporting`).

Quick start::

    from repro.compiler import compile_source
    result = compile_source(open("prog.c").read())
    print(result.listing())
    print(result.simulate().cycles)
"""

from .compiler import CompileResult, compile_source, compile_to_ir, scalar_options
from .opt import OptOptions

__version__ = "1.0.0"

#: Compiler revision: part of every compile-cache key (in-process and
#: on-disk).  Bump on ANY change that can alter generated code or the
#: contents of a :class:`CompileResult` (new passes, codegen fixes,
#: report-schema changes), so persistent artifacts written by an older
#: compiler can never be served by a newer one.
__compiler_rev__ = 3

__all__ = [
    "CompileResult", "compile_source", "compile_to_ir", "scalar_options",
    "OptOptions", "__version__", "__compiler_rev__",
]

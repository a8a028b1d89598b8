"""Regenerate the paper's tables, each at one fixed size.

* **Table I** — percent improvement in execution time from the
  recurrence optimization on five machines (four scalar cost models +
  the WM cycle simulator), measured on the 5th Livermore loop at
  :data:`TABLE1_N` elements.  Kernel time is isolated by subtraction:
  each configuration is run once with the kernel and once with the
  kernel call removed.
* **Table II** — percent reduction in cycles executed from streaming,
  for the nine benchmark programs plus ``lloop5`` (the 5th Livermore
  loop, not a paper row) on the WM cycle simulator, at
  :data:`TABLE2_SCALE`.
* **Tables III/IV** — the SPEC-measurement proxy: per-program speedup
  of the full vpo pipeline over a conventional-compiler stand-in
  (local optimization only), with geometric means, on the generic RISC
  cost model, at :data:`TABLE34_SCALE`.  (SPEC sources are
  proprietary; see DESIGN.md.)
* **Streaming-detection table** — the qualitative "streaming appears in
  Unix utilities" observation, over the utility-kernel corpus.
* **Ablations** (beyond the paper) — memory latency, FIFO capacity,
  memory ports and dual-operation combining.

Each builder runs its configurations as one :class:`~repro.perf.SimJob`
batch through :func:`~repro.perf.run_jobs`, raises
:class:`~repro.perf.JobsFailed` when any job failed (so a failed job
never reads as a measurement), and returns its table as golden data:
JSON-ready nested dicts that :mod:`repro.reporting.golden` writes,
compares and renders.  Counts are exact; derived ratios are rounded
(percents to 0.01, speedups and the geomean to 4 places) so that a
last-digit libm difference between Python versions cannot change them.
"""

from __future__ import annotations

import hashlib
import math
from typing import Optional

from ..benchsuite import PROGRAMS, UTILITY_CORPUS, get_program
from ..compiler import compile_to_ir, scalar_options
from ..ir import run as run_ir
from ..obs import get_tracer
from ..opt import OptOptions
from ..perf import JobResult, JobsFailed, SimJob, compile_cached, run_jobs

__all__ = [
    "TABLE1_N", "TABLE2_SCALE", "TABLE34_SCALE", "PAPER_TABLE1",
    "PAPER_TABLE2", "table1", "table2", "table3_4", "stream_detection",
    "ablations",
]

#: Table I's Livermore-loop array size.  The paper used 100,000; the
#: percentages are size-stable once the loop dominates.
TABLE1_N = 2000
#: Table II's problem scale (also the benchmark's ``paper-sim`` scale);
#: the ablations run two of its programs at it too.
TABLE2_SCALE = 0.25
#: Tables III/IV's problem scale.
TABLE34_SCALE = 0.25

#: Table I as printed in the paper, for side-by-side comparison.
PAPER_TABLE1 = {
    "sun3/280": 19, "hp9000/345": 12, "vax8600": 6, "m88100": 7, "wm": 18,
}

#: Table II as printed in the paper.
PAPER_TABLE2 = {
    "banner": 5, "bubblesort": 18, "cal": 17, "dhrystone": 39,
    "dot-product": 43, "iir": 13, "quicksort": 1, "sieve": 18,
    "whetstone": 3,
}


def _run(jobs: list[SimJob], workers: Optional[int],
         span: str) -> list[JobResult]:
    """``run_jobs`` under a tracer span, raising :class:`JobsFailed` if
    any job failed: a failed job's defaulted fields are no result."""
    with get_tracer().span(span, category="tables", workers=workers):
        results = run_jobs(jobs, workers=workers)
    failed = [f"{res.name}: {res.error}" for res in results
              if res.error is not None]
    if failed:
        raise JobsFailed("; ".join(failed))
    return results


def _percent(base: float, new: float) -> float:
    return round(100.0 * (base - new) / base, 2)


_TABLE1_SCALAR = ("sun3/280", "hp9000/345", "vax8600", "m88100")


def _table1_jobs() -> list[SimJob]:
    """The 20 compile-and-run configurations behind Table I.

    Kernel time is isolated by subtraction, so every (machine,
    recurrence) cell needs a full run and an init-only run; the order
    here is (base-full, base-init, opt-full, opt-init) per machine,
    scalar machines first, WM last — matching the row order below.
    """
    # lloop5's default size is 1024 elements, so this is TABLE1_N.
    full = get_program("lloop5", scale=TABLE1_N / 1024).source
    init = full.replace("kernel(n);", "")
    jobs = []
    for name in _TABLE1_SCALAR:
        for recurrence in (False, True):
            opts = scalar_options(recurrence=recurrence)
            jobs.append(SimJob(f"{name}/full", full, action="execute",
                               machine=name, options=opts))
            jobs.append(SimJob(f"{name}/init", init, action="execute",
                               machine=name, options=opts))
    # Table I isolates the recurrence optimization: streaming stays off.
    for recurrence in (False, True):
        opts = OptOptions(recurrence=recurrence, streaming=False)
        jobs.append(SimJob("wm/full", full, options=opts))
        jobs.append(SimJob("wm/init", init, options=opts))
    return jobs


def table1(workers: Optional[int] = None) -> dict:
    """Effect of recurrence optimization on execution time (Table I):
    per machine, the baseline and optimized kernel cycles and the
    percent improvement.  ``workers`` fans the 20 runs out."""
    results = _run(_table1_jobs(), workers, "table1")
    kernel = [results[i].cycles - results[i + 1].cycles
              for i in range(0, len(results), 2)]
    return {name: {"baseline_cycles": kernel[2 * i],
                   "optimized_cycles": kernel[2 * i + 1],
                   "percent": _percent(kernel[2 * i], kernel[2 * i + 1])}
            for i, name in enumerate(_TABLE1_SCALAR + ("wm",))}


def _listing_sha256(job: SimJob) -> str:
    # Jobs return no listings; in-process this is a compile-cache hit.
    compiled = compile_cached(job.source, machine_name=job.machine,
                              options=job.options)
    return hashlib.sha256(compiled.listing().encode("utf-8")).hexdigest()


def table2(workers: Optional[int] = None) -> dict:
    """Execution performance improvement by streaming (Table II).

    Per program: for each configuration (``base``, ``stream``) the
    cycles, the return value and the listing's sha256; the percent
    reduction; the stream counts; and the dominant streamed loop's
    measured steady-state II, the static bound max(ResMII, RecMII) and
    their ratio (headroom).  ``workers`` fans the 20 runs out.
    """
    jobs = []
    for name in PROGRAMS:
        source = get_program(name, scale=TABLE2_SCALE).source
        jobs.append(SimJob(f"{name}/base", source,
                           options=OptOptions.no_streaming()))
        # The streamed run carries the cycle profiler so the row can
        # report measured II against the static ResMII/RecMII bound.
        jobs.append(SimJob(f"{name}/stream", source, options=OptOptions(),
                           sim_kwargs=(("profile", True),)))
    results = _run(jobs, workers, "table2")
    out = {}
    for i, name in enumerate(PROGRAMS):
        base, stream = results[2 * i], results[2 * i + 1]
        top = stream.profile[0] if stream.profile else {}
        configs = (("base", jobs[2 * i], base),
                   ("stream", jobs[2 * i + 1], stream))
        out[name] = {config: {"cycles": res.cycles, "value": res.value,
                              "listing_sha256": _listing_sha256(job)}
                     for config, job, res in configs}
        out[name].update(
            percent=_percent(base.cycles, stream.cycles),
            streams_in=stream.streams_in, streams_out=stream.streams_out,
            measured_ii=top.get("measured_ii"), bound_ii=top.get("bound"),
            headroom=top.get("headroom"))
    return out


def table3_4(workers: Optional[int] = None) -> dict:
    """SPEC-proxy experiment (stands in for Tables III/IV).

    The paper's appendix shows the vpcc/vpo compiler beating the native
    Sun cc by ~7% geometric mean on the SPEC C programs — establishing
    that Tables I/II measure improvements over a *good* baseline.
    SPEC sources being unavailable, the proxy compiles the benchmark
    suite with (a) a conventional-compiler stand-in (local combine/DCE
    only) and (b) the full vpo pipeline, on the generic RISC cost
    model.  Per program: both cycle counts and their ratio; plus the
    ratios' ``geomean``.
    """
    cc_opts = OptOptions(licm=False, recurrence=False, streaming=False,
                         strength=False)
    vpo_opts = scalar_options()
    jobs = []
    for name in PROGRAMS:
        source = get_program(name, scale=TABLE34_SCALE).source
        jobs.append(SimJob(f"{name}/cc", source, action="execute",
                           machine="generic-risc", options=cc_opts))
        jobs.append(SimJob(f"{name}/vpo", source, action="execute",
                           machine="generic-risc", options=vpo_opts))
    results = _run(jobs, workers, "table34")
    out: dict = {}
    log_sum = 0.0
    for name, cc, vpo in zip(PROGRAMS, results[::2], results[1::2]):
        assert cc.value == vpo.value, (name, cc.value, vpo.value)
        ratio = cc.cycles / vpo.cycles
        log_sum += math.log(ratio)
        out[name] = {"cc_cycles": cc.cycles, "vpo_cycles": vpo.cycles,
                     "ratio": round(ratio, 4)}
    out["geomean"] = round(math.exp(log_sum / len(PROGRAMS)), 4)
    return out


def stream_detection(workers: Optional[int] = None) -> dict:
    """Which utility kernels the optimizer finds streams in (the paper's
    cal/compact/od/sort/diff/nroff/yacc observation): per kernel, the
    input, output and infinite stream counts."""
    jobs = [SimJob(name, source, action="compile", options=OptOptions())
            for name, source in UTILITY_CORPUS.items()]
    return {res.name: {"in": res.streams_in, "out": res.streams_out,
                       "infinite": res.infinite}
            for res in _run(jobs, workers, "detect")}


def ablations(workers: Optional[int] = None) -> dict:
    """Cycle counts of four sweeps beyond the paper, on Table II's
    ``lloop5`` and ``dot-product`` programs:

    * ``memory_latency`` — ``lloop5`` at memory latency 1-32, baseline
      and fully optimized: decoupled access/execute tolerates latency,
      and the optimized loop (no memory round-trip) more so;
    * ``fifo_capacity`` — ``dot-product`` at latency 8 with FIFOs of
      2-32 entries: streams run ahead only as far as the FIFOs allow;
    * ``memory_ports`` — ``dot-product`` on 1, 2 and 4 ports: two input
      streams need a second port;
    * ``combine`` — baseline ``lloop5`` with dual-operation combining
      off and on.

    Every point's return value must equal the IR interpreter's, or the
    sweep raises :class:`JobsFailed`.
    """
    lloop = get_program("lloop5", scale=TABLE2_SCALE).source
    dot = get_program("dot-product", scale=TABLE2_SCALE).source
    baseline, full = OptOptions.baseline(), OptOptions()
    no_combine = OptOptions(combine=False, recurrence=False,
                            streaming=False)
    # (sweep, point, column) -> (source, options, simulator settings)
    cells = {}
    for latency in (1, 2, 4, 8, 16, 32):
        for column, opts in (("baseline", baseline), ("optimized", full)):
            cells["memory_latency", str(latency), column] = (
                lloop, opts, (("mem_latency", latency),))
    for capacity in (2, 4, 8, 16, 32):
        cells["fifo_capacity", str(capacity), "cycles"] = (
            dot, full, (("fifo_capacity", capacity), ("mem_latency", 8)))
    for ports in (1, 2, 4):
        cells["memory_ports", str(ports), "cycles"] = (
            dot, full, (("mem_ports", ports),))
    for point, opts in (("off", no_combine), ("on", baseline)):
        cells["combine", point, "cycles"] = (lloop, opts, ())
    jobs = [SimJob("/".join(key), source, options=opts, sim_kwargs=settings)
            for key, (source, opts, settings) in cells.items()]
    results = _run(jobs, workers, "ablations")
    expected = {src: run_ir(compile_to_ir(src)).value for src in (lloop, dot)}
    wrong = [f"{res.name}: value {res.value}, IR interpreter "
             f"{expected[job.source]}"
             for job, res in zip(jobs, results)
             if res.value != expected[job.source]]
    if wrong:
        raise JobsFailed("; ".join(wrong))
    out: dict = {}
    for (sweep, point, column), res in zip(cells, results):
        out.setdefault(sweep, {}).setdefault(point, {})[column] = res.cycles
    return out

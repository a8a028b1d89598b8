"""Per-layer metric names and the layer-by-layer compile sequence."""

from __future__ import annotations

import time

PROGRAMS = ("banner", "bubblesort", "cal", "dhrystone", "dot-product",
            "iir", "quicksort", "sieve", "whetstone", "lloop5")
PASSES = ("combine", "dce", "licm", "recurrence", "streaming", "regalloc",
          "peephole", "remove_dead_ivs", "remove_identity_moves")
COMPILE_LAYERS = ("frontend_ms", "irgen_ms", "expand_ms", "optimize_ms",
                  "lower_ms", "sim_cold_ms")
SERVE_SPANS = {"queue.wait": "serve.queue_wait_ms",
               "batch.assemble": "serve.batch_assemble_ms",
               "pool.dispatch": "serve.dispatch_ms",
               "handler.execute": "serve.handler_ms"}

#: (name, unit) of every per-layer metric, in report order
PER_LAYER = [
    ("sim.fast_ms", "ms"), ("sim.profile_ms", "ms"),
    ("sim.cycles_per_s.fast", "cycles/s"),
    ("sim.cycles_per_s.profile", "cycles/s"), ("bounds_ms", "ms"),
    *[(f"sim_ms.{p}.{m}", "ms") for p in PROGRAMS
      for m in ("base", "stream", "profile")],
    *[(f"sim_cycles.{p}.{c}", "count") for p in PROGRAMS
      for c in ("base", "stream")],
    *[(name, "ms") for name in COMPILE_LAYERS],
    *[(f"pass_ms.{p}", "ms") for p in PASSES],
    *[(f"rtl_delta.{p}", "count") for p in PASSES],
    ("opt.streams", "count"), ("opt.recurrence_loads", "count"),
    ("serve.queue_wait_ms.p50", "ms"), ("serve.queue_wait_ms.p95", "ms"),
    ("serve.batch_assemble_ms.p50", "ms"), ("serve.dispatch_ms.p50", "ms"),
    ("serve.handler_ms.p50", "ms"), ("serve.batch_size.mean", "count"),
    ("serve.cli_ms.p50", "ms"),
    ("cache.memory_hits", "count"), ("cache.disk_hits", "count"),
    ("cache.compiles", "count"), ("store.writes", "count"),
    ("trace.throughput", "1/s"),
]


def emit_per_layer(measured, speed, correct, attempted, failed, notes=()):
    """Print every per-layer metric, timings at the reference host speed
    (see common.HostSpeed); those this workload does not reach read 0
    with 0 samples."""
    from common import Metrics
    out = Metrics()
    for name, unit in PER_LAYER:
        value, samples = measured.get(name, (0, 0))
        out.add_scaled(name, value, unit, samples, speed)
    unknown = set(measured) - {name for name, _u in PER_LAYER}
    if unknown:
        raise KeyError(f"unlisted per-layer metrics: {sorted(unknown)}")
    out.emit(correct, attempted, failed, notes)


class LayerTotals:
    """Per-pass sums of layer times and optimizer counts."""

    def __init__(self) -> None:
        self.ms = {name: 0.0 for name in COMPILE_LAYERS}
        self.pass_ms = {p: 0.0 for p in PASSES}
        self.rtl_delta = {p: 0 for p in PASSES}
        self.streams = 0
        self.recurrence_loads = 0


def compile_by_layer(source: str, options, totals: LayerTotals):
    """Compile ``source`` one layer at a time, in the order
    ``compile_source`` calls them, timing each call, then simulate the
    fresh module once.  Returns the CompileResult and the simulation
    result."""
    from repro.compiler import CompileResult
    from repro.expander import expand
    from repro.frontend import analyze
    from repro.ir import lower
    from repro.machine.wm import WM
    from repro.machine.wm_lower import lower_wm_module
    from repro.obs import Tracer, use_tracer
    from repro.opt import optimize_module
    from repro.sim import simulate as run_sim
    clock = time.perf_counter
    machine = WM()
    t0 = clock()
    ast = analyze(source)
    t1 = clock()
    ir = lower(ast)
    t2 = clock()
    rtl = expand(machine, ir)
    t3 = clock()
    # The tracer is installed around the optimizer only: it makes
    # optimize_module record one PassStat per pass invocation.
    with use_tracer(Tracer()):
        reports = optimize_module(rtl, machine, options)
    t4 = clock()
    lower_wm_module(rtl, machine)
    t5 = clock()
    sim = run_sim(rtl)
    t6 = clock()
    for name, dt in zip(COMPILE_LAYERS, (t1 - t0, t2 - t1, t3 - t2,
                                         t4 - t3, t5 - t4, t6 - t5)):
        totals.ms[name] += dt * 1e3
    for report in reports.values():
        for stat in report.passes:
            totals.pass_ms[stat.name] += stat.seconds * 1e3
            totals.rtl_delta[stat.name] += stat.delta
        totals.streams += sum(s.streams_in + s.streams_out
                              for s in report.streams)
        totals.recurrence_loads += sum(r.eliminated_loads
                                       for r in report.recurrences)
    result = CompileResult(source=source, machine=machine, options=options,
                           ir=ir, rtl=rtl, reports=reports)
    return result, sim


def layer_metrics(passes: list[LayerTotals]) -> dict:
    """Median over passes of each per-pass total."""
    from common import p50
    n = len(passes)
    out = {name: (p50([t.ms[name] for t in passes]), n)
           for name in COMPILE_LAYERS}
    for p in PASSES:
        out[f"pass_ms.{p}"] = (p50([t.pass_ms[p] for t in passes]), n)
        out[f"rtl_delta.{p}"] = (p50([t.rtl_delta[p] for t in passes]), n)
    out["opt.streams"] = (p50([t.streams for t in passes]), n)
    out["opt.recurrence_loads"] = (p50([t.recurrence_loads
                                        for t in passes]), n)
    return out

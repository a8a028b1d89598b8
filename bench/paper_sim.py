"""``paper-sim``: Table II's simulations, as ``repro run`` and
``repro tables`` issue them.

Each pass sends 30 SimJobs through ``run_jobs(workers=1)``: every
benchmark under ``OptOptions.no_streaming()`` and ``OptOptions()`` on
the default simulator tiers, and the streamed configuration again with
``profile=True``.  The compiler does no work in a pass: set-up compiles
the 20 configurations into the in-process cache and then simulates each
once, so decode and superop-plan building are charged to set-up.
"""

from __future__ import annotations

import time

from common import (HostSpeed, Metrics, References, add_setup_s,
                    code_size, listing_digest, options_for, p50,
                    peak_rss_mb, run_passes, second_seed_digests,
                    seeded_order, set_up)
from inputs import paper_programs
from layers import LayerTotals, compile_by_layer, emit_per_layer, \
    layer_metrics

CONFIGS = ("base", "stream")
MODES = ("base", "stream", "profile")


def config_of(mode: str) -> str:
    return "base" if mode == "base" else "stream"


class State:
    def __init__(self) -> None:
        from repro.perf import SimJob, run_jobs
        from repro.perf.cache import compile_cached
        self.programs = paper_programs()
        self.refs = References(self.programs)
        self.errors = list(self.refs.errors)
        self.compiled = {
            (name, config): compile_cached(source,
                                           options=options_for(config))
            for name, source in self.programs.items() for config in CONFIGS}
        #: (program, mode, job) for the 30 cells of a pass
        self.cells = [
            (name, mode, SimJob(
                f"{name}/{mode}", source,
                options=options_for(config_of(mode)),
                sim_kwargs=(("profile", True),) if mode == "profile" else ()))
            for name, source in self.programs.items() for mode in MODES]
        # Warm-up: simulate every configuration once on the default
        # tiers.  Profiled runs build no per-module state.
        warm = [cell for cell in self.cells if cell[1] != "profile"]
        for (name, _mode, _job), res in zip(
                warm, run_jobs([job for _n, _m, job in warm], workers=1)):
            self.check(name, res)

    def check(self, name, res) -> None:
        if res.error is not None:
            self.errors.append(f"{name}: {res.error}")
            return
        problem = self.refs.check(name, res.value)
        if problem:
            self.errors.append(problem)


def run_untraced_pass(state: State, seed: int, pass_no: int,
                      speed: HostSpeed) -> dict:
    from repro.perf import run_jobs
    lat, cycles = [], 0
    for name, mode, job in seeded_order(seed, pass_no, state.cells):
        speed.maybe_sample()
        start = time.perf_counter()
        [res] = run_jobs([job], workers=1)
        lat.append((start, time.perf_counter() - start))
        state.check(name, res)
        if mode == "profile" and not res.profile:
            state.errors.append(f"{name}/profile: no headroom rows")
        cycles += res.cycles
    return {"lat": lat, "cycles": cycles}


def run_traced_pass(state: State, seed: int, pass_no: int,
                    speed: HostSpeed) -> dict:
    from repro.obs.profile import headroom_summary
    from repro.opt.bounds import compute_module_bounds
    ms, cycles, bounds_ms = {}, {}, 0.0
    for name, mode, _job in seeded_order(seed, pass_no, state.cells):
        speed.maybe_sample()
        compiled = state.compiled[(name, config_of(mode))]
        start = time.perf_counter()
        res = compiled.simulate(profile=(mode == "profile"))
        ms[(name, mode)] = (time.perf_counter() - start) * 1e3
        cycles[(name, mode)] = res.cycles
        problem = state.refs.check(name, res.value)
        if problem:
            state.errors.append(problem)
        if mode == "profile":
            start = time.perf_counter()
            rows = headroom_summary(res, compute_module_bounds(compiled.rtl))
            bounds_ms += (time.perf_counter() - start) * 1e3
            if not rows:
                state.errors.append(f"{name}/profile: no headroom rows")
    return {"ms": ms, "cycles": cycles, "bounds_ms": bounds_ms,
            "lat": list(ms.values())}


def failed_per_pass(state: State) -> tuple[int, set]:
    """Simulations per pass whose configuration lists differently under
    the second hash seed, and those configurations."""
    items = [{"name": f"{name}/{config}", "source": state.programs[name],
              "config": config} for name, config in state.compiled]
    other = second_seed_digests(items)
    nondet = {(name, config) for (name, config), result
              in state.compiled.items()
              if other[f"{name}/{config}"] != listing_digest(result)}
    return (sum(1 for name, mode, _j in state.cells
                if (name, config_of(mode)) in nondet), nondet)


def run(args, start: float) -> None:
    state, own_setup_s = set_up(State, args, start)
    if own_setup_s is None:
        return
    if args.trace:
        return run_traced(args, state)
    speed = HostSpeed()
    passes, elapsed = run_passes(state, args.seed, args.seconds,
                                 run_untraced_pass, speed)
    per_pass, nondet = failed_per_pass(state)
    if len({p["cycles"] for p in passes}) != 1:
        state.errors.append("simulated cycles differ between passes")
    ops = [op for p in passes for op in p["lat"]]
    out = Metrics()
    out.add_rate(ops, speed)
    out.add_latencies(ops, speed)
    add_setup_s(out, args, own_setup_s)
    out.add("peak_rss_mb", peak_rss_mb(), "MB", 1)
    out.add("sim_cycles", passes[0]["cycles"], "count", len(passes))
    out.add("code_size", sum(code_size(r) for r in state.compiled.values()),
            "count", len(state.compiled))
    notes = [f"passes {len(passes)} x {len(state.cells)} simulations in "
             f"{elapsed:.2f} s; host slowdown {speed.slowdown():.3f} "
             f"({len(speed.samples)} calibrations)",
             "hash-seed dependent configurations: " +
             (", ".join(sorted(f"{n}/{c}" for n, c in nondet)) or "none")]
    notes += [f"error: {e}" for e in state.errors[:20]]
    out.emit(not state.errors, len(ops), per_pass * len(passes), notes)


def run_traced(args, state: State) -> None:
    speed = HostSpeed()
    # Layer by layer: each configuration again, checked against the
    # listing compile_source produced.
    totals = LayerTotals()
    for (name, config), result in state.compiled.items():
        speed.maybe_sample()
        again, sim = compile_by_layer(state.programs[name],
                                      options_for(config), totals)
        if listing_digest(again) != listing_digest(result):
            state.errors.append(f"{name}/{config}: layer-by-layer listing "
                                f"differs from compile_source")
        problem = state.refs.check(name, sim.value)
        if problem:
            state.errors.append(problem)
    measured = layer_metrics([totals])
    passes, elapsed = run_passes(state, args.seed, args.seconds,
                                 run_traced_pass, speed)
    n = len(passes)
    for name, mode, _j in state.cells:
        measured[f"sim_ms.{name}.{mode}"] = (
            p50([p["ms"][(name, mode)] for p in passes]), n)
        if mode != "profile":
            measured[f"sim_cycles.{name}.{mode}"] = (
                passes[0]["cycles"][(name, mode)], n)
    for label, profiled in (("fast", False), ("profile", True)):
        keys = [(name, mode) for name, mode, _j in state.cells
                if (mode == "profile") == profiled]
        measured[f"sim.{label}_ms"] = (
            p50([sum(p["ms"][k] for k in keys) for p in passes]), n)
        measured[f"sim.cycles_per_s.{label}"] = (
            sum(p["cycles"][k] for p in passes for k in keys)
            / sum(p["ms"][k] for p in passes for k in keys) * 1e3,
            n * len(keys))
    measured["bounds_ms"] = (p50([p["bounds_ms"] for p in passes]), n)
    ops = sum(len(p["lat"]) for p in passes)
    measured["trace.throughput"] = (ops / elapsed, ops)
    busy = sum(measured[k][0] for k in ("sim.fast_ms", "sim.profile_ms",
                                         "bounds_ms"))
    per_pass, _nondet = failed_per_pass(state)
    notes = [f"profiled runs take "
             f"{100 * measured['sim.profile_ms'][0] / busy:.0f}% of a "
             f"pass's simulation and bounds time"]
    notes += [f"error: {e}" for e in state.errors[:20]]
    emit_per_layer(measured, speed, not state.errors, ops,
                   per_pass * n, notes)

"""``compile``: cold compiles of distinct generated programs.

Each operation compiles one program from source with no cache
(``compile_source``) and simulates it once on the fresh module, so the
front end and optimizer do most of the work and the simulator pays
decode and plan building on every run.
"""

from __future__ import annotations

import time

from common import (HostSpeed, Metrics, References, add_setup_s,
                    code_size, listing_digest, options_for, peak_rss_mb,
                    run_passes, second_seed_digests, seeded_order,
                    set_up)
from inputs import COMPILE_DIGEST_SUBSET, compile_programs
from layers import LayerTotals, compile_by_layer, emit_per_layer, \
    layer_metrics

#: enough operations per run that p95 has ten samples beyond it
MIN_OPS = 200


class State:
    def __init__(self) -> None:
        self.programs = compile_programs()
        self.names = list(self.programs)
        self.refs = References(self.programs)
        self.errors = list(self.refs.errors)
        #: listing digest per program, from the first compile seen
        self.digests: dict[str, str] = {}

    def check(self, name: str, result, sim) -> None:
        problem = self.refs.check(name, sim.value)
        if problem:
            self.errors.append(problem)
        digest = listing_digest(result)
        if self.digests.setdefault(name, digest) != digest:
            self.errors.append(f"{name}: listing differs from the first "
                               f"compile of the run")


def run_untraced_pass(state: State, seed: int, pass_no: int,
                      speed: HostSpeed) -> dict:
    from repro.compiler import compile_source
    lat, cycles, size = [], 0, 0
    for name in seeded_order(seed, pass_no, state.names):
        speed.maybe_sample()
        start = time.perf_counter()
        result = compile_source(state.programs[name])
        sim = result.simulate()
        lat.append((start, time.perf_counter() - start))
        state.check(name, result, sim)
        cycles += sim.cycles
        size += code_size(result)
    return {"lat": lat, "cycles": cycles, "size": size}


def run_traced_pass(state: State, seed: int, pass_no: int,
                    speed: HostSpeed) -> dict:
    totals = LayerTotals()
    lat = []
    for name in seeded_order(seed, pass_no, state.names):
        speed.maybe_sample()
        start = time.perf_counter()
        result, sim = compile_by_layer(state.programs[name],
                                       options_for("stream"), totals)
        lat.append((start, time.perf_counter() - start))
        state.check(name, result, sim)
    return {"lat": lat, "totals": totals}


def failed_per_pass(state: State) -> set:
    """Programs of the fixed subset whose listing changes under the
    second hash seed; each fails once per pass."""
    subset = [state.names[i] for i in COMPILE_DIGEST_SUBSET]
    other = second_seed_digests([
        {"name": name, "source": state.programs[name], "config": "stream"}
        for name in subset])
    return {name for name in subset if other[name] != state.digests[name]}


def run(args, start: float) -> None:
    state, own_setup_s = set_up(State, args, start)
    if own_setup_s is None:
        return
    if args.trace:
        return run_traced(args, state)
    speed = HostSpeed()
    passes, elapsed = run_passes(state, args.seed, args.seconds,
                                 run_untraced_pass, speed, MIN_OPS)
    nondet = failed_per_pass(state)
    for key in ("cycles", "size"):
        if len({p[key] for p in passes}) != 1:
            state.errors.append(f"{key} differ between passes")
    ops = [op for p in passes for op in p["lat"]]
    out = Metrics()
    out.add_rate(ops, speed)
    out.add_latencies(ops, speed)
    add_setup_s(out, args, own_setup_s)
    out.add("peak_rss_mb", peak_rss_mb(), "MB", 1)
    out.add("sim_cycles", passes[0]["cycles"], "count", len(passes))
    out.add("code_size", passes[0]["size"], "count", len(passes))
    notes = [f"passes {len(passes)} x {len(state.names)} programs in "
             f"{elapsed:.2f} s; host slowdown {speed.slowdown():.3f} "
             f"({len(speed.samples)} calibrations)",
             "hash-seed dependent programs (of the checked subset): " +
             (", ".join(sorted(nondet)) or "none")]
    notes += [f"error: {e}" for e in state.errors[:20]]
    out.emit(not state.errors, len(ops), len(nondet) * len(passes), notes)


def run_traced(args, state: State) -> None:
    from repro.compiler import compile_source
    # The listing compile_source produces, for the layer-by-layer check.
    state.digests.update({name: listing_digest(compile_source(source))
                          for name, source in state.programs.items()})
    speed = HostSpeed()
    passes, elapsed = run_passes(state, args.seed, args.seconds,
                                 run_traced_pass, speed, MIN_OPS)
    measured = layer_metrics([p["totals"] for p in passes])
    ops = sum(len(p["lat"]) for p in passes)
    measured["trace.throughput"] = (ops / elapsed, ops)
    nondet = failed_per_pass(state)
    emit_per_layer(measured, speed, not state.errors, ops,
                   len(nondet) * len(passes),
                   [f"error: {e}" for e in state.errors[:20]])

"""Differential oracle: every backend must agree on every program.

:func:`check_program` runs one Mini-C source through

* the IR reference interpreter (the oracle),
* the WM cycle simulator at four optimization levels (O0 unoptimized,
  O1 baseline, O2 recurrence, O3 full streaming), via the decoded fast
  path,
* the WM simulator at O3 with the cycle profiler on (``profile=True``
  — observation must not perturb the machine: same value, same cycle
  count as the unprofiled run),
* the WM *reference* loop at O3 (``slow=True``, also profiled — the
  fast path must be bit-identical: same value, same globals, same
  cycle count, and the same cycle-ledger attribution),
* the WM simulator at O3 on its default tiers (closed-form
  fast-forward, replayed through the decoded ops) — whose full counter
  signature (cycles, instructions, unit counts, memory traffic, stream
  elements) must match the slow reference exactly; a divergence is
  reported as a ``fastforward-mismatch``.  Fault-injected runs force
  ``slow=True`` in the simulator itself, so a fault plan always fully
  de-opts,
* the scalar cost-model executor (generic-risc),

and reports the first disagreement as a :class:`Failure` — a value or
global mismatch, a cycle divergence between the fast and slow
simulator loops, a cycle-ledger attribution divergence between them,
or a crash anywhere in the stack (lexer to simulator).  Every compile is
strict (``OptOptions.strict``): an optimization pass that raises is a
crash finding, not a silent rollback to less optimized code.
Uncaught exception types are *not* absorbed: a crash inside the
harness is a finding, recorded with its exception signature so the
reducer can preserve it.

:func:`run_fuzz` drives :mod:`repro.qa.genprog` over a seed range and
collects every failure; the CLI wraps it as ``repro fuzz``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from ..compiler import compile_source, scalar_options
from ..machine.scalar import make_machine
from ..opt import OptOptions
from .genprog import gen_program

__all__ = ["CONFIGS", "Failure", "FuzzReport", "check_program", "run_fuzz"]

#: WM optimization levels compared against the oracle, all strict.
CONFIGS: dict[str, Callable[[], OptOptions]] = {
    "O0": lambda: replace(OptOptions.unoptimized(), strict=True),
    "O1": lambda: replace(OptOptions.baseline(), strict=True),
    "O2": lambda: replace(OptOptions.no_streaming(), strict=True),
    "O3": lambda: OptOptions(strict=True),
}

#: cycle budget per fuzz simulation: generated programs are tiny, so a
#: run that exceeds this reflects a livelock, and the structured
#: cycle-limit SimError it produces is recorded as a crash finding
MAX_FUZZ_CYCLES = 5_000_000


@dataclass
class Failure:
    """One differential finding, with everything a bundle needs."""

    seed: Optional[int]
    kind: str          # value-mismatch | global-mismatch | cycle-mismatch
    #                  # | ledger-mismatch | fastforward-mismatch | crash
    config: str        # which backend/level disagreed (e.g. "O3/sim")
    detail: str        # human-readable one-liner
    source: str
    expected: object = None
    actual: object = None

    def manifest(self) -> dict:
        """JSON-stable record embedded in reproducer bundles."""
        return {
            "seed": self.seed,
            "kind": self.kind,
            "config": self.config,
            "detail": self.detail,
            "expected": repr(self.expected),
            "actual": repr(self.actual),
        }


@dataclass
class FuzzReport:
    """Outcome of one fuzz run."""

    count: int = 0
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _globals_of(ir_module):
    return [(name, obj.size) for name, obj in ir_module.data.items()
            if not name.startswith("str.")]


def _compare(result, oracle, ir_module, config: str,
             seed: Optional[int], source: str) -> Optional[Failure]:
    if result.value != oracle.value:
        return Failure(seed, "value-mismatch", config,
                       f"{config}: returned {result.value!r}, oracle "
                       f"{oracle.value!r}", source,
                       expected=oracle.value, actual=result.value)
    for name, size in _globals_of(ir_module):
        got = result.global_bytes(name, size)
        want = oracle.global_bytes(name, size)
        if got != want:
            return Failure(seed, "global-mismatch", config,
                           f"{config}: global {name} differs", source,
                           expected=want.hex(), actual=got.hex())
    return None


def _counter_mismatch(result, reference):
    """First differing (name, got, want) among the exact-equivalence
    counters, or None — cycles first, so a closed-form drift surfaces
    as the cycle count."""
    for name in ("cycles", "instructions", "unit_instructions",
                 "memory_reads", "memory_writes", "stream_elements"):
        got = getattr(result, name)
        want = getattr(reference, name)
        if got != want:
            return (name, got, want)
    return None


def check_program(source: str,
                  seed: Optional[int] = None) -> Optional[Failure]:
    """Run every backend over ``source``; first disagreement or None.

    The oracle (IR interpreter) runs once; each backend result is
    compared to it value-first, then global-by-global.  At O3 the
    simulator additionally runs with the cycle profiler on (observation
    must not change value or cycle count) and runs the slow reference
    loop profiled, which must match the fast path's value, cycle count
    *and* cycle-ledger attribution exactly.
    """
    try:
        oracle = None
        ir_module = None
        for config, make_options in CONFIGS.items():
            res = compile_source(source, options=make_options())
            if oracle is None:
                oracle = res.run_oracle()
                ir_module = res.ir
            sim = res.simulate(max_cycles=MAX_FUZZ_CYCLES)
            failure = _compare(sim, oracle, ir_module, f"{config}/sim",
                               seed, source)
            if failure is not None:
                return failure
            if config == "O3":
                prof = res.simulate(max_cycles=MAX_FUZZ_CYCLES,
                                    profile=True)
                failure = _compare(prof, oracle, ir_module,
                                   "O3/sim-profile", seed, source)
                if failure is not None:
                    return failure
                if prof.cycles != sim.cycles:
                    return Failure(
                        seed, "cycle-mismatch", "O3/sim-profile",
                        f"profiled run {prof.cycles} cycles, "
                        f"unprofiled {sim.cycles}", source,
                        expected=sim.cycles, actual=prof.cycles)
                slow = res.simulate(max_cycles=MAX_FUZZ_CYCLES,
                                    slow=True, profile=True)
                failure = _compare(slow, oracle, ir_module,
                                   "O3/sim-reference", seed, source)
                if failure is not None:
                    return failure
                if slow.cycles != sim.cycles:
                    return Failure(
                        seed, "cycle-mismatch", "O3/sim-reference",
                        f"fast path {sim.cycles} cycles, reference "
                        f"{slow.cycles}", source,
                        expected=slow.cycles, actual=sim.cycles)
                fast_ledger = prof.telemetry.ledger.to_dict()
                slow_ledger = slow.telemetry.ledger.to_dict()
                if fast_ledger != slow_ledger:
                    keys = [k for k in fast_ledger
                            if fast_ledger[k] != slow_ledger.get(k)]
                    return Failure(
                        seed, "ledger-mismatch", "O3/sim-profile",
                        "cycle-ledger attribution differs between fast "
                        f"and reference loops (keys: {', '.join(keys)})",
                        source)
                # Fast-forward: ``sim`` above ran with the defaults
                # (fast-forward on); its full counter signature must
                # match the slow reference exactly.  Profiled/fault
                # runs never arm the engine, so the ledger comparison
                # above pairs two per-cycle runs by construction.
                mismatch = _counter_mismatch(sim, slow)
                if mismatch is not None:
                    return Failure(
                        seed, "fastforward-mismatch", "O3/sim-fastforward",
                        f"superops+fast-forward diverged from the slow "
                        f"reference on {mismatch[0]}", source,
                        expected=mismatch[2], actual=mismatch[1])
        scalar = compile_source(source, machine=make_machine("generic-risc"),
                                options=replace(scalar_options(),
                                                strict=True))
        out = scalar.execute()
        return _compare(out, oracle, scalar.ir, "generic-risc/execute",
                        seed, source)
    except Exception as exc:
        return Failure(seed, "crash", "pipeline",
                       f"{type(exc).__name__}: {exc}", source,
                       actual=f"{type(exc).__name__}: {exc}")


def run_fuzz(count: int, seed: int = 0,
             on_failure: Optional[Callable[[Failure], None]] = None,
             progress: Optional[Callable[[int, int], None]] = None,
             ) -> FuzzReport:
    """Differentially test ``count`` generated programs.

    Seeds run consecutively from ``seed``; each failure is appended to
    the report and handed to ``on_failure`` (the CLI's bundle writer)
    as soon as it is found, so an interrupted run keeps its findings.
    """
    report = FuzzReport(count=count)
    for n in range(count):
        program_seed = seed + n
        failure = check_program(gen_program(program_seed),
                                seed=program_seed)
        if failure is not None:
            report.failures.append(failure)
            if on_failure is not None:
                on_failure(failure)
        if progress is not None:
            progress(n + 1, count)
    return report

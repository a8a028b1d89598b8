"""Closed-form steady-state fast-forward, replayed through the decoded
ops (repro.sim.superops).

The contract under test is *bit identity*: a fast run (fast-forward
on) and the decoded interpreter (``superops=False``, no engine) must
produce the same SimResult as the reference loop (``slow=True``) —
same value, same cycle count, same per-unit instruction counts, same
memory traffic, same data segment — on every benchmark and at de-opt
boundaries (cycle limits landing inside a would-be-skipped window,
loop trip counts that end mid-period, streams closing out of steady
state).  A replay that fails falls back to the decoded loop, which
bit identity cannot see, so the engine's coverage is pinned too.
"""

import pytest

from repro.benchsuite import PROGRAMS, UTILITY_CORPUS, get_program
from repro.compiler import compile_source
from repro.sim.machine import WMSimulator
from repro.sim.errors import SimError

#: the nine Table II programs plus the Livermore driver
BENCH = tuple(sorted(PROGRAMS))


def _fingerprint(result):
    end = result.memory.data_end
    return (
        result.value,
        result.cycles,
        result.instructions,
        dict(result.unit_instructions),
        result.memory_reads,
        result.memory_writes,
        result.stream_elements,
        bytes(result.memory[0:end]),
    )


def assert_identical(compiled, **kwargs):
    slow = compiled.simulate(slow=True, **kwargs)
    for tier in ({}, {"superops": False}):
        fast = compiled.simulate(**tier, **kwargs)
        assert _fingerprint(fast) == _fingerprint(slow), tier
    return slow


class TestBitIdentity:
    @pytest.mark.parametrize("name", BENCH)
    def test_benchmark_identical(self, name):
        compiled = compile_source(get_program(name, scale=0.2).source)
        assert_identical(compiled)

    @pytest.mark.parametrize("name", sorted(UTILITY_CORPUS))
    def test_utility_identical(self, name):
        assert_identical(compile_source(UTILITY_CORPUS[name]))

    def test_repeated_runs_stable(self):
        # plan caching must not leak state between runs of one module
        compiled = compile_source(
            get_program("lloop5", scale=0.2).source)
        first = compiled.simulate()
        second = compiled.simulate()
        assert _fingerprint(first) == _fingerprint(second)

    def test_nondefault_machine_geometry(self):
        # warm hints are keyed by (mem size, latency, ports, fifo
        # capacity): shrinking the FIFOs changes the steady period, and
        # a stale replay would break identity
        compiled = compile_source(
            get_program("dot-product", scale=0.3).source)
        assert_identical(compiled)
        assert_identical(compiled, fifo_capacity=4)
        assert_identical(compiled, mem_latency=7)
        assert_identical(compiled)


def _counted_loop(n: int) -> str:
    return f"""
double x[{max(n, 4)}]; double y[{max(n, 4)}];

int main(void) {{
    int i; double s;
    s = 0.0;
    for (i = 0; i < {max(n, 4)}; i++) {{ x[i] = i * 0.5; y[i] = 1.0; }}
    for (i = 0; i < {n}; i++)
        s = s + x[i] * y[i];
    return (int)(s * 10.0);
}}
"""


class TestDeoptBoundaries:
    @pytest.mark.parametrize("trip", [3, 17, 63, 64, 65, 200, 257])
    def test_trip_counts_end_mid_period(self, trip):
        # trip counts straddling powers of two and odd primes: the
        # steady window must stop with MARGIN_ITERS to spare and hand
        # the drain back to the interpreter wherever the phase lands
        assert_identical(compile_source(_counted_loop(trip)))

    def test_cycle_limit_inside_skipped_window(self):
        compiled = compile_source(
            get_program("lloop5", scale=0.3).source)
        total = compiled.simulate(slow=True).cycles
        # limits landing in the middle of the run — inside windows the
        # fast path would otherwise advance in closed form — must raise
        # at the identical interpreted cycle with the identical pc
        for limit in (total // 2, (2 * total) // 3, total - 3):
            with pytest.raises(SimError) as slow_exc:
                compiled.simulate(slow=True, max_cycles=limit)
            with pytest.raises(SimError) as fast_exc:
                compiled.simulate(max_cycles=limit)
            assert slow_exc.value.kind == "cycle-limit"
            assert fast_exc.value.kind == "cycle-limit"
            assert fast_exc.value.cycle == slow_exc.value.cycle
            assert fast_exc.value.pc == slow_exc.value.pc

    def test_stream_close_during_steady_state(self):
        # a two-phase main: the first streamed loop reaches steady
        # state, its streams close, and a second loop with a different
        # period follows — the engine must de-opt at the close and
        # re-prove the second loop separately
        source = """
double a[300]; double b[300];

int main(void) {
    int i; double s; double t;
    for (i = 0; i < 300; i++) { a[i] = i * 0.25; b[i] = 0.5; }
    s = 0.0;
    for (i = 0; i < 300; i++)
        s = s + a[i] * b[i];
    t = 0.0;
    for (i = 1; i < 300; i++)
        t = t + a[i] - a[i-1] * b[i];
    return (int)(s + t);
}
"""
        assert_identical(compile_source(source))


class TestEngineKeying:
    """Only plain fast runs arm the engine, and it advances the loops
    it is expected to."""

    def _rtl(self):
        return compile_source(get_program("lloop5", scale=0.1).source).rtl

    def test_plain_run_arms_engine(self):
        rtl = self._rtl()
        sim = WMSimulator(rtl)
        assert sim._ff is not None
        sim.run()
        assert getattr(rtl, "_superop_cache", None) is not None

    def test_telemetry_profile_slow_never_arm(self):
        rtl = self._rtl()
        WMSimulator(rtl).run()  # warm the plan cache
        assert WMSimulator(rtl, telemetry=True)._ff is None
        assert WMSimulator(rtl, profile=True)._ff is None
        assert WMSimulator(rtl, slow=True)._ff is None
        assert WMSimulator(rtl, superops=False)._ff is None
        assert WMSimulator(rtl, fast_forward=False)._ff is None

    def test_fault_plan_forces_reference_loop(self):
        class NoopPlan:
            def apply(self, sim, cycle):
                return ()

        rtl = self._rtl()
        WMSimulator(rtl).run()  # warm the plan cache
        sim = WMSimulator(rtl, fault_plan=NoopPlan())
        assert sim.slow
        assert sim._ff is None

    def test_instrumented_results_match_fast(self):
        compiled = compile_source(
            get_program("dot-product", scale=0.2).source)
        fast = compiled.simulate()
        telem = compiled.simulate(telemetry=True)
        prof = compiled.simulate(profile=True)
        for other in (telem, prof):
            assert other.value == fast.value
            assert other.cycles == fast.cycles
            assert other.instructions == fast.instructions

    def test_dot_product_window_replayed_once(self):
        # The dot loop's FEU queue holds a backlog deeper than the
        # minimum stretch at every boundary; its window must commit
        # (not be replayed and rejected at boundary after boundary).
        compiled = compile_source(
            get_program("dot-product", scale=0.25).source)
        assert_identical(compiled)
        compiled.simulate()
        cache = compiled.rtl._superop_cache
        stats = cache.last_ff_stats
        assert sum(entry["rejected"] for entry in stats.values()) <= 1
        advanced = {header for header, entry in stats.items()
                    if entry["windows"]}
        assert advanced == {plan.header for plan in cache.plans.values()}

    #: ``last_ff_stats`` of the streamed code at scale 0.25, header ->
    #: (iterations, windows, period, cycles, rejected): a fresh
    #: module's first run, then its second run (advanced from the warm
    #: hint).  The same under PYTHONHASHSEED 0, 1 and 7.
    FF_STATS = {
        "iir": ({69: (209, 1, 19, 2101, 0)}, {69: (247, 1, 19, 2483, 0)}),
        "cal": ({44: (295, 1, 1, 295, 0)}, {44: (297, 1, 1, 297, 0)}),
        "lloop5": ({14: (236, 1, 1, 472, 0), 44: (210, 1, 21, 2830, 0)},
                   {14: (238, 1, 1, 476, 0), 44: (252, 1, 21, 3396, 0)}),
        "dot-product": (
            {11: (502, 1, 1, 502, 0), 42: (385, 1, 55, 3962, 0)},
            {11: (504, 1, 1, 504, 0), 42: (495, 1, 55, 5094, 0)}),
        "sieve": ({11: (507, 1, 1, 507, 0)}, {11: (509, 1, 1, 509, 0)}),
        "whetstone": ({143: (59, 1, 1, 236, 0)},
                      {143: (61, 1, 1, 244, 0)}),
    }

    def test_ff_stats_recorded_per_loop(self):
        fields = ("iterations", "windows", "period", "cycles", "rejected")
        for name, runs in self.FF_STATS.items():
            compiled = compile_source(
                get_program(name, scale=0.25).source)
            for run, expected in enumerate(runs):
                compiled.simulate()
                stats = compiled.rtl._superop_cache.last_ff_stats
                for header, entry in stats.items():
                    assert set(entry) == {"header", *fields}
                    assert entry["header"] == header
                got = {header: tuple(entry[f] for f in fields)
                       for header, entry in stats.items()}
                assert got == expected, (name, run)

    def test_given_up_loop_is_skipped_by_the_next_run(self, monkeypatch):
        # dhrystone's streamed loop at header 164 resets a counter every
        # 100 iterations, a period past MAX_PERIOD: a run takes all
        # MAX_BOUNDARIES fingerprints of it and gives up.  The warm
        # hints remember that, so the next run takes none.
        from repro.sim import superops
        compiled = compile_source(
            get_program("dhrystone", scale=0.25).source)
        taken = []
        fingerprint = superops.FFEngine._fingerprint

        def counting(engine, plan):
            taken.append(plan.header)
            return fingerprint(engine, plan)

        monkeypatch.setattr(superops.FFEngine, "_fingerprint", counting)
        compiled.simulate()
        assert taken.count(164) == superops.MAX_BOUNDARIES
        taken.clear()
        second = compiled.simulate()
        assert 164 not in taken
        assert _fingerprint(second) == \
            _fingerprint(compiled.simulate(superops=False))

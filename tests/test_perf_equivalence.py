"""Fast path vs reference simulator: bit-identical results.

The pre-decode + stall-fast-forward loop (the default) must reproduce
the original tree-walking interpreter loop (``slow=True``) exactly —
same cycle counts, same instruction counts, same memory image, same
telemetry, same error messages.  The reference loop is the pre-decode
code verbatim, so these tests pin the fast path to the seed semantics
without depending on cross-process golden files.
"""

import pytest

from repro.benchsuite import PROGRAMS, UTILITY_CORPUS, get_program
from repro.compiler import compile_source
from repro.opt import OptOptions
from repro.sim import SimError

SCALE = 0.1

BENCH_CASES = [(name, streaming)
               for name in sorted(PROGRAMS)
               for streaming in (True, False)]


def _result_tuple(res):
    return (
        res.value, res.cycles, res.instructions,
        dict(res.unit_instructions), res.memory_reads, res.memory_writes,
        res.stream_elements, dict(res.globals_base),
        res.memory[0:res.memory.data_end],
    )


def _assert_identical(compiled, **sim_kwargs):
    fast = compiled.simulate(**sim_kwargs)
    slow = compiled.simulate(slow=True, **sim_kwargs)
    assert _result_tuple(fast) == _result_tuple(slow)
    return fast, slow


@pytest.mark.parametrize("name,streaming", BENCH_CASES,
                         ids=[f"{n}-{'stream' if s else 'nostream'}"
                              for n, s in BENCH_CASES])
def test_benchmark_bit_identical(name, streaming):
    options = OptOptions() if streaming else OptOptions.no_streaming()
    source = get_program(name, scale=SCALE).source
    compiled = compile_source(source, options=options)
    _assert_identical(compiled)


@pytest.mark.parametrize("name", sorted(UTILITY_CORPUS))
def test_utility_corpus_bit_identical(name):
    compiled = compile_source(UTILITY_CORPUS[name], options=OptOptions())
    _assert_identical(compiled)


OBSERVED_CASES = [(name, mode) for name in sorted(PROGRAMS)
                  for mode in ("telemetry", "profile")]


@pytest.mark.parametrize("name,mode", OBSERVED_CASES,
                         ids=[f"{n}-{m}" for n, m in OBSERVED_CASES])
def test_telemetry_identical(name, mode):
    # Units, FIFO histograms, streams, memory regions and (profiled)
    # the whole ledger: lanes, iterations and FIFO counter tracks.
    source = get_program(name, scale=SCALE).source
    compiled = compile_source(source, options=OptOptions())
    fast, slow = _assert_identical(compiled, **{mode: True})
    assert fast.telemetry is not None and slow.telemetry is not None
    assert fast.telemetry.to_dict() == slow.telemetry.to_dict()


def test_truncated_fifo_tracks_identical(monkeypatch):
    from repro.sim import telemetry
    monkeypatch.setattr(telemetry, "_TRACK_LIMIT", 8)
    source = get_program("lloop5", scale=SCALE).source
    compiled = compile_source(source, options=OptOptions())
    fast, slow = _assert_identical(compiled, profile=True)
    assert fast.telemetry.ledger.tracks_truncated
    assert fast.telemetry.to_dict() == slow.telemetry.to_dict()


@pytest.mark.parametrize("mode", ["telemetry", "profile"])
def test_cycle_limit_in_observed_run_identical(mode):
    from repro.sim.machine import WMSimulator
    source = get_program("lloop5", scale=SCALE).source
    rtl = compile_source(source, options=OptOptions()).rtl
    limit = WMSimulator(rtl).run().cycles // 2
    fast = WMSimulator(rtl, max_cycles=limit, **{mode: True})
    slow = WMSimulator(rtl, max_cycles=limit, slow=True, **{mode: True})
    with pytest.raises(SimError) as fast_err:
        fast.run()
    with pytest.raises(SimError) as slow_err:
        slow.run()
    assert fast_err.value.kind == slow_err.value.kind == "cycle-limit"
    assert fast_err.value.cycle == slow_err.value.cycle == limit + 1
    assert str(fast_err.value) == str(slow_err.value)
    # the counts observed up to the raise are charged all the same
    assert fast.telemetry.to_dict() == slow.telemetry.to_dict()


def test_high_latency_fast_forward_identical():
    # Long memory latency maximizes all-stalled windows, the case the
    # fast-forward clock jump targets.
    source = get_program("dot-product", scale=SCALE).source
    compiled = compile_source(source, options=OptOptions())
    _assert_identical(compiled, mem_latency=64)
    _assert_identical(compiled, mem_latency=64, telemetry=True)


def test_cycle_limit_message_identical():
    source = get_program("lloop5", scale=SCALE).source
    compiled = compile_source(source, options=OptOptions())
    with pytest.raises(SimError) as fast_err:
        compiled.simulate(max_cycles=100)
    with pytest.raises(SimError) as slow_err:
        compiled.simulate(max_cycles=100, slow=True)
    assert str(fast_err.value) == str(slow_err.value)

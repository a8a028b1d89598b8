"""Per-loop facts of the recurrence and streaming passes.

The passes answer their per-reference questions from one
:class:`~repro.opt.induction.DefTable` per loop, dominators from the
analysis manager and a single-register liveness query.  Each helper is
checked here against the whole-function computation it replaces, on
every block and register of the benchmark functions, naive and
optimized; and the streaming pass's analysis work is pinned.
"""

import pytest

from repro.benchsuite import PROGRAMS, UTILITY_CORPUS, get_program
from repro.compiler import compile_to_ir
from repro.expander import expand
from repro.machine.wm import WM
from repro.opt import build_cfg, compute_liveness, find_loops
from repro.opt import dataflow
from repro.opt.dataflow import live_into
from repro.opt.dominators import Dominators
from repro.opt.induction import DefTable, _only_def, count_defs
from repro.opt.pipeline import optimize_function
from repro.qa.genprog import gen_program
from repro.rtl import Reg, VReg
from repro.streaming import transform as streaming

_CORPUS = {name: get_program(name, scale=0.1).source
           for name in sorted(PROGRAMS)}
_CORPUS.update(UTILITY_CORPUS)


def _cfgs(source):
    """Every function's CFG, naive and after the full optimizer."""
    machine = WM()
    module = expand(machine, compile_to_ir(source))
    for fn in module.functions.values():
        yield build_cfg(fn)
    for fn in module.functions.values():
        optimize_function(fn, machine)
        yield build_cfg(fn)


def _registers(cfg):
    regs = set()
    for block in cfg.blocks:
        for instr in block.instrs:
            regs |= instr.uses() | instr.defs()
    return [r for r in regs if isinstance(r, (Reg, VReg))]


@pytest.mark.parametrize("name", sorted(_CORPUS))
def test_live_into_matches_full_liveness(name):
    for cfg in _cfgs(_CORPUS[name]):
        live = compute_liveness(cfg)
        regs = _registers(cfg)
        for block in cfg.blocks:
            live_in = live.live_in(block)
            for reg in regs:
                assert live_into(block, reg) == (reg in live_in), \
                    (cfg.func.name, block.label, reg)


@pytest.mark.parametrize("name", sorted(_CORPUS))
def test_def_table_matches_function_scans(name):
    for cfg in _cfgs(_CORPUS[name]):
        table = DefTable(cfg)
        counts = count_defs(cfg)
        loops = find_loops(cfg)
        for reg in {*_registers(cfg), *counts}:
            assert table.count(reg) == counts.get(reg, 0)
            assert table.first(reg) is _only_def(reg, cfg)
            for loop in loops:
                inside = [instr for block in loop.block_list
                          for instr in block.instrs if reg in instr.defs()]
                outside = [(block, instr) for block in cfg.blocks
                           if not loop.contains(block)
                           for instr in block.instrs
                           if reg in instr.defs()]
                assert sorted(map(id, table.in_loop(reg, loop))) == \
                    sorted(map(id, inside))
                assert table.outside_loop(reg, loop) == outside


@pytest.mark.parametrize("source", [
    gen_program(22),
    get_program("dot-product", scale=0.25).source,
], ids=["gen22", "dot-product"])
def test_streaming_pass_analysis_work(monkeypatch, source):
    """The streaming pass solves no liveness, and solves dominators at
    most once per loop that gained a block, plus once."""
    dom_solves = [0]
    loops = {"streamed": 0, "grew": 0}
    passes = []
    real_init = Dominators.__init__
    real_stream_loop = streaming._stream_loop
    real_pass = streaming.optimize_streams

    def counting_init(self, *args, **kwargs):
        dom_solves[0] += 1
        real_init(self, *args, **kwargs)

    def stream_loop(cfg, *args, **kwargs):
        before = len(cfg.blocks)
        report = real_stream_loop(cfg, *args, **kwargs)
        if report is not None:
            loops["streamed"] += 1
        if len(cfg.blocks) > before:
            loops["grew"] += 1
        return report

    def optimize_streams(cfg, *args, **kwargs):
        solves, doms = dataflow.solve_count(), dom_solves[0]
        grew = loops["grew"]
        out = real_pass(cfg, *args, **kwargs)
        passes.append((dataflow.solve_count() - solves,
                       dom_solves[0] - doms, loops["grew"] - grew))
        return out

    monkeypatch.setattr(Dominators, "__init__", counting_init)
    monkeypatch.setattr(streaming, "_stream_loop", stream_loop)
    monkeypatch.setattr(streaming, "optimize_streams", optimize_streams)
    machine = WM()
    module = expand(machine, compile_to_ir(source))
    for fn in module.functions.values():
        optimize_function(fn, machine)
    assert loops["streamed"] >= 2, loops
    for liveness_solves, dominator_solves, grew in passes:
        assert liveness_solves == 0
        assert dominator_solves <= grew + 1

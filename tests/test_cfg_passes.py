"""CFG construction/serialization and the core optimizer passes."""

from repro.machine.wm import WM
from repro.machine.scalar import make_machine
from repro.opt import (
    build_cfg, combine_cfg, compute_dominators, compute_liveness, dce_cfg,
    find_loops, licm_cfg, peephole_cfg,
)
from repro.opt.loops import ensure_preheader
from repro.rtl import (
    Assign, BinOp, Compare, CondJump, Imm, Jump, Label, Mem, Reg, Ret, Sym,
    VReg,
)
from repro.rtl.module import RtlFunction


R = lambda i: Reg("r", i)
V = lambda i: VReg("r", i)


def make_fn(instrs, name="f"):
    return RtlFunction(name=name, instrs=list(instrs))


def loop_function():
    """i = 0; do { a[i] = i; i++ } while (i < 10) — rotated shape."""
    return make_fn([
        Assign(V(0), Imm(0)),
        Assign(V(1), Sym("a")),
        Label("head"),
        Assign(V(2), BinOp("<<", V(0), Imm(2))),
        Assign(V(3), BinOp("+", V(1), V(2))),
        Assign(Mem(V(3), 4, False), V(0)),
        Assign(V(0), BinOp("+", V(0), Imm(1))),
        Compare("r", "<", V(0), Imm(10)),
        CondJump("r", True, "head"),
        Ret(live_out={Reg("r", 29)}),
    ])


class TestCFG:
    def test_blocks_split_at_labels_and_branches(self):
        cfg = build_cfg(loop_function())
        assert len(cfg.blocks) == 3
        header = cfg.block_of("head")
        assert header in header.succs[0].preds or header in [
            s for s in header.succs]

    def test_back_edge_exists(self):
        cfg = build_cfg(loop_function())
        header = cfg.block_of("head")
        assert header in header.succs  # conditional jump back to itself

    def test_round_trip_preserves_semantics_shape(self):
        fn = loop_function()
        original_count = len([i for i in fn.instrs
                              if not isinstance(i, Label)])
        cfg = build_cfg(fn)
        out = cfg.to_instrs()
        count = len([i for i in out if not isinstance(i, (Label, Jump))])
        assert count == original_count

    def test_fallthrough_gets_jump_when_layout_breaks(self):
        fn = make_fn([
            Assign(V(0), Imm(1)),
            Jump("end"),
            Label("mid"),
            Assign(V(0), Imm(2)),
            Label("end"),
            Ret(),
        ])
        cfg = build_cfg(fn)
        # move 'mid' after 'end' in layout
        mid = cfg.block_of("mid")
        cfg.blocks.remove(mid)
        cfg.blocks.append(mid)
        out = cfg.to_instrs()
        # still decodable: mid must now explicitly jump to end
        labels = [i.name for i in out if isinstance(i, Label)]
        assert "end" in labels


class TestLabelNumbering:
    """Anonymous block labels are numbered per function, so a listing
    does not depend on what else the process compiled before it."""

    def test_unique_across_cfg_rebuilds(self):
        fn = make_fn([Assign(V(0), Imm(1)), Ret()])
        first = build_cfg(fn)
        labels = {first.entry.label, first.new_label()}
        fn.instrs = first.to_instrs()
        second = build_cfg(fn)
        labels |= {second.entry.label, second.new_label()}
        assert len(labels) == 4
        assert all(label.startswith("f.") for label in labels)

    def test_counters_are_per_function(self):
        one, two = make_fn([Ret()], "g"), make_fn([Ret()], "h")
        assert build_cfg(one).new_label() == "g.B2"
        assert build_cfg(two).new_label() == "h.B2"

    def test_listing_independent_of_earlier_compiles(self):
        from repro.compiler import compile_source
        from repro.qa.genprog import gen_program
        source = gen_program(34)
        before = compile_source(source).listing()
        for seed in range(100, 120):
            compile_source(gen_program(seed))
        assert compile_source(source).listing() == before


class TestDominatorsLoops:
    def test_entry_dominates_all(self):
        cfg = build_cfg(loop_function())
        doms = compute_dominators(cfg)
        for block in cfg.blocks:
            assert doms.dominates(cfg.entry, block)

    def test_loop_detection(self):
        cfg = build_cfg(loop_function())
        loops = find_loops(cfg)
        assert len(loops) == 1
        assert loops[0].header.label == "head"

    def test_preheader_creation(self):
        cfg = build_cfg(loop_function())
        loops = find_loops(cfg)
        pre = ensure_preheader(cfg, loops[0])
        assert pre not in loops[0].block_list
        assert loops[0].header in pre.succs

    def test_nested_loops_ordered_inner_first(self):
        fn = make_fn([
            Assign(V(0), Imm(0)),
            Label("outer"),
            Assign(V(1), Imm(0)),
            Label("inner"),
            Assign(V(1), BinOp("+", V(1), Imm(1))),
            Compare("r", "<", V(1), Imm(5)),
            CondJump("r", True, "inner"),
            Assign(V(0), BinOp("+", V(0), Imm(1))),
            Compare("r", "<", V(0), Imm(5)),
            CondJump("r", True, "outer"),
            Ret(),
        ])
        loops = find_loops(build_cfg(fn))
        assert len(loops) == 2
        assert loops[0].header.label == "inner"
        assert loops[1].header.label == "outer"
        assert loops[0].parent is loops[1]


class TestLiveness:
    def test_live_across_loop(self):
        cfg = build_cfg(loop_function())
        liveness = compute_liveness(cfg)
        header = cfg.block_of("head")
        # the base address register is live into the loop
        assert V(1) in liveness.live_in(header)
        assert V(0) in liveness.live_in(header)

    def test_dead_after_last_use(self):
        fn = make_fn([
            Assign(V(0), Imm(1)),
            Assign(V(1), BinOp("+", V(0), Imm(2))),
            Assign(Reg("r", 2), V(1)),
            Ret(live_out={Reg("r", 2)}),
        ])
        cfg = build_cfg(fn)
        liveness = compute_liveness(cfg)
        per = liveness.per_instr_live_out(cfg.entry)
        assert V(0) in per[0]
        assert V(0) not in per[1]


class TestCombine:
    def test_constant_propagates_and_folds(self):
        fn = make_fn([
            Assign(V(0), Imm(8)),
            Assign(V(1), BinOp("*", V(2), V(0))),
            Assign(Reg("r", 2), V(1)),
            Ret(live_out={Reg("r", 2)}),
        ])
        cfg = build_cfg(fn)
        combine_cfg(cfg, WM())
        dce_cfg(cfg)
        instrs = list(cfg.instructions())
        # v2 * 8 became a shift, and the constant def died
        muls = [i for i in instrs if isinstance(i, Assign) and
                isinstance(i.src, BinOp)]
        assert any(i.src.op == "<<" for i in muls)

    def test_dual_op_combining_on_wm(self):
        fn = make_fn([
            Assign(V(0), BinOp("<<", V(9), Imm(3))),
            Assign(V(1), BinOp("+", V(0), V(8))),
            Assign(Reg("r", 2), V(1)),
            Ret(live_out={Reg("r", 2)}),
        ])
        cfg = build_cfg(fn)
        combine_cfg(cfg, WM())
        dce_cfg(cfg)
        instrs = [i for i in cfg.instructions() if isinstance(i, Assign)]
        # (v9 << 3) + v8 fits one WM dual-operation instruction
        assert len(instrs) == 1
        assert isinstance(instrs[0].src, BinOp)
        assert isinstance(instrs[0].src.left, BinOp)

    def test_scalar_machine_rejects_deep_combine(self):
        fn = make_fn([
            Assign(V(0), BinOp("<<", V(9), Imm(3))),
            Assign(V(1), BinOp("+", V(0), V(8))),
            Assign(Reg("r", 2), V(1)),
            Ret(live_out={Reg("r", 2)}),
        ])
        cfg = build_cfg(fn)
        combine_cfg(cfg, make_machine("generic-risc"))
        dce_cfg(cfg)
        instrs = [i for i in cfg.instructions() if isinstance(i, Assign)]
        # the shift cannot fold into the add on a plain 3-address RISC:
        # no instruction may contain a nested operator tree
        for instr in instrs:
            if isinstance(instr.src, BinOp):
                assert not isinstance(instr.src.left, BinOp)
                assert not isinstance(instr.src.right, BinOp)
        assert len(instrs) == 2  # shift + (add folded into the copy)

    def test_stale_operand_blocks_substitution(self):
        fn = make_fn([
            Assign(V(0), BinOp("+", V(5), Imm(1))),
            Assign(V(5), Imm(99)),              # v5 redefined
            Assign(V(1), BinOp("+", V(0), Imm(0))),
            Assign(Reg("r", 2), V(1)),
            Assign(Reg("r", 3), V(5)),
            Ret(live_out={Reg("r", 2), Reg("r", 3)}),
        ])
        cfg = build_cfg(fn)
        combine_cfg(cfg, WM())
        instrs = [i for i in cfg.instructions() if isinstance(i, Assign)]
        # r2 must NOT become (v5 + 1) with the new v5
        r2_def = [i for i in instrs if i.dst == Reg("r", 2)][0]
        assert V(5) not in r2_def.uses()

    def test_self_referential_def_not_substituted(self):
        fn = make_fn([
            Assign(V(0), BinOp("+", V(0), Imm(1))),
            Assign(V(1), BinOp("+", V(0), Imm(0))),
            Assign(Reg("r", 2), V(1)),
            Ret(live_out={Reg("r", 2)}),
        ])
        cfg = build_cfg(fn)
        combine_cfg(cfg, WM())
        # no crash, and v0's increment remains intact
        incr = [i for i in cfg.instructions()
                if isinstance(i, Assign) and i.dst == V(0)]
        assert len(incr) == 1


class TestDCE:
    def test_removes_dead_chain(self):
        fn = make_fn([
            Assign(V(0), Imm(1)),
            Assign(V(1), BinOp("+", V(0), Imm(2))),
            Assign(V(2), Imm(7)),  # dead
            Assign(Reg("r", 2), V(1)),
            Ret(live_out={Reg("r", 2)}),
        ])
        cfg = build_cfg(fn)
        dce_cfg(cfg)
        assert all(i.dst != V(2) for i in cfg.instructions()
                   if isinstance(i, Assign))

    def test_keeps_stores(self):
        fn = make_fn([
            Assign(V(0), Sym("g")),
            Assign(Mem(V(0), 4, False), Imm(3)),
            Ret(),
        ])
        cfg = build_cfg(fn)
        dce_cfg(cfg)
        assert any(isinstance(i, Assign) and isinstance(i.dst, Mem)
                   for i in cfg.instructions())

    def test_removes_dead_load(self):
        fn = make_fn([
            Assign(V(0), Sym("g")),
            Assign(V(1), Mem(V(0), 4, False)),  # dead load
            Ret(),
        ])
        cfg = build_cfg(fn)
        dce_cfg(cfg)
        assert not any(isinstance(i, Assign) and i.reads_mem()
                       for i in cfg.instructions())

    def test_keeps_fifo_writes(self):
        fn = make_fn([
            Assign(Reg("f", 0), Reg("f", 4)),  # enqueue: side effect
            Ret(),
        ])
        cfg = build_cfg(fn)
        dce_cfg(cfg)
        assert len(list(cfg.instructions())) == 2


class TestLICM:
    def test_hoists_invariant_lea(self):
        fn = loop_function()
        # make the lea loop-resident
        instrs = fn.instrs
        lea = instrs.pop(1)
        instrs.insert(3, lea)
        cfg = build_cfg(fn)
        licm_cfg(cfg)
        loops = find_loops(cfg)
        loop_instrs = [i for b in loops[0].block_list for i in b.instrs]
        assert all(not (isinstance(i, Assign) and isinstance(i.src, Sym))
                   for i in loop_instrs)

    def test_does_not_hoist_loop_varying(self):
        cfg = build_cfg(loop_function())
        licm_cfg(cfg)
        loops = find_loops(cfg)
        loop_instrs = [i for b in loops[0].block_list for i in b.instrs]
        # the induction update must stay inside
        assert any(isinstance(i, Assign) and i.dst == V(0)
                   for i in loop_instrs)

    def test_peephole_removes_unreachable(self):
        fn = make_fn([
            Assign(V(0), Imm(1)),
            Jump("end"),
            Label("orphanless"),
            Label("end"),
            Ret(),
        ])
        cfg = build_cfg(fn)
        # manufacture an unreachable block
        from repro.opt.cfg import Block
        dead = Block("dead")
        dead.instrs = [Jump("end")]
        cfg.blocks.append(dead)
        cfg.add_edge(dead, cfg.block_of("end"))
        peephole_cfg(cfg)
        assert all(b.label != "dead" for b in cfg.blocks)

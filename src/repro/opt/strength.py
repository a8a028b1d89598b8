"""Strength reduction of address computations.

Replaces per-iteration address arithmetic (``base + (i << k)``) with
dedicated pointer registers incremented by the stride — the classical
transformation the paper invokes as its final streaming step and the one
that produces the auto-increment addressing of the Motorola 68020
listing (Figure 6): the loop index survives only for the exit test while
``a0@+``-style pointers walk the arrays.

Applied per innermost loop to memory references that execute on every
iteration and have an affine address in a basic induction variable.
On WM this pass is normally unnecessary (streams subsume it); the scalar
back ends run it before register allocation.
"""

from __future__ import annotations

from typing import Optional

from ..machine.base import Machine
from ..rtl.expr import BinOp, Imm, Mem, Reg, Sym, VReg
from ..rtl.instr import Assign, Instr
from .cfg import CFG
from .dominators import compute_dominators
from .emitexpr import VRegAllocator, emit_expr
from .loops import ensure_preheader, find_loops

__all__ = ["strength_reduce"]


def strength_reduce(cfg: CFG, machine: Machine) -> int:
    """Run strength reduction on every innermost loop; returns the
    number of references rewritten."""
    from ..recurrence.partitions import partition_loop

    total = 0
    doms = compute_dominators(cfg)
    loops = find_loops(cfg, doms)
    innermost = [
        loop for loop in loops
        if not any(other is not loop and other.blocks < loop.blocks
                   for other in loops)
    ]
    from ..obs import Remark, get_remark_sink
    sink = get_remark_sink()
    for loop in innermost:
        info = partition_loop(cfg, loop, doms)
        alloc = VRegAllocator(cfg.func)
        pre: Optional = None
        for part in info.partitions:
            if not part.safe:
                continue
            for ref in part.refs:
                reason = _reducible_reason(ref)
                if reason is not None:
                    if sink.enabled and reason != "already-reduced":
                        sink.emit(Remark(
                            "strength", "missed", reason,
                            function=cfg.func.name,
                            loop=loop.header.label, lno=ref.instr.lno,
                            block=ref.block.label,
                            args={"partition": part.key,
                                  "vector": ref.vector()}))
                    continue
                if pre is None:
                    pre = ensure_preheader(cfg, loop)
                total += _reduce_ref(info, pre, ref, machine, alloc)
                if sink.enabled:
                    sink.emit(Remark(
                        "strength", "applied", "strength-reduced",
                        function=cfg.func.name, loop=loop.header.label,
                        lno=ref.instr.lno, block=ref.block.label,
                        detail=f"address arithmetic replaced by a "
                               f"pointer stepping by {ref.stride}",
                        args={"partition": part.key,
                              "stride": ref.stride,
                              "vector": ref.vector()}))
        doms = compute_dominators(cfg)
    if total:
        from ..obs import get_tracer
        get_tracer().count("opt.strength.reduced", total)
    return total


def _reducible_reason(ref) -> Optional[str]:
    """None when strength reduction applies, else a stable reason code
    ("already-reduced" is internal: a pointer walk needs no remark)."""
    if not ref.region_known or ref.iv is None:
        return ref.analysis_note or "not-affine"
    if ref.stride == 0:
        return "zero-stride"
    if not ref.every_iteration:
        return "not-every-iteration"
    if not isinstance(ref.instr, Assign):
        return "not-simple-assign"
    # Already a pointer walk (the address register IS the stepping IV)?
    if isinstance(ref.mem.addr, (Reg, VReg)) and ref.mem.addr == ref.iv:
        return "already-reduced"
    return None


def _reducible(ref) -> bool:
    return _reducible_reason(ref) is None


def _reduce_ref(info, pre, ref, machine: Machine,
                alloc: VRegAllocator) -> int:
    pointer = alloc.new("r")
    # Pre-header: pointer := cee*iv + base + raw_offset (iv holds iv0).
    from ..streaming.transform import _stream_base
    base_expr = _stream_base(ref, info)
    setup: list[Instr] = []
    leaf = emit_expr(base_expr, machine, alloc, setup, "r",
                     comment="strength-reduced pointer")
    if isinstance(leaf, (Reg, VReg)) and leaf != pointer:
        setup.append(Assign(pointer, leaf,
                            comment="strength-reduced pointer"))
    else:
        setup.append(Assign(pointer, leaf,
                            comment="strength-reduced pointer"))
    for s in setup:
        s.origin = "strength:setup"
    insert_at = len(pre.instrs) - (1 if pre.terminator is not None else 0)
    pre.instrs[insert_at:insert_at] = setup
    # Rewrite the reference to use the pointer; bump it right after.
    instr = ref.instr
    mem = ref.mem
    new_mem = Mem(pointer, mem.width, mem.fp, mem.signed)
    if ref.is_store:
        instr.dst = new_mem
    else:
        instr.src = new_mem
    block = ref.block
    pos = block.instrs.index(instr)
    advance = Assign(pointer, BinOp("+", pointer, Imm(ref.stride)),
                     comment="advance pointer")
    advance.origin = "strength:reduce"
    block.instrs.insert(pos + 1, advance)
    return 1

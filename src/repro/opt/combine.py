"""The combine pass: forward substitution bounded by machine legality.

This is the reproduction of vpo's central mechanism: pairs of RTLs are
symbolically merged, and the merge is *kept only if the resulting RTL is
a legal instruction* on the target.  On WM this is what folds address
arithmetic into dual-operation instructions (``r31 := (r22<<3) + r24``);
on a plain scalar machine the same pass degrades gracefully because
deeper trees fail the legality test.

Constant folding, copy propagation and algebraic simplification
(multiply-by-power-of-two into shifts) are performed as part of the
same forward walk.
"""

from __future__ import annotations

from typing import Optional

from ..machine.base import Machine
from ..rtl.expr import (
    BinOp, Expr, Imm, Mem, Reg, Sym, UnOp, VReg, _iter_bits, cell_index,
    fifo_reg_mask, fold, regs_in, subst, walk,
)
from ..rtl.instr import Assign, Call, Instr
from .cfg import CFG

__all__ = ["combine_cfg", "simplify_expr", "is_fifo_reg"]

FIFO_INDICES = (0, 1)


def is_fifo_reg(expr: Expr) -> bool:
    """True for the WM FIFO registers r0/r1/f0/f1 (side-effecting)."""
    return isinstance(expr, Reg) and expr.index in FIFO_INDICES


def _touches_fifo(instr: Instr) -> bool:
    # Equivalent to scanning every use expression (and the defs) for a
    # FIFO register: the cached use/def masks cover exactly the register
    # occurrences of the operand trees, and the fifo mask only carries
    # hard-register (Reg) bits.
    return bool((instr.uses_mask() | instr.defs_mask()) & fifo_reg_mask())


def _is_pow2(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


def _has_fp_reg(expr: Expr) -> bool:
    return any(isinstance(e, (Reg, VReg)) and e.bank == "f"
               for e in walk(expr))


#: Expressions already known to be their own simplification fixpoint,
#: keyed by object id (the dict holds a strong reference, so an id can
#: never be reused while its entry is present).  Expression nodes are
#: immutable and heavily shared, and the combine pass re-simplifies the
#: same operand trees on every invocation — the common no-change case
#: becomes one dict probe instead of a full tree walk.
_SIMPLIFY_FIXPOINTS: dict[int, Expr] = {}


def simplify_expr(expr: Expr) -> Expr:
    """Fold constants and apply integer algebraic rewrites.

    Multiplication by a power of two becomes a shift (only for integer
    expressions — floating-point multiplies are left alone).
    """
    memo = _SIMPLIFY_FIXPOINTS
    if memo.get(id(expr)) is expr:
        return expr
    out = _rewrite(fold(expr))
    if out is expr:
        if len(memo) > 1 << 16:   # unbounded growth guard
            memo.clear()
        memo[id(expr)] = expr
    return out


def _rewrite(expr: Expr) -> Expr:
    if isinstance(expr, BinOp):
        left = _rewrite(expr.left)
        right = _rewrite(expr.right)
        e = expr if (left is expr.left and right is expr.right) \
            else BinOp(expr.op, left, right)
        if e.op == "*" and not _has_fp_reg(e):
            if isinstance(e.right, Imm) and isinstance(e.right.value, int) \
                    and _is_pow2(e.right.value) and e.right.value > 1:
                return BinOp("<<", e.left,
                             Imm(e.right.value.bit_length() - 1))
            if isinstance(e.left, Imm) and isinstance(e.left.value, int) \
                    and _is_pow2(e.left.value) and e.left.value > 1:
                return BinOp("<<", e.right, Imm(e.left.value.bit_length() - 1))
        return e
    if isinstance(expr, UnOp):
        operand = _rewrite(expr.operand)
        if operand is expr.operand:
            return expr
        return UnOp(expr.op, operand)
    if isinstance(expr, Mem):
        addr = _rewrite(expr.addr)
        if addr is expr.addr:
            return expr
        return Mem(addr, expr.width, expr.fp, expr.signed)
    return expr


class _DefRecord:
    """A forward-substitution candidate: reg := expr, with the version of
    every operand register (by interned-cell index) captured at
    definition time."""

    __slots__ = ("reg", "expr", "operand_versions")

    def __init__(self, reg: Expr, expr: Expr,
                 operand_versions: dict) -> None:
        self.reg = reg
        self.expr = expr
        self.operand_versions = operand_versions


def combine_block(block, machine: Machine) -> bool:
    """One forward-substitution walk over a block; True if changed.

    All bookkeeping is keyed by interned-cell index (small ints), so
    the hot loop never hashes an expression cell: versions, candidate
    defs and staleness checks are integer dict/bitmask operations.
    """
    changed = False
    versions: dict[int, int] = {}
    defs: dict[int, _DefRecord] = {}
    # Bitmask over interned cells of ``defs``'s keys, so consumers with
    # no substitutable operand bail on a single integer test.
    defs_mask = 0
    fifo_mask = fifo_reg_mask()

    for instr in block.instrs:
        # All instruction kinds participate as *consumers* via
        # map_exprs; only Assigns produce candidates.
        umask = instr.uses_mask()
        dmask = instr.defs_mask()
        if defs_mask & umask and not ((umask | dmask) & fifo_mask):
            if _substitute_into(instr, machine, defs, defs_mask, versions):
                changed = True
                umask = instr.uses_mask()
                dmask = instr.defs_mask()
        # Record/invalidate definitions.
        for i in _iter_bits(dmask):
            versions[i] = versions.get(i, 0) + 1
            if defs_mask & (1 << i):
                del defs[i]
                defs_mask &= ~(1 << i)
        if dmask and isinstance(instr, Assign) and \
                isinstance(instr.dst, (Reg, VReg)):
            # ``dst`` is a Reg/VReg, so a FIFO register anywhere in the
            # instruction shows up in the use/def masks; a memory cell
            # anywhere shows up in the cached mem-operand flag.
            if not instr.has_mem_operand() and not ((umask | dmask) & fifo_mask):
                # A single-bit defs mask: exactly the dst cell.
                dst_idx = dmask.bit_length() - 1
                op_versions = {}
                for i in _iter_bits(umask):
                    # Self-referential defs are recorded with the *old*
                    # version, which the def itself just bumped, so
                    # they will never substitute — correct.
                    op_versions[i] = versions.get(i, 0) - \
                        (1 if i == dst_idx else 0)
                defs[dst_idx] = _DefRecord(instr.dst, instr.src, op_versions)
                defs_mask |= dmask
    return changed


def _substitute_into(instr: Instr, machine: Machine, defs: dict,
                     defs_mask: int, versions: dict) -> bool:
    """Try substituting known defs into ``instr``'s operands."""
    # For every instruction kind with operand expressions (Assign,
    # Compare, stream and WM issue instructions) the cached uses mask
    # covers exactly the registers occurring in use_exprs(); the kinds
    # where uses() carries extras (Call args, Ret live-out, CondJump
    # CC) have no operand expressions at all.
    if not instr.use_exprs():
        return False
    changed = False
    for _round in range(8):
        progress = False
        if not (instr.uses_mask() & defs_mask):
            break
        # Candidates are tried in first-occurrence order over a pre-order
        # walk of the operand trees: the first legal substitution wins,
        # so the order must depend on the instruction alone.  Neither
        # set iteration order (it follows the interpreter's hash seed)
        # nor the cell index (it records when this process first saw
        # the cell) qualifies.
        seen = 0
        for reg in _operand_regs(instr):
            i = cell_index(reg)
            bit = 1 << i
            if seen & bit or not defs_mask & bit:
                continue
            seen |= bit
            record = defs[i]
            # operand registers must be unchanged since the definition
            stale = False
            for r, v in record.operand_versions.items():
                if versions.get(r, 0) != v:
                    stale = True
                    break
            if stale:
                continue
            if not _try_substitution(instr, machine, reg, record.expr):
                continue
            progress = True
            changed = True
            break
        if not progress:
            break
    return changed


def _operand_regs(instr: Instr):
    """Registers of ``instr``'s operand trees, pre-order, repeats kept."""
    for expr in instr.use_exprs():
        for sub in walk(expr):
            if isinstance(sub, (Reg, VReg)):
                yield sub


def _try_substitution(instr: Instr, machine: Machine, reg, expr: Expr) -> bool:
    """Substitute ``reg := expr`` into ``instr`` if the result stays legal."""
    saved = _snapshot(instr)
    instr.map_exprs(lambda e: simplify_expr(subst(e, {reg: expr})))
    if machine.legal_instr(instr) and _same_or_better(saved, instr):
        return True
    _restore(instr, saved)
    return False


def _snapshot(instr: Instr):
    # The cached dataflow tuple is part of the snapshot: a restore puts
    # back the exact original operand objects, so the tuple saved here
    # is still valid afterwards and need not be recomputed.
    if isinstance(instr, Assign):
        return ("assign", instr.dst, instr.src, instr._df)
    state = {}
    for slot in getattr(type(instr), "__slots__", ()):
        state[slot] = getattr(instr, slot)
    return ("slots", state, instr._df)


def _restore(instr: Instr, saved) -> None:
    if saved[0] == "assign":
        instr._dst, instr._src, instr._df = saved[1], saved[2], saved[3]
    else:
        for slot, value in saved[1].items():
            setattr(instr, slot, value)
        instr._df = saved[2]


def _same_or_better(saved, instr: Instr) -> bool:
    """Reject substitutions that merely rename without simplifying and
    could ping-pong; any substitution that removes a register use or
    folds a constant is accepted."""
    return True


def combine_cfg(cfg: CFG, machine: Machine, max_rounds: int = 4) -> bool:
    """Run the combine pass to a (bounded) fixpoint over every block."""
    from ..obs import get_tracer
    any_change = False
    rounds = 0
    for block in cfg.blocks:
        for _ in range(max_rounds):
            if not combine_block(block, machine):
                break
            rounds += 1
            any_change = True
    if rounds:
        get_tracer().count("opt.combine.block_rounds", rounds)
    # Always at least simplify in place (fold constants) even when no
    # substitution fired.  Sweep mutations count as changes too — the
    # pipeline's pass-skipping relies on an accurate report, and a
    # simplification is visible as the cached dataflow being dropped.
    for block in cfg.blocks:
        for instr in block.instrs:
            if not _touches_fifo(instr):
                before = instr._df
                instr.map_exprs(simplify_expr)
                if instr._df is not before:
                    any_change = True
    return any_change

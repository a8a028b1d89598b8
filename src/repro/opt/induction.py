"""Induction variables and affine address analysis.

Provides what the paper's partition vectors need: for each memory
reference in a loop, express the address as ``cee * iv + dee`` where
``iv`` is a basic induction variable of the loop, ``cee`` is a constant
coefficient, and ``dee`` is a loop-invariant base (a symbol or an opaque
invariant value) plus a constant byte offset.

A *basic induction variable* is a register with exactly one definition
inside the loop, of the form ``iv := iv ± constant``.  Pointer-walk
loops (``*p++``) make the pointer itself a basic IV; its invariant
initial value is resolved (chased through dominating definitions) so the
partition analysis can place pointer references into the right memory
region when the pointer provably starts at a known object.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..rtl.expr import (
    BinOp, Expr, Imm, Mem, Reg, Sym, UnOp, VReg, cell_index, fold,
)
from ..rtl.instr import Assign, Call, Instr
from .cfg import CFG, Block
from .dominators import Dominators
from .loops import Loop

__all__ = [
    "BasicIV", "Affine", "DefTable", "find_basic_ivs", "analyze_affine",
    "resolve_invariant", "count_defs",
]


@dataclass(frozen=True)
class BasicIV:
    """A basic induction variable: ``reg := reg + step`` once per loop."""

    reg: Expr           # Reg or VReg
    step: int
    update: Instr       # the defining instruction

    @property
    def direction(self) -> str:
        return "+" if self.step > 0 else "-"


@dataclass(frozen=True)
class Affine:
    """``address = coef * iv + base + offset`` (iv may be None).

    ``base`` is the loop-invariant non-constant part: a :class:`Sym`,
    an invariant register, or None for pure constants.  ``anchor`` is
    the instruction at which the IV register was actually *read* — a
    copy made before the IV update captures a different value than a
    read after it, and offset normalization needs that position.
    """

    iv: Optional[Expr]
    coef: int
    base: Optional[Expr]
    offset: int
    anchor: Optional[object] = None

    def plus(self, other: "Affine") -> Optional["Affine"]:
        if self.iv is not None and other.iv is not None and \
                self.iv != other.iv:
            return None
        if self.iv is not None and other.iv is not None and \
                self.anchor is not other.anchor:
            return None  # IV read at two different points: ambiguous
        iv = self.iv or other.iv
        coef = self.coef + other.coef if self.iv == other.iv else \
            (self.coef if self.iv is not None else other.coef)
        if self.base is not None and other.base is not None:
            return None  # two non-constant bases cannot be combined
        base = self.base if self.base is not None else other.base
        anchor = self.anchor if self.iv is not None else other.anchor
        return Affine(iv, coef, base, self.offset + other.offset, anchor)

    def negate(self) -> "Affine":
        if self.base is not None:
            # negated symbols are not representable; only pure terms negate
            return Affine(self.iv, -self.coef, NegBase(self.base),
                          -self.offset, self.anchor)
        return Affine(self.iv, -self.coef, None, -self.offset, self.anchor)

    def scale(self, factor: int) -> Optional["Affine"]:
        if self.base is not None and factor != 1:
            return None
        base = self.base
        return Affine(self.iv, self.coef * factor, base,
                      self.offset * factor, self.anchor)


@dataclass(frozen=True)
class NegBase:
    """Marker wrapper for a negated base term (rare; blocks pairing)."""

    inner: Expr


class DefTable:
    """Every register's definition sites across one function.

    One sweep of the function answers the questions the loop passes ask
    per reference: how often a register is defined, its definition (when
    it has exactly one), and where a loop's induction variable is set
    before the loop.  The table describes the function as it was when
    built; :meth:`AnalysisManager.defs` caches it until instructions
    change.  :func:`count_defs` and :func:`_only_def` are the
    whole-function scans it replaces, kept as its reference.
    """

    __slots__ = ("_sites",)

    def __init__(self, cfg: CFG) -> None:
        # interned cell index -> [(block, instr), ...] in layout order;
        # the cached defs masks spare hashing a cell per definition
        sites: dict[int, list] = {}
        for block in cfg.blocks:
            for instr in block.instrs:
                mask = instr.defs_mask()
                while mask:
                    low = mask & -mask
                    mask ^= low
                    found = sites.get(low.bit_length() - 1)
                    if found is None:
                        sites[low.bit_length() - 1] = [(block, instr)]
                    else:
                        found.append((block, instr))
        self._sites = sites

    def sites(self, reg: Expr) -> list[tuple]:
        """``(block, instr)`` definitions of ``reg`` in layout order."""
        return self._sites.get(cell_index(reg), [])

    def count(self, reg: Expr) -> int:
        """Number of instructions defining ``reg``."""
        return len(self.sites(reg))

    def first(self, reg: Expr) -> Optional[Instr]:
        """The first definition of ``reg`` in layout order, if any."""
        sites = self.sites(reg)
        return sites[0][1] if sites else None

    def in_loop(self, reg: Expr, loop: Loop) -> list[Instr]:
        """Definitions of ``reg`` inside ``loop``."""
        return [instr for block, instr in self.sites(reg)
                if loop.contains(block)]

    def outside_loop(self, reg: Expr, loop: Loop) -> list[tuple]:
        """``(block, instr)`` definitions of ``reg`` outside ``loop``."""
        return [site for site in self.sites(reg)
                if not loop.contains(site[0])]


def count_defs(cfg: CFG) -> dict:
    """Number of definitions of each register across the function."""
    counts: dict = {}
    for block in cfg.blocks:
        for instr in block.instrs:
            for d in instr.defs():
                counts[d] = counts.get(d, 0) + 1
    return counts


def find_basic_ivs(loop: Loop) -> dict:
    """Basic induction variables of ``loop``, keyed by register."""
    defs_in_loop: dict = {}
    for block in loop.block_list:
        for instr in block.instrs:
            for d in instr.defs():
                defs_in_loop.setdefault(d, []).append(instr)
    ivs: dict = {}
    for reg, instrs in defs_in_loop.items():
        if len(instrs) != 1 or not isinstance(reg, (Reg, VReg)):
            continue
        instr = instrs[0]
        if not isinstance(instr, Assign) or instr.dst != reg:
            continue
        step = _step_of(instr.src, reg)
        if step is not None and step != 0:
            ivs[reg] = BasicIV(reg, step, instr)
    return ivs


def _step_of(src: Expr, reg: Expr) -> Optional[int]:
    if isinstance(src, BinOp) and isinstance(src.right, Imm) and \
            src.left == reg and isinstance(src.right.value, int):
        if src.op == "+":
            return src.right.value
        if src.op == "-":
            return -src.right.value
    if isinstance(src, BinOp) and src.op == "+" and \
            isinstance(src.left, Imm) and src.right == reg and \
            isinstance(src.left.value, int):
        return src.left.value
    return None


def resolve_invariant(reg: Expr, defs: DefTable,
                      depth: int = 8) -> Optional[Expr]:
    """Resolve a register to a symbolic constant (Sym+offset or Imm).

    Follows single-definition chains: a register with exactly one
    definition in the whole function can be replaced by its defining
    expression wherever it is live.  Returns the folded expression if it
    reduces to a :class:`Sym` or :class:`Imm`, else None.
    """
    value = _resolve(reg, defs, depth)
    if isinstance(value, (Sym, Imm)):
        return value
    return None


def _resolve(expr: Expr, defs: DefTable, depth: int) -> Expr:
    if depth <= 0:
        return expr
    if isinstance(expr, (Reg, VReg)):
        if defs.count(expr) != 1:
            return expr
        definition = defs.first(expr)
        if not isinstance(definition, Assign):
            return expr
        resolved = _resolve(definition.src, defs, depth - 1)
        return fold(resolved)
    if isinstance(expr, BinOp):
        left = _resolve(expr.left, defs, depth - 1)
        right = _resolve(expr.right, defs, depth - 1)
        return fold(BinOp(expr.op, left, right))
    return expr


def _only_def(reg: Expr, cfg: CFG) -> Optional[Instr]:
    """The first definition of ``reg`` by a whole-function scan
    (:meth:`DefTable.first`'s reference)."""
    for block in cfg.blocks:
        for instr in block.instrs:
            if reg in instr.defs():
                return instr
    return None


def _fail(why: Optional[list], code: str) -> None:
    """Record a stable reason code for a ``return None`` (innermost wins:
    consumers read ``why[0]``, so already-explained failures must not be
    re-explained by outer frames)."""
    if why is not None and not why:
        why.append(code)


def _plus_code(left: "Affine", right: "Affine") -> str:
    """Why ``left.plus(right)`` returned None, as a reason code."""
    if left.iv is not None and right.iv is not None:
        if left.iv != right.iv:
            return "two-ivs"
        if left.anchor is not right.anchor:
            return "iv-order-ambiguous"
    if left.base is not None and right.base is not None:
        return "two-base-terms"
    return "not-affine"


def analyze_affine(expr: Expr, loop: Loop, ivs: dict, defs: DefTable,
                   depth: int = 12, anchor=None,
                   why: Optional[list] = None) -> Optional[Affine]:
    """Express ``expr`` as an affine function of one basic IV of ``loop``.

    In-loop single-definition registers are chased (e.g. the
    ``r20 := (r22-1) << 3`` offset computation feeding the ``x[i-1]``
    load in the paper's Figure 4); loop-invariant registers resolve to
    their symbolic values when possible, or remain opaque base terms.
    ``anchor`` is the instruction whose evaluation context ``expr``
    belongs to; it is updated while chasing in-loop definition chains so
    the IV leaf records where the IV was read.

    ``why``, when given as an empty list, receives one stable reason
    code (a key of :data:`repro.obs.remarks.REASONS`) on failure —
    the innermost cause, for optimization remarks.
    """
    if depth <= 0:
        _fail(why, "depth-limit")
        return None
    expr = fold(expr)
    if isinstance(expr, Imm):
        if not isinstance(expr.value, int):
            _fail(why, "not-affine")
            return None
        return Affine(None, 0, None, expr.value)
    if isinstance(expr, Sym):
        return Affine(None, 0, Sym(expr.name), expr.offset)
    if isinstance(expr, (Reg, VReg)):
        if expr in ivs:
            return Affine(expr, 1, None, 0, anchor)
        in_loop_def = defs.in_loop(expr, loop)
        if len(in_loop_def) == 1 and isinstance(in_loop_def[0], Assign) \
                and in_loop_def[0].dst == expr:
            return analyze_affine(in_loop_def[0].src, loop, ivs, defs,
                                  depth - 1, anchor=in_loop_def[0], why=why)
        if in_loop_def:
            _fail(why, "multi-def-temp")
            return None  # multiple in-loop defs: not analyzable
        # Loop-invariant register: resolve to a symbol if possible,
        # otherwise keep as an opaque invariant base.
        resolved = resolve_invariant(expr, defs)
        if isinstance(resolved, Sym):
            return Affine(None, 0, Sym(resolved.name), resolved.offset)
        if isinstance(resolved, Imm) and isinstance(resolved.value, int):
            return Affine(None, 0, None, resolved.value)
        return Affine(None, 0, expr, 0)
    if isinstance(expr, BinOp):
        if expr.op == "+":
            left = analyze_affine(expr.left, loop, ivs, defs,
                                  depth - 1, anchor, why)
            right = analyze_affine(expr.right, loop, ivs, defs,
                                   depth - 1, anchor, why)
            if left is None or right is None:
                return None
            combined = left.plus(right)
            if combined is None:
                _fail(why, _plus_code(left, right))
            return combined
        if expr.op == "-":
            left = analyze_affine(expr.left, loop, ivs, defs,
                                  depth - 1, anchor, why)
            right = analyze_affine(expr.right, loop, ivs, defs,
                                   depth - 1, anchor, why)
            if left is None or right is None:
                return None
            negated = right.negate()
            if isinstance(negated.base, NegBase):
                _fail(why, "two-base-terms")
                return None
            combined = left.plus(negated)
            if combined is None:
                _fail(why, _plus_code(left, negated))
            return combined
        if expr.op == "*":
            return _scaled(expr.left, expr.right, loop, ivs, defs, depth,
                           anchor, why)
        if expr.op == "<<" and isinstance(expr.right, Imm) and \
                isinstance(expr.right.value, int) and \
                0 <= expr.right.value < 31:
            factor = 1 << expr.right.value
            inner = analyze_affine(expr.left, loop, ivs, defs,
                                   depth - 1, anchor, why)
            if inner is None:
                return None
            scaled = inner.scale(factor)
            if scaled is None:
                _fail(why, "non-constant-scale")
            return scaled
    _fail(why, "unsupported-op")
    return None


def _scaled(a: Expr, b: Expr, loop: Loop, ivs: dict, defs: DefTable,
            depth: int, anchor=None,
            why: Optional[list] = None) -> Optional[Affine]:
    if isinstance(b, Imm) and isinstance(b.value, int):
        inner = analyze_affine(a, loop, ivs, defs, depth - 1, anchor, why)
        if inner is None:
            return None
        scaled = inner.scale(b.value)
        if scaled is None:
            _fail(why, "non-constant-scale")
        return scaled
    if isinstance(a, Imm) and isinstance(a.value, int):
        inner = analyze_affine(b, loop, ivs, defs, depth - 1, anchor, why)
        if inner is None:
            return None
        scaled = inner.scale(a.value)
        if scaled is None:
            _fail(why, "non-constant-scale")
        return scaled
    _fail(why, "non-constant-scale")
    return None

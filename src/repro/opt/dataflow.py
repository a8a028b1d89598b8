"""Dataflow analyses over the CFG: liveness of register cells.

Liveness is tracked over :class:`~repro.rtl.expr.Reg`,
:class:`~repro.rtl.expr.VReg` and the per-unit condition-code cells
(:class:`~repro.rtl.instr.CCCell`).  Memory is not a dataflow cell; the
passes treat stores/calls as barriers explicitly.

Representation
--------------

Sets of cells are represented as Python-int bitmasks over the
process-wide interning table (:func:`repro.rtl.expr.cell_index`), so the
backward transfer function is two machine-word operations::

    in(B)  = use(B) | (out(B) & ~def(B))
    out(B) = OR over successors S of in(S)

and the solver is a worklist seeded in post-order (successors first,
which is the fast direction for a backward problem), falling back to
layout order for blocks unreachable from the entry.  Because the system
is monotone over a finite lattice and starts from bottom, the worklist
reaches the same unique least fixpoint as the old iterate-until-stable
set solver — the :class:`Liveness` façade decodes masks back to
(frozen)sets so existing callers keep working unchanged.

:func:`compute_liveness_reference` preserves the original ``set``-based
solver verbatim for differential testing.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator, Optional

from ..rtl.expr import cell_index, cells_of_mask
from ..rtl.instr import Cell, Instr
from .cfg import Block, CFG

__all__ = [
    "Liveness",
    "compute_liveness",
    "compute_liveness_reference",
    "live_into",
    "solve_count",
    "refresh_count",
]

#: Number of full compute_liveness solves (per-instruction use/def sweep
#: over every block) since process start.  Read by tests and by the
#: AnalysisManager counter assertions; monotone, never reset.
_SOLVE_COUNT = 0

#: Number of incremental :meth:`Liveness.refresh` re-solves (int-only
#: worklist, instruction sweep limited to the changed blocks).
_REFRESH_COUNT = 0


def solve_count() -> int:
    """Process-wide count of full liveness solves (for tests)."""
    return _SOLVE_COUNT


def refresh_count() -> int:
    """Process-wide count of incremental liveness refreshes (for tests)."""
    return _REFRESH_COUNT


def _block_use_def(block: Block) -> tuple[int, int]:
    """(upward-exposed use mask, def mask) of one block."""
    u = 0
    d = 0
    for instr in block.instrs:
        u |= instr.uses_mask() & ~d
        d |= instr.defs_mask()
    return u, d


def _seed_order(cfg: CFG) -> list[Block]:
    """Post-order from the entry (successors first), then any blocks
    unreachable from the entry in layout order — the fixpoint must cover
    them too, since their live-out reads reachable blocks' live-in."""
    rpo = cfg.rpo()
    reached = {id(b) for b in rpo}
    order = rpo[::-1]
    order.extend(b for b in cfg.blocks if id(b) not in reached)
    return order


def _solve(order: list[Block], use: dict[int, int], define: dict[int, int],
           live_in: dict[int, int], live_out: dict[int, int]) -> None:
    """Run the worklist to the least fixpoint, updating the dicts in place."""
    queue = deque(order)
    queued = {id(b) for b in order}
    while queue:
        block = queue.popleft()
        queued.discard(id(block))
        out = 0
        for succ in block.succs:
            out |= live_in[id(succ)]
        live_out[id(block)] = out
        inn = use[id(block)] | (out & ~define[id(block)])
        if inn != live_in[id(block)]:
            live_in[id(block)] = inn
            for pred in block.preds:
                if id(pred) not in queued:
                    queued.add(id(pred))
                    queue.append(pred)


class Liveness:
    """Per-block live-in/live-out with per-instruction queries.

    Stores bitmasks internally; the set-returning accessors decode lazily
    (and memoized — see :func:`repro.rtl.expr.cells_of_mask`).  The
    returned sets are frozen; callers must not mutate them.
    """

    __slots__ = ("_cfg", "_in", "_out", "_use", "_def", "_per_instr")

    def __init__(self, cfg: CFG, live_in: dict[int, int],
                 live_out: dict[int, int], use: dict[int, int],
                 define: dict[int, int]) -> None:
        self._cfg = cfg
        self._in = live_in
        self._out = live_out
        self._use = use
        self._def = define
        #: id(block) -> (live_out mask at compute time, masks list);
        #: entries are dropped by :meth:`refresh` for changed blocks and
        #: guarded by the live-out mask for solver-driven changes.
        self._per_instr: dict[int, tuple[int, list[int]]] = {}

    # -- set-based API (decoding façade) ------------------------------------
    def live_in(self, block: Block) -> frozenset[Cell]:
        return cells_of_mask(self._in[id(block)])

    def live_out(self, block: Block) -> frozenset[Cell]:
        return cells_of_mask(self._out[id(block)])

    def per_instr_live_out(self, block: Block) -> list[frozenset[Cell]]:
        """live-after set for each instruction of ``block``, in order."""
        return [cells_of_mask(m) for m in self.per_instr_live_out_masks(block)]

    def iter_with_liveness(self, block: Block) \
            -> Iterator[tuple[Instr, frozenset[Cell]]]:
        """Yield (instr, live_after) pairs in forward order."""
        yield from zip(block.instrs, self.per_instr_live_out(block))

    # -- mask-based API ------------------------------------------------------
    def live_in_mask(self, block: Block) -> int:
        return self._in[id(block)]

    def live_out_mask(self, block: Block) -> int:
        return self._out[id(block)]

    def per_instr_live_out_masks(self, block: Block) -> list[int]:
        """live-after mask for each instruction of ``block``, in order.

        Memoized per block: DCE's fixpoint re-queries every block each
        round while deleting from few.  Callers must not mutate the
        returned list.
        """
        key = id(block)
        out = self._out[key]
        cached = self._per_instr.get(key)
        if cached is not None and cached[0] == out:
            return cached[1]
        live = out
        instrs = block.instrs
        result = [0] * len(instrs)
        for idx in range(len(instrs) - 1, -1, -1):
            instr = instrs[idx]
            result[idx] = live
            live = (live & ~instr.defs_mask()) | instr.uses_mask()
        self._per_instr[key] = (out, result)
        return result

    # -- incremental update --------------------------------------------------
    def refresh(self, changed_blocks: Optional[Iterable[Block]] = None) -> None:
        """Re-solve after instructions were deleted/rewritten in place.

        Per-block use/def masks are recomputed only for ``changed_blocks``
        (all blocks when ``None``); the live masks are then reset to
        bottom and the int-only worklist re-run.  The reset is required
        for correctness, not just simplicity: deletions *shrink* the
        solution, and re-iterating downward from the old fixpoint can
        stick at a greater fixpoint around loops (a dead self-sustaining
        live range keeps itself alive).  Starting from bottom always
        yields the least fixpoint, and costs only integer ops for the
        unchanged blocks.
        """
        global _REFRESH_COUNT
        _REFRESH_COUNT += 1
        cfg = self._cfg
        changed_ids = None if changed_blocks is None else \
            {id(b) for b in changed_blocks}
        if changed_ids is None:
            self._per_instr.clear()
        else:
            for bid in changed_ids:
                self._per_instr.pop(bid, None)
        for block in cfg.blocks:
            if changed_ids is None or id(block) in changed_ids or \
                    id(block) not in self._use:
                u, d = _block_use_def(block)
                self._use[id(block)] = u
                self._def[id(block)] = d
        live_in = {id(b): 0 for b in cfg.blocks}
        live_out = {id(b): 0 for b in cfg.blocks}
        _solve(_seed_order(cfg), self._use, self._def, live_in, live_out)
        self._in = live_in
        self._out = live_out


def compute_liveness(cfg: CFG) -> Liveness:
    """Bitset worklist backward liveness over the CFG."""
    global _SOLVE_COUNT
    _SOLVE_COUNT += 1
    use: dict[int, int] = {}
    define: dict[int, int] = {}
    for block in cfg.blocks:
        u, d = _block_use_def(block)
        use[id(block)] = u
        define[id(block)] = d
    live_in = {id(b): 0 for b in cfg.blocks}
    live_out = {id(b): 0 for b in cfg.blocks}
    _solve(_seed_order(cfg), use, define, live_in, live_out)
    return Liveness(cfg, live_in, live_out, use, define)


def live_into(block: Block, reg) -> bool:
    """Is ``reg`` live on entry to ``block``?

    A forward search over the one register: it is live when some path
    from the block's entry reads it before writing it.  This answers
    the same question as ``reg in compute_liveness(cfg).live_in(block)``
    without solving for every cell of the function.
    """
    bit = 1 << cell_index(reg)
    seen = {id(block)}
    stack = [block]
    while stack:
        current = stack.pop()
        for instr in current.instrs:
            if instr.uses_mask() & bit:
                return True
            if instr.defs_mask() & bit:
                break
        else:
            # Neither read nor written here: the successors decide.
            for succ in current.succs:
                if id(succ) not in seen:
                    seen.add(id(succ))
                    stack.append(succ)
    return False


# ---------------------------------------------------------------------------
# reference implementation (pre-bitset), kept for differential testing
# ---------------------------------------------------------------------------


class _ReferenceLiveness:
    """The original set-based result object, for differential tests."""

    def __init__(self, live_in: dict[int, set[Cell]],
                 live_out: dict[int, set[Cell]]) -> None:
        self._live_in = live_in
        self._live_out = live_out

    def live_in(self, block: Block) -> set[Cell]:
        return self._live_in[id(block)]

    def live_out(self, block: Block) -> set[Cell]:
        return self._live_out[id(block)]

    def per_instr_live_out(self, block: Block) -> list[set[Cell]]:
        live = set(self._live_out[id(block)])
        result: list[set[Cell]] = []
        for idx in range(len(block.instrs) - 1, -1, -1):
            instr = block.instrs[idx]
            result.append(set(live))
            live -= instr.defs()
            live |= instr.uses()
        result.reverse()
        return result


def compute_liveness_reference(cfg: CFG) -> _ReferenceLiveness:
    """The original iterate-until-stable set-based liveness solver.

    Retained verbatim (modulo the result class) so tests can assert the
    bitset worklist reaches the identical fixpoint on real functions.
    """
    use: dict[int, set[Cell]] = {}
    define: dict[int, set[Cell]] = {}
    for block in cfg.blocks:
        u: set[Cell] = set()
        d: set[Cell] = set()
        for instr in block.instrs:
            u |= instr.uses() - d
            d |= instr.defs()
        use[id(block)] = u
        define[id(block)] = d
    live_in: dict[int, set[Cell]] = {id(b): set() for b in cfg.blocks}
    live_out: dict[int, set[Cell]] = {id(b): set() for b in cfg.blocks}
    changed = True
    while changed:
        changed = False
        for block in reversed(cfg.blocks):
            out: set[Cell] = set()
            for succ in block.succs:
                out |= live_in[id(succ)]
            inn = use[id(block)] | (out - define[id(block)])
            if out != live_out[id(block)] or inn != live_in[id(block)]:
                live_out[id(block)] = out
                live_in[id(block)] = inn
                changed = True
    return _ReferenceLiveness(live_in, live_out)

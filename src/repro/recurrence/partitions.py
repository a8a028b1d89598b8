"""Memory-reference partitioning (Step 1-3 of the paper's algorithm).

For a loop, every memory reference is described by the paper's vector::

    (lno, acc, iv^dir, cee, dee, roffset)

where *cee* and *dee* come from expressing the reference's address as
``cee*iv + dee`` and *roffset* is the reference's constant offset within
its partition.  References are partitioned by the disjoint memory region
they touch; a reference whose region cannot be determined (unanalyzable
pointer, call in the loop) is added to every partition, which marks them
unsafe — exactly the paper's aliasing fallback.

Partition safety (Step 3): every reference in a partition must use the
same induction variable and the same 'cee', and all relative offsets
must be divisible by 'cee' (scaled by the loop step, i.e. the stride).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..opt.cfg import CFG, Block
from ..opt.dominators import Dominators, compute_dominators
from ..opt.induction import (
    BasicIV, DefTable, _resolve, analyze_affine, find_basic_ivs,
)
from ..opt.loops import Loop
from ..rtl.expr import Expr, Imm, Mem, Reg, Sym, VReg
from ..rtl.instr import Assign, Call, Instr

__all__ = ["MemRef", "Partition", "LoopMemoryInfo", "partition_loop"]


@dataclass
class MemRef:
    """One memory reference inside a loop, in the paper's vector form."""

    instr: Instr
    block: Block
    is_store: bool
    mem: Mem
    #: the basic induction variable register (None if not affine)
    iv: Optional[Expr] = None
    #: loop direction: '+' if the IV increases, '-' otherwise
    direction: str = "?"
    #: 'cee' — the IV's coefficient in the address
    cee: int = 0
    #: per-iteration address delta = cee * iv step
    stride: int = 0
    #: region base: a Sym, an opaque invariant expression, or None
    base: Optional[Expr] = None
    #: constant address offset from the region base at the initial IV value
    origin_offset: int = 0
    #: is the region known (False => alias-everything reference)?
    region_known: bool = False
    #: does the reference execute on every iteration?
    every_iteration: bool = False
    #: the raw base expression usable for address reconstruction: a
    #: bare Sym or an opaque loop-invariant register (no offset folded)
    addr_base: Optional[Expr] = None
    #: constant part of the address relative to ``cee*iv + addr_base``
    raw_offset: int = 0
    #: stable reason code (see repro.obs.remarks.REASONS) explaining why
    #: the analysis gave up on this reference ("" when fully analyzed)
    analysis_note: str = ""

    @property
    def acc(self) -> str:
        return "w" if self.is_store else "r"

    @property
    def lno(self) -> int:
        return self.instr.lno

    def vector(self) -> tuple:
        """The paper's (lno, acc, iv^dir, cee, dee, roffset) tuple."""
        iv_text = f"{self.iv!r}{self.direction}" if self.iv is not None \
            else "?"
        dee = f"{self.base!r}{self.origin_offset:+d}" \
            if self.base is not None else f"{self.origin_offset:+d}"
        return (self.lno, self.acc, iv_text, self.cee, dee,
                self.origin_offset)


@dataclass
class Partition:
    """A group of references to one disjoint memory region."""

    key: str
    refs: list[MemRef] = field(default_factory=list)
    safe: bool = True
    unsafe_reason: str = ""
    #: stable reason code for the unsafety (see repro.obs.remarks.REASONS)
    unsafe_code: str = ""

    def mark_unsafe(self, reason: str, code: str = "region-unknown") -> None:
        if self.safe:
            self.safe = False
            self.unsafe_reason = reason
            self.unsafe_code = code

    @property
    def reads(self) -> list[MemRef]:
        return [r for r in self.refs if not r.is_store]

    @property
    def writes(self) -> list[MemRef]:
        return [r for r in self.refs if r.is_store]

    def flow_pairs(self) -> list[tuple[MemRef, MemRef, int]]:
        """(read, write, degree) pairs where a read fetches a value
        written ``degree`` iterations earlier (degree >= 1)."""
        pairs = []
        if not self.safe:
            return pairs
        for write in self.writes:
            if write.stride == 0:
                continue
            for read in self.reads:
                diff = write.origin_offset - read.origin_offset
                if diff % write.stride == 0:
                    degree = diff // write.stride
                    if degree >= 1:
                        pairs.append((read, write, degree))
        return pairs

    def has_recurrence(self) -> bool:
        """True if any read may observe a value written by the loop
        (flow dependence, including same-location same-iteration)."""
        if not self.safe:
            # Unknown aliasing: assume the worst if both kinds present.
            return bool(self.reads) and bool(self.writes)
        if self.flow_pairs():
            return True
        for write in self.writes:
            for read in self.reads:
                if write.origin_offset == read.origin_offset and \
                        write.stride == read.stride:
                    return True  # same location touched each iteration
        return False


@dataclass
class LoopMemoryInfo:
    """Partition analysis results for one loop, with the analyses they
    were computed from (later per-loop queries reuse them)."""

    loop: Loop
    ivs: dict
    partitions: list[Partition]
    all_refs: list[MemRef]
    has_call: bool
    doms: Dominators
    defs: DefTable

    def partition_map(self) -> dict[str, Partition]:
        return {p.key: p for p in self.partitions}


def _iv_initial(iv: Expr, loop: Loop, doms: Dominators,
                defs: DefTable) -> Optional[Expr]:
    """The IV's value on loop entry, resolved to Sym/Imm if possible."""
    outside_defs = defs.outside_loop(iv, loop)
    if len(outside_defs) != 1:
        return None
    block, instr = outside_defs[0]
    if not doms.dominates(block, loop.header):
        return None
    if not isinstance(instr, Assign):
        return None
    value = _resolve(instr.src, defs, 8)
    if isinstance(value, (Sym, Imm)):
        return value
    return None


def partition_loop(cfg: CFG, loop: Loop,
                   doms: Optional[Dominators] = None,
                   defs: Optional[DefTable] = None) -> LoopMemoryInfo:
    """Build the loop's memory partitions (paper Steps 1-3)."""
    doms = doms or compute_dominators(cfg)
    defs = defs or DefTable(cfg)
    ivs = find_basic_ivs(loop)
    refs: list[MemRef] = []
    has_call = False
    for block in loop.block_list:
        every = all(doms.dominates(block, tail) for tail in loop.back_tails)
        for instr in block.instrs:
            if isinstance(instr, Call):
                has_call = True
                continue
            mem_read = instr.reads_mem()
            mem_write = instr.writes_mem()
            if mem_read is not None:
                refs.append(_describe(instr, block, False, mem_read, loop,
                                      ivs, doms, defs, every))
            if mem_write is not None:
                refs.append(_describe(instr, block, True, mem_write, loop,
                                      ivs, doms, defs, every))
    # Step 1: partition by disjoint region.
    partitions: dict[str, Partition] = {}
    unknown_refs = [r for r in refs if not r.region_known]
    for ref in refs:
        if not ref.region_known:
            continue
        key = repr(ref.base)
        part = partitions.setdefault(key, Partition(key))
        part.refs.append(ref)
    # Unknown references potentially touch every region.
    if unknown_refs or has_call:
        for part in partitions.values():
            part.refs.extend(unknown_refs)
            if has_call:
                part.mark_unsafe("call in loop", code="call-in-loop")
            else:
                part.mark_unsafe("unanalyzable reference may alias",
                                 code="region-alias")
        if unknown_refs:
            bucket = Partition("<unknown>")
            bucket.refs = list(unknown_refs)
            bucket.mark_unsafe("region unknown", code="region-unknown")
            partitions["<unknown>"] = bucket
    # Step 3: safety within each partition.
    for part in partitions.values():
        _check_safety(part)
    return LoopMemoryInfo(loop=loop, ivs=ivs,
                          partitions=list(partitions.values()),
                          all_refs=refs, has_call=has_call,
                          doms=doms, defs=defs)


def _describe(instr: Instr, block: Block, is_store: bool, mem: Mem,
              loop: Loop, ivs: dict, doms: Dominators, defs: DefTable,
              every: bool) -> MemRef:
    ref = MemRef(instr=instr, block=block, is_store=is_store, mem=mem,
                 every_iteration=every)
    why: list[str] = []
    affine = analyze_affine(mem.addr, loop, ivs, defs, anchor=instr,
                            why=why)
    if affine is None:
        ref.analysis_note = why[0] if why else "not-affine"
        return ref
    # Raw reconstruction pieces (used by the recurrence pre-header and
    # the streaming base-address generator).
    if isinstance(affine.base, Sym):
        ref.addr_base = Sym(affine.base.name)
        ref.raw_offset = affine.base.offset + affine.offset
    else:
        ref.addr_base = affine.base
        ref.raw_offset = affine.offset
    if affine.iv is None:
        # Loop-invariant address: the region is known if the base is a
        # symbol; stride 0.
        if isinstance(affine.base, Sym):
            ref.base = Sym(affine.base.name)
            ref.origin_offset = affine.base.offset + affine.offset
            ref.region_known = True
            ref.cee = 0
            ref.stride = 0
            ref.direction = "+"
        else:
            ref.analysis_note = "region-unknown"
        return ref
    iv_info: BasicIV = ivs[affine.iv]
    ref.iv = affine.iv
    ref.direction = iv_info.direction
    ref.cee = affine.coef
    ref.stride = affine.coef * iv_info.step
    # Offsets are normalized to the IV's value at loop entry of the
    # iteration.  A reference evaluated *after* the IV update sees
    # iv + step, i.e. an extra +stride; one whose ordering relative to
    # the update is ambiguous (both conditional) cannot be normalized.
    adjust = _update_adjustment(ref, affine.anchor, iv_info, loop, doms)
    if adjust is None:
        ref.iv = None
        ref.region_known = False
        ref.analysis_note = "iv-order-ambiguous"
        return ref
    ref.raw_offset += adjust
    base = affine.base
    offset = affine.offset + adjust
    initial = _iv_initial(affine.iv, loop, doms, defs)
    if isinstance(base, Sym):
        ref.base = Sym(base.name)
        ref.region_known = True
        extra = 0
        if isinstance(initial, Imm) and isinstance(initial.value, int):
            extra = affine.coef * initial.value
        else:
            # Region is still known (the symbol), but origin offsets are
            # only comparable between refs sharing the same IV — which
            # Step 3 enforces — so a symbolic start is fine at offset 0.
            extra = 0
        ref.origin_offset = base.offset + offset + extra
        return ref
    if base is None and isinstance(initial, Sym) and affine.coef != 0:
        # Pointer induction variable starting at a known object.
        if affine.coef == 1:
            ref.base = Sym(initial.name)
            ref.region_known = True
            ref.origin_offset = initial.offset + offset
            return ref
    if base is None and isinstance(initial, Imm):
        # Numeric base: known region only in the trivial sense; treat as
        # unknown (no symbol to anchor a disjointness claim).
        ref.analysis_note = "numeric-base"
        return ref
    ref.analysis_note = "region-unknown"
    return ref


def _update_adjustment(ref: MemRef, anchor, iv_info: BasicIV, loop: Loop,
                       doms: Dominators):
    """+stride when the IV was read after its update in the iteration,
    0 when before, None when the order is ambiguous or the update
    itself is conditional.

    ``anchor`` is the instruction at which the IV register was read
    (the reference instruction itself, or an in-loop temporary's
    definition discovered while chasing the address expression).
    """
    upd_block = None
    anchor_block = None
    for block in loop.block_list:
        if iv_info.update in block.instrs:
            upd_block = block
        if anchor is not None and anchor in block.instrs:
            anchor_block = block
    if upd_block is None or anchor is None or anchor_block is None:
        return None
    # A conditionally executed update means the step is not constant.
    if not all(doms.dominates(upd_block, tail) for tail in loop.back_tails):
        return None
    if upd_block is anchor_block:
        anchor_idx = anchor_block.instrs.index(anchor)
        upd_idx = upd_block.instrs.index(iv_info.update)
        return ref.stride if anchor_idx > upd_idx else 0
    # Within one iteration (the loop body with back edges removed),
    # whichever block reaches the other executes first.
    if _body_reaches(loop, anchor_block, upd_block):
        return 0
    if _body_reaches(loop, upd_block, anchor_block):
        return ref.stride
    return None


def _body_reaches(loop: Loop, src: Block, dst: Block) -> bool:
    """Can ``dst`` be reached from ``src`` inside the loop body without
    crossing the back edge (i.e. within the same iteration)?"""
    seen = {id(src)}
    stack = [src]
    while stack:
        block = stack.pop()
        for succ in block.succs:
            if succ is loop.header or not loop.contains(succ):
                continue
            if succ is dst:
                return True
            if id(succ) not in seen:
                seen.add(id(succ))
                stack.append(succ)
    return False


def _check_safety(part: Partition) -> None:
    """Paper Step 3: same IV, same cee, offsets divisible by the stride."""
    if not part.refs:
        return
    known = [r for r in part.refs if r.region_known]
    if not known:
        part.mark_unsafe("region unknown", code="region-unknown")
        return
    first = known[0]
    for ref in known[1:]:
        if ref.iv != first.iv:
            part.mark_unsafe("references use different induction variables",
                             code="mixed-iv")
            return
        if ref.cee != first.cee:
            part.mark_unsafe("references have different 'cee' values",
                             code="mixed-cee")
            return
    if first.iv is None:
        return  # loop-invariant scalar accesses; trivially consistent
    stride = abs(first.stride)
    if stride == 0:
        part.mark_unsafe("zero stride", code="zero-stride")
        return
    base_offset = min(r.origin_offset for r in known)
    for ref in known:
        if (ref.origin_offset - base_offset) % stride != 0:
            part.mark_unsafe("relative offset not divisible by stride",
                             code="offset-misaligned")
            return

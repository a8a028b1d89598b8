"""Control-flow graph over RTL instructions.

The optimizer converts a function's flat instruction list into basic
blocks, runs its phases over the graph, and serializes back to a flat
list.  Blocks keep their *layout order* so fall-through edges survive a
round trip and listings stay readable (and comparable to the paper's
figures).
"""

from __future__ import annotations

from typing import Iterator, Optional

from ..rtl.instr import CondJump, Instr, Jump, JumpStreamNotDone, Label, Ret
from ..rtl.module import RtlFunction

__all__ = ["Block", "CFG", "build_cfg"]


def _fresh_label(func: RtlFunction, kind: str) -> str:
    """A block label unique within ``func`` across all of its CFG
    rebuilds: anonymous blocks may become branch targets (edge
    splitting) and survive into a later CFG construction.  Counting per
    function, not per process, makes a listing independent of what
    else was compiled before it."""
    func.label_count += 1
    return f"{func.name}.{kind}{func.label_count}"


class Block:
    """A basic block: straight-line instructions, label, and edges."""

    def __init__(self, label: str) -> None:
        self.label = label
        self.instrs: list[Instr] = []
        self.preds: list["Block"] = []
        self.succs: list["Block"] = []

    @property
    def terminator(self) -> Optional[Instr]:
        """The trailing control-transfer instruction, if any."""
        if self.instrs and self.instrs[-1].is_branch():
            return self.instrs[-1]
        return None

    def body(self) -> list[Instr]:
        """Instructions excluding a trailing branch."""
        if self.terminator is not None:
            return self.instrs[:-1]
        return self.instrs

    def __repr__(self) -> str:
        return f"<block {self.label} ({len(self.instrs)} instrs)>"


class CFG:
    """A function's control-flow graph, in layout order."""

    def __init__(self, func: RtlFunction, blocks: list[Block]) -> None:
        self.func = func
        self.blocks = blocks

    @property
    def entry(self) -> Block:
        return self.blocks[0]

    def new_label(self) -> str:
        return _fresh_label(self.func, "B")

    def block_of(self, label: str) -> Block:
        for block in self.blocks:
            if block.label == label:
                return block
        raise KeyError(label)

    # -- edge maintenance ------------------------------------------------------
    @staticmethod
    def add_edge(src: Block, dst: Block) -> None:
        if dst not in src.succs:
            src.succs.append(dst)
        if src not in dst.preds:
            dst.preds.append(src)

    @staticmethod
    def remove_edge(src: Block, dst: Block) -> None:
        if dst in src.succs:
            src.succs.remove(dst)
        if src in dst.preds:
            dst.preds.remove(src)

    def insert_before(self, new: Block, anchor: Block) -> None:
        """Insert ``new`` into the layout immediately before ``anchor``."""
        idx = self.blocks.index(anchor)
        self.blocks.insert(idx, new)

    def retarget(self, pred: Block, old: Block, new: Block) -> None:
        """Redirect ``pred``'s edge to ``old`` so it points at ``new``.

        Rewrites branch targets; a fall-through edge is preserved only
        if the caller keeps the layout adjacency (e.g. by inserting
        ``new`` right where ``old`` was).
        """
        term = pred.terminator
        if term is not None:
            for attr in ("target",):
                if hasattr(term, attr) and getattr(term, attr) == old.label:
                    setattr(term, attr, new.label)
        self.remove_edge(pred, old)
        self.add_edge(pred, new)

    # -- iteration helpers ------------------------------------------------------
    def instructions(self) -> Iterator[Instr]:
        for block in self.blocks:
            yield from block.instrs

    def rpo(self) -> list[Block]:
        """Blocks in reverse post-order from the entry."""
        seen: set[int] = set()
        order: list[Block] = []

        def visit(block: Block) -> None:
            seen.add(id(block))
            for succ in block.succs:
                if id(succ) not in seen:
                    visit(succ)
            order.append(block)

        visit(self.entry)
        order.reverse()
        return order

    # -- serialization ------------------------------------------------------------
    def to_instrs(self) -> list[Instr]:
        """Flatten back to a label-bearing instruction list.

        Labels are emitted for every block that is a branch target;
        explicit jumps are inserted where a fall-through edge no longer
        matches the layout.
        """
        # Pass 1: decide where explicit jumps are needed and which blocks
        # are branch targets (including targets of the inserted jumps).
        targeted: set[str] = set()
        inserted_jump: dict[int, str] = {}
        for block in self.blocks:
            term = block.terminator
            if term is not None:
                targeted.update(term.branch_targets())
        for idx, block in enumerate(self.blocks):
            fallthrough = self._fallthrough_succ(block)
            if fallthrough is None:
                continue
            next_block = self.blocks[idx + 1] if idx + 1 < len(self.blocks) \
                else None
            if next_block is not fallthrough:
                inserted_jump[idx] = fallthrough.label
                targeted.add(fallthrough.label)
        # Pass 2: emit.
        out: list[Instr] = []
        for idx, block in enumerate(self.blocks):
            if block.label in targeted:
                out.append(Label(block.label))
            out.extend(block.instrs)
            if idx in inserted_jump:
                out.append(Jump(inserted_jump[idx]))
        return out

    def _fallthrough_succ(self, block: Block) -> Optional[Block]:
        term = block.terminator
        if term is None:
            return block.succs[0] if block.succs else None
        if not term.falls_through():
            return None
        # Conditional branch: the successor that is not the branch target.
        targets = set(term.branch_targets())
        for succ in block.succs:
            if succ.label not in targets:
                return succ
        # Both successors are explicit targets (degenerate); no fall-through.
        return None


def build_cfg(func: RtlFunction) -> CFG:
    """Partition a flat instruction list into a CFG."""
    instrs = func.instrs
    # Pass 1: find leaders.
    blocks: list[Block] = []
    label_map: dict[str, Block] = {}
    current: Optional[Block] = None

    for instr in instrs:
        if isinstance(instr, Label):
            block = label_map.get(instr.name)
            if block is None:
                block = Block(instr.name)
                label_map[instr.name] = block
            if current is not None and block in blocks:
                raise ValueError(f"duplicate label {instr.name}")
            blocks.append(block)
            current = block
            continue
        if current is None:
            current = Block(_fresh_label(func, "A"))
            blocks.append(current)
        current.instrs.append(instr)
        if instr.is_branch():
            current = None
    if not blocks:
        blocks.append(Block(_fresh_label(func, "A")))
    # Pass 2: edges.
    label_map = {b.label: b for b in blocks}
    for idx, block in enumerate(blocks):
        term = block.terminator
        next_block = blocks[idx + 1] if idx + 1 < len(blocks) else None
        if term is None:
            if next_block is not None:
                CFG.add_edge(block, next_block)
            continue
        for target in term.branch_targets():
            CFG.add_edge(block, label_map[target])
        if term.falls_through() and next_block is not None:
            CFG.add_edge(block, next_block)
    cfg = CFG(func, blocks)
    return cfg

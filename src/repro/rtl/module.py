"""Containers for compiled code: data objects, functions, modules.

These are the interchange structures between the code expander, the
optimizer, the back ends, and the simulators.  A :class:`RtlModule` is a
whole compilation unit: a symbol table of global data objects plus RTL
functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .instr import Instr

__all__ = ["DataObject", "RtlFunction", "RtlModule"]


@dataclass
class DataObject:
    """A global data object laid out in the simulated data segment.

    ``init`` holds the initial byte image (string literals, brace
    initializers); ``None`` means zero-initialized (BSS).
    """

    name: str
    size: int
    align: int = 8
    init: Optional[bytes] = None

    def image(self) -> bytes:
        """The object's initial contents, zero-padded to ``size``."""
        raw = self.init or b""
        if len(raw) > self.size:
            raise ValueError(f"init for {self.name} exceeds declared size")
        return raw + bytes(self.size - len(raw))


@dataclass
class RtlFunction:
    """One function's RTL code plus its frame metadata.

    ``instrs`` is the flat instruction list (with :class:`~repro.rtl.instr.Label`
    pseudo-instructions); the optimizer converts it to a CFG and back.
    ``frame_size`` is the byte size of the stack frame (locals + saves)
    established by the prologue the expander emits.
    """

    name: str
    instrs: list[Instr] = field(default_factory=list)
    frame_size: int = 0
    #: number of virtual registers handed out per bank, for allocators
    vreg_counts: dict[str, int] = field(default_factory=dict)
    #: anonymous block labels handed out by the optimizer's CFGs
    label_count: int = field(default=0, compare=False, repr=False)

    def listing(self) -> str:
        """A plain repr listing (for debugging; back ends format real asm)."""
        lines = []
        for ins in self.instrs:
            text = repr(ins)
            if ins.comment:
                text = f"{text:<44} -- {ins.comment}"
            lines.append(text)
        return "\n".join(lines)


@dataclass
class RtlModule:
    """A compiled compilation unit: global data + functions."""

    functions: dict[str, RtlFunction] = field(default_factory=dict)
    data: dict[str, DataObject] = field(default_factory=dict)
    entry: str = "main"

    def add_function(self, fn: RtlFunction) -> None:
        self.functions[fn.name] = fn

    def add_data(self, obj: DataObject) -> None:
        self.data[obj.name] = obj

    def __getstate__(self) -> dict:
        # The simulator parks derived caches on the module as
        # underscore attributes (``_decoded_cache``, ``_superop_cache``,
        # ``_loopmap_cache``, ...).  They hold generated closures —
        # unpicklable, and process-specific anyway — so pickles carry
        # only the declared fields and loaders re-derive the caches on
        # first simulation.
        return {key: value for key, value in self.__dict__.items()
                if not key.startswith("_")}

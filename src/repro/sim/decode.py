"""Instruction pre-decode for the WM cycle simulator.

The reference simulator (:class:`repro.sim.machine.WMSimulator` with
``slow=True``) re-discovers everything about an instruction on every
cycle it is considered: ``isinstance`` chains pick the handler,
``walk()`` re-traverses the operand :class:`~repro.rtl.expr.Expr` trees
to count FIFO reads, ``_eval`` recurses over the same trees to compute
values, and ``_cost`` walks them a third time for multi-cycle operator
costs.  For a loop that runs thousands of cycles this is pure
re-computation — the program never changes after ``load_program``.

This module compiles each RTL instruction **once**, at load time, into a
:class:`DOp` record:

* an integer opcode for the IFU (``K_*``) and, for execution-unit
  instructions, for the unit's dispatcher (``E_*``) — replacing the
  ``isinstance`` chains;
* operand *evaluator closures* ``fn(unit, sim)`` built over the
  ``_INT_BIN``/``_CMP`` operator tables, replacing ``_eval``'s
  recursion (FIFO pops happen inside the closures, in exactly the
  reference evaluation order);
* the pre-computed FIFO-operand needs (``_operands_ready``), extra
  occupancy cycles (``_cost``), and branch targets resolved to absolute
  instruction indices;
* for execution-unit instructions, one *execute closure*
  ``exe(unit, sim)`` with the op's static facts built in (which
  ``E_*`` semantics, its FIFO needs, register / FIFO / sink
  destination, ``busy_extra``): it returns None when the op executed
  and the stall reason otherwise, exactly as the reference
  ``WMSimulator._execute`` decides them.  A call's link-register write
  is such a record too (``DOp.link``), so a unit tick is the same
  closure call whatever the queue head is;
* for ops that store a value, the conversion on the way
  (``DOp.conv``: a conversion's i2d/d2i, a register write's
  coercion), shared by the execute closures, the IFU's conversions
  and fast-forward's replay (:mod:`repro.sim.superops`), which runs a
  loop body through these evaluators.

The decoded program depends only on the instruction list — not on the
memory layout or simulator parameters — so it is cached on the
:class:`~repro.rtl.module.RtlModule` and shared by every simulation of
the same compiled program (see :func:`decode_module`).

Correctness contract: for every program the decoded fast path must
produce a :class:`~repro.sim.machine.SimResult` bit-identical to the
``slow=True`` reference, including error cycles and telemetry
attribution.  ``tests/test_perf_equivalence.py`` enforces this over the
whole benchmark suite.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..ir.interp import c_div, c_rem, wrap32
from ..machine.wm import CVT_OPS, WMLoadIssue, WMStoreIssue, unit_of
from ..rtl.expr import BinOp, Expr, Imm, Mem, Reg, Sym, UnOp, VReg, walk
from ..rtl.instr import (
    Assign, Call, Compare, CondJump, Jump, JumpStreamNotDone, Label, Ret,
    StreamIn, StreamOut, StreamStop,
)
from .errors import SimError
from .loader import Program

__all__ = [
    "DOp", "decode_program", "decode_module",
    "K_LABEL", "K_JUMP", "K_CONDJUMP", "K_JNI", "K_CALL", "K_RET",
    "K_CVT", "K_EXEC",
    "E_ASSIGN", "E_LOAD", "E_STORE", "E_COMPARE", "E_SIN", "E_SOUT",
    "E_SSTOP", "E_BAD", "E_LINK",
    "_INT_BIN", "_CMP", "_OP_COST",
]

# -- operator tables ----------------------------------------------------------

_INT_BIN = {
    "+": lambda a, b: wrap32(a + b),
    "-": lambda a, b: wrap32(a - b),
    "*": lambda a, b: wrap32(a * b),
    "/": lambda a, b: wrap32(c_div(a, b)),
    "%": lambda a, b: wrap32(c_rem(a, b)),
    "<<": lambda a, b: wrap32(a << (b & 31)),
    ">>": lambda a, b: a >> (b & 31),
    "&": lambda a, b: wrap32(a & b),
    "|": lambda a, b: wrap32(a | b),
    "^": lambda a, b: wrap32(a ^ b),
}

_CMP = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}

#: extra occupancy cycles for expensive operators
_OP_COST = {
    ("r", "*"): 3, ("r", "/"): 15, ("r", "%"): 15,
    ("f", "*"): 1, ("f", "/"): 10,
}

# -- opcodes ------------------------------------------------------------------

K_LABEL = 0      # fall through, free
K_JUMP = 1       # unconditional, free
K_CONDJUMP = 2   # dequeue a CC flag, maybe branch
K_JNI = 3        # jump while the stream is not exhausted
K_CALL = 4       # dispatch the link write, enter the function
K_RET = 5        # drain, then return through r30
K_CVT = 6        # cross-bank conversion (synchronizing)
K_EXEC = 7       # dispatch to the IEU/FEU

E_ASSIGN = 0
E_LOAD = 1
E_STORE = 2
E_COMPARE = 3
E_SIN = 4
E_SOUT = 5
E_SSTOP = 6
E_BAD = 7
E_LINK = 8       # a call's link-register write, queued on the IEU


class DOp:
    """One decoded instruction.

    A flat record: which fields are meaningful depends on ``kind`` /
    ``ekind``.  Records are immutable after decode and shared between
    simulator instances of the same module.
    """

    __slots__ = (
        "kind",        # IFU opcode (K_*)
        "ekind",       # execution-unit opcode (E_*) for K_EXEC records
        "instr",       # the original Instr (stream metadata, error text)
        "feu",         # True: dispatch target / CC producer is the FEU
        "target",      # branch target / call entry as an absolute index
        "sense",       # CondJump branch sense
        "key",         # (bank, index, kind) stream key (JNI / SSTOP)
        "stream_key",  # dispatch-generation key for SIN/SOUT dispatch
        "needs",       # tuple ((bank, fifo_index), count): FIFO operands
        "ev",          # evaluator closure fn(unit, sim)
        "ev2",         # second evaluator (stream count), or None
        "exe",         # K_EXEC: execute closure exe(unit, sim) -> stall
        "link",        # K_CALL: the link write it queues on the IEU
        "fifo_key",    # (bank, index) FIFO this op reads into / writes
        "dst_bank",    # destination register bank, None = no write
        "dst_index",   # destination register index
        "busy_extra",  # extra occupancy cycles charged on execute
        "conv",        # value -> stored value (K_CVT's conversion, a
                       # register write's coercion), None: stored as is
        "width", "fp", "signed",
        "d2i",         # K_CVT: True for d2i, False for i2d
        "ff",          # K_JNI: LoopPlan when fast-forward may replay
                       # the loop's body through these records
    )

    def __init__(self, kind: int, instr) -> None:
        self.kind = kind
        self.instr = instr
        self.ekind = E_BAD
        self.feu = False
        self.target = 0
        self.sense = False
        self.key = None
        self.stream_key = None
        self.needs = ()
        self.ev = None
        self.ev2 = None
        self.exe = None
        self.link = None
        self.fifo_key = None
        self.dst_bank = None
        self.dst_index = 0
        self.busy_extra = 0
        self.conv = None
        self.width = 0
        self.fp = False
        self.signed = True
        self.d2i = False
        self.ff = None

    def __repr__(self) -> str:  # debugging aid only
        return f"<DOp k={self.kind} e={self.ekind} {self.instr!r}>"


# -- expression compilation ---------------------------------------------------

def _raiser(message: str) -> Callable:
    def ev(unit, sim):
        raise SimError(message)
    return ev


def _compile_expr(expr: Expr, bank: str) -> Callable:
    """Compile ``expr`` into ``fn(unit, sim) -> value``.

    The closure performs exactly the reads (including FIFO pops, in
    reference evaluation order: left before right, depth first) and
    raises exactly the errors of ``WMSimulator._eval`` on a unit of
    ``bank``.
    """
    if isinstance(expr, Imm):
        value = expr.value
        return lambda unit, sim: value
    if isinstance(expr, Reg):
        if expr.bank != bank:
            reg = expr

            def ev_cross(unit, sim):
                raise SimError(
                    f"{unit.name} read of cross-bank register {reg!r}")
            return ev_cross
        if expr.index == 31:
            zero = 0.0 if bank == "f" else 0
            return lambda unit, sim: zero
        if expr.index in (0, 1):
            key = (expr.bank, expr.index)
            return lambda unit, sim: sim.in_fifos[key].pop()
        index = expr.index
        return lambda unit, sim: unit.regs[index]
    if isinstance(expr, Sym):
        name = expr.name
        offset = expr.offset

        def ev_sym(unit, sim):
            try:
                return sim.memory.globals_base[name] + offset
            except KeyError:
                raise SimError(f"unknown symbol {name!r}") from None
        return ev_sym
    if isinstance(expr, BinOp):
        left = _compile_expr(expr.left, bank)
        right = _compile_expr(expr.right, bank)
        op = expr.op
        if bank == "f":
            return _compile_fp_bin(op, left, right)
        fn = _INT_BIN.get(op)
        if fn is None:
            def ev_badop(unit, sim):
                left(unit, sim)
                right(unit, sim)
                raise KeyError(op)  # as the reference table lookup does
            return ev_badop
        return lambda unit, sim: fn(left(unit, sim), right(unit, sim))
    if isinstance(expr, UnOp):
        operand = _compile_expr(expr.operand, bank)
        op = expr.op
        if op == "neg":
            def ev_neg(unit, sim):
                value = operand(unit, sim)
                return -value if isinstance(value, float) \
                    else wrap32(-value)
            return ev_neg
        if op == "not":
            return lambda unit, sim: wrap32(~operand(unit, sim))
        if op == "sext8":
            def ev_sext(unit, sim):
                value = int(operand(unit, sim)) & 0xFF
                return value - 0x100 if value >= 0x80 else value
            return ev_sext

        def ev_badun(unit, sim):
            operand(unit, sim)
            raise SimError(f"unit cannot evaluate {op}")
        return ev_badun
    if isinstance(expr, VReg):
        return _raiser("virtual register survived to simulation")
    return _raiser(f"cannot evaluate {expr!r}")


def _compile_fp_bin(op: str, left: Callable, right: Callable) -> Callable:
    if op == "+":
        return lambda unit, sim: \
            float(left(unit, sim)) + float(right(unit, sim))
    if op == "-":
        return lambda unit, sim: \
            float(left(unit, sim)) - float(right(unit, sim))
    if op == "*":
        return lambda unit, sim: \
            float(left(unit, sim)) * float(right(unit, sim))
    if op == "/":
        def ev_div(unit, sim):
            a = float(left(unit, sim))
            b = float(right(unit, sim))
            if b == 0.0:
                raise SimError("floating-point division by zero")
            return a / b
        return ev_div

    def ev_bad(unit, sim):
        left(unit, sim)
        right(unit, sim)
        raise SimError(f"illegal FP operator {op}")
    return ev_bad


def _compile_compare(instr: Compare) -> Callable:
    bank = instr.bank
    left = _compile_expr(instr.left, bank)
    right = _compile_expr(instr.right, bank)
    fn = _CMP.get(instr.op)
    if fn is None:
        op = instr.op

        def ev_badcmp(unit, sim):
            left(unit, sim)
            right(unit, sim)
            raise KeyError(op)
        return ev_badcmp
    return lambda unit, sim: bool(fn(left(unit, sim), right(unit, sim)))


def _fifo_needs(exprs: list, bank: str) -> tuple:
    """Pre-computed ``_operands_ready`` facts: how many elements each
    input FIFO of ``bank`` must hold before these operands can be read
    atomically."""
    needed: dict[tuple, int] = {}
    for expr in exprs:
        for node in walk(expr):
            if isinstance(node, Reg) and node.index in (0, 1) and \
                    node.bank == bank:
                key = (node.bank, node.index)
                needed[key] = needed.get(key, 0) + 1
    return tuple(needed.items())


def _cost_extra(expr: Expr, bank: str) -> int:
    """Extra unit-occupancy cycles beyond the first (``_cost`` - 1)."""
    cost = 1
    for node in walk(expr):
        if isinstance(node, BinOp):
            cost = max(cost, _OP_COST.get((bank, node.op), 1))
    return cost - 1


def _decode_dst(d: DOp, dst) -> None:
    """Classify an Assign/CVT destination: FIFO push, register write, or
    the register-31 sink (value evaluated and discarded)."""
    if isinstance(dst, Reg) and dst.index in (0, 1):
        d.fifo_key = (dst.bank, dst.index)
    elif isinstance(dst, (Reg, VReg)):
        if dst.index != 31:
            d.dst_bank = dst.bank
            d.dst_index = dst.index
    else:
        d.ekind = E_BAD


# -- execute closures ---------------------------------------------------------
#
# ``exe(unit, sim)`` runs one K_EXEC op on ``unit`` (the IEU or FEU it
# was dispatched to) and returns None, or the stall reason when it
# cannot execute this cycle — the reasons, checks and their order are
# those of the reference ``WMSimulator._execute``.  The run loops tick
# a unit by calling its queue head's closure; everything static about
# the op is bound here, once per decode.

def _int_pure(expr: Expr) -> bool:
    """True when the r-bank evaluator of ``expr`` always yields an int
    in 32-bit range, making a register write's ``wrap32(int(...))`` a
    no-op: wrapping operators, shifts and sign extensions of such
    values, in-range int literals, and integer registers (which only
    ever hold wrapped ints).  FIFO pops may carry any loaded value."""
    if isinstance(expr, Imm):
        value = expr.value
        return type(value) is int and -0x80000000 <= value < 0x80000000
    if isinstance(expr, Reg):
        return expr.bank == "r" and expr.index not in (0, 1)
    if isinstance(expr, BinOp):
        if expr.op == ">>":
            return _int_pure(expr.left)
        return expr.op in _INT_BIN
    if isinstance(expr, UnOp):
        if expr.op == "neg":
            return _int_pure(expr.operand)
        return expr.op in ("not", "sext8")
    return False


def _float_pure(expr: Expr) -> bool:
    """True when the f-bank evaluator of ``expr`` always yields a float,
    making a register write's ``float(...)`` a no-op: FP arithmetic
    (float() on both sides), float literals and FP registers (which
    only ever hold floats)."""
    if isinstance(expr, Imm):
        return type(expr.value) is float
    if isinstance(expr, Reg):
        return expr.bank == "f" and expr.index not in (0, 1)
    if isinstance(expr, BinOp):
        return True
    if isinstance(expr, UnOp):
        return expr.op == "neg" and _float_pure(expr.operand)
    return False


def _operand_wait(needs: tuple, sim) -> bool:
    """Is some FIFO operand not yet available (``_operands_ready``)?"""
    in_fifos = sim.in_fifos
    for key, count in needs:
        fifo = in_fifos[key]
        # too few buffered is the common wait: skip available()
        if fifo._buffered < count or fifo.available() < count:
            return True
    return False


def _execute_closure(d: DOp) -> Callable:
    ekind = d.ekind
    if ekind == E_ASSIGN:
        return _assign_closure(d)
    ev = d.ev
    needs = d.needs
    if ekind == E_LOAD:
        width, fp, signed, fifo_key = d.width, d.fp, d.signed, d.fifo_key

        def exe_load(unit, sim):
            if needs and _operand_wait(needs, sim):
                return "operand-wait"
            memory = sim.memory
            if memory._accepted_this_cycle >= memory.ports:
                return "memory-port"
            addr = ev(unit, sim)
            if sim.store_buffer and sim._store_conflict(addr, width):
                if needs:
                    sim._activity = True  # the address pop consumed state
                return "store-conflict"
            # no live stream: no output stream can cover the address
            if sim._scu_live and sim._out_stream_conflict(addr, width):
                if needs:
                    sim._activity = True
                return "stream-drain"
            reservation = sim.in_fifos[fifo_key].reserve(1, tag="load")
            ok = memory.request_read(sim.cycle, addr, width, fp, signed,
                                     reservation.deliver)
            assert ok
        return exe_load
    if ekind == E_STORE:
        width, fp, fifo_key = d.width, d.fp, d.fifo_key

        def exe_store(unit, sim):
            if needs and _operand_wait(needs, sim):
                return "operand-wait"
            claim = ["store", ev(unit, sim), width, fp]
            sim.out_claims[fifo_key].append(claim)
            sim.store_buffer.append((fifo_key, claim))
        return exe_store
    if ekind == E_COMPARE:
        def exe_compare(unit, sim):
            cc_fifo = unit.cc_fifo
            if len(cc_fifo) >= 8:
                return "cc-full"
            if needs and _operand_wait(needs, sim):
                return "operand-wait"
            cc_fifo.append(ev(unit, sim))
        return exe_compare
    if ekind == E_SIN or ekind == E_SOUT:
        instr = d.instr
        kind = "in" if ekind == E_SIN else "out"
        ev2 = d.ev2

        def exe_stream(unit, sim):
            base = ev(unit, sim)
            count = None
            if ev2 is not None:
                count = ev2(unit, sim)
                if count <= 0:
                    raise SimError(
                        f"stream with non-positive count {count}")
            sim._activate_stream_with(instr, kind, base, count)
        return exe_stream
    if ekind == E_SSTOP:
        key = d.key

        def exe_stop(unit, sim):
            state = sim.streams.get(key)
            if state is not None and state.active:
                if state.reservation is not None:
                    state.reservation.close()
                state.active = False
                state.remaining = 0
        return exe_stop
    instr = d.instr

    def exe_bad(unit, sim):
        raise SimError(f"unit {unit.name} cannot execute {instr!r}")
    return exe_bad


def _assign_closure(d: DOp) -> Callable:
    """An Assign: to an output FIFO (stalls while it is full), to the
    register-31 sink, or to a register of the executing unit's own
    bank (an Assign runs on the unit of its destination bank), through
    the write's coercion ``d.conv``."""
    ev = d.ev
    needs = d.needs
    extra = d.busy_extra
    fifo_key = d.fifo_key
    if fifo_key is not None:
        def exe_push(unit, sim):
            if needs and _operand_wait(needs, sim):
                return "operand-wait"
            out = sim.out_fifos[fifo_key]
            if len(out._data) >= out.capacity:
                return "output-full"
            value = ev(unit, sim)
            if extra:
                unit.busy_until = sim.cycle + extra
            out.push(value)
        return exe_push
    if d.dst_bank is None:
        def exe_sink(unit, sim):
            if needs and _operand_wait(needs, sim):
                return "operand-wait"
            ev(unit, sim)
            if extra:
                unit.busy_until = sim.cycle + extra
        return exe_sink
    conv = d.conv
    index = d.dst_index

    def exe_write(unit, sim):
        if needs and _operand_wait(needs, sim):
            return "operand-wait"
        value = ev(unit, sim)
        if extra:
            unit.busy_until = sim.cycle + extra
        unit.regs[index] = value if conv is None else conv(value)
    return exe_write


def _to_int(value) -> int:
    return wrap32(int(value))


def _d2i(value) -> int:
    try:
        return wrap32(int(value))
    except (OverflowError, ValueError) as exc:
        raise SimError(f"d2i conversion trap: {exc}") from exc


def _cvt_conv(d2i: bool, dst_bank: Optional[str]) -> Callable:
    """A conversion's operand -> stored value, as ``_exec_cvt`` and
    ``_write_reg`` compute it: i2d or d2i, then the destination
    register's coercion where that is not a no-op (the result written
    into the other bank's register)."""
    convert = _d2i if d2i else float
    if dst_bank == ("f" if d2i else "r"):
        coerce = float if d2i else _to_int
        return lambda value: coerce(convert(value))
    return convert


def _link_op(instr: Call, return_pc: int) -> DOp:
    """The record a call queues on the IEU: it writes the return pc
    into r30 (the IEU keeps the register file single-writer)."""
    d = DOp(K_EXEC, instr)
    d.ekind = E_LINK

    def exe_link(unit, sim):
        unit.regs[30] = return_pc
    d.exe = exe_link
    return d


# -- instruction decode -------------------------------------------------------

def decode_program(program: Program) -> list[DOp]:
    """Decode every instruction of a loaded program."""
    return [_decode(pc, instr, program)
            for pc, instr in enumerate(program.instrs)]


def _decode(pc: int, instr, program: Program) -> DOp:
    if isinstance(instr, Label):
        return DOp(K_LABEL, instr)
    if isinstance(instr, Jump):
        d = DOp(K_JUMP, instr)
        d.target = program.label_index[instr.target]
        return d
    if isinstance(instr, CondJump):
        d = DOp(K_CONDJUMP, instr)
        d.feu = instr.bank == "f"
        d.sense = instr.sense
        d.target = program.label_index[instr.target]
        return d
    if isinstance(instr, JumpStreamNotDone):
        d = DOp(K_JNI, instr)
        d.key = (instr.fifo.bank, instr.fifo.index, instr.kind)
        d.target = program.label_index[instr.target]
        return d
    if isinstance(instr, Call):
        d = DOp(K_CALL, instr)
        d.target = program.entry_of[instr.func]
        d.link = _link_op(instr, pc + 1)
        return d
    if isinstance(instr, Ret):
        return DOp(K_RET, instr)
    if unit_of(instr) == "CVT":
        return _decode_cvt(instr)
    return _decode_execute(instr)


def _decode_cvt(instr: Assign) -> DOp:
    d = DOp(K_CVT, instr)
    src = instr.src
    assert isinstance(src, UnOp) and src.op in CVT_OPS
    d.d2i = src.op == "d2i"
    src_bank = "f" if d.d2i else "r"
    operand = src.operand
    if isinstance(operand, Reg):
        d.ev = _compile_expr(operand, src_bank)
    else:
        d.ev = _raiser(f"cannot evaluate conversion operand {operand!r}")
    d.needs = _fifo_needs([operand], src_bank)
    _decode_dst(d, instr.dst)
    d.conv = _cvt_conv(d.d2i, d.dst_bank)
    return d


def _decode_execute(instr) -> DOp:
    d = _classify_execute(instr)
    d.exe = _execute_closure(d)
    return d


def _classify_execute(instr) -> DOp:
    d = DOp(K_EXEC, instr)
    unit = unit_of(instr)
    if unit == "SCU":
        unit = "IEU"  # stream instructions execute on the IEU in order
    d.feu = unit == "FEU"
    bank = "f" if d.feu else "r"
    if isinstance(instr, Compare):
        d.ekind = E_COMPARE
        d.needs = _fifo_needs([instr.left, instr.right], bank)
        d.ev = _compile_compare(instr)
        return d
    if isinstance(instr, WMLoadIssue):
        d.ekind = E_LOAD
        d.needs = _fifo_needs([instr.addr], bank)
        d.ev = _compile_expr(instr.addr, bank)
        d.width = instr.width
        d.fp = instr.fp
        d.signed = instr.signed
        d.fifo_key = (instr.bank, 0)
        return d
    if isinstance(instr, WMStoreIssue):
        d.ekind = E_STORE
        d.needs = _fifo_needs([instr.addr], bank)
        d.ev = _compile_expr(instr.addr, bank)
        d.width = instr.width
        d.fp = instr.fp
        d.fifo_key = (instr.bank, 0)
        return d
    if isinstance(instr, (StreamIn, StreamOut)):
        kind = "in" if isinstance(instr, StreamIn) else "out"
        d.ekind = E_SIN if kind == "in" else E_SOUT
        d.stream_key = (instr.fifo.bank, instr.fifo.index, kind)
        d.ev = _compile_expr(instr.base, bank)
        d.ev2 = None if instr.count is None \
            else _compile_expr(instr.count, bank)
        return d
    if isinstance(instr, StreamStop):
        d.ekind = E_SSTOP
        d.key = (instr.fifo.bank, instr.fifo.index, instr.kind)
        return d
    if isinstance(instr, Assign):
        d.ekind = E_ASSIGN
        d.needs = _fifo_needs([instr.src], bank)
        d.ev = _compile_expr(instr.src, bank)
        d.busy_extra = 1 if isinstance(instr.src, Sym) \
            else _cost_extra(instr.src, bank)
        _decode_dst(d, instr.dst)
        # _write_reg's coercion, unless the value is already of the
        # register's kind
        if d.dst_bank == "f":
            d.conv = None if _float_pure(instr.src) else float
        elif d.dst_bank == "r":
            d.conv = None if _int_pure(instr.src) else _to_int
        return d
    d.ekind = E_BAD
    return d


# -- module-level cache -------------------------------------------------------

def decode_module(module, loader) -> tuple:
    """Load + decode ``module``, caching ``(Program, [DOp])`` on it.

    The decoded form depends only on the instruction list, which is
    immutable once compilation has finished, so every simulation of the
    same module (any memory latency / port count / telemetry setting)
    shares one decode.
    """
    cached = getattr(module, "_decoded_cache", None)
    if cached is not None:
        return cached
    program = loader(module)
    cached = (program, decode_program(program))
    module._decoded_cache = cached
    return cached

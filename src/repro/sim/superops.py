"""Steady-state fast-forward for the plain fast path, replayed through
the decoded ops.

One engine accelerates :meth:`WMSimulator._run_fast` without touching
its bit-exact contract against the ``slow=True`` reference:

**Loop plans.**  Every eligible innermost JNI-closed loop gets a
*plan*, built once per decoded program and cached on the module beside
the decode cache (``module._superop_cache``): the loop's span, the
registers that advance linearly, and the FIFOs its body pops, pushes
and claims stores on.  Building it marks the loop's back edge
(``DOp.ff``), which is how the fast loop finds the engine.  Telemetry,
profile and fault runs never build an engine: those need per-cycle
observation, and a fault plan forces the reference loop outright.
Neither do runs with ``superops=False`` or ``fast_forward=False``.

**Replay.**  Inside a fast-forward window the engine runs the body's
ops through the evaluators decode already built for them
(``DOp.ev``, then the write's ``DOp.conv``): the units' register files
are the replay's register lists, FIFO pops come from lazy pullers along
the stream cursors, and symbols resolve in the real memory's layout.
The replay stores each value to its register, CC flag, out-FIFO or
store claim and records every mutation in an undo list.  It computes
exactly the values the interpreter would, in the same order, but
carries no cycle accounting; nothing outside a window runs it.

**Steady-state fast-forward.**  At every taken JNI back edge of an
eligible loop the engine snapshots a *boundary fingerprint*, split in
three:

* **T** (timing state): pc, the integer register file minus the
  designated linear registers, CC-FIFO contents, unit queue
  composition and relative busy times, FIFO occupancy structure,
  claim/stream/store-buffer structure, and relative memory due times.
  T must repeat exactly with the period.
* **LIN** (linear state): the cycle, instruction/memory/stream
  counters, stream cursors (address / remaining / JNI counter), store
  claim addresses and reservation credits.  LIN must advance by a
  constant per-period delta vector.
* **data** (everything else: FP registers, FIFO element values,
  in-flight read values).  Data is *not* required to be periodic — it
  is recomputed exactly by replaying the window.

Static eligibility guarantees data cannot influence timing: no FP
compares or FP conditional jumps, no ``d2i``, no integer divide or
modulo and no FP divide (traps), no loads, no integer-FIFO pops, no
stream (re)activation or stop inside the body, forward-only branches.
Under those bans the timing state evolves independently of data
values, so two verified consecutive period pairs with equal LIN deltas
extend by induction: each of the next ``n`` periods takes exactly
``C`` cycles and moves every LIN slot by its delta.

**The boundary cut is mid-pipeline.**  A boundary is observed at the
end of the cycle whose IFU tick took the back edge — by which point
the IFU has usually run on into the next iteration (free control ops,
inline conversions, at most one dispatched op), and the unit queues
may hold dispatched-but-unexecuted ops from earlier iterations.  The
replay aligns to that cut exactly:

* at entry it first executes the queued ops (per unit, in order —
  sound because the register banks are unit-private and conversions
  synchronize on empty queues), then runs the *rest* of the current
  iteration from the boundary pc;
* whole iterations in between replay the same way, the undo list
  cleared after each;
* the final stretch keeps undo recording, finishing with the next
  iteration's prefix up to the boundary pc, and then *undoes* the
  trailing ops of each unit that the real machine would still hold in
  its queue — reproducing the mid-pipeline register/FIFO image
  bit-exactly.

An advance is all-or-nothing: memory writes are collected in a journal
(address-disjoint across sources, order-preserved within one) and
applied only after every exit check passes — a failed replay leaves
the simulator completely untouched and the loop falls back to the
interpreter.  De-opt is conservative: the window stops
``MARGIN_ITERS`` iterations short of any stream/JNI exhaustion and two
periods short of the cycle limit, and anything unexpected (occupancy
drift, range trap, counter mismatch, unmodelable queue contents)
abandons fast-forward for the loop.

Per-run warm hints: the first verified advance stores the *earliest*
periodic boundary's full fingerprint (T + LIN + data), keyed by the
simulator parameters that influence timing.  A later plain run of the
same module — deterministically the same trajectory — matches it after
a handful of iterations and advances immediately, which is what makes
repeated benchmark runs cheap.  A loop given up on before any advance
was tried (no period within ``MAX_BOUNDARIES`` fingerprints, or a
boundary state the engine cannot fingerprint) is remembered the same
way, and a later run skips its boundaries from the start.

Equivalence discipline: ``SimResult`` (value, cycles, counters, data
segment) from a fast-forwarded run must be bit-identical to the
reference; ``tests/test_superops.py`` and the differential fuzzer
(``fastforward-mismatch`` findings) enforce it.
"""

from __future__ import annotations

import struct
from collections import deque
from types import SimpleNamespace
from typing import Optional

from ..ir.interp import DATA_BASE
from ..rtl.expr import BinOp, Imm, Reg, Sym, UnOp
from .decode import (
    _CMP, _INT_BIN, E_ASSIGN, E_COMPARE, E_STORE,
    K_CONDJUMP, K_CVT, K_EXEC, K_JNI, K_JUMP, K_LABEL,
)
from .loopmap import loop_map_for

__all__ = ["LoopPlan", "SuperopCache", "FFEngine", "superop_cache_for",
           "MARGIN_ITERS", "MAX_PERIOD"]

#: iterations left un-forwarded before any stream/JNI exhaustion
MARGIN_ITERS = 2
#: boundary fingerprints kept per loop before giving up on a period
MAX_BOUNDARIES = 220
#: longest boundary period the detector will match
MAX_PERIOD = 64
#: the hint of a loop given up on before any advance was tried
_GAVE_UP = object()
#: fewest whole iterations run op-by-op (with undo recording) at window
#: end; a deeper unit-queue backlog at the cut lengthens the stretch
STRETCH_BODIES = 2

#: operators a replayed operand may apply: those that cannot trap
_INT_OPS = frozenset(_INT_BIN) - {"/", "%"}
_FP_OPS = frozenset({"+", "-", "*"})
_UN_OPS = frozenset({"neg", "not", "sext8"})


class _Reject(Exception):
    """Loop not eligible for fast-forward."""


class _Bail(Exception):
    """Replay left the proven-periodic envelope; abandon the advance."""


class LoopPlan:
    """Static analysis of one eligible loop."""

    __slots__ = ("header", "end", "jni_key", "lin_regs", "eq_index",
                 "pop_keys", "push_keys", "store_keys", "dop_index")

    def __init__(self, header: int, end: int, jni_key) -> None:
        self.header = header
        self.end = end
        self.jni_key = jni_key
        self.lin_regs: tuple = ()
        self.eq_index: tuple = ()
        self.pop_keys: frozenset = frozenset()
        self.push_keys: frozenset = frozenset()
        self.store_keys: frozenset = frozenset()
        #: id(DOp) -> pc for the body, to place queued ops at the cut
        self.dop_index: dict = {}


def _analyze_loop(dops, info, globals_base) -> Optional[LoopPlan]:
    header, end = info.header, info.end
    d_end = dops[end]
    if d_end.kind != K_JNI or d_end.target != header:
        return None
    try:
        return _build_plan(dops, header, end, d_end.key, globals_base)
    except _Reject:
        return None


def _build_plan(dops, header, end, jni_key, globals_base) -> LoopPlan:
    plan = LoopPlan(header, end, jni_key)

    # -- eligibility + register classification -------------------------------
    linear_writes: dict = {}      # reg index -> every write is r +/- Imm
    compare_reads: set = set()
    pops: set = set()
    pushes: set = set()
    stores: set = set()
    for i in range(header, end):
        d = dops[i]
        kind = d.kind
        if kind == K_LABEL:
            continue
        if kind == K_JUMP:
            if not (i < d.target <= end):
                raise _Reject("jump leaves the loop body")
            continue
        if kind == K_CONDJUMP:
            if d.feu:
                raise _Reject("fp condition feeds timing state")
            if not (i < d.target <= end):
                raise _Reject("conditional branch exits the body")
            continue
        if kind == K_CVT:
            if d.d2i:
                raise _Reject("d2i may trap")
            if d.needs:
                raise _Reject("conversion pops a FIFO")
            _check_operand(d.instr.src.operand, "r", globals_base, pops)
        elif kind != K_EXEC:
            raise _Reject("call/ret/jni inside the body")
        elif d.ekind == E_ASSIGN:
            if d.dst_bank == "r":
                src = d.instr.src
                linear = (isinstance(src, BinOp) and src.op in ("+", "-")
                          and isinstance(src.left, Reg)
                          and src.left.bank == "r"
                          and src.left.index == d.dst_index
                          and isinstance(src.right, Imm))
                prev = linear_writes.get(d.dst_index, True)
                linear_writes[d.dst_index] = prev and linear
            _check_operand(d.instr.src, "f" if d.feu else "r",
                           globals_base, pops)
        elif d.ekind == E_COMPARE:
            if d.feu:
                raise _Reject("fp compare feeds timing state")
            if d.needs:
                raise _Reject("FIFO pop feeds a compare")
            instr = d.instr
            if instr.op not in _CMP:
                raise _Reject(f"compare operator {instr.op}")
            for side in (instr.left, instr.right):
                _check_operand(side, "r", globals_base, pops)
                compare_reads.update(_walk_int_regs(side))
            continue
        elif d.ekind == E_STORE:
            if d.needs:
                raise _Reject("FIFO pop feeds a store address")
            _check_operand(d.instr.addr, "f" if d.feu else "r",
                           globals_base, pops)
            stores.add(d.fifo_key)
            continue
        else:
            raise _Reject("load/stream op inside the body")
        if d.fifo_key is not None:
            pushes.add(d.fifo_key)

    # Linear registers advance by a constant per iteration and may grow
    # without bound; everything a compare reads must instead be exactly
    # value-periodic (it steers control flow, i.e. timing).
    lin = {r for r, ok in linear_writes.items() if ok} - compare_reads
    plan.lin_regs = tuple(sorted(lin))
    plan.eq_index = tuple(i for i in range(32) if i not in lin)
    plan.pop_keys = frozenset(pops)
    plan.push_keys = frozenset(pushes)
    plan.store_keys = frozenset(stores)
    plan.dop_index = {id(dops[i]): i for i in range(header, end)}
    return plan


def _check_operand(expr, bank: str, globals_base, pops: set) -> None:
    """Reject an operand whose value could trap or feed timing state:
    a cross-bank register read, an integer-FIFO pop, an unknown symbol,
    an operator outside the non-trapping sets, or a node that is not
    Imm, Reg, Sym, BinOp or UnOp.  Collects the FP FIFOs it pops."""
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Reg):
            if node.bank != bank:
                raise _Reject("cross-bank register read")
            if node.index in (0, 1):
                if bank != "f":
                    raise _Reject("integer FIFO pop feeds timing state")
                pops.add((bank, node.index))
        elif isinstance(node, Sym):
            if node.name not in globals_base:
                raise _Reject(f"unknown symbol {node.name!r}")
        elif isinstance(node, BinOp):
            if node.op not in (_FP_OPS if bank == "f" else _INT_OPS):
                raise _Reject(f"operator {node.op} may trap")
            stack.append(node.right)
            stack.append(node.left)
        elif isinstance(node, UnOp):
            if node.op not in _UN_OPS:
                raise _Reject(f"unary operator {node.op}")
            stack.append(node.operand)
        elif not isinstance(node, Imm):
            raise _Reject(f"cannot replay {node!r}")


def _walk_int_regs(expr):
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Reg):
            if node.bank == "r" and node.index not in (0, 1, 31):
                yield node.index
        elif isinstance(node, BinOp):
            stack.append(node.right)
            stack.append(node.left)
        elif isinstance(node, UnOp):
            stack.append(node.operand)


# ------------------------------------------------------------- module cache --

class SuperopCache:
    """Per-module loop plans + per-parameter fast-forward hints.

    Lives on the RtlModule as ``_superop_cache``, beside the decode and
    loop-map caches.  ``plans`` belong to one decoded program (``dops``,
    whose back edges they mark) and the module's data layout; ``hints``
    is keyed by every simulator parameter that influences timing, so a
    hint can never leak between configurations."""

    def __init__(self, dops, plans: dict) -> None:
        self.dops = dops
        self.plans = plans            # back-edge pc -> LoopPlan
        #: params key -> {back-edge pc: _Hint or _GAVE_UP}
        self.hints: dict = {}
        #: the most recent plain run's per-loop coverage, keyed by loop
        #: header: windows advanced (iterations, cycles, period) and
        #: windows whose replay was rejected
        self.last_ff_stats: dict = {}


def superop_cache_for(sim) -> Optional[SuperopCache]:
    module = sim.module
    dops = sim._dops
    cache = getattr(module, "_superop_cache", None)
    if cache is None or cache.dops is not dops:
        loopmap = loop_map_for(module, sim.program, dops)
        loops = loopmap.loops[1:]
        plans = {}
        for info in loops:
            if any(other.parent == info.lid for other in loops):
                continue              # not innermost
            plan = _analyze_loop(dops, info, sim.memory.globals_base)
            if plan is not None:
                plans[plan.end] = plan
                dops[plan.end].ff = plan
        cache = SuperopCache(dops, plans)
        module._superop_cache = cache
    return cache if cache.plans else None


# --------------------------------------------------------------- the engine --

class _LoopState:
    __slots__ = ("plan", "boundaries", "by_hash", "count", "done",
                 "tried", "advanced", "windows", "period", "cycles",
                 "rejected")

    def __init__(self, plan: LoopPlan) -> None:
        self.plan = plan
        self.boundaries: list = []    # (T, LIN, data) per taken back edge
        self.by_hash: dict = {}       # hash(T) -> [boundary indices]
        self.count = 0
        self.done = False
        self.tried = False            # an advance was attempted
        self.advanced = 0             # iterations skipped analytically
        self.windows = 0
        self.period = 0
        self.cycles = 0
        self.rejected = 0             # windows whose replay failed


class _Hint:
    __slots__ = ("index", "T", "lin", "data", "period", "deltas")

    def __init__(self, index, T, lin, data, period, deltas) -> None:
        self.index = index
        self.T = T
        self.lin = lin
        self.data = data
        self.period = period
        self.deltas = deltas


class _Puller:
    """Lazy in-FIFO source for replay: buffered + in-flight values
    first, then fresh element reads along the stream cursor."""

    __slots__ = ("buf", "addr", "stride", "width", "fp", "remaining",
                 "fresh", "sink", "_read")

    def __init__(self, buf, stream, read_value) -> None:
        self.buf = buf
        self.addr = stream.addr
        self.stride = stream.stride
        self.width = stream.width
        self.fp = stream.fp
        self.remaining = stream.remaining
        self.fresh = 0
        self.sink = None              # undo sink during the stretch
        self._read = read_value

    def settle(self, issues: int) -> None:
        """Land the cursor on exactly ``issues`` fresh elements.  Ops
        undone at the cut may have pulled elements the stream issues
        only after the landing boundary; being the newest reads, they
        sit at the back of the buffer and are dropped again."""
        while self.fresh < issues:
            self.pull_fresh()
        while self.fresh > issues:
            if not self.buf:
                raise _Bail()
            self.buf.pop()
            self.addr -= self.stride
            if self.remaining is not None:
                self.remaining += 1
            self.fresh -= 1

    def pop(self):
        if not self.buf:
            self.pull_fresh()
        value = self.buf.popleft()
        if self.sink is not None:
            self.sink.append(("l", self.buf, value))
        return value

    def pull_fresh(self) -> None:
        if self.remaining is not None and self.remaining <= 0:
            raise _Bail()
        # signed=True exactly as _tick_stream_in issues its reads
        self.buf.append(self._read(self.addr, self.width, self.fp, True))
        self.addr += self.stride
        if self.remaining is not None:
            self.remaining -= 1
        self.fresh += 1


class FFEngine:
    """Per-run fast-forward driver for the plain fast loop."""

    def __init__(self, sim, cache: SuperopCache) -> None:
        self.sim = sim
        self.cache = cache
        self.loops: dict = {}
        self.params_key = (sim.memory.size, sim.memory.latency,
                           sim.memory.ports,
                           sim.in_fifos[("f", 0)].capacity)
        self.stats: dict = {}
        cache.last_ff_stats = self.stats

    # ------------------------------------------------------------- boundary --
    def on_boundary(self, plan: LoopPlan) -> None:
        st = self.loops.get(plan.end)
        if st is None:
            st = self.loops[plan.end] = _LoopState(plan)
            hints = self.cache.hints.get(self.params_key)
            st.done = hints is not None and hints.get(plan.end) is _GAVE_UP
        if st.done:
            return
        st.count += 1
        fp = self._fingerprint(plan) if st.count <= MAX_BOUNDARIES \
            else None
        if fp is None:
            st.done = True
            if not st.tried:
                # Fingerprints alone decided it, and they do not depend
                # on the cycle limit: a run with the same parameters
                # would take them all again for nothing.
                self.cache.hints.setdefault(self.params_key, {}) \
                    .setdefault(plan.end, _GAVE_UP)
            return
        T, lin = fp
        data = self._data_fp()
        index = len(st.boundaries)
        st.boundaries.append((T, lin, data))

        # Warm path: a previous identical run (same module + parameters
        # means deterministically the same trajectory) pinned its
        # earliest periodic boundary; a full-state match lets this run
        # advance right there, long before cold detection could.
        hints = self.cache.hints.get(self.params_key)
        hint = hints.get(plan.end) if hints else None
        if hint is not None and index == hint.index and T == hint.T \
                and lin == hint.lin and data == hint.data:
            if self._advance(plan, st, hint.period, hint.deltas) or st.done:
                return

        # Cold path: a period candidate is a same-T earlier boundary;
        # verified when two consecutive period pairs have identical
        # LIN delta vectors with positive cycle motion.
        h = hash(T)
        prior = st.by_hash.get(h)
        if prior is not None:
            for j in reversed(prior[-6:]):
                p = index - j
                if p > MAX_PERIOD:
                    break
                jj = j - p
                if jj < 0:
                    continue
                T1, lin1, _data1 = st.boundaries[j]
                if T1 != T:
                    continue
                T0, lin0, _data0 = st.boundaries[jj]
                if T0 != T:
                    continue
                d1 = tuple(b - a for a, b in zip(lin0, lin1))
                d2 = tuple(b - a for a, b in zip(lin1, lin))
                if d1 != d2 or d2[0] <= 0:
                    continue
                if self._advance(plan, st, p, d2, hint_at=jj):
                    return
                break
        st.by_hash.setdefault(h, []).append(index)

    # ---------------------------------------------------------- fingerprint --
    def _fingerprint(self, plan: LoopPlan):
        """(T, LIN) at this boundary, or None if the machine holds state
        the engine cannot prove periodic / reconstruct (scalar loads in
        flight, open-ended streams, FEU flags pending)."""
        sim = self.sim
        cyc = sim.cycle
        ieu, feu = sim.ieu, sim.feu
        if feu.cc_fifo:
            return None
        regs = ieu.regs
        lin = [cyc, sim.dispatched, ieu.executed, feu.executed,
               sim.memory.reads, sim.memory.writes, sim.stream_elements,
               sim._progress_cycle]
        lin.extend(regs[i] for i in plan.lin_regs)
        t: list = [plan.end, sim.pc,
                   tuple(regs[i] for i in plan.eq_index),
                   tuple(ieu.cc_fifo),
                   max(ieu.busy_until - cyc, 0),
                   max(feu.busy_until - cyc, 0),
                   _queue_sig(ieu.queue), _queue_sig(feu.queue)]
        streams = sim.streams
        state_key = {}
        for key in sorted(streams):
            s = streams[key]
            if s.active and s.remaining is None:
                return None           # open-ended stream: never forward
            t.append((key, s.kind, s.active, s.stride, s.width, s.fp,
                      s.inflight))
            lin.append(s.addr)
            lin.append(s.remaining or 0)
            lin.append(s.jni_counter or 0)
            state_key[id(s)] = key
        for key in sorted(sim.in_fifos):
            fifo = sim.in_fifos[key]
            fifo._advance()
            t.append((key, tuple((len(src.buffer), src.closed,
                                  src.quota is None)
                                 for src in fifo._sources)))
            lin.extend((src.quota - src.delivered)
                       if src.quota is not None else 0
                       for src in fifo._sources)
        for key in sorted(sim.out_fifos):
            t.append((key, len(sim.out_fifos[key]._data)))
        for key in sorted(sim.out_claims):
            sig = []
            for claim in sim.out_claims[key]:
                if claim[0] == "stream":
                    sig.append("o")
                else:
                    sig.append(("s", claim[2], claim[3]))
                    lin.append(claim[1])
            t.append((key, tuple(sig)))
        t.append(tuple(key for key, _claim in sim.store_buffer))
        inflight_sig = []
        for due, cb, _value in sim.memory._inflight:
            owner = getattr(cb, "__defaults__", None)
            if not owner or id(owner[0]) not in state_key:
                return None           # scalar load (or unknown) in flight
            inflight_sig.append((due - cyc, state_key[id(owner[0])]))
        t.append(tuple(inflight_sig))
        return tuple(t), tuple(lin)

    def _data_fp(self) -> tuple:
        sim = self.sim
        data: list = [tuple(sim.feu.regs)]
        for key in sorted(sim.in_fifos):
            for src in sim.in_fifos[key]._sources:
                data.append(tuple(src.buffer))
        for key in sorted(sim.out_fifos):
            data.append(tuple(sim.out_fifos[key]._data))
        data.append(tuple(v for _due, _cb, v in sim.memory._inflight))
        return tuple(data)

    def _stream_base(self, plan: LoopPlan) -> dict:
        """Stream key -> LIN vector position of its (addr, remaining,
        jni) triple; mirrors _fingerprint's append order exactly."""
        pos = 8 + len(plan.lin_regs)
        base = {}
        for key in sorted(self.sim.streams):
            base[key] = pos
            pos += 3
        return base

    # -------------------------------------------------------------- advance --
    def _advance(self, plan: LoopPlan, st: _LoopState, period: int,
                 deltas: tuple, hint_at: Optional[int] = None) -> bool:
        sim = self.sim
        st.tried = True
        C = deltas[0]
        if C <= 0:
            return False
        stream_base = self._stream_base(plan)

        # Window size: whole periods, every counter kept clear of
        # exhaustion (MARGIN_ITERS floor) and two periods of cycle
        # headroom so a cycle-limit raise happens interpreted.
        n = (sim.max_cycles - sim.cycle - 2 * C) // C
        for key in sorted(sim.streams):
            s = sim.streams[key]
            base = stream_base[key]
            d_rem = deltas[base + 1]
            d_jni = deltas[base + 2]
            if d_rem > 0 or d_jni > 0:
                return False          # counters only ever decrease
            if d_jni:
                avail = ((s.jni_counter or 0) - MARGIN_ITERS) // -d_jni
                if avail < n:
                    n = avail
            if d_rem and s.remaining is not None:
                # landing remaining stays >= 2: the >0 threshold the
                # prefetcher tests is never crossed inside the window
                avail = (s.remaining - 2) // -d_rem
                if avail < n:
                    n = avail
            moving = bool(deltas[base] or d_rem or d_jni)
            if not s.active:
                if moving:
                    return False
                continue
            known = (s.kind == "in"
                     and (s.bank, s.index) in plan.pop_keys) or \
                    (s.kind == "out"
                     and (s.bank, s.index) in plan.push_keys)
            if not known and (moving or (s.kind == "in" and s.inflight)):
                return False          # a stream the replay cannot model
        if n < 1 or n * period < 2:
            return False

        # Range guards: every moving stream stays in bounds across the
        # window, and moving in-stream read windows never overlap
        # out-stream write windows (a read could otherwise observe a
        # journaled-but-deferred write).  Loops mixing in-streams with
        # scalar stores are rejected outright for the same reason.
        mem = sim.memory
        in_ranges, out_ranges = [], []
        for key in sorted(sim.streams):
            s = sim.streams[key]
            d_rem = deltas[stream_base[key] + 1]
            if not s.active or not d_rem:
                continue
            elements = -d_rem * n
            first = s.addr
            last = s.addr + s.stride * (elements - 1)
            lo = min(first, last)
            hi = max(first, last) + s.width
            try:
                mem._check(lo, hi - lo)
            except Exception:
                return False
            (in_ranges if s.kind == "in" else out_ranges).append((lo, hi))
        for ilo, ihi in in_ranges:
            for olo, ohi in out_ranges:
                if ilo < ohi and olo < ihi:
                    return False
        if in_ranges and plan.store_keys:
            return False
        for key in plan.store_keys:
            for claim in sim.out_claims[key]:
                if claim[0] == "stream":
                    return False      # mixed store/stream drain order

        committed = self._replay(plan, st, period, n, deltas, stream_base)
        if not committed:
            # Replaying costs as much as the window's iterations; one
            # that failed would fail again, so the loop runs interpreted.
            st.rejected += 1
            st.done = True
            self._record(plan, st)
        elif hint_at is not None:
            T0, lin0, data0 = st.boundaries[hint_at]
            self.cache.hints.setdefault(self.params_key, {})[plan.end] = \
                _Hint(hint_at, T0, lin0, data0, period, deltas)
        return committed

    def _record(self, plan: LoopPlan, st: _LoopState) -> None:
        self.stats[plan.header] = {
            "header": plan.header, "iterations": st.advanced,
            "windows": st.windows, "period": st.period,
            "cycles": st.cycles, "rejected": st.rejected,
        }

    # --------------------------------------------------------------- replay --
    def _replay(self, plan: LoopPlan, st: _LoopState, period: int,
                n: int, deltas: tuple, stream_base: dict) -> bool:
        """Execute the window's ``n * period`` iterations on
        materialized state, phase-aligned to the mid-pipeline boundary
        cut, then commit the closed-form advance.  All-or-nothing: the
        journal is applied only after every exit check passes, so a
        False return leaves the simulator completely untouched."""
        sim = self.sim
        dops = sim._dops
        mem = sim.memory
        total = n * period

        # Queued-but-unexecuted ops at the cut, per unit, in order.
        # Anything that is not a body DOp (link writes, prologue
        # leftovers) makes the cut unreconstructable.
        dop_index = plan.dop_index
        pend_ieu: list = []
        pend_feu: list = []
        for queue, pend in ((sim.ieu.queue, pend_ieu),
                            (sim.feu.queue, pend_feu)):
            for item in queue:
                idx = dop_index.get(id(item))
                if idx is None:
                    return False
                pend.append(idx)
        entry_pc = sim.pc
        if not plan.header <= entry_pc <= plan.end:
            return False

        R = list(sim.ieu.regs)
        F = list(sim.feu.regs)
        ccr = deque(sim.ieu.cc_fifo)
        U: list = []

        # In-FIFO pullers: visible buffer, then in-flight values in
        # issue order, then fresh reads along the stream cursor.
        inflight_values: dict = {}
        for _due, cb, value in mem._inflight:
            owner = cb.__defaults__
            inflight_values.setdefault(id(owner[0]), []).append(value)
        pullers: dict = {}
        for key in sorted(plan.pop_keys):
            fifo = sim.in_fifos[key]
            if len(fifo._sources) != 1:
                return False
            res = fifo._sources[0]
            stream = sim.streams.get((key[0], key[1], "in"))
            if stream is None or not stream.active or res.closed \
                    or res.quota is None or stream.reservation is not res:
                return False
            buf = deque(res.buffer)
            buf.extend(inflight_values.get(id(stream), ()))
            puller = _Puller(buf, stream, mem.read_value)
            pullers[key] = (puller, res, stream, len(res.buffer),
                            len(buf))
        pulled_ids = {id(entry[2]) for entry in pullers.values()}
        for sid in inflight_values:
            if sid not in pulled_ids:
                return False          # in-flight read we would orphan

        # Out FIFOs: local deques with the boundary occupancy as the
        # drain floor — per-period push == drain in steady state, so the
        # backlog shape survives every period (checked at the end).
        outs: dict = {}
        for key in sorted(plan.push_keys | plan.store_keys):
            fifo = sim.out_fifos[key]
            claims = [(c[1], c[2], c[3])
                      for c in sim.out_claims[key] if c[0] != "stream"]
            outs[key] = {
                "data": deque(fifo._data), "floor": len(fifo._data),
                "claims": deque(claims), "claim_floor": len(claims),
            }
        out_streams: dict = {}
        for skey in sorted(sim.streams):
            s = sim.streams[skey]
            if s.kind != "out" or not s.active:
                continue
            key = (s.bank, s.index)
            if key not in outs:
                continue
            claims = sim.out_claims[key]
            if not claims or claims[0][0] != "stream" or \
                    claims[0][1] is not s:
                return False
            out_streams[key] = {"stream": s, "addr": s.addr}

        step = _stepper(dops, R, F, ccr, U, mem,
                        {key: entry[0] for key, entry in pullers.items()},
                        outs)
        journal: list = []
        stretch = min(max(STRETCH_BODIES, len(pend_ieu), len(pend_feu)),
                      total - 1)
        try:
            # Entry: pending queued ops first (banks are unit-private
            # and conversions synchronize on empty queues, so per-unit
            # program order is the only order that matters), then the
            # rest of the current iteration from the boundary pc.
            for idx in pend_feu:
                step(idx)
            for idx in pend_ieu:
                step(idx)
            pc = entry_pc
            while pc >= 0:
                pc = step(pc)
            self._drain(outs, out_streams, journal)

            # Middle: whole iterations, nothing of which is undone, so
            # the undo list is cleared after each.  Draining once
            # afterwards is equivalent to draining every iteration:
            # pairing and cursor order are FIFO either way.
            header = plan.header
            for _ in range(total - 1 - stretch):
                pc = header
                while pc >= 0:
                    pc = step(pc)
                del U[:]
            self._drain(outs, out_streams, journal)

            # Final stretch: op-by-op with undo recording, ending with
            # the next iteration's prefix up to the cut, after which
            # the trailing ops of each unit are undone — they are the
            # ones the real machine still holds dispatched-but-
            # unexecuted at the landing boundary.  No draining here:
            # an undone push must never reach the journal.
            del U[:]
            for entry in pullers.values():
                entry[0].sink = U
            rec: list = []            # (unit, undo-start, undo-end)
            for body in range(stretch + 1):
                pc = plan.header
                while True:
                    if body == stretch and pc == entry_pc:
                        break         # reached the cut
                    d = dops[pc]
                    mark = len(U)
                    nxt = step(pc)
                    if d.kind == K_EXEC:
                        rec.append(("F" if d.feu else "I",
                                    mark, len(U)))
                    if nxt < 0:
                        if body == stretch:
                            raise _Bail()   # cut not on this path
                        break
                    pc = nxt
            for entry in pullers.values():
                entry[0].sink = None
            # The rightmost K_EXEC records per unit are the pending
            # ops: dispatch is in-order, so a unit's queue holds its
            # most recently dispatched ops, and a free op or inline
            # CVT after them could not have issued (the IFU would
            # stall on the non-empty queue / missing flag), so no
            # later mutation aliases the undone containers.
            undo_spans: list = []
            for unit, count in (("I", len(pend_ieu)),
                                ("F", len(pend_feu))):
                found = 0
                for j in range(len(rec) - 1, -1, -1):
                    if found == count:
                        break
                    if rec[j][0] == unit:
                        undo_spans.append(rec[j])
                        found += 1
                if found != count:
                    raise _Bail()
            for _unit, lo, hi in sorted(undo_spans,
                                        key=lambda span: -span[1]):
                for k in range(hi - 1, lo - 1, -1):
                    u = U[k]
                    tag = u[0]
                    if tag == "s":
                        u[1][u[2]] = u[3]
                    elif tag == "a":
                        u[1].pop()
                    else:
                        u[1].appendleft(u[2])
            self._drain(outs, out_streams, journal)
        except Exception:
            return False              # any surprise: advance abandoned

        # Exit checks: issue counts must land exactly on the closed form
        # and every occupancy must have returned to its boundary shape.
        for key, (puller, res, stream, entry_buf, entry_total) in \
                pullers.items():
            issues = -deltas[stream_base[(stream.bank, stream.index,
                                          "in")] + 1] * n
            try:
                puller.settle(issues)
            except _Bail:
                return False
            if len(puller.buf) != entry_total:
                return False
        for key, o in outs.items():
            if len(o["data"]) != o["floor"] or \
                    len(o["claims"]) != o["claim_floor"]:
                return False

        # Journal safety: overlapping writes are allowed only within
        # one source (whose internal order the journal preserves);
        # cross-source overlap would need the reference's cycle-level
        # interleaving.  Every address must also be in range — an
        # out-of-range store must trap interpreted, at its own cycle.
        spans: dict = {}
        mem_size = mem.size
        split = mem._dirty_split
        dirty_data = 0
        dirty_stack = mem_size
        for addr, width, _fp, _value, skey in journal:
            end = addr + width
            if addr < DATA_BASE or end > mem_size:
                return False
            if addr >= split:
                if addr < dirty_stack:
                    dirty_stack = addr
            elif end > dirty_data:
                dirty_data = end
            spans.setdefault(skey, []).append((addr, end))
        if len(spans) > 1:
            merged = []
            for skey, ranges in spans.items():
                ranges.sort()
                lo, hi = ranges[0]
                for rlo, rhi in ranges[1:]:
                    if rlo > hi:
                        merged.append((lo, hi, skey))
                        lo, hi = rlo, rhi
                    else:
                        hi = max(hi, rhi)
                merged.append((lo, hi, skey))
            merged.sort()
            for (alo, ahi, akey), (blo, bhi, bkey) in zip(merged,
                                                          merged[1:]):
                if blo < ahi and akey != bkey:
                    return False

        data = mem.data
        pack = struct.pack
        for addr, width, fp, value, _skey in journal:
            if fp:
                raw = pack("<d", float(value))
            elif width == 1:
                raw = pack("<B", int(value) & 0xFF)
            elif width == 2:
                raw = pack("<H", int(value) & 0xFFFF)
            else:
                raw = pack("<I", int(value) & 0xFFFFFFFF)
            data[addr:addr + width] = raw
        dirty = mem._dirty
        if dirty_data > dirty[0]:
            dirty[0] = dirty_data
        if dirty_stack < dirty[1]:
            dirty[1] = dirty_stack
        self._commit(plan, st, period, n, deltas, stream_base, R, F,
                     ccr, pullers, outs)
        return True

    @staticmethod
    def _drain(outs, out_streams, journal) -> None:
        """Drain each output FIFO down to its boundary floor: values to
        the draining out-stream's cursor, or paired FIFO-order with
        pending store claims.  Within a key this is the reference
        pairing (front claim, front value); cross-key apply order is
        covered by the journal's ownership check."""
        for key, o in outs.items():
            data = o["data"]
            floor = o["floor"]
            osd = out_streams.get(key)
            if osd is not None:
                s = osd["stream"]
                while len(data) > floor:
                    journal.append((osd["addr"], s.width, s.fp,
                                    data.popleft(), key))
                    osd["addr"] += s.stride
                continue
            claims = o["claims"]
            cfloor = o["claim_floor"]
            while len(claims) > cfloor and len(data) > floor:
                addr, width, fp = claims.popleft()
                journal.append((addr, width, fp, data.popleft(), key))

    # --------------------------------------------------------------- commit --
    def _commit(self, plan: LoopPlan, st: _LoopState, period: int,
                n: int, deltas: tuple, stream_base: dict, R, F, ccr,
                pullers, outs) -> None:
        sim = self.sim
        boundary_cycle = sim.cycle
        skipped_cycles = deltas[0] * n
        rel_ieu = max(sim.ieu.busy_until - boundary_cycle, 0)
        rel_feu = max(sim.feu.busy_until - boundary_cycle, 0)
        sim.cycle += skipped_cycles
        sim.dispatched += deltas[1] * n
        sim.ieu.executed += deltas[2] * n
        sim.feu.executed += deltas[3] * n
        sim.memory.reads += deltas[4] * n
        sim.memory.writes += deltas[5] * n
        sim.stream_elements += deltas[6] * n
        sim._progress_cycle += deltas[7] * n
        if rel_ieu:
            sim.ieu.busy_until = sim.cycle + rel_ieu
        if rel_feu:
            sim.feu.busy_until = sim.cycle + rel_feu

        sim.ieu.regs[:] = R
        sim.feu.regs[:] = F
        sim.ieu.cc_fifo.clear()
        sim.ieu.cc_fifo.extend(ccr)
        # Unit queues and pc are untouched: the landing cut holds the
        # same DOp objects pending (their replayed effects were undone
        # above) and the same in-iteration pc, so the interpreted tail
        # resumes exactly where a cycle-stepped machine would stand.

        # Stream cursors: replayed exactly for pulled in-streams, the
        # closed form for everything else (the exit checks proved they
        # agree where both apply).
        pulled_stream_keys = {(entry[2].bank, entry[2].index, "in")
                              for entry in pullers.values()}
        for key in sorted(sim.streams):
            s = sim.streams[key]
            base = stream_base[key]
            if s.jni_counter is not None:
                s.jni_counter += deltas[base + 2] * n
            if key in pulled_stream_keys:
                continue
            s.addr += deltas[base] * n
            if s.remaining is not None:
                s.remaining += deltas[base + 1] * n

        # In-FIFOs: the first slice of the surviving values is the
        # visible buffer; the tail re-enters flight with the boundary's
        # relative due times, preserving the original inter-stream
        # delivery order entry by entry.
        if pullers:
            by_stream_id = {}
            for key, (puller, res, stream, entry_buf, _total) in \
                    pullers.items():
                issues = -deltas[stream_base[(stream.bank, stream.index,
                                              "in")] + 1] * n
                res.delivered += issues
                buf = puller.buf
                visible = [buf.popleft() for _ in range(entry_buf)]
                res.buffer.clear()
                res.buffer.extend(visible)
                sim.in_fifos[key]._buffered = len(visible)
                stream.addr = puller.addr
                stream.remaining = puller.remaining
                by_stream_id[id(stream)] = buf
            rebuilt = deque()
            for due, cb, _value in sim.memory._inflight:
                tail = by_stream_id[id(cb.__defaults__[0])]
                rebuilt.append((due - boundary_cycle + sim.cycle, cb,
                                tail.popleft()))
            sim.memory._inflight.clear()
            sim.memory._inflight.extend(rebuilt)

        # Out FIFOs, store claims, and the store buffer (claim list
        # objects must stay shared between out_claims and store_buffer).
        for key, o in outs.items():
            fifo = sim.out_fifos[key]
            fifo._data.clear()
            fifo._data.extend(o["data"])
            claims = sim.out_claims[key]
            stream_claims = [c for c in claims if c[0] == "stream"]
            new_claims = [["store", addr, width, fp]
                          for addr, width, fp in o["claims"]]
            claims.clear()
            claims.extend(stream_claims)
            claims.extend(new_claims)
            if new_claims:
                fresh = iter(new_claims)
                rebuilt_sb = deque()
                for bkey, old in sim.store_buffer:
                    rebuilt_sb.append(
                        (bkey, next(fresh)) if bkey == key
                        else (bkey, old))
                sim.store_buffer.clear()
                sim.store_buffer.extend(rebuilt_sb)

        st.advanced += n * period
        st.windows += 1
        st.period = period
        st.cycles += skipped_cycles
        st.done = True                # the tail runs interpreted
        self._record(plan, st)


def _stepper(dops, R, F, ccr, U, memory, pullers, outs):
    """``step(pc) -> next pc`` (-1 at the back edge): run the body op
    at ``pc`` on the replay's state.  Values come from decode's
    evaluators, ``DOp.ev`` then ``DOp.conv``, on stand-ins for a unit
    (its register file is ``R`` or ``F``) and the simulator (its input
    FIFOs are the ``pullers``, its memory the real one, for symbols).
    Every mutation is recorded in ``U`` as an undo entry:
      ('s', seq, idx, old)  -> seq[idx] = old          (register write)
      ('a', deq)            -> deq.pop()               (append)
      ('l', deq, value)     -> deq.appendleft(value)   (a puller's pop)
    """
    units = (SimpleNamespace(regs=R), SimpleNamespace(regs=F))
    view = SimpleNamespace(in_fifos=pullers, memory=memory)
    regs = {"r": R, "f": F}
    pushes = {key: o["data"] for key, o in outs.items()}
    claims = {key: o["claims"] for key, o in outs.items()}

    def step(pc: int) -> int:
        d = dops[pc]
        kind = d.kind
        if kind == K_EXEC or kind == K_CVT:
            value = d.ev(units[d.feu], view)
            if d.conv is not None:
                value = d.conv(value)
            ekind = d.ekind           # E_BAD on a conversion
            if ekind == E_COMPARE:
                dst = ccr
            elif ekind == E_STORE:
                dst = claims[d.fifo_key]
                value = (value, d.width, d.fp)
            elif d.fifo_key is not None:
                dst = pushes[d.fifo_key]
            else:
                if d.dst_bank is not None:    # else the r31 sink
                    seq = regs[d.dst_bank]
                    index = d.dst_index
                    U.append(("s", seq, index, seq[index]))
                    seq[index] = value
                return pc + 1
            U.append(("a", dst))
            dst.append(value)
            return pc + 1
        if kind == K_LABEL:
            return pc + 1
        if kind == K_JUMP:
            return d.target
        if kind == K_CONDJUMP:
            # IFU-resident: never pending in a unit queue, so the
            # popleft needs no undo record (see the stretch undo)
            return d.target if ccr.popleft() == d.sense else pc + 1
        return -1                     # the JNI back edge
    return step


def _queue_sig(queue) -> tuple:
    # DOp identity is stable for a module (decode is cached, a call's
    # link write included), so id() is a sound per-process structural
    # signature.
    return tuple(map(id, queue))

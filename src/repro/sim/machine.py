"""Cycle-level simulator for the WM architecture.

Models the units the paper describes (and that its Table II measurement
relies on — "a simulator capable of determining exact cycle counts
(including memory delays)"):

* **IFU** — fetches/dispatches one instruction per cycle into per-unit
  queues; executes branches itself.  Unconditional jumps and labels are
  free; conditional jumps dequeue from the producing unit's
  condition-code FIFO (stalling while it is empty); ``JNIf`` jumps
  consult the stream state; cross-bank conversions synchronize the
  execution units.
* **IEU / FEU** — in-order execution from their queues, one instruction
  per cycle (multi-cycle costs for multiply/divide).  Register 0 (and 1
  when streaming) are FIFO queues: reading dequeues, writing enqueues;
  a unit stalls when input data has not arrived or the output FIFO is
  full.
* **SCU** — stream control units: after a ``SinD``/``SoutD`` is
  executed by the IEU (its base/count operands are integer registers),
  the SCU issues one memory request per stream per cycle, throttled by
  FIFO capacity and memory ports.
* **Memory** — fixed latency, limited ports; IEU requests are processed
  in issue order with a store buffer (loads wait for overlapping older
  stores).

Determinism: all intra-cycle ordering is fixed, and input-FIFO delivery
follows *reservation order* (the program order of the producing
instructions), so results are reproducible and comparable with the IR
reference interpreter.
"""

from __future__ import annotations

import weakref
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from ..ir.interp import c_div, c_rem, wrap32
from ..machine.wm import CVT_OPS, WMLoadIssue, WMStoreIssue, unit_of
from ..rtl.expr import BinOp, Expr, Imm, Mem, Reg, Sym, UnOp, VReg
from ..rtl.expr import walk as _walk
from ..rtl.instr import (
    Assign, Call, Compare, CondJump, Instr, Jump, JumpStreamNotDone, Label,
    Ret, StreamIn, StreamOut, StreamStop,
)
from ..rtl.module import RtlModule
from .decode import (
    _CMP, _INT_BIN, _OP_COST,
    K_CALL, K_CONDJUMP, K_CVT, K_EXEC, K_JNI, K_JUMP, K_LABEL, K_RET,
    decode_module,
)
from .errors import SimError
from .fifo import FifoError, InFifo, OutFifo, Reservation
from .loader import Program, load_program
from .loopmap import loop_map_for
from .memory import MemError, MemorySystem, SimMemoryView, _pool_release
from .superops import FFEngine, superop_cache_for
from .telemetry import CycleLedger, SimTelemetry, StreamStats

__all__ = ["WMSimulator", "SimResult", "SimError", "simulate"]

HALT_PC = -1

#: unit stall reason (repro.sim._stall) -> cycle-ledger cause
_STALL_CAUSE = {
    "operand-wait": "fifo-empty",
    "output-full": "fifo-full",
    "cc-full": "fifo-full",
    "memory-port": "memory-latency",
    "store-conflict": "memory-latency",
    "stream-drain": "memory-latency",
}

#: _run_observed unit-tick outcome -> telemetry status (any other
#: outcome is a stall, named by its reason)
_TICK_STATUS = {"idle": "idle", "busy": "busy", "retire": "busy"}


@dataclass
class SimResult:
    """Outcome of a simulated run."""

    value: object
    cycles: int
    instructions: int
    unit_instructions: dict[str, int]
    memory_reads: int
    memory_writes: int
    stream_elements: int
    #: final memory image; a view that pickles only the data segment
    memory: SimMemoryView
    globals_base: dict[str, int]
    #: per-unit/FIFO/stream attribution; None unless telemetry was on
    telemetry: Optional["SimTelemetry"] = None

    def global_bytes(self, name: str, size: int) -> bytes:
        base = self.globals_base[name]
        return bytes(self.memory[base:base + size])


# The operator tables (_INT_BIN / _CMP / _OP_COST) live in
# repro.sim.decode, where the pre-decoder builds closures over them;
# they are re-imported above so the reference path shares them.


class _StreamState:
    """One active (or announced) stream on a FIFO."""

    __slots__ = ("kind", "bank", "index", "addr", "count", "stride",
                 "width", "fp", "reservation", "remaining", "jni_counter",
                 "active", "inflight", "stats", "seq", "deliver")

    def __init__(self, kind: str, bank: str, index: int) -> None:
        self.stats = None  # StreamStats, telemetry runs only
        self.seq = 0       # global activation order (consistency interlock)
        self.kind = kind
        self.bank = bank
        self.index = index
        self.addr = 0
        self.count: Optional[int] = None
        self.stride = 0
        self.width = 8
        self.fp = True
        self.reservation: Optional[Reservation] = None
        self.remaining: Optional[int] = None
        self.jni_counter: Optional[int] = None
        self.active = False
        self.inflight = 0
        #: in-streams: the memory-completion callback of every element
        #: read (built once, at activation)
        self.deliver = None


class _Unit:
    """An in-order execution unit (IEU or FEU)."""

    def __init__(self, name: str, bank: str, queue_size: int = 12) -> None:
        self.name = name
        self.bank = bank
        self.queue: deque = deque()
        self.queue_size = queue_size
        self.regs: list = [0] * 32
        if bank == "f":
            self.regs = [0.0] * 32
        self.busy_until = 0
        self.executed = 0
        self.cc_fifo: deque = deque()

    def queue_full(self) -> bool:
        return len(self.queue) >= self.queue_size


class WMSimulator:
    """Executes a lowered WM RtlModule with cycle accounting."""

    def __init__(self, module: RtlModule, mem_size: int = 1 << 23,
                 mem_latency: int = 4, mem_ports: int = 2,
                 fifo_capacity: int = 8,
                 max_cycles: int = 500_000_000,
                 telemetry: bool = False,
                 profile: bool = False,
                 slow: bool = False,
                 fault_plan=None,
                 superops: bool = True,
                 fast_forward: bool = True) -> None:
        self.module = module
        #: slow=True runs the original tree-walking interpreter loop —
        #: the reference the decoded fast path is equivalence-tested
        #: against (tests/test_perf_equivalence.py)
        self.slow = slow
        #: a repro.qa.faults.FaultPlan (duck-typed: anything with an
        #: ``apply(sim, cycle)`` method).  Fault injection needs every
        #: cycle ticked — the stall fast-forward would jump over the
        #: chosen fire cycles — so a plan forces the reference loop.
        self.fault_plan = fault_plan
        if fault_plan is not None:
            self.slow = True
        self.program, self._dops = decode_module(module, load_program)
        self.memory = MemorySystem(module, size=mem_size,
                                   latency=mem_latency, ports=mem_ports)
        self.max_cycles = max_cycles
        self.telemetry: Optional[SimTelemetry] = None
        self._stall_reason: Optional[str] = None
        self._scu_active = False
        #: live-stream gate of the fast loops: set when a stream is
        #: activated, cleared by the SCU tick that finds none active
        #: (the SCU has nothing to do and no stream can conflict)
        self._scu_live = False
        #: _run_observed's FIFO levels this cycle (back-edge occupancy)
        self._levels: Optional[tuple] = None
        #: set by state changes that bypass _progress() (the infinite-
        #: stream dummy prefetch, FIFO pops by a load that then stalls);
        #: blocks fast-forward for the cycle
        self._activity = False
        if telemetry or profile:
            self.telemetry = SimTelemetry()
            self.memory.enable_region_stats()
        #: cycle ledger (profile=True): per-loop, per-cause attribution
        #: of every unit cycle, plus back-edge iteration tracking
        self._ledger: Optional[CycleLedger] = None
        self._loop_of: Optional[list] = None
        if profile:
            loopmap = loop_map_for(module, self.program, self._dops)
            self._ledger = CycleLedger(loopmap)
            self._loop_of = loopmap.loop_of
            self.telemetry.ledger = self._ledger
        self.ieu = _Unit("IEU", "r")
        self.feu = _Unit("FEU", "f")
        self.units = {"IEU": self.ieu, "FEU": self.feu}
        self.in_fifos = {
            ("r", 0): InFifo(fifo_capacity, "r0"),
            ("r", 1): InFifo(fifo_capacity, "r1"),
            ("f", 0): InFifo(fifo_capacity, "f0"),
            ("f", 1): InFifo(fifo_capacity, "f1"),
        }
        self.out_fifos = {
            ("r", 0): OutFifo(fifo_capacity, "r0.out"),
            ("r", 1): OutFifo(fifo_capacity, "r1.out"),
            ("f", 0): OutFifo(fifo_capacity, "f0.out"),
            ("f", 1): OutFifo(fifo_capacity, "f1.out"),
        }
        #: dispatch-order consumers of each output FIFO:
        #: ('store', [addr_or_None], width, fp) or ('stream', state)
        self.out_claims: dict[tuple, deque] = {key: deque()
                                               for key in self.out_fifos}
        self.streams: dict[tuple, _StreamState] = {}
        #: next stream activation sequence number (dispatch order)
        self._stream_seq = 0
        #: stream-instruction dispatch vs activation generations per FIFO,
        #: so a JNI never consults a stale stream from an earlier loop
        self._dispatch_gen: dict[tuple, int] = {}
        self._activate_gen: dict[tuple, int] = {}
        self.store_buffer: deque = deque()  # entries share out_claims refs
        self.cycle = 0
        self.dispatched = 0
        self.stream_elements = 0
        self._progress_cycle = 0
        # bootstrap
        self.pc = self.program.entry_index
        self.ieu.regs[29] = (mem_size - 64) & ~0xF
        self.ieu.regs[30] = HALT_PC
        self.halted = False
        #: fast-forward engine — plain fast runs only.  Telemetry,
        #: profile and fault runs observe per-cycle state, so they never
        #: replay (decode-cache keying: the plan cache marks dops, but
        #: only _run_fast reads the mark through an engine).
        #: ``superops=False`` and ``fast_forward=False`` both build none.
        self._ff = None
        self._ff_pending = None
        if superops and fast_forward and not self.slow and \
                self.telemetry is None:
            cache = superop_cache_for(self)
            if cache is not None:
                self._ff = FFEngine(self, cache)

    # ------------------------------------------------------------------ run --
    def run(self) -> SimResult:
        try:
            if self.slow:
                self._run_reference()
            elif self.telemetry is None:
                self._run_fast()
            else:
                self._run_observed()
        except FifoError as exc:
            # Surface FIFO capacity/protocol violations with the machine
            # state attached (kind 'fifo-overflow' / 'fifo-underflow' /
            # 'fifo-protocol'): the structured report is what the fault
            # harness and reproducer bundles key on.
            raise SimError(
                f"FIFO violation at cycle {self.cycle}: {exc}",
                kind=f"fifo-{exc.kind}", cycle=self.cycle, pc=self.pc,
                queues=self._queue_snapshot(), fifo=exc.fifo,
                capacity=exc.capacity) from exc
        return self._finish()

    def _queue_snapshot(self) -> dict:
        return {"IEU": len(self.ieu.queue), "FEU": len(self.feu.queue)}

    def _raise_cycle_limit(self) -> None:
        instr = self.program.instrs[self.pc] \
            if 0 <= self.pc < len(self.program.instrs) else None
        raise SimError(
            f"cycle limit exceeded at cycle {self.cycle} "
            f"(max_cycles={self.max_cycles}): pc={self.pc}"
            + (f" ({instr!r})" if instr is not None else "")
            + f", IEU queue={len(self.ieu.queue)}, "
            f"FEU queue={len(self.feu.queue)}",
            kind="cycle-limit", cycle=self.cycle, pc=self.pc,
            queues=self._queue_snapshot(), max_cycles=self.max_cycles)

    def _raise_deadlock(self) -> None:
        raise SimError(
            f"deadlock at cycle {self.cycle}: pc={self.pc}, "
            f"IEU queue={len(self.ieu.queue)}, "
            f"FEU queue={len(self.feu.queue)}",
            kind="deadlock", cycle=self.cycle, pc=self.pc,
            queues=self._queue_snapshot(), horizon=10_000,
            last_progress=self._progress_cycle)

    def _run_reference(self) -> None:
        """The original cycle loop: every cycle ticked, instructions
        interpreted from their RTL form.  Kept as the correctness
        reference for the decoded fast path (and as the only loop that
        supports fault injection — every cycle is observed)."""
        tel = self.telemetry
        faults = self.fault_plan
        while not self.halted:
            self.cycle += 1
            if self.cycle > self.max_cycles:
                self._raise_cycle_limit()
            if faults is not None:
                faults.apply(self, self.cycle)
            self.memory.begin_cycle()
            self.memory.tick(self.cycle)
            self._tick_store_buffer()
            self._tick_scu()
            if tel is None:
                self._tick_unit(self.feu)
                self._tick_unit(self.ieu)
            else:
                self._sample_telemetry(tel)
            self._tick_ifu()
            self._check_done()
            if self.cycle - self._progress_cycle > 10_000:
                self._raise_deadlock()

    def _finish(self) -> SimResult:
        if self._ff is not None:
            # Break the engine<->simulator reference cycle so a finished
            # run is reclaimed by refcounting alone; leaving it cyclic
            # feeds the GC ~350 objects per run, and the resulting
            # collection pauses dominate short-simulation timings.
            self._ff.sim = None
            self._ff = None
        for state in self.streams.values():
            state.deliver = None  # the state <-> callback cycle, likewise
        tel = self.telemetry
        if tel is not None:
            tel.cycles = self.cycle
            tel.mem_regions = self.memory.region_stats or {}
            for key, fifo in self.in_fifos.items():
                tel.fifo(fifo.name, fifo.capacity).high_water = \
                    fifo.high_water
            for key, fifo in self.out_fifos.items():
                tel.fifo(fifo.name, fifo.capacity).high_water = \
                    fifo.high_water
        ret_int = self.ieu.regs[2]
        view = SimMemoryView(self.memory.data, self.memory.data_end)
        # The view now owns the backing buffer: recycle it into the
        # memory-system pool once the result itself is garbage.
        weakref.finalize(view, _pool_release, self.memory.size,
                         self.memory.data, self.memory._dirty)
        return SimResult(
            value=ret_int,
            cycles=self.cycle,
            instructions=self.dispatched,
            unit_instructions={"IEU": self.ieu.executed,
                               "FEU": self.feu.executed},
            memory_reads=self.memory.reads,
            memory_writes=self.memory.writes,
            stream_elements=self.stream_elements,
            memory=view,
            globals_base=dict(self.memory.globals_base),
            telemetry=tel,
        )

    # ----------------------------------------------------------- fast path --
    #
    # The fast loops run the pre-decoded program (repro.sim.decode) and
    # fast-forward over stalls.  Soundness of the skip: a cycle in which
    # *nothing* changed (no memory delivery, no _progress, no PC motion,
    # no bypass activity) leaves the machine in exactly the state it
    # started in, so every following cycle is identical until the next
    # clock-sensitive event — a memory completion coming due or a
    # multi-cycle operation retiring.  The clock can therefore jump to
    # min(next event, deadlock horizon, cycle limit); clamping to the
    # latter two makes the error paths raise at the same cycle with the
    # same message as the ticked reference loop.

    def _next_event(self, cycle: int) -> int:
        target = self._progress_cycle + 10_001  # deadlock raise cycle
        due = self.memory.next_due()
        if due is not None and due < target:
            target = due
        feu = self.feu
        if feu.queue and cycle < feu.busy_until < target:
            target = feu.busy_until
        ieu = self.ieu
        if ieu.queue and cycle < ieu.busy_until < target:
            target = ieu.busy_until
        limit = self.max_cycles + 1  # cycle-limit raise cycle
        if limit < target:
            target = limit
        return target

    def _dispatch_route(self) -> list:
        """Per pc, the unit a plain dispatch sends the op to, or None
        where the IFU has more to do (control flow, conversions, stream
        ops and their dispatch generations).  One extra None entry
        serves ``route[HALT_PC]`` (index -1): a halted IFU."""
        feu, ieu = self.feu, self.ieu
        route = [(feu if d.feu else ieu)
                 if d.kind == K_EXEC and d.stream_key is None else None
                 for d in self._dops]
        route.append(None)
        return route

    def _run_fast(self) -> None:
        """The plain fast loop.  Per cycle it inlines what nearly
        always returns at once elsewhere: memory ticks only when a
        completion is due, the SCU only while a stream is live
        (``_scu_live``), each unit tick around its queue head's execute
        closure, plain dispatch without the IFU's control chain, and
        the halt check only at HALT_PC."""
        memory = self.memory
        inflight = memory._inflight
        feu = self.feu
        ieu = self.ieu
        fq = feu.queue
        iq = ieu.queue
        store_buffer = self.store_buffer
        max_cycles = self.max_cycles
        dops = self._dops
        route = self._dispatch_route()
        tick_ifu = self._tick_ifu_fast
        while not self.halted:
            cycle = self.cycle + 1
            self.cycle = cycle
            if cycle > max_cycles:
                self._raise_cycle_limit()
            memory._accepted_this_cycle = 0
            if inflight and inflight[0][0] <= cycle:
                memory.tick(cycle)
                delivered = True
            else:
                delivered = False
            self._activity = False
            if store_buffer:
                self._tick_store_buffer()
            if self._scu_live:
                self._tick_scu_fast()
            if fq and cycle >= feu.busy_until and \
                    fq[0].exe(feu, self) is None:
                fq.popleft()
                feu.executed += 1
                self._progress_cycle = cycle
            if iq and cycle >= ieu.busy_until and \
                    iq[0].exe(ieu, self) is None:
                iq.popleft()
                ieu.executed += 1
                self._progress_cycle = cycle
            pc = self.pc
            unit = route[pc]
            if unit is not None:
                queue = unit.queue
                if len(queue) < unit.queue_size:
                    queue.append(dops[pc])
                    self.pc = pc + 1
                    self.dispatched += 1
                    self._progress_cycle = cycle
                    continue  # progress: no halt, deadlock or skip
            else:
                tick_ifu()
                if self._ff_pending is not None:
                    # Taken JNI back edge of a loop with a replay plan:
                    # offer the boundary to the fast-forward engine.  A
                    # boundary cycle always made progress, so continuing
                    # is what the checks below would do anyway.
                    plan = self._ff_pending
                    self._ff_pending = None
                    self._ff.on_boundary(plan)
                    continue
                if self.pc == HALT_PC:
                    self._check_done()
            if cycle - self._progress_cycle > 10_000:
                self._raise_deadlock()
            if self.halted or delivered or \
                    self._progress_cycle == cycle or self._activity or \
                    self.pc != pc:
                continue
            target = self._next_event(cycle)
            if target > cycle + 1:
                self.cycle = target - 1

    def _run_observed(self) -> None:
        """The fast loop for telemetry and profile runs.

        It ticks cycles as _run_fast does.  Each ticked cycle folds
        what attribution needs into one key, counted in a local dict:
        the pre-IFU pc (loop id, idle cause), each unit's tick outcome
        ("idle", "busy", "retire" or the stall reason), the SCU cause
        and whether memory is busy.  A skip window adds its length to
        the skip-initiating cycle's key: nothing moves during a skip
        (no retire, no SCU transfer, no FIFO level or pc change), so
        the reference loop observes that key verbatim every cycle.
        The eight FIFO levels are read as one tuple; histograms and
        the ledger's counter tracks are charged only when it differs
        from the previous cycle's, and back edges read their occupancy
        from it (``_levels``).  _fill_observed turns the counts into
        the telemetry once, when the run ends, so
        ``telemetry.to_dict()`` equals the reference loop's per-cycle
        _sample_telemetry, whose attribution point (after the unit
        ticks, before the IFU tick) this loop shares.
        """
        memory = self.memory
        inflight = memory._inflight
        feu = self.feu
        ieu = self.ieu
        fq = feu.queue
        iq = ieu.queue
        store_buffer = self.store_buffer
        max_cycles = self.max_cycles
        dops = self._dops
        route = self._dispatch_route()
        tick_ifu = self._tick_ifu_fast
        ledger = self._ledger
        scu_cause = self._scu_cause if ledger is not None else None
        track = ledger.track_fifo if ledger is not None else None
        names = [fifo.name for fifo in self._fifo_order()]
        i0, i1, i2, i3 = self.in_fifos.values()
        o0, o1, o2, o3 = (fifo._data for fifo in self.out_fifos.values())
        counts: dict = {}
        runs: dict = {}    # FIFO levels -> cycles spent at them
        levels = None
        since = 1          # first cycle at ``levels``
        try:
            while not self.halted:
                cycle = self.cycle + 1
                self.cycle = cycle
                if cycle > max_cycles:
                    self._raise_cycle_limit()
                memory._accepted_this_cycle = 0
                if inflight and inflight[0][0] <= cycle:
                    memory.tick(cycle)
                    delivered = True
                else:
                    delivered = False
                self._activity = False
                if store_buffer:
                    self._tick_store_buffer()
                if self._scu_live:
                    self._tick_scu_fast()
                if not fq:
                    feu_obs = "idle"
                elif cycle < feu.busy_until:
                    feu_obs = "busy"
                else:
                    feu_obs = fq[0].exe(feu, self)
                    if feu_obs is None:
                        fq.popleft()
                        feu.executed += 1
                        self._progress_cycle = cycle
                        feu_obs = "retire"
                if not iq:
                    ieu_obs = "idle"
                elif cycle < ieu.busy_until:
                    ieu_obs = "busy"
                else:
                    ieu_obs = iq[0].exe(ieu, self)
                    if ieu_obs is None:
                        iq.popleft()
                        ieu.executed += 1
                        self._progress_cycle = cycle
                        ieu_obs = "retire"
                pc = self.pc
                if self._scu_active:
                    self._scu_active = False
                    scu = "execute"
                elif scu_cause is not None and self._scu_live:
                    scu = scu_cause()
                else:
                    scu = None  # no live stream: charged as _scu_cause would
                key = (pc, feu_obs, ieu_obs, scu,
                       True if inflight else False)
                counts[key] = counts.get(key, 0) + 1
                now = (i0._buffered, i1._buffered, i2._buffered,
                       i3._buffered, len(o0), len(o1), len(o2), len(o3))
                if now != levels:
                    if levels is not None:
                        runs[levels] = runs.get(levels, 0) + cycle - since
                    if track is not None:  # counter tracks move
                        for name, old, new in zip(
                                names, levels or (None,) * 8, now):
                            if old != new:
                                track(name, cycle, new)
                    self._levels = levels = now
                    since = cycle
                unit = route[pc]
                if unit is not None:
                    queue = unit.queue
                    if len(queue) < unit.queue_size:
                        queue.append(dops[pc])
                        self.pc = pc + 1
                        self.dispatched += 1
                        self._progress_cycle = cycle
                        continue
                else:
                    tick_ifu()
                    if self.pc == HALT_PC:
                        self._check_done()
                if cycle - self._progress_cycle > 10_000:
                    self._raise_deadlock()
                if self.halted or delivered or \
                        self._progress_cycle == cycle or self._activity or \
                        self.pc != pc:
                    continue
                target = self._next_event(cycle)
                if target > cycle + 1:
                    counts[key] += target - 1 - cycle
                    self.cycle = target - 1
        finally:
            if levels is not None:
                # cycles 1..sum(counts) were observed
                runs[levels] = runs.get(levels, 0) + \
                    sum(counts.values()) + 1 - since
            self._fill_observed(counts, runs)

    def _fifo_order(self) -> list:
        """In- then out-FIFOs: the order of _run_observed's levels."""
        return [*self.in_fifos.values(), *self.out_fifos.values()]

    def _fill_observed(self, counts: dict, runs: dict) -> None:
        """Charge _run_observed's run-length counts to the telemetry and
        the ledger: the sums _sample_telemetry builds cycle by cycle."""
        tel = self.telemetry
        ledger = self._ledger
        fifo_stats = [tel.fifo(fifo.name, fifo.capacity)
                      for fifo in self._fifo_order()]
        for levels, n in runs.items():
            for stats, level in zip(fifo_stats, levels):
                stats.sample_many(level, n)
        for (pc, feu_obs, ieu_obs, scu, mem_busy), n in counts.items():
            lid = self._loop_of[pc] if ledger is not None and pc >= 0 else 0
            for lane, obs in (("FEU", feu_obs), ("IEU", ieu_obs)):
                status = _TICK_STATUS.get(obs, "stall")
                reason = obs if status == "stall" else None
                tel.units[lane].record_many(status, reason, n)
                if ledger is not None:
                    ledger.charge(lane, lid, self._unit_cause(
                        status, reason, obs == "retire", pc), n)
            if scu == "execute":
                tel.scu_busy_cycles += n
            if mem_busy:
                tel.mem_busy_cycles += n
            if ledger is not None:
                # no scu cause: no stream yet, which _scu_cause reports so
                ledger.charge("SCU", lid, scu or
                              ("drain" if pc == HALT_PC else "idle"), n)

    def _unit_cause(self, status: str, reason: Optional[str],
                    retired: int, pc: int) -> str:
        """Ledger cause for one unit-cycle, from the tick's status and
        the pre-IFU pc."""
        if status == "busy":
            return "execute" if retired else "unit-busy"
        if status == "stall":
            return _STALL_CAUSE.get(reason, "unit-busy")
        # Idle: classify by what the IFU is blocked on at this pc.
        if pc == HALT_PC:
            return "drain"
        kind = self._dops[pc].kind
        if kind == K_CONDJUMP or kind == K_JNI:
            return "branch"
        if kind == K_RET:
            return "drain"
        return "idle"

    def _scu_cause(self) -> str:
        """Ledger cause for an SCU cycle with no transfer: what the
        first active stream is blocked on (pure function of machine
        state, so the fast path's bulk replay matches the reference
        loop's per-cycle recomputation over a frozen window)."""
        for state in self.streams.values():
            if not state.active:
                continue
            key = (state.bank, state.index)
            if state.kind == "in":
                if state.remaining is not None and state.remaining <= 0:
                    return "memory-latency"  # draining in-flight reads
                fifo = self.in_fifos[key]
                if fifo.buffered() + state.inflight >= fifo.capacity:
                    return "fifo-full"
                return "memory-latency"
            claims = self.out_claims[key]
            if claims and (claims[0][0] != "stream" or
                           claims[0][1] is not state):
                return "memory-latency"  # behind an older scalar store
            if not self.out_fifos[key].available():
                return "fifo-empty"
            return "memory-latency"
        return "drain" if self.pc == HALT_PC else "idle"

    def _note_back_edge(self, target: int,
                        levels: Optional[tuple] = None) -> None:
        """Record one loop iteration when the IFU takes a back edge.
        ``levels`` are the eight FIFO levels when the caller holds
        them (_run_observed); nothing in an IFU chain moves them before
        a back edge."""
        lid = self._loop_of[target]
        if lid and self._ledger.loopmap.loops[lid].header == target:
            if levels is not None:
                occupancy = sum(levels)
            else:
                occupancy = 0
                for fifo in self.in_fifos.values():
                    occupancy += fifo._buffered
                for fifo in self.out_fifos.values():
                    occupancy += len(fifo._data)
            inflight = self.memory._inflight
            self._ledger.note_iteration(
                lid, self.cycle, len(self.ieu.queue) + len(self.feu.queue),
                occupancy, inflight[0][0] - self.cycle if inflight else -1)

    def _tick_ifu_fast(self) -> None:
        """Decoded-program IFU: same protocol as _tick_ifu, driven by
        DOp opcodes instead of isinstance chains."""
        dops = self._dops
        pc = self.pc
        for _ in range(64):  # bounded chain of free control instructions
            if pc == HALT_PC:
                self.pc = pc
                return
            d = dops[pc]
            kind = d.kind
            if kind == K_EXEC:
                target = self.feu if d.feu else self.ieu
                if len(target.queue) >= target.queue_size:
                    self.pc = pc
                    return
                key = d.stream_key
                if key is not None:
                    self._dispatch_gen[key] = \
                        self._dispatch_gen.get(key, 0) + 1
                target.queue.append(d)
                self.pc = pc + 1
                self.dispatched += 1
                self._progress_cycle = self.cycle
                return
            if kind == K_LABEL:
                pc += 1
                continue
            if kind == K_JUMP:
                target = d.target
                if target <= pc and self._ledger is not None:
                    self._note_back_edge(target, self._levels)
                pc = target
                self._progress_cycle = self.cycle
                continue
            if kind == K_CONDJUMP:
                producer = self.feu if d.feu else self.ieu
                if not producer.cc_fifo:
                    self.pc = pc
                    return  # stall: wait for the compare result
                flag = producer.cc_fifo.popleft()
                self._progress_cycle = self.cycle
                if flag == d.sense:
                    target = d.target
                    if target <= pc and self._ledger is not None:
                        self._note_back_edge(target, self._levels)
                    pc = target
                else:
                    pc = pc + 1
                continue
            if kind == K_JNI:
                key = d.key
                if self._activate_gen.get(key, 0) < \
                        self._dispatch_gen.get(key, 0):
                    self.pc = pc
                    return  # stall: the current stream is not active yet
                state = self.streams.get(key)
                if state is None or state.jni_counter is None:
                    self.pc = pc
                    return  # stall until the stream is activated
                state.jni_counter -= 1
                self._progress_cycle = self.cycle
                if state.jni_counter > 0:
                    target = d.target
                    if target <= pc and self._ledger is not None:
                        self._note_back_edge(target, self._levels)
                    pc = target
                    if d.ff is not None and self._ff is not None:
                        # boundary offered to the fast-forward engine
                        # once this cycle's IFU tick completes
                        self._ff_pending = d.ff
                else:
                    pc = pc + 1
                continue
            if kind == K_CALL:
                ieu = self.ieu
                if len(ieu.queue) >= ieu.queue_size:
                    self.pc = pc
                    return
                ieu.queue.append(d.link)
                self.pc = d.target
                self.dispatched += 1
                self._progress_cycle = self.cycle
                return  # dispatching the link write uses the cycle
            if kind == K_RET:
                if self.ieu.queue or self.memory.busy() or \
                        self.store_buffer:
                    self.pc = pc
                    return
                pc = self.ieu.regs[30]
                self._progress_cycle = self.cycle
                continue
            # K_CVT: synchronize the execution units, then convert.
            if self.ieu.queue or self.feu.queue:
                self.pc = pc
                return
            src_unit = self.feu if d.d2i else self.ieu
            in_fifos = self.in_fifos
            ready = True
            for fkey, count in d.needs:
                if in_fifos[fkey].available() < count:
                    ready = False
                    break
            if not ready:
                self.pc = pc
                return  # FIFO operand has not arrived yet
            fifo_key = d.fifo_key
            if fifo_key is not None and \
                    not self.out_fifos[fifo_key].has_room():
                self.pc = pc
                return
            value = d.conv(d.ev(src_unit, self))
            if fifo_key is not None:
                self.out_fifos[fifo_key].push(value)
            elif d.dst_bank is not None:
                dst = self.feu if d.dst_bank == "f" else self.ieu
                dst.regs[d.dst_index] = value
            self.pc = pc + 1
            self.dispatched += 1
            self._progress_cycle = self.cycle
            return
        self.pc = pc

    def _sample_telemetry(self, tel: SimTelemetry) -> None:
        """Telemetry-mode unit tick + per-cycle sampling.  Performs the
        exact same unit ticks as the fast path; only the bookkeeping
        around them differs.  When profiling, also charges the cycle
        ledger — at the same pre-IFU attribution point _run_observed
        uses, so both paths see identical machine state.  This per-cycle
        form is the oracle the observed loop's run-length counts are
        tested against."""
        ledger = self._ledger
        feu_exec = self.feu.executed
        ieu_exec = self.ieu.executed
        self._stall_reason = None
        feu_status = self._tick_unit(self.feu)
        feu_reason = self._stall_reason
        self._stall_reason = None
        ieu_status = self._tick_unit(self.ieu)
        ieu_reason = self._stall_reason
        tel.units["FEU"].record(feu_status, feu_reason)
        tel.units["IEU"].record(ieu_status, ieu_reason)
        scu_active = self._scu_active
        if scu_active:
            tel.scu_busy_cycles += 1
            self._scu_active = False
        if self.memory.busy():
            tel.mem_busy_cycles += 1
        for key, fifo in self.in_fifos.items():
            tel.fifo(fifo.name, fifo.capacity).sample(fifo.buffered())
        for key, fifo in self.out_fifos.items():
            tel.fifo(fifo.name, fifo.capacity).sample(fifo.available())
        if ledger is not None:
            pc = self.pc
            lid = self._loop_of[pc] if pc >= 0 else 0
            ledger.charge("FEU", lid, self._unit_cause(
                feu_status, feu_reason, self.feu.executed - feu_exec, pc))
            ledger.charge("IEU", lid, self._unit_cause(
                ieu_status, ieu_reason, self.ieu.executed - ieu_exec, pc))
            ledger.charge("SCU", lid,
                          "execute" if scu_active else self._scu_cause())
            cycle = self.cycle
            for key, fifo in self.in_fifos.items():
                ledger.track_fifo(fifo.name, cycle, fifo.buffered())
            for key, fifo in self.out_fifos.items():
                ledger.track_fifo(fifo.name, cycle, fifo.available())

    def _progress(self) -> None:
        self._progress_cycle = self.cycle

    def _check_done(self) -> None:
        if self.pc != HALT_PC:
            return
        if self.ieu.queue or self.feu.queue:
            return
        if self.memory.busy() or self.store_buffer:
            return
        for state in self.streams.values():
            if state.active and state.kind == "out" and \
                    state.remaining not in (None, 0):
                return
        self.halted = True

    # ---------------------------------------------------------------- IFU --
    def _tick_ifu(self) -> None:
        # The IFU processes control instructions for free and dispatches
        # at most one execution-unit instruction per cycle.
        for _ in range(64):  # bounded chain of free control instructions
            if self.pc == HALT_PC:
                return
            instr = self.program.instrs[self.pc]
            unit = unit_of(instr)
            if isinstance(instr, Label):
                self.pc += 1
                continue
            if isinstance(instr, Jump):
                target = self.program.label_index[instr.target]
                if self._ledger is not None and target <= self.pc:
                    self._note_back_edge(target)
                self.pc = target
                self._progress()
                continue
            if isinstance(instr, CondJump):
                producer = self.feu if instr.bank == "f" else self.ieu
                if not producer.cc_fifo:
                    return  # stall: wait for the compare result
                flag = producer.cc_fifo.popleft()
                self._progress()
                if flag == instr.sense:
                    target = self.program.label_index[instr.target]
                    if self._ledger is not None and target <= self.pc:
                        self._note_back_edge(target)
                    self.pc = target
                else:
                    self.pc += 1
                continue
            if isinstance(instr, JumpStreamNotDone):
                key = (instr.fifo.bank, instr.fifo.index, instr.kind)
                if self._activate_gen.get(key, 0) < \
                        self._dispatch_gen.get(key, 0):
                    return  # stall: the current stream is not active yet
                state = self.streams.get(key)
                if state is None or state.jni_counter is None:
                    return  # stall until the stream is activated
                state.jni_counter -= 1
                self._progress()
                if state.jni_counter > 0:
                    target = self.program.label_index[instr.target]
                    if self._ledger is not None and target <= self.pc:
                        self._note_back_edge(target)
                    self.pc = target
                else:
                    self.pc += 1
                continue
            if isinstance(instr, Call):
                # The link-register write is performed by the IEU so the
                # register file stays single-writer.
                if self.ieu.queue_full():
                    return
                self.ieu.queue.append(("link", self.pc + 1))
                self.pc = self.program.entry_of[instr.func]
                self.dispatched += 1
                self._progress()
                return  # dispatching the link write uses the cycle
            if isinstance(instr, Ret):
                # Requires the IEU to be drained so r30 is final.
                if self.ieu.queue or self.memory.busy() or \
                        self.store_buffer:
                    return
                self.pc = self.ieu.regs[30]
                self._progress()
                continue
            if unit == "CVT":
                if self.ieu.queue or self.feu.queue:
                    return  # synchronize the execution units
                src_unit = self.feu if isinstance(instr.src, UnOp) and \
                    instr.src.op == "d2i" else self.ieu
                if not self._operands_ready(src_unit, [instr.src.operand]):
                    return  # FIFO operand has not arrived yet
                dst = instr.dst
                if isinstance(dst, Reg) and dst.index in (0, 1) and \
                        not self.out_fifos[(dst.bank, dst.index)].has_room():
                    return
                self._exec_cvt(instr)
                self.pc += 1
                self.dispatched += 1
                self._progress()
                return
            # Ordinary execution-unit instruction: dispatch.
            target = self.feu if self._dispatch_unit(instr) == "FEU" \
                else self.ieu
            if target.queue_full():
                return
            if isinstance(instr, (StreamIn, StreamOut)):
                kind = "in" if isinstance(instr, StreamIn) else "out"
                key = (instr.fifo.bank, instr.fifo.index, kind)
                self._dispatch_gen[key] = self._dispatch_gen.get(key, 0) + 1
            target.queue.append(("instr", instr))
            self.pc += 1
            self.dispatched += 1
            self._progress()
            return

    def _dispatch_unit(self, instr: Instr) -> str:
        unit = unit_of(instr)
        if unit == "SCU":
            # Stream instructions read integer registers: executed by the
            # IEU in order, which then activates the SCU.
            return "IEU"
        return unit

    def _exec_cvt(self, instr: Assign) -> None:
        src = instr.src
        assert isinstance(src, UnOp)
        if src.op == "i2d":
            value = float(self._read_reg(self.ieu, src.operand))
        else:  # d2i
            try:
                value = wrap32(int(self._read_reg(self.feu, src.operand)))
            except (OverflowError, ValueError) as exc:
                raise SimError(f"d2i conversion trap: {exc}") from exc
        dst = instr.dst
        if isinstance(dst, Reg) and dst.index in (0, 1):
            self.out_fifos[(dst.bank, dst.index)].push(value)
        else:
            self._write_reg(self.feu if src.op == "i2d" else self.ieu,
                            dst, value)

    # -------------------------------------------------------------- units --
    def _tick_unit(self, unit: _Unit) -> str:
        """Advance one unit a cycle; the returned status ("idle", "busy"
        or "stall") feeds the telemetry attribution and is ignored on
        the fast path."""
        if not unit.queue:
            return "idle"
        if self.cycle < unit.busy_until:
            return "busy"  # occupied by a multi-cycle operation
        kind, payload = unit.queue[0]
        if kind == "link":
            unit.regs[30] = payload
            unit.queue.popleft()
            unit.executed += 1
            self._progress()
            return "busy"
        instr: Instr = payload
        if self._execute(unit, instr):
            unit.queue.popleft()
            unit.executed += 1
            self._progress()
            return "busy"
        return "stall"

    def _stall(self, reason: str) -> bool:
        """Record why the current instruction could not execute (read by
        the telemetry sampler) and report the stall."""
        self._stall_reason = reason
        return False

    def _execute(self, unit: _Unit, instr: Instr) -> bool:
        """Try to execute; False = stall (retry next cycle)."""
        if isinstance(instr, Compare):
            if len(unit.cc_fifo) >= 8:
                return self._stall("cc-full")
            if not self._operands_ready(unit, [instr.left, instr.right]):
                return self._stall("operand-wait")
            left = self._eval(unit, instr.left)
            right = self._eval(unit, instr.right)
            unit.cc_fifo.append(bool(_CMP[instr.op](left, right)))
            return True
        if isinstance(instr, WMLoadIssue):
            if not self._operands_ready(unit, [instr.addr]):
                return self._stall("operand-wait")
            if not self.memory.can_accept():
                return self._stall("memory-port")
            addr = self._eval(unit, instr.addr)
            if self._store_conflict(addr, instr.width):
                return self._stall("store-conflict")
            if self._out_stream_conflict(addr, instr.width):
                # an output stream has not written this yet
                return self._stall("stream-drain")
            fifo = self.in_fifos[(instr.bank, 0)]
            reservation = fifo.reserve(1, tag="load")
            ok = self.memory.request_read(
                self.cycle, addr, instr.width, instr.fp, instr.signed,
                reservation.deliver)
            assert ok
            return True
        if isinstance(instr, WMStoreIssue):
            if not self._operands_ready(unit, [instr.addr]):
                return self._stall("operand-wait")
            addr = self._eval(unit, instr.addr)
            key = (instr.bank, 0)
            claim = ["store", addr, instr.width, instr.fp]
            self.out_claims[key].append(claim)
            self.store_buffer.append((key, claim))
            return True
        if isinstance(instr, StreamIn):
            return self._activate_stream(unit, instr, "in")
        if isinstance(instr, StreamOut):
            return self._activate_stream(unit, instr, "out")
        if isinstance(instr, StreamStop):
            key = (instr.fifo.bank, instr.fifo.index, instr.kind)
            state = self.streams.get(key)
            if state is not None and state.active:
                if state.reservation is not None:
                    state.reservation.close()
                state.active = False
                state.remaining = 0
            return True
        if isinstance(instr, Assign):
            return self._exec_assign(unit, instr)
        raise SimError(f"unit {unit.name} cannot execute {instr!r}")

    def _exec_assign(self, unit: _Unit, instr: Assign) -> bool:
        dst = instr.dst
        if not self._operands_ready(unit, [instr.src]):
            return self._stall("operand-wait")
        writes_fifo = isinstance(dst, Reg) and dst.index in (0, 1)
        if writes_fifo:
            out = self.out_fifos[(dst.bank, dst.index)]
            if not out.has_room():
                return self._stall("output-full")
        value = self._eval(unit, instr.src)
        cost = self._cost(unit, instr.src)
        if cost > 1:
            unit.busy_until = self.cycle + cost - 1
        if isinstance(instr.src, Sym):
            unit.busy_until = self.cycle + 1  # llh + sll pair
        if writes_fifo:
            self.out_fifos[(dst.bank, dst.index)].push(value)
        else:
            self._write_reg(unit, dst, value)
        return True

    def _cost(self, unit: _Unit, expr: Expr) -> int:
        cost = 1
        for op in _iter_ops(expr):
            cost = max(cost, _OP_COST.get((unit.bank, op), 1))
        return cost

    # ------------------------------------------------------------- operands --
    def _operands_ready(self, unit: _Unit, exprs: list[Expr]) -> bool:
        """Are all FIFO reads satisfiable right now (atomically)?"""
        needed: dict[tuple, int] = {}
        for expr in exprs:
            for node in _walk(expr):
                if isinstance(node, Reg) and node.index in (0, 1) and \
                        node.bank == unit.bank:
                    key = (node.bank, node.index)
                    needed[key] = needed.get(key, 0) + 1
        for key, count in needed.items():
            if self.in_fifos[key].available() < count:
                return False
        return True

    def _eval(self, unit: _Unit, expr: Expr):
        if isinstance(expr, Imm):
            return expr.value
        if isinstance(expr, Reg):
            return self._read_reg(unit, expr)
        if isinstance(expr, Sym):
            try:
                return self.memory.globals_base[expr.name] + expr.offset
            except KeyError:
                raise SimError(f"unknown symbol {expr.name!r}") from None
        if isinstance(expr, BinOp):
            left = self._eval(unit, expr.left)
            right = self._eval(unit, expr.right)
            if unit.bank == "f":
                return self._fp_bin(expr.op, left, right)
            return _INT_BIN[expr.op](left, right)
        if isinstance(expr, UnOp):
            operand = self._eval(unit, expr.operand)
            if expr.op == "neg":
                return -operand if isinstance(operand, float) \
                    else wrap32(-operand)
            if expr.op == "not":
                return wrap32(~operand)
            if expr.op == "sext8":
                v = int(operand) & 0xFF
                return v - 0x100 if v >= 0x80 else v
            raise SimError(f"unit cannot evaluate {expr.op}")
        if isinstance(expr, VReg):
            raise SimError("virtual register survived to simulation")
        raise SimError(f"cannot evaluate {expr!r}")

    def _fp_bin(self, op: str, a, b):
        a = float(a)
        b = float(b)
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            if b == 0.0:
                raise SimError("floating-point division by zero")
            return a / b
        raise SimError(f"illegal FP operator {op}")

    def _read_reg(self, unit: _Unit, reg: Reg):
        if reg.bank != unit.bank:
            raise SimError(
                f"{unit.name} read of cross-bank register {reg!r}")
        if reg.index == 31:
            return 0.0 if unit.bank == "f" else 0
        if reg.index in (0, 1):
            return self.in_fifos[(reg.bank, reg.index)].pop()
        return unit.regs[reg.index]

    def _write_reg(self, unit: _Unit, reg: Reg, value) -> None:
        if reg.index == 31:
            return  # writes to register 31 have no effect
        if reg.bank == "f":
            self.feu.regs[reg.index] = float(value)
        else:
            self.ieu.regs[reg.index] = wrap32(int(value))

    # ---------------------------------------------------------------- SCU --
    def _activate_stream(self, unit: _Unit, instr, kind: str) -> bool:
        base = self._eval(unit, instr.base)
        count = None
        if instr.count is not None:
            count = self._eval(unit, instr.count)
            if count <= 0:
                raise SimError(f"stream with non-positive count {count}")
        return self._activate_stream_with(instr, kind, base, count)

    def _activate_stream_with(self, instr, kind: str, base, count) -> bool:
        key = (instr.fifo.bank, instr.fifo.index, kind)
        fifo_key = (instr.fifo.bank, instr.fifo.index)
        state = _StreamState(kind, instr.fifo.bank, instr.fifo.index)
        state.addr = base
        state.count = count
        state.remaining = count
        state.stride = instr.stride
        state.width = instr.width
        state.fp = instr.fp
        state.active = True
        state.jni_counter = count
        state.seq = self._stream_seq
        self._stream_seq += 1
        if kind == "in":
            state.reservation = self.in_fifos[fifo_key].reserve(
                count, tag=f"stream:{key}")
            state.deliver = self._stream_deliver(state, state.reservation)
        else:
            self.out_claims[fifo_key].append(["stream", state])
        old = self.streams.get(key)
        if old is not None:
            old.deliver = None  # its reads in flight hold the callback
        self.streams[key] = state
        self._scu_live = True
        self._activate_gen[key] = self._activate_gen.get(key, 0) + 1
        if self.telemetry is not None:
            state.stats = StreamStats(
                key=f"{instr.fifo.bank}{instr.fifo.index}", kind=kind,
                start_cycle=self.cycle, base=base, stride=instr.stride,
                width=instr.width, count=count)
            self.telemetry.streams.append(state.stats)
        return True

    def _stream_deliver(self, state: _StreamState, reservation):
        """An in-stream's completion callback.  Its defaults name the
        owning stream: the fast-forward fingerprint reads them."""
        def deliver(value, state=state, reservation=reservation):
            state.inflight -= 1
            if reservation.closed:
                return  # stream was stopped; drop late arrivals
            reservation.deliver(value)
            self.stream_elements += 1
            if state.stats is not None:
                state.stats.elements += 1
                state.stats.last_cycle = self.cycle
        return deliver

    def _tick_scu_fast(self) -> None:
        # Same protocol as _tick_scu; stream ticks never add or remove
        # dict entries, so the defensive copy is dropped.  Runs only
        # while the live-stream gate is set, and clears it once no
        # stream is left active.
        live = False
        for state in self.streams.values():
            if not state.active:
                continue
            fifo_key = (state.bank, state.index)
            if state.kind == "in":
                self._tick_stream_in(fifo_key, state)
            else:
                self._tick_stream_out(fifo_key, state)
            if state.active:
                live = True
        self._scu_live = live

    def _tick_scu(self) -> None:
        for state in list(self.streams.values()):
            if not state.active:
                continue
            fifo_key = (state.bank, state.index)
            if state.kind == "in":
                self._tick_stream_in(fifo_key, state)
            else:
                self._tick_stream_out(fifo_key, state)

    def _tick_stream_in(self, key, state: _StreamState) -> None:
        if state.remaining is not None and state.remaining <= 0:
            if state.inflight == 0:
                state.active = False
            return
        fifo = self.in_fifos[key]
        if fifo.buffered() + state.inflight >= fifo.capacity:
            return
        if not self.memory.can_accept():
            return
        # Memory-consistency interlocks: the next element must not be
        # covered by an output stream still draining or by a pending
        # (data-incomplete) scalar store.
        if self._out_stream_conflict(state.addr, state.width,
                                     exclude=state, before=state.seq):
            return
        if self._store_conflict(state.addr, state.width):
            return
        assert state.reservation is not None
        try:
            ok = self.memory.request_read(self.cycle, state.addr,
                                          state.width, state.fp, True,
                                          state.deliver)
        except MemError:
            # An infinite stream may prefetch past the data segment; the
            # compiler guarantees those elements are never consumed.
            if state.remaining is None:
                self.memory._accepted_this_cycle += 1
                state.inflight += 1
                state.addr += state.stride
                self._activity = True  # state moved without progress
                return
            raise
        if ok:
            state.inflight += 1
            state.addr += state.stride
            if state.remaining is not None:
                state.remaining -= 1
            if self.telemetry is not None:
                self._scu_active = True
            self._progress()

    def _tick_stream_out(self, key, state: _StreamState) -> None:
        if state.remaining is not None and state.remaining <= 0:
            state.active = False
            return
        claims = self.out_claims[key]
        if not claims or claims[0][0] != "stream" or claims[0][1] is not state:
            return
        out = self.out_fifos[key]
        if not out.available():
            return
        if not self.memory.can_accept():
            return
        value = out.pop()
        self.memory.request_write(self.cycle, state.addr, state.width,
                                  state.fp, value)
        self.stream_elements += 1
        if state.stats is not None:
            state.stats.elements += 1
            state.stats.last_cycle = self.cycle
            self._scu_active = True
        state.addr += state.stride
        if state.remaining is not None:
            state.remaining -= 1
            if state.remaining <= 0:
                state.active = False
                claims.popleft()
        self._progress()

    # -------------------------------------------------------- store buffer --
    def _tick_store_buffer(self) -> None:
        """Complete scalar stores whose data has arrived, in order."""
        while self.store_buffer:
            key, claim = self.store_buffer[0]
            claims = self.out_claims[key]
            if not claims or claims[0] is not claim:
                return  # an older stream-out claim is still draining
            out = self.out_fifos[key]
            if not out.available():
                return
            if not self.memory.can_accept():
                return
            value = out.pop()
            _tag, addr, width, fp = claim
            self.memory.request_write(self.cycle, addr, width, fp, value)
            claims.popleft()
            self.store_buffer.popleft()
            self._progress()

    def _store_conflict(self, addr: int, width: int) -> bool:
        """Does a pending (data-incomplete) store overlap [addr, addr+w)?"""
        for _key, claim in self.store_buffer:
            _tag, saddr, swidth, _fp = claim
            if saddr < addr + width and addr < saddr + swidth:
                return True
        return False

    def _out_stream_conflict(self, addr: int, width: int,
                             exclude: Optional[_StreamState] = None,
                             before: Optional[int] = None) -> bool:
        """Does [addr, addr+width) fall inside the not-yet-written range
        of an active output stream?

        This is the memory-consistency interlock between the SCUs and
        the scalar pipeline: reads of a region an output stream is still
        draining must wait until the covering elements are written.

        ``before`` restricts the check to output streams activated
        *earlier* than the given dispatch sequence number.  An input
        stream defers only to out-streams dispatched before it (a flow
        dependence from an earlier loop still draining); an out-stream
        dispatched *after* it sits later in program order — the paper's
        partitioning guarantees no flow dependence within a loop, so
        the in-stream's reads must not wait for it (waiting would both
        invert an anti-dependence and deadlock: the out-stream's data
        comes from the very reads being held up).  Scalar loads pass no
        ``before`` — they issue after every announced stream and defer
        to all of them.
        """
        for state in self.streams.values():
            if state is exclude or state.kind != "out" or not state.active:
                continue
            if before is not None and state.seq > before:
                continue
            remaining = state.remaining
            if not remaining:
                continue
            span = state.stride * (remaining - 1)
            lo = min(state.addr, state.addr + span)
            hi = max(state.addr + state.width,
                     state.addr + span + state.width)
            if lo < addr + width and addr < hi:
                return True
        return False


def _iter_ops(expr: Expr):
    for node in _walk(expr):
        if isinstance(node, BinOp):
            yield node.op


def simulate(module: RtlModule, **kwargs) -> SimResult:
    """Convenience wrapper: build a simulator and run to completion."""
    return WMSimulator(module, **kwargs).run()

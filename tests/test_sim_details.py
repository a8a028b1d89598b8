"""Simulator protocol details: CC-FIFO discipline, stream mechanics,
store-buffer semantics, cross-bank conversions.

Every hand-built module runs on the default tiers, on the observed loop
(``telemetry=True`` and ``profile=True``) and on the ``slow=True``
reference, which must agree on every result field, on the telemetry and
on any error raised: these small programs reach execute paths and stall
reasons the benchmark comparisons never do.
"""

import struct

import pytest

from repro.compiler import compile_source
from repro.machine.wm import WMStoreIssue
from repro.opt import OptOptions
from repro.rtl import (
    Assign, BinOp, Compare, CondJump, Imm, Jump, Label, Mem, Reg, Ret, Sym,
)
from repro.rtl.expr import UnOp
from repro.rtl.instr import JumpStreamNotDone, StreamIn, StreamStop
from repro.rtl.module import DataObject, RtlFunction, RtlModule
from repro.sim import SimError, WMSimulator

R = lambda i: Reg("r", i)
F = lambda i: Reg("f", i)

#: simulator configurations each hand-built module runs under
MODES = {"default": {}, "telemetry": {"telemetry": True},
         "profile": {"profile": True}}


def build_module(instrs, data=None):
    module = RtlModule()
    module.functions["main"] = RtlFunction("main", list(instrs))
    for obj in data or []:
        module.data[obj.name] = obj
    return module


def _fields(result):
    return (result.value, result.cycles, result.instructions,
            result.unit_instructions, result.memory_reads,
            result.memory_writes, result.stream_elements,
            result.globals_base, result.memory[0:result.memory.data_end])


def run_all(instrs, data=None, **kwargs):
    """Run ``instrs`` as ``main`` in every mode of MODES, each on the
    fast loops and on the slow=True reference.  Every run must give the
    same result and each observed pair the same telemetry; returns the
    fast results by mode."""
    module = build_module(instrs, data)
    reference = WMSimulator(module, slow=True, **kwargs).run()
    results = {}
    for mode, flags in MODES.items():
        fast = WMSimulator(module, **flags, **kwargs).run()
        slow = WMSimulator(module, slow=True, **flags, **kwargs).run()
        assert _fields(fast) == _fields(reference), mode
        assert _fields(slow) == _fields(reference), mode
        if flags:
            assert fast.telemetry.to_dict() == slow.telemetry.to_dict(), \
                mode
        results[mode] = fast
    return results


def run_module(instrs, data=None, **kwargs):
    return run_all(instrs, data, **kwargs)["default"]


def run_module_error(instrs, data=None, **kwargs):
    """Like run_all for a module that must fail: every run raises a
    SimError of the same kind, message, cycle and pc."""
    module = build_module(instrs, data)
    seen = []
    for flags in MODES.values():
        for slow in (False, True):
            with pytest.raises(SimError) as err:
                WMSimulator(module, slow=slow, **flags, **kwargs).run()
            seen.append(err.value)
    first = seen[0]
    for other in seen[1:]:
        assert (other.kind, str(other), other.cycle, other.pc) == \
            (first.kind, str(first), first.cycle, first.pc)
    return first


def _doubles(*values):
    return struct.pack(f"<{len(values)}d", *values)


class TestCCFifo:
    def test_compare_then_jump(self):
        result = run_module([
            Compare("r", "<", Imm(1), Imm(2)),
            CondJump("r", True, "yes"),
            Assign(R(2), Imm(0)),
            Jump("end"),
            Label("yes"),
            Assign(R(2), Imm(7)),
            Label("end"),
            Ret(),
        ])
        assert result.value == 7

    def test_cc_fifo_is_queued(self):
        """Two compares queue two results; two jumps consume in order."""
        result = run_module([
            Compare("r", "<", Imm(1), Imm(2)),   # true
            Compare("r", ">", Imm(1), Imm(2)),   # false
            CondJump("r", True, "first"),
            Assign(R(2), Imm(0)),
            Ret(),
            Label("first"),
            CondJump("r", True, "second"),       # consumes the false
            Assign(R(2), Imm(10)),
            Ret(),
            Label("second"),
            Assign(R(2), Imm(99)),
            Ret(),
        ])
        assert result.value == 10

    def test_fp_compare_uses_feu_fifo(self):
        result = run_module([
            Assign(F(4), Imm(1.5)),
            Assign(F(5), Imm(2.5)),
            Compare("f", "<", F(4), F(5)),
            CondJump("f", True, "yes"),
            Assign(R(2), Imm(0)),
            Ret(),
            Label("yes"),
            Assign(R(2), Imm(3)),
            Ret(),
        ])
        assert result.value == 3


class TestStreams:
    def _data(self):
        return [DataObject("arr", 32, 8, _doubles(1.0, 2.0, 3.0, 4.0))]

    def test_stream_in_sums(self):
        result = run_module([
            Assign(R(3), Sym("arr")),
            Assign(R(4), Imm(4)),
            StreamIn(F(0), R(3), R(4), 8, 8, True),
            Assign(F(2), Imm(0.0)),
            Label("L"),
            Assign(F(2), BinOp("+", F(2), F(0))),
            JumpStreamNotDone(F(0), "L", kind="in"),
            Assign(F(2), BinOp("*", F(2), Imm(10.0))),
            Assign(R(2), Imm(0)),
            Ret(),
        ], data=self._data())
        # f2 = (1+2+3+4)*10 = 100.0 — check via the FEU register file
        # indirectly by storing? simpler: the run completed without
        # deadlock and consumed all 4 elements.
        assert result.stream_elements == 4

    def test_negative_stride_stream(self):
        result = run_module([
            Assign(R(3), Sym("arr", 24)),  # last element
            Assign(R(4), Imm(4)),
            StreamIn(F(0), R(3), R(4), -8, 8, True),
            Assign(F(2), Imm(0.0)),
            Label("L"),
            Assign(F(2), BinOp("-", BinOp("*", F(2), Imm(10.0)), F(0))),
            JumpStreamNotDone(F(0), "L", kind="in"),
            Assign(R(2), Imm(1)),
            Ret(),
        ], data=self._data())
        # consumed 4, 3, 2, 1 in that order
        assert result.stream_elements == 4
        assert result.value == 1

    def test_jni_counts_exactly(self):
        """A count-N stream's JNI falls through on the Nth execution."""
        result = run_module([
            Assign(R(3), Sym("arr")),
            Assign(R(4), Imm(3)),
            Assign(R(5), Imm(0)),
            StreamIn(F(0), R(3), R(4), 8, 8, True),
            Label("L"),
            Assign(F(2), F(0)),
            Assign(R(5), BinOp("+", R(5), Imm(1))),
            JumpStreamNotDone(F(0), "L", kind="in"),
            Assign(R(2), R(5)),
            Ret(),
        ], data=self._data())
        assert result.value == 3


    def test_open_ended_stream_below_the_data_segment(self):
        # A countless stream running down from the first element:
        # its prefetches below the data segment trap and are absorbed,
        # each one moving the stream without progress; the fast loops'
        # stall skip must not jump over them.
        result = run_module([
            Assign(R(3), Sym("arr", 8)),
            StreamIn(F(0), R(3), None, -8, 8, True),
            Assign(F(2), F(0)),
            Assign(F(3), F(0)),
            Assign(R(5), BinOp("/", Imm(1000), Imm(7))),
            Assign(R(5), BinOp("/", R(5), Imm(3))),
            StreamStop(F(0), "in"),
            Assign(R(2), R(5)),
            Ret(),
        ], data=[DataObject("arr", 16, 8, _doubles(1.0, 2.0))])
        assert result.value == 47
        assert result.stream_elements == 2


class TestStoreBuffer:
    def test_store_to_load_ordering(self):
        """A load of a location with an in-flight store must see the
        stored value (the simulator stalls it until completion)."""
        src = """
        double g;
        int main(void) {
            g = 4.25;
            return (int)(g * 4.0);
        }
        """
        res = compile_source(src, options=OptOptions.baseline())
        assert res.simulate().value == 17

    def test_char_width_stores(self):
        src = """
        char c[4];
        int main(void) {
            c[0] = (char)300;
            c[1] = 'x';
            return c[0] * 1000 + c[1];
        }
        """
        res = compile_source(src, options=OptOptions.baseline())
        assert res.simulate().value == res.run_oracle().value


class TestConversions:
    def test_i2d_and_back(self):
        src = """
        int main(void) {
            int i; double d; int total;
            total = 0;
            for (i = 0; i < 5; i++) {
                d = (double)i / 2.0;
                total = total + (int)(d * 10.0);
            }
            return total;
        }
        """
        res = compile_source(src, options=OptOptions.baseline())
        assert res.simulate().value == res.run_oracle().value == \
            sum(int(i / 2.0 * 10.0) for i in range(5))

    def test_cvt_synchronizes_but_completes(self):
        src = """
        double d[20];
        int main(void) {
            int i; int s;
            for (i = 0; i < 20; i++) d[i] = i * 0.5;
            s = 0;
            for (i = 0; i < 20; i++) s = s + (int)d[i];
            return s;
        }
        """
        res = compile_source(src, options=OptOptions.baseline())
        assert res.simulate().value == res.run_oracle().value


class TestRobustness:
    def test_fp_division_by_zero_traps(self):
        src = """
        double z;
        int main(void) { z = 0.0; return (int)(1.0 / z); }
        """
        res = compile_source(src, options=OptOptions.baseline())
        with pytest.raises(SimError):
            res.simulate()

    def test_zero_register_semantics(self):
        result = run_module([
            Assign(R(31), Imm(55)),          # write to r31 has no effect
            Assign(R(2), BinOp("+", R(31), Imm(1))),
            Ret(),
        ])
        assert result.value == 1


class TestStallReasons:
    def test_output_full(self):
        # The IEU sits in two divides while the FEU fills f0's output
        # FIFO (capacity 8); the ninth push waits for the first store.
        instrs = [
            Assign(R(3), Sym("out")),
            Assign(R(4), BinOp("/", Imm(100), Imm(7))),
            Assign(R(5), BinOp("/", R(4), Imm(3))),
            *[Assign(F(0), Imm(float(i))) for i in range(10)],
            *[WMStoreIssue(BinOp("+", R(3), Imm(8 * i)), 8, True)
              for i in range(10)],
            Assign(R(2), R(5)),
            Ret(),
        ]
        results = run_all(instrs, data=[DataObject("out", 80, 8)])
        stored = results["default"].global_bytes("out", 80)
        assert struct.unpack("<10d", stored) == tuple(map(float, range(10)))
        feu = results["telemetry"].telemetry.units["FEU"]
        assert feu.stall_reasons.get("output-full", 0) > 0

    def test_cc_full(self):
        # Ten integer compares queue behind a branch on a slow FP
        # compare: the ninth waits for room in the IEU's CC FIFO.
        instrs = [
            Assign(F(4), BinOp("/", Imm(1.0), Imm(3.0))),
            Assign(F(4), BinOp("/", F(4), Imm(3.0))),
            Compare("f", "<", F(4), Imm(1.0)),
            Assign(R(5), Imm(0)),
            *[Compare("r", "<", Imm(i), Imm(5)) for i in range(10)],
            CondJump("f", True, "go"),
            Label("go"),
        ]
        for i in range(10):   # count the false flags
            instrs += [CondJump("r", True, f"t{i}"),
                       Assign(R(5), BinOp("+", R(5), Imm(1))),
                       Label(f"t{i}")]
        instrs += [Assign(R(2), R(5)), Ret()]
        results = run_all(instrs)
        assert results["default"].value == 5
        ieu = results["telemetry"].telemetry.units["IEU"]
        assert ieu.stall_reasons.get("cc-full", 0) > 0


class TestSinks:
    def test_register_31_sinks(self):
        # The FP sink still pops its stream element; the integer sink
        # still occupies the IEU for its multiply; neither writes.
        result = run_module([
            Assign(R(3), Sym("arr")),
            Assign(R(4), Imm(4)),
            StreamIn(F(0), R(3), R(4), 8, 8, True),
            Label("L"),
            Assign(F(31), F(0)),
            JumpStreamNotDone(F(0), "L", kind="in"),
            Assign(R(31), BinOp("*", R(4), Imm(3))),
            Assign(R(2), BinOp("+", R(31), R(4))),
            Ret(),
        ], data=[DataObject("arr", 32, 8, _doubles(1.0, 2.0, 3.0, 4.0))])
        assert result.value == 4
        assert result.stream_elements == 4

    def test_register_writes_convert(self):
        # integer registers hold wrapped ints, FP registers floats,
        # whatever the literal: a shift does not wrap its operand and
        # d2i sees the rounded double
        wrapped = [Assign(R(4), Imm(2**32 + 5)),
                   Assign(R(2), BinOp(">>", R(4), Imm(0))), Ret()]
        truncated = [Assign(R(4), Imm(7.9)),
                     Assign(R(2), BinOp(">>", R(4), Imm(0))), Ret()]
        rounded = [Assign(F(4), Imm(2**53 + 1)),
                   Assign(R(2), UnOp("d2i", F(4))), Ret()]
        assert run_module(wrapped).value == 5
        assert run_module(truncated).value == 7
        assert run_module(rounded).value == 0   # wrap32(2**53)


class TestTraps:
    def test_fp_division_by_zero(self):
        err = run_module_error([
            Assign(F(4), Imm(0.0)),
            Assign(F(5), BinOp("/", Imm(1.0), F(4))),
            Assign(R(2), Imm(0)),
            Ret(),
        ])
        assert str(err) == "floating-point division by zero"

    @pytest.mark.parametrize("count", [0, -3])
    def test_non_positive_stream_count(self, count):
        err = run_module_error([
            Assign(R(3), Sym("arr")),
            Assign(R(4), Imm(count)),
            StreamIn(F(0), R(3), R(4), 8, 8, True),
            Assign(R(2), Imm(0)),
            Ret(),
        ], data=[DataObject("arr", 32, 8)])
        assert str(err) == f"stream with non-positive count {count}"

    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_d2i_trap(self, value):
        err = run_module_error([
            Assign(F(4), Imm(value)),
            Assign(R(5), UnOp("d2i", F(4))),
            Assign(R(2), R(5)),
            Ret(),
        ])
        assert str(err).startswith("d2i conversion trap")


class TestScuGate:
    def test_two_streamed_loops_with_idle_scu_between(self, monkeypatch):
        # The first loop's stream drains, the SCU tick that finds no
        # stream active closes the live-stream gate, and the second
        # loop's activation must open it again.
        instrs = [
            Assign(R(3), Sym("arr")),
            Assign(R(4), Imm(4)),
            StreamIn(F(0), R(3), R(4), 8, 8, True),
            Assign(F(2), Imm(0.0)),
            Label("A"),
            Assign(F(2), BinOp("+", F(2), F(0))),
            JumpStreamNotDone(F(0), "A", kind="in"),
            Assign(R(5), BinOp("/", Imm(1000), Imm(7))),
            Assign(R(5), BinOp("/", R(5), Imm(3))),
            StreamIn(F(0), R(3), R(4), 8, 8, True),
            Label("B"),
            Assign(F(2), BinOp("+", F(2), F(0))),
            JumpStreamNotDone(F(0), "B", kind="in"),
            Assign(R(2), UnOp("d2i", F(2))),
            Ret(),
        ]
        data = [DataObject("arr", 32, 8, _doubles(1.0, 2.0, 3.0, 4.0))]
        result = run_module(instrs, data=data)
        assert result.value == 20
        assert result.stream_elements == 8

        gate = []
        tick = WMSimulator._tick_scu_fast

        def recording_tick(sim):
            tick(sim)
            gate.append(sim._scu_live)
        monkeypatch.setattr(WMSimulator, "_tick_scu_fast", recording_tick)
        assert _fields(WMSimulator(build_module(instrs, data)).run()) == \
            _fields(result)
        closed = gate.index(False)
        assert True in gate[closed:]

"""Pass sandbox: crashed passes degrade (or raise under --strict)."""

import pytest

from repro.compiler import compile_source
from repro.obs import RemarkCollector, use_remarks
from repro.opt import BREAK_PASS_ENV, OptOptions, PassCrashError
from repro.opt.pipeline import _DEGRADABLE

SOURCE = """
int a[50]; int b[50];
int main(void) {
    int i; int s;
    s = 0;
    for (i = 0; i < 50; i++) a[i] = i * 3;
    for (i = 0; i < 50; i++) b[i] = a[i] + 7;
    for (i = 0; i < 50; i++) s = s + b[i];
    return s;
}
"""


def break_pass(monkeypatch, name):
    monkeypatch.setenv(BREAK_PASS_ENV, name)


class TestDegradation:
    def test_crashed_pass_degrades(self, monkeypatch):
        break_pass(monkeypatch, "dce")
        result = compile_source(SOURCE)
        crashed = result.reports["main"].crashed
        assert len(crashed) >= 1
        assert all(c["pass"] == "dce" and c["degraded"] for c in crashed)
        assert "injected fault" in crashed[0]["error"]

    def test_degraded_output_still_correct(self, monkeypatch):
        oracle = compile_source(SOURCE).run_oracle()
        break_pass(monkeypatch, "streaming")
        sim = compile_source(SOURCE).simulate()
        assert sim.value == oracle.value

    def test_every_degradable_pass_degrades(self, monkeypatch):
        # The sandbox contract holds for each pass in the set, not just
        # the ones the other tests happen to pick.
        for name in sorted(_DEGRADABLE):
            break_pass(monkeypatch, name)
            result = compile_source(SOURCE)
            sim = result.simulate()
            assert sim.value == 4025, name

    def test_remark_emitted(self, monkeypatch):
        break_pass(monkeypatch, "licm")
        collector = RemarkCollector()
        with use_remarks(collector):
            compile_source(SOURCE)
        remarks = [r for r in collector.remarks
                   if r.reason == "pass-crashed"]
        assert remarks
        assert remarks[0].args["pass"] == "licm"
        assert remarks[0].args["degraded"] is True

    def test_unbroken_compile_reports_no_crashes(self):
        result = compile_source(SOURCE)
        assert result.reports["main"].crashed == []


class TestStrict:
    def test_strict_raises(self, monkeypatch):
        break_pass(monkeypatch, "dce")
        with pytest.raises(PassCrashError) as info:
            compile_source(SOURCE, options=OptOptions(strict=True))
        err = info.value
        assert err.pass_name == "dce"
        assert err.function == "main"
        assert isinstance(err.cause, RuntimeError)

    def test_non_degradable_pass_always_raises(self, monkeypatch):
        # Lowering passes (regalloc) have no sound pre-pass IR to fall
        # back to: a crash there is fatal even without --strict.
        break_pass(monkeypatch, "regalloc")
        with pytest.raises(PassCrashError) as info:
            compile_source(SOURCE)
        assert info.value.pass_name == "regalloc"

    def test_unknown_pass_name_is_inert(self, monkeypatch):
        break_pass(monkeypatch, "no-such-pass")
        sim = compile_source(SOURCE).simulate()
        assert sim.value == 4025


def _strict_targets():
    from dataclasses import replace

    from repro.compiler import scalar_options
    from repro.machine.m68020 import M68020
    from repro.machine.scalar import make_machine

    scalar = replace(scalar_options(), strict=True)
    return {
        "wm": (None, OptOptions(strict=True)),
        "wm-no-streaming": (None, replace(OptOptions.no_streaming(),
                                          strict=True)),
        "m68020": (M68020(), scalar),
        "vax8600": (make_machine("vax8600"), scalar),
    }


@pytest.mark.parametrize("target", sorted(_strict_targets()))
def test_benchsuite_compiles_strictly(target):
    """No pass crashes on the paper's programs.  Strict compiles raise
    PassCrashError where a default compile would roll the pass back and
    hide the crash behind correct but less optimized code."""
    from repro.benchsuite import PROGRAMS, get_program

    machine, options = _strict_targets()[target]
    for name in sorted(PROGRAMS):
        compile_source(get_program(name, scale=0.25).source,
                       machine=machine, options=options)

"""Optimization remarks: a structured "why" for every compiler decision.

LLVM's ``-Rpass`` family answers the question the pass reports cannot:
not just *what* the optimizer did, but *why it did or did not* transform
each candidate.  A :class:`Remark` is one such record:

* ``pass_name`` — the pass that made the decision (``streaming``,
  ``recurrence``, ``licm``, ``dce``, ``strength``);
* ``kind`` — ``applied`` (a transformation fired), ``missed`` (a
  candidate was rejected), or ``analysis`` (a fact that constrained
  later decisions, e.g. an unsafe partition);
* ``reason`` — a *stable machine-readable code* from :data:`REASONS`
  (``not-affine``, ``fifo-pressure``, ``region-alias``, …) that tests
  and tooling can match on without parsing prose;
* anchors — ``function``, ``loop`` (header label), ``lno`` (source
  line), plus free-form ``args`` (e.g. the partition vector of the
  memory reference the decision was about).

Remarks flow through a process-global *sink* that follows the
``NullTracer`` pattern of :mod:`repro.obs.tracer`: the default
:data:`NULL_REMARKS` sink makes every ``emit`` a constant-time no-op
(instrumentation left in the passes costs an attribute check and
nothing else, and is in every compile ``bench/run.py`` times), and
:func:`use_remarks` installs a recording :class:`RemarkCollector` for a
scope.  A collector forwards each remark to the current tracer as an
instant event (so Chrome traces show decisions inline with the pass
spans) and bumps a ``remarks.<pass>.<kind>`` counter.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Optional

__all__ = [
    "REASONS", "Remark", "NullRemarkSink", "RemarkCollector",
    "NULL_REMARKS", "get_remark_sink", "set_remark_sink", "use_remarks",
]

#: Every stable reason code a remark may carry, with its one-line
#: human description.  The table is the contract: tests match codes,
#: ``repro explain --sarif`` exports it as the rule set, and DESIGN.md
#: renders it as documentation.  Codes are never reused or renamed.
REASONS: dict[str, str] = {
    # -- applied ----------------------------------------------------------
    "streamed": "memory reference converted to a SinD/SoutD stream",
    "streamed-infinite":
        "reference streamed with an infinite stream + Sstop at loop exits",
    "rotated": "recurrence load replaced by register rotation",
    "loop-test-replaced":
        "loop compare/branch replaced by a stream-status jump (JNIf)",
    "iv-deleted": "dead induction-variable update deleted",
    "hoisted": "loop-invariant assignments moved to the preheader",
    "dead-code-removed": "dead assignments deleted",
    "dead-iv-removed": "self-recomputing register sweep deleted updates",
    "strength-reduced":
        "address arithmetic replaced by a stepping pointer register",
    # -- missed / analysis: reference-level -------------------------------
    "not-affine":
        "address is not an affine function of a basic induction variable",
    "non-constant-scale":
        "address multiplies the induction variable by a non-constant",
    "two-base-terms":
        "address combines two non-constant base terms",
    "two-ivs": "address involves more than one induction variable",
    "multi-def-temp":
        "address depends on a register with several in-loop definitions",
    "depth-limit": "address expression exceeds the affine analyzer's "
                   "chase depth",
    "unsupported-op": "address uses an operator outside the affine forms",
    "not-every-iteration":
        "reference does not execute on every iteration of the loop",
    "zero-stride": "address does not advance between iterations",
    "iv-order-ambiguous":
        "reference order relative to the IV update is ambiguous or the "
        "update is conditional",
    "numeric-base":
        "address has a numeric base: no symbol to anchor disjointness",
    "not-simple-assign":
        "reference instruction is not a simple load/store assignment",
    "store-src-not-reg":
        "stored value is not a register or immediate (cannot enqueue)",
    "multi-def-dst":
        "load destination has multiple definitions; uses cannot be "
        "rewritten to a FIFO or hold register",
    "fifo-pressure":
        "no FIFO register available for this reference class",
    "infinite-store":
        "output streams need a definite element count; store left as a "
        "plain FIFO store in an unbounded loop",
    # -- missed / analysis: partition-level -------------------------------
    "region-alias":
        "an unanalyzable reference may alias this region (partition "
        "conservatively unsafe)",
    "call-in-loop": "a call inside the loop may touch any region",
    "region-unknown": "the referenced memory region cannot be determined",
    "mixed-iv": "references in the partition use different induction "
                "variables",
    "mixed-cee": "references in the partition have different 'cee' "
                 "coefficients",
    "offset-misaligned":
        "relative offsets within the partition are not divisible by the "
        "stride",
    "recurrence-present":
        "partition carries a memory recurrence; streaming would reorder "
        "the dependence",
    # -- missed / analysis: recurrence-level ------------------------------
    "multiple-writes":
        "recurrence partition has more than one store per iteration",
    "write-conditional": "the recurrence store is conditionally executed",
    "degree-too-high":
        "recurrence degree exceeds the register-rotation limit",
    # -- missed / analysis: loop-level ------------------------------------
    "unknown-loop-count":
        "iteration count could not be computed from the loop test",
    "short-trip-count": "three or fewer iterations: stream set-up cost "
                        "exceeds the benefit (paper Step 1)",
    "multi-exit":
        "a counted stream requires the bottom test to be the only exit",
    "infinite-disallowed":
        "infinite streams disabled by the optimization options",
    "no-exit-edges": "loop has no exit edges to attach stream stops to",
    "no-stream-candidates": "no reference in the loop qualified for "
                            "streaming",
    "iv-not-dead":
        "induction variable still has uses or is live after the loop",
    # -- robustness: pipeline degradation and harness recovery ------------
    "pass-crashed":
        "an optimization pass raised; the pipeline rolled the function "
        "back to the pre-pass IR and continued (degraded compile)",
    "job-retried":
        "a parallel job's worker failed; the job was retried serially "
        "in the parent process",
    "job-quarantined":
        "a job failed both its worker run and the serial retry; its "
        "result row carries the error instead of values",
    # -- robustness: injected simulator faults (repro.qa.faults) ----------
    "fault-mem-delay":
        "fault injection delayed in-flight memory responses",
    "fault-mem-drop":
        "fault injection dropped an in-flight memory response",
    "fault-fifo-overflow":
        "fault injection filled a FIFO and pushed past capacity",
    "fault-fifo-underflow":
        "fault injection popped from an empty FIFO",
    "fault-stream-close":
        "fault injection closed an active stream reservation early",
    "fault-worker-kill":
        "fault injection hard-killed a parallel worker process",
    # -- headroom (static pipeline bounds on the scheduled loop) --
    "headroom-res-mii":
        "resource-minimum initiation interval: per-iteration pressure "
        "on the busiest resource (IFU dispatch, IEU/FEU occupancy, or "
        "memory ports)",
    "headroom-rec-mii":
        "recurrence-minimum initiation interval: the critical "
        "latency/distance circuit through loop-carried register "
        "dependences",
    "headroom-bound":
        "combined lower bound max(ResMII, RecMII) on the steady-state "
        "initiation interval of the scheduled loop",
}


@dataclass
class Remark:
    """One structured optimization decision record."""

    pass_name: str
    kind: str                 # 'applied' | 'missed' | 'analysis'
    reason: str               # a key of REASONS
    function: str = ""
    loop: str = ""            # loop header label, "" for non-loop remarks
    lno: int = 0              # source line anchor (0 = none)
    block: str = ""           # basic-block label anchor
    detail: str = ""          # human-readable one-liner
    args: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        data = {
            "pass": self.pass_name,
            "kind": self.kind,
            "reason": self.reason,
            "function": self.function,
        }
        if self.loop:
            data["loop"] = self.loop
        if self.lno:
            data["line"] = self.lno
        if self.block:
            data["block"] = self.block
        if self.detail:
            data["detail"] = self.detail
        if self.args:
            data["args"] = dict(self.args)
        return data

    def __repr__(self) -> str:
        anchor = self.loop or self.block or (f"line {self.lno}"
                                             if self.lno else "")
        return (f"<Remark {self.pass_name}:{self.kind}:{self.reason}"
                f"{' @' + anchor if anchor else ''}>")


_VALID_KINDS = frozenset({"applied", "missed", "analysis"})


class NullRemarkSink:
    """The disabled sink: ``emit`` is a constant-time no-op.

    Instrumentation sites should branch on ``enabled`` before building
    a Remark — constructing the record is the expensive part — so the
    default path costs one global read and one attribute test.
    """

    enabled = False
    remarks: list = []

    def emit(self, remark: Remark) -> None:
        return None

    def position(self) -> int:
        return 0

    def since(self, position: int) -> list:
        return []


class RemarkCollector:
    """A recording sink: keeps every remark, forwards to the tracer.

    ``emit`` validates the kind and reason code (catching typos at the
    instrumentation site rather than in a consumer) and, when a
    recording tracer is installed, mirrors the remark as an instant
    trace event plus a ``remarks.<pass>.<kind>`` counter so decisions
    appear inline in Chrome traces and in the metrics snapshot.
    """

    enabled = True

    def __init__(self) -> None:
        self.remarks: list[Remark] = []
        self._lock = threading.Lock()

    def emit(self, remark: Remark) -> None:
        if remark.kind not in _VALID_KINDS:
            raise ValueError(f"invalid remark kind {remark.kind!r}")
        if remark.reason not in REASONS:
            raise ValueError(f"unknown remark reason {remark.reason!r}")
        with self._lock:
            self.remarks.append(remark)
        from .tracer import get_tracer
        tracer = get_tracer()
        if tracer.enabled:
            tracer.count(f"remarks.{remark.pass_name}.{remark.kind}")
            tracer.event(
                f"remark.{remark.pass_name}", category="remark",
                kind=remark.kind, reason=remark.reason,
                function=remark.function, loop=remark.loop,
                lno=remark.lno, detail=remark.detail)

    # -- slicing (used by the pipeline to attribute remarks per function) --
    def position(self) -> int:
        with self._lock:
            return len(self.remarks)

    def since(self, position: int) -> list[Remark]:
        with self._lock:
            return list(self.remarks[position:])

    def counts(self) -> dict:
        """``{pass: {kind: n}}`` rollup of everything collected."""
        out: dict[str, dict[str, int]] = {}
        with self._lock:
            for r in self.remarks:
                per = out.setdefault(r.pass_name, {})
                per[r.kind] = per.get(r.kind, 0) + 1
        return out


#: The process-default sink; swapped (never mutated) by set_remark_sink.
NULL_REMARKS = NullRemarkSink()

_global_lock = threading.Lock()
_global_sink = NULL_REMARKS


def get_remark_sink():
    """The current process-wide sink (a collector or ``NULL_REMARKS``)."""
    return _global_sink


def set_remark_sink(sink) -> None:
    """Install ``sink`` (pass ``None`` to restore the null sink)."""
    global _global_sink
    with _global_lock:
        _global_sink = sink if sink is not None else NULL_REMARKS


class use_remarks:
    """Context manager: install a sink for a scope, then restore.

    >>> collector = RemarkCollector()
    >>> with use_remarks(collector):
    ...     compile_source(...)   # passes record decisions
    """

    __slots__ = ("_sink", "_previous")

    def __init__(self, sink) -> None:
        self._sink = sink
        self._previous = None

    def __enter__(self):
        global _global_sink
        with _global_lock:
            self._previous = _global_sink
            _global_sink = self._sink if self._sink is not None \
                else NULL_REMARKS
        return self._sink

    def __exit__(self, exc_type, exc, tb) -> bool:
        global _global_sink
        with _global_lock:
            _global_sink = self._previous
        return False

"""Exporters: Chrome trace-event JSON, flat metrics JSON, text summary.

The Chrome format is the `Trace Event Format
<https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>`_
consumed by ``chrome://tracing`` / Perfetto: a ``traceEvents`` array of
complete ("X") and instant ("i") events with microsecond timestamps.
Wall-clock spans go on the real thread that recorded them (pid 1);
simulated-time spans (``track`` set) go on a virtual process per track
(pid 2) where one "microsecond" is one machine cycle, so the per-unit
timeline of a simulation is zoomable alongside the compile.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from dataclasses import dataclass, field
from typing import Optional

from .tracer import Tracer

__all__ = [
    "chrome_trace", "write_chrome_trace", "metrics_json",
    "format_summary", "RunCounters", "format_run_counters",
    "run_manifest",
]


def run_manifest(argv: Optional[list] = None) -> dict:
    """A self-describing header for every machine-readable artifact.

    Perf numbers and remark streams are only comparable when the
    producing environment is known; the manifest pins the repro
    version, compiler revision, interpreter, hash seed, platform,
    command line, and the compile-cache hit/miss picture of the
    producing process (both tiers — whether a number came from cold compiles or
    a warm artifact store is part of its provenance), and is embedded
    in every ``--json``/``--trace-out`` export.
    """
    from .. import __compiler_rev__, __version__
    # Function-level import: obs is imported by the compiler, which the
    # perf cache imports in turn — importing it at module scope would
    # close that cycle at import time.
    from ..perf.cache import cache_stats
    return {
        "repro_version": __version__,
        "compiler_rev": __compiler_rev__,
        "python": sys.version.split()[0],
        "pythonhashseed": os.environ.get("PYTHONHASHSEED", ""),
        "platform": platform.platform(),
        "argv": list(sys.argv if argv is None else argv),
        "cache": cache_stats(),
    }

_WALL_PID = 1
_SIM_PID = 2


def chrome_trace(tracer: Tracer) -> dict:
    """Render a tracer's spans/events as a Chrome trace-event dict."""
    events: list[dict] = []
    tracks: dict[str, int] = {}

    def _tid(span_track: Optional[str], thread_id: int) -> tuple[int, int]:
        if span_track is None:
            return _WALL_PID, thread_id % 1_000_000
        tid = tracks.setdefault(span_track, len(tracks) + 1)
        return _SIM_PID, tid

    epoch = getattr(tracer, "_epoch", 0.0)
    for span in tracer.spans:
        pid, tid = _tid(span.track, span.thread_id)
        if span.track is None:
            ts = (span.start - epoch) * 1e6
            end = span.end if span.end is not None else span.start
            dur = (end - span.start) * 1e6
        else:
            ts = float(span.start)
            end = span.end if span.end is not None else span.start
            dur = float(end - span.start)
        event = {"name": span.name, "cat": span.category or "repro",
                 "ph": "X", "ts": ts, "dur": dur, "pid": pid, "tid": tid}
        if span.args:
            event["args"] = dict(span.args)
        events.append(event)
    for evt in tracer.events:
        pid, tid = _tid(evt.track, evt.thread_id)
        ts = (evt.timestamp - epoch) * 1e6 if evt.track is None \
            else float(evt.timestamp)
        if evt.category == "counter":
            # Counter sample (e.g. FIFO occupancy): rendered by Chrome
            # as a stacked value lane rather than an instant marker.
            events.append({"name": evt.name, "cat": "counter", "ph": "C",
                           "ts": ts, "pid": pid, "tid": tid,
                           "args": dict(evt.args)})
            continue
        event = {"name": evt.name, "cat": evt.category or "repro",
                 "ph": "i", "ts": ts, "s": "t", "pid": pid, "tid": tid}
        if evt.args:
            event["args"] = dict(evt.args)
        events.append(event)
    # Name the virtual tracks so chrome://tracing shows unit names.
    for track, tid in tracks.items():
        events.append({"name": "thread_name", "ph": "M", "pid": _SIM_PID,
                       "tid": tid, "args": {"name": track}})
    events.append({"name": "process_name", "ph": "M", "pid": _WALL_PID,
                   "tid": 0, "args": {"name": "compile (wall time)"}})
    if tracks:
        events.append({"name": "process_name", "ph": "M", "pid": _SIM_PID,
                       "tid": 0,
                       "args": {"name": "simulation (1us = 1 cycle)"}})
    events.sort(key=lambda e: (e["pid"], e["tid"], e.get("ts", 0.0)))
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": {"manifest": run_manifest()}}


def write_chrome_trace(tracer: Tracer, path: str) -> None:
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(chrome_trace(tracer), fh, indent=1)


def metrics_json(tracer: Tracer) -> dict:
    """Flat machine-readable snapshot: metrics + span timing rollup."""
    rollup: dict[str, dict] = {}
    for span in tracer.spans:
        if span.track is not None or span.end is None:
            continue
        agg = rollup.setdefault(span.name,
                                {"count": 0, "total_s": 0.0, "max_s": 0.0})
        agg["count"] += 1
        agg["total_s"] += span.duration
        agg["max_s"] = max(agg["max_s"], span.duration)
    return {
        "spans": {name: {**agg,
                         "total_s": round(agg["total_s"], 6),
                         "max_s": round(agg["max_s"], 6)}
                  for name, agg in sorted(rollup.items())},
        "events": len(tracer.events),
        "metrics": tracer.metrics.to_dict(),
    }


def format_summary(tracer: Tracer) -> str:
    """Human-readable digest: slowest spans, counters, event headlines."""
    lines: list[str] = []
    data = metrics_json(tracer)
    if data["spans"]:
        lines.append("span timings (wall):")
        ranked = sorted(data["spans"].items(),
                        key=lambda item: -item[1]["total_s"])
        for name, agg in ranked[:20]:
            lines.append(f"  {name:40s} {agg['total_s'] * 1e3:9.2f} ms"
                         f"  x{agg['count']}")
    counters = data["metrics"]["counters"]
    if counters:
        lines.append("counters:")
        for name, value in counters.items():
            lines.append(f"  {name:40s} {value}")
    gauges = data["metrics"]["gauges"]
    if gauges:
        lines.append("gauges (value / high-water):")
        for name, g in gauges.items():
            lines.append(f"  {name:40s} {g['value']} / {g['high_water']}")
    sim_spans = [s for s in tracer.spans if s.track is not None]
    if sim_spans:
        lines.append("simulated-time spans (cycles):")
        for span in sim_spans[:40]:
            lines.append(f"  [{span.track}] {span.name:30s} "
                         f"{span.start:.0f}..{span.end:.0f}"
                         f"  ({span.duration:.0f})")
    if not lines:
        lines.append("(tracer recorded nothing)")
    return "\n".join(lines)


# -- run-command counters -----------------------------------------------------

@dataclass
class RunCounters:
    """Counters printed by ``repro run`` — one dataclass for both the
    WM cycle simulator and the scalar cost-weighted executor, rendered
    by :func:`format_run_counters` (byte-identical to the historical
    ad-hoc prints) or serialized by :meth:`to_dict` for ``--json``."""

    value: object
    oracle: object
    cycles: float
    instructions: int
    #: WM-only fields
    unit_instructions: Optional[dict] = None
    memory_reads: Optional[int] = None
    memory_writes: Optional[int] = None
    stream_elements: Optional[int] = None
    #: scalar-only fields
    memory_refs: Optional[int] = None
    weighted: bool = False
    extra: dict = field(default_factory=dict)

    @property
    def status(self) -> str:
        return "OK" if self.value == self.oracle else "MISMATCH"

    @property
    def ok(self) -> bool:
        return self.value == self.oracle

    def to_dict(self) -> dict:
        data = {
            "result": self.value,
            "oracle": self.oracle,
            "status": self.status,
            "cycles": self.cycles,
            "instructions": self.instructions,
        }
        if self.weighted:
            data["memory_refs"] = self.memory_refs
        else:
            data["unit_instructions"] = dict(self.unit_instructions or {})
            data["memory_reads"] = self.memory_reads
            data["memory_writes"] = self.memory_writes
            data["stream_elements"] = self.stream_elements
        if self.extra:
            data.update(self.extra)
        return data


def format_run_counters(counters: RunCounters) -> str:
    """The ``repro run`` text report (kept byte-identical to the output
    the CLI printed before the obs layer existed)."""
    lines = [f"result: {counters.value}  "
             f"(oracle {counters.oracle}: {counters.status})"]
    if counters.weighted:
        lines.append(f"weighted cycles: {counters.cycles:.0f}")
        lines.append(f"instructions: {counters.instructions}, "
                     f"memory refs: {counters.memory_refs}")
    else:
        lines.append(f"cycles: {counters.cycles}")
        lines.append(f"instructions: {counters.instructions} "
                     f"(IEU {counters.unit_instructions['IEU']}, "
                     f"FEU {counters.unit_instructions['FEU']})")
        lines.append(f"memory: {counters.memory_reads} reads, "
                     f"{counters.memory_writes} writes, "
                     f"{counters.stream_elements} stream elements")
    return "\n".join(lines)

"""Loop-level cycle profile reports (`repro profile`).

Folds a profiled simulation (:class:`repro.sim.telemetry.CycleLedger`,
produced by ``simulate(profile=True)``) and the static headroom bounds
(:mod:`repro.opt.bounds`) into one report answering the paper's two
operative questions per loop:

* **where did the cycles go** — pc-residency cycles and the per-unit
  cause breakdown (execute / fifo-full / fifo-empty / memory-latency /
  unit-busy / branch / drain / idle), every cycle attributed exactly
  once per unit;
* **how good is the schedule** — the measured steady-state initiation
  interval (periodicity-detected over recent back-edge deltas) against
  the machine lower bound ``max(ResMII, RecMII)``; their ratio is the
  *headroom* a better scheduler could still claim.

The report is a plain JSON-serializable dict; :func:`format_profile_report`
renders the human table the CLI prints by default.
"""

from __future__ import annotations

from typing import Optional

from ..sim.telemetry import LEDGER_CAUSES, detect_steady_ii
from .export import run_manifest

__all__ = ["build_profile_report", "format_profile_report",
           "headroom_summary", "profile_schema_errors"]

#: causes that are productive work rather than lost cycles
_NON_STALL = ("execute", "idle", "drain")


def _bounds_index(bounds) -> dict:
    index = {}
    for b in bounds or ():
        entry = b if isinstance(b, dict) else b.to_dict()
        index[(entry["function"], entry["loop"])] = entry
    return index


def build_profile_report(result, bounds=None, source: str = "",
                         target: str = "wm", opt: str = "full",
                         argv: Optional[list] = None,
                         ff_stats: Optional[dict] = None) -> dict:
    """The profile report for one simulated run.

    ``result`` is a :class:`repro.sim.machine.SimResult` from a
    ``profile=True`` simulation; ``bounds`` an optional list of
    :class:`repro.opt.bounds.LoopBounds` (or their dicts) joined to
    loops by ``(function, header label)``.  ``ff_stats`` is the
    superop engine's coverage from a companion *plain* run of the same
    module (``SuperopCache.last_ff_stats``, keyed by loop header
    index) — profiled runs observe every cycle and never engage the
    closed form themselves, so coverage is measured on the
    uninstrumented twin and joined per loop here.
    """
    telemetry = result.telemetry
    ledger = getattr(telemetry, "ledger", None)
    if ledger is None:
        raise ValueError("profile report needs a profile=True simulation "
                         "(no cycle ledger on this result)")
    if ff_stats is not None:
        # a loop whose only window was rejected advanced nothing
        ff_stats = {header: stats for header, stats in ff_stats.items()
                    if stats["windows"]}
    cycles = result.cycles
    by_label = _bounds_index(bounds)
    lane_totals = {lane: ledger.lane_total(lane) for lane in ledger.lanes}
    loops = []
    for info in ledger.loopmap.loops:
        lid = info.lid
        residency = ledger.loop_cycles(lid)
        lanes = {lane: dict(sorted(ledger.lanes[lane].get(lid, {}).items()))
                 for lane in sorted(ledger.lanes)}
        if residency == 0 and lid != 0 and not any(lanes.values()):
            continue  # loop never entered at this scale
        stalls: dict[str, int] = {}
        for causes in lanes.values():
            for cause, count in causes.items():
                if cause not in _NON_STALL:
                    stalls[cause] = stalls.get(cause, 0) + count
        top_stalls = sorted(stalls.items(),
                            key=lambda kv: (-kv[1], kv[0]))
        iters = ledger.iters.get(lid)
        ii = detect_steady_ii(iters) if iters is not None else None
        bound = by_label.get((info.function, info.label))
        headroom = None
        if ii is not None and ii["ii"] and bound and bound["bound"] > 0:
            headroom = round(ii["ii"] / bound["bound"], 3)
        iterations = iters.iterations if iters is not None else 0
        ff = (ff_stats or {}).get(info.header)
        fastforward = None
        if ff is not None:
            fastforward = {
                "iterations": ff["iterations"],
                "windows": ff["windows"],
                "period": ff["period"],
                "cycles": ff["cycles"],
                "percent_iterations":
                    round(100.0 * ff["iterations"] / iterations, 1)
                    if iterations else None,
            }
        loops.append({
            **info.to_dict(),
            "cycles": residency,
            "percent": round(100.0 * residency / cycles, 2) if cycles
            else 0.0,
            "lanes": lanes,
            "top_stalls": [[cause, count] for cause, count in top_stalls],
            "iterations": iterations,
            "ii": ii,
            "bound": bound,
            "headroom": headroom,
            "fastforward": fastforward,
        })
    loops.sort(key=lambda row: (-row["cycles"], row["lid"]))
    return {
        "manifest": run_manifest(argv),
        "source": source,
        "target": target,
        "opt": opt,
        "value": result.value,
        "cycles": cycles,
        "causes": list(LEDGER_CAUSES),
        "superop": {
            "measured": ff_stats is not None,
            "loops_advanced": len(ff_stats or {}),
            "iterations_advanced": sum(s["iterations"]
                                       for s in (ff_stats or {}).values()),
            "cycles_advanced": sum(s["cycles"]
                                   for s in (ff_stats or {}).values()),
        },
        "invariant": {
            "cycles": cycles,
            "lanes": dict(sorted(lane_totals.items())),
            "ok": all(total == cycles for total in lane_totals.values()),
        },
        "loops": loops,
        "fifo_tracks": {name: [list(t) for t in track]
                        for name, track in
                        sorted(ledger.fifo_tracks.items())},
        "tracks_truncated": ledger.tracks_truncated,
    }


def headroom_summary(result, bounds=None) -> list:
    """Compact measured-II-vs-bound rows for the *streamed* loops of a
    profiled run — the payload behind Table II's headroom column.
    Sorted by residency so entry 0 is the dominant streamed loop."""
    telemetry = result.telemetry
    ledger = getattr(telemetry, "ledger", None)
    if ledger is None:
        return []
    by_label = _bounds_index(bounds)
    rows = []
    for info in ledger.loopmap.loops:
        if not info.streamed:
            continue
        iters = ledger.iters.get(info.lid)
        if iters is None or iters.iterations < 2:
            continue
        ii = detect_steady_ii(iters)
        bound = by_label.get((info.function, info.label))
        headroom = None
        if ii["ii"] and bound and bound["bound"] > 0:
            headroom = round(ii["ii"] / bound["bound"], 3)
        rows.append({
            "function": info.function,
            "loop": info.label,
            "cycles": ledger.loop_cycles(info.lid),
            "iterations": iters.iterations,
            "measured_ii": round(ii["ii"], 4) if ii["ii"] else None,
            "periodic": ii["periodic"],
            "res_mii": bound["res_mii"] if bound else None,
            "rec_mii": bound["rec_mii"] if bound else None,
            "bound": bound["bound"] if bound else None,
            "headroom": headroom,
        })
    rows.sort(key=lambda row: (-row["cycles"], row["function"],
                               row["loop"]))
    return rows


def _fmt_ii(ii) -> str:
    if ii is None or ii["ii"] is None:
        return "-"
    tag = "" if ii["periodic"] else "~"
    return f"{tag}{ii['ii']:.2f}"


def _fmt_bound(bound) -> str:
    if not bound:
        return "-"
    return f"{bound['bound']:g}"


def format_profile_report(report: dict) -> str:
    """Human-readable rendering of :func:`build_profile_report`."""
    lines = []
    src = f" {report['source']}" if report["source"] else ""
    lines.append(f"profile:{src} {report['cycles']} cycles, "
                 f"value={report['value']}")
    inv = report["invariant"]
    lanes = " ".join(f"{lane}={total}"
                     for lane, total in inv["lanes"].items())
    lines.append(f"ledger: {'ok' if inv['ok'] else 'VIOLATED'} "
                 f"({lanes})")
    lines.append("")
    header = (f"{'loop':<24} {'cycles':>8} {'%':>6} {'iters':>7} "
              f"{'II':>8} {'bound':>6} {'headroom':>8} {'%ff':>6}  "
              f"top stalls")
    lines.append(header)
    lines.append("-" * len(header))
    for row in report["loops"]:
        name = row["label"] if not row["function"] \
            else f"{row['function']}/{row['label']}"
        if row["streamed"]:
            name += "*"
        stalls = ", ".join(f"{cause} {count}"
                           for cause, count in row["top_stalls"][:3])
        headroom = f"{row['headroom']:.1f}x" if row["headroom"] else "-"
        ff = row.get("fastforward")
        if ff is None or ff["percent_iterations"] is None:
            ff_pct = "-"
        else:
            ff_pct = f"{ff['percent_iterations']:.0f}"
        lines.append(
            f"{name:<24} {row['cycles']:>8} {row['percent']:>6.1f} "
            f"{row['iterations']:>7} {_fmt_ii(row['ii']):>8} "
            f"{_fmt_bound(row['bound']):>6} {headroom:>8} {ff_pct:>6}  "
            f"{stalls}")
    lines.append("")
    lines.append("loops marked * are streamed; II ~x.xx = mean "
                 "(no steady period found); headroom = measured II / "
                 "max(ResMII, RecMII)")
    superop = report.get("superop") or {}
    if superop.get("measured"):
        lines.append(
            "%ff = share of iterations the superop engine advanced "
            f"analytically (plain run: {superop['loops_advanced']} "
            f"loop(s), {superop['iterations_advanced']} iterations, "
            f"{superop['cycles_advanced']} cycles in closed form)")
    if report["tracks_truncated"]:
        lines.append("note: FIFO occupancy tracks truncated "
                     "(transition cap reached)")
    return "\n".join(lines)


def profile_schema_errors(report: dict) -> list[str]:
    """Validate the report shape (used by the CI smoke job and tests);
    returns a list of problems, empty when the report conforms."""
    errors = []

    def need(cond: bool, msg: str) -> None:
        if not cond:
            errors.append(msg)

    for key in ("manifest", "source", "value", "cycles", "causes",
                "invariant", "loops", "fifo_tracks", "tracks_truncated",
                "superop"):
        need(key in report, f"missing key {key!r}")
    if errors:
        return errors
    superop = report["superop"]
    need(set(superop) == {"measured", "loops_advanced",
                          "iterations_advanced", "cycles_advanced"},
         "superop entry shape")
    need(report["causes"] == list(LEDGER_CAUSES), "causes list mismatch")
    inv = report["invariant"]
    need(set(inv) == {"cycles", "lanes", "ok"}, "invariant shape")
    need(set(inv["lanes"]) == {"IEU", "FEU", "SCU"}, "invariant lanes")
    for lane, total in inv["lanes"].items():
        need(total == report["cycles"],
             f"lane {lane} attributed {total} != {report['cycles']}")
    for row in report["loops"]:
        for key in ("lid", "function", "label", "cycles", "percent",
                    "lanes", "top_stalls", "iterations", "ii", "bound",
                    "headroom", "streamed", "depth", "origins",
                    "fastforward"):
            need(key in row, f"loop row missing {key!r}")
        ff = row.get("fastforward")
        if ff is not None:
            need(set(ff) == {"iterations", "windows", "period",
                             "cycles", "percent_iterations"},
                 "fastforward entry shape")
        for lane, causes in row.get("lanes", {}).items():
            for cause in causes:
                need(cause in LEDGER_CAUSES,
                     f"unknown cause {cause!r} in lane {lane}")
    return errors

"""The paper's artifacts as golden data: build, write, compare, render.

:func:`build` computes every artifact — Tables I, II (plus ``lloop5``)
and III/IV, the stream-detection table, Figures 4-7 and the ablation
sweeps — at its one fixed size, as the JSON data the builders in
:mod:`repro.reporting.tables` return; a figure is a list of lines, so a
changed instruction shows up as one changed field.  ``repro tables``
writes one ``<artifact>.json`` per artifact (:func:`write`), lists every
field where fresh data differs from those files (:func:`compare`) and
prints the tables as the markdown blocks EXPERIMENTS.md embeds
(:func:`render`).  The committed goldens live in ``tests/golden/``.
"""

from __future__ import annotations

import json
import os
from typing import Callable, Optional

from .figures import all_figures
from .tables import (
    PAPER_TABLE1, PAPER_TABLE2, ablations, stream_detection, table1,
    table2, table3_4,
)

__all__ = ["BUILDERS", "build", "write", "load", "compare", "render"]

#: artifact name -> builder(workers) of its golden data, in output order
BUILDERS: dict[str, Callable[[Optional[int]], dict]] = {
    "table1": table1,
    "table2": table2,
    "table3_4": table3_4,
    "detection": stream_detection,
    "figures": lambda _workers: {name: text.splitlines()
                                 for name, text in all_figures().items()},
    "ablations": ablations,
}


def build(workers: Optional[int] = None) -> dict[str, dict]:
    """Every artifact's golden data; ``workers`` fans the runs out."""
    return {name: builder(workers) for name, builder in BUILDERS.items()}


def _path(directory: str, name: str) -> str:
    return os.path.join(directory, f"{name}.json")


def write(artifacts: dict[str, dict], directory: str) -> list[str]:
    """Write one JSON file per artifact; returns the paths written."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for name, data in artifacts.items():
        path = _path(directory, name)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(json.dumps(data, indent=2) + "\n")
        paths.append(path)
    return paths


def _read(directory: str, name: str) -> dict:
    with open(_path(directory, name), encoding="utf-8") as fh:
        return json.load(fh)


def load(directory: str) -> dict[str, dict]:
    """The golden data of every artifact, read from ``directory``."""
    return {name: _read(directory, name) for name in BUILDERS}


def _flatten(path: str, value, out: dict) -> None:
    if isinstance(value, dict):
        for key, item in value.items():
            _flatten(f"{path}.{key}", item, out)
    elif isinstance(value, list):
        for index, item in enumerate(value):
            _flatten(f"{path}.{index}", item, out)
    else:
        out[path] = value


_ABSENT = object()


def _show(value) -> str:
    return "<absent>" if value is _ABSENT else json.dumps(value)


def compare(artifacts: dict[str, dict], directory: str) -> list[str]:
    """One ``path: golden X, got Y`` line per field that differs."""
    lines = []
    for name, data in artifacts.items():
        try:
            stored = _read(directory, name)
        except FileNotFoundError:
            lines.append(f"{name}: no golden file {_path(directory, name)}")
            continue
        except ValueError as exc:
            lines.append(f"{name}: unreadable golden file "
                         f"{_path(directory, name)}: {exc}")
            continue
        golden, fresh = {}, {}
        _flatten(name, stored, golden)
        _flatten(name, data, fresh)
        for key in dict.fromkeys([*golden, *fresh]):
            old, new = golden.get(key, _ABSENT), fresh.get(key, _ABSENT)
            if old != new:
                lines.append(f"{key}: golden {_show(old)}, got {_show(new)}")
    return lines


def _md_table(header: list[str], rows: list[list]) -> str:
    """A markdown table: first column left-aligned, the rest right;
    numbers with thousands separators."""
    def cell(value) -> str:
        return f"{value:,.0f}" if isinstance(value, (int, float)) else value
    lines = ["| " + " | ".join(header) + " |",
             "|---" + "|---:" * (len(header) - 1) + "|"]
    lines += ["| " + " | ".join(map(cell, row)) + " |" for row in rows]
    return "\n".join(lines)


def _render_table1(data: dict) -> str:
    return _md_table(
        ["Machine", "Paper %", "Measured %", "Baseline cycles",
         "Optimized cycles"],
        [[machine, str(PAPER_TABLE1[machine]), f"{row['percent']:.1f}",
          row["baseline_cycles"], row["optimized_cycles"]]
         for machine, row in data.items()])


def _render_table2(data: dict) -> str:
    # The paper's order (largest gain first); lloop5 is not a paper row.
    order = sorted(data, key=lambda name: -PAPER_TABLE2.get(name, -1))
    return _md_table(
        ["Program", "Paper %", "Measured %", "Base cycles", "Stream cycles",
         "Streams in/out", "II measured / bound"],
        [[name, str(PAPER_TABLE2.get(name, "—")), f"{row['percent']:.1f}",
          row["base"]["cycles"], row["stream"]["cycles"],
          f"{row['streams_in']}/{row['streams_out']}",
          "—" if row["measured_ii"] is None
          else f"{row['measured_ii']:g} / {row['bound_ii']:g}"]
         for name, row in ((name, data[name]) for name in order)])


def _render_table3_4(data: dict) -> str:
    rows = [[name, row["cc_cycles"], row["vpo_cycles"], f"{row['ratio']:.2f}"]
            for name, row in data.items() if name != "geomean"]
    rows.append(["**geomean**", "", "", f"**{data['geomean']:.2f}**"])
    return _md_table(["Program", "cc cycles", "vpo cycles", "Speedup"],
                     rows)


def _grid(corner: str, data: dict) -> str:
    """A ``{row: {column: value}}`` mapping as a markdown table."""
    return _md_table([corner, *next(iter(data.values()))],
                     [[key, *row.values()] for key, row in data.items()])


_RENDERERS = {
    "table1": _render_table1,
    "table2": _render_table2,
    "table3_4": _render_table3_4,
    "detection": lambda data: _grid("kernel", data),
    "ablations": lambda data: "\n\n".join(
        _grid(sweep, rows) for sweep, rows in data.items()),
}


def render(artifacts: dict[str, dict]) -> dict[str, str]:
    """Each rendered artifact's markdown block, between its markers.

    EXPERIMENTS.md embeds every block verbatim; the figures are printed
    by ``repro figures`` instead.
    """
    return {name: f"<!-- golden:{name} -->\n{renderer(artifacts[name])}\n"
                  f"<!-- /golden:{name} -->"
            for name, renderer in _RENDERERS.items()}

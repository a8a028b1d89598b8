"""Regeneration of every table and figure in the paper's evaluation,
and their golden data (:mod:`repro.reporting.golden`)."""

from .figures import (
    LIVERMORE5, all_figures, figure4, figure5, figure6, figure7,
)
from .tables import (
    PAPER_TABLE1, PAPER_TABLE2, ablations, stream_detection, table1,
    table2, table3_4,
)

__all__ = [
    "LIVERMORE5", "all_figures", "figure4", "figure5", "figure6", "figure7",
    "PAPER_TABLE1", "PAPER_TABLE2", "ablations", "stream_detection",
    "table1", "table2", "table3_4",
]

"""Cached analyses for one ``optimize_function`` run.

The pass pipeline used to recompute liveness, dominators and the loop
forest from scratch inside every pass (and, for DCE, on every round of
its fixpoint loop) — over a hundred full solves per function pair on the
benchmark suite.  The :class:`AnalysisManager` gives the pipeline a
single cache with an explicit preserve/invalidate discipline:

* passes *request* analyses (``am.liveness()``, ``am.dominators()``,
  ``am.loops()``, ``am.defs()``) and get the cached result when it is
  still valid;
* after a pass runs, the pipeline invalidates everything the pass did
  not declare preserved (see ``_PRESERVES`` in :mod:`.pipeline`);
* a pass that keeps an analysis *up to date* through its own mutations
  (DCE refreshes liveness incrementally after deleting instructions)
  may declare it preserved, and the next pass gets it for free.

Dependencies are tracked conservatively: the loop forest is derived from
dominators, so invalidating dominators always drops the loop forest too.

The manager is per-CFG and per-run; nothing here is process-global (the
cell interning table in :mod:`repro.rtl.expr` is, but masks from
different functions compose safely because indices are never reused).
"""

from __future__ import annotations

from typing import Iterable, Optional

from .cfg import CFG, Block
from .dataflow import Liveness, compute_liveness
from .dominators import Dominators, compute_dominators
from .induction import DefTable
from .loops import Loop, find_loops

__all__ = ["AnalysisManager", "ALL_ANALYSES"]

#: Every analysis the manager knows how to cache.
ALL_ANALYSES = frozenset({"liveness", "dominators", "loops", "defs"})


class AnalysisManager:
    """Lazy, invalidatable cache of per-CFG analyses.

    The ``*_solves`` counters record how many times each analysis was
    actually computed (cache misses); tests use them to prove that the
    pipeline solves liveness at most once per segment between
    invalidation points.
    """

    __slots__ = ("cfg", "_liveness", "_dominators", "_loops", "_defs",
                 "liveness_solves", "dominator_solves", "loop_solves",
                 "liveness_refreshes")

    def __init__(self, cfg: CFG) -> None:
        self.cfg = cfg
        self._liveness: Optional[Liveness] = None
        self._dominators: Optional[Dominators] = None
        self._loops: Optional[list[Loop]] = None
        self._defs: Optional[DefTable] = None
        self.liveness_solves = 0
        self.dominator_solves = 0
        self.loop_solves = 0
        self.liveness_refreshes = 0

    # -- queries -------------------------------------------------------------
    def liveness(self) -> Liveness:
        if self._liveness is None:
            self._liveness = compute_liveness(self.cfg)
            self.liveness_solves += 1
        return self._liveness

    def dominators(self) -> Dominators:
        if self._dominators is None:
            self._dominators = compute_dominators(self.cfg)
            self.dominator_solves += 1
        return self._dominators

    def loops(self) -> list[Loop]:
        if self._loops is None:
            self._loops = find_loops(self.cfg, self.dominators())
            self.loop_solves += 1
        return self._loops

    def defs(self) -> DefTable:
        if self._defs is None:
            self._defs = DefTable(self.cfg)
        return self._defs

    # -- maintenance ---------------------------------------------------------
    def refresh_liveness(self,
                         changed_blocks: Optional[Iterable[Block]] = None) \
            -> None:
        """Incrementally re-solve cached liveness after in-place edits.

        A no-op when liveness is not currently cached (there is nothing
        to keep consistent — the next :meth:`liveness` call solves
        cold).  Use/def masks are recomputed only for ``changed_blocks``.
        """
        if self._liveness is not None:
            self._liveness.refresh(changed_blocks)
            self.liveness_refreshes += 1

    def invalidate(self, preserved: frozenset = frozenset()) -> None:
        """Drop every cached analysis not named in ``preserved``.

        ``loops`` is derived from ``dominators``: invalidating the
        latter always drops the former, whatever ``preserved`` says.
        """
        if "liveness" not in preserved:
            self._liveness = None
        if "defs" not in preserved:
            self._defs = None
        if "dominators" not in preserved:
            self._dominators = None
            self._loops = None
        elif "loops" not in preserved:
            self._loops = None

    def invalidate_after_loop_transform(self, added_blocks: bool) -> None:
        """Drop what rewriting one loop in place made stale.

        Liveness and definition sites always go.  The recurrence and
        streaming transforms add blocks only on edges (a preheader, an
        exit-edge landing block), which leaves dominance among the
        existing blocks as it was; dominators and the loop forest go
        only when blocks were added, since the new blocks are missing
        from them.
        """
        self.invalidate(frozenset() if added_blocks
                        else frozenset({"dominators", "loops"}))

"""Timing helpers of ``repro bench``.

:func:`time_fn` is the single timing primitive (warm-up call, then
``reps`` timed calls, median-of-reps).  :func:`bench_programs` times a
full batch of compile+simulate jobs through :func:`repro.perf.run_jobs`,
optionally across worker processes or against the reference
(``slow=True``) simulator loop.

``repro bench`` is a quick look at one machine; figures that compare
one revision with another come from ``bench/run.py`` (see
bench/README.md).
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Iterable, Optional

from .parallel import SimJob, run_jobs

__all__ = ["time_fn", "bench_programs"]


def time_fn(fn: Callable[[], object], reps: int = 5,
            warmup: bool = True) -> dict:
    """Median-of-``reps`` wall time of ``fn`` in milliseconds."""
    if warmup:
        fn()
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append((time.perf_counter() - start) * 1e3)
    return {
        "reps": reps,
        "median_ms": round(statistics.median(times), 3),
        "min_ms": round(min(times), 3),
        "mean_ms": round(statistics.fmean(times), 3),
    }


def bench_programs(names: Optional[Iterable[str]] = None,
                   scale: float = 0.2, reps: int = 3,
                   workers: Optional[int] = None,
                   slow: bool = False) -> dict:
    """Time one compile+simulate pass over the benchmark programs.

    The warm-up pass always runs serially in this process, so the
    compile cache is hot both for the serial timings and — because
    workers are forked — for the parallel ones; what is measured is the
    steady-state simulation cost, not first-compile latency.
    """
    from ..benchsuite import PROGRAMS, get_program

    names = list(names) if names is not None else sorted(PROGRAMS)
    sim_kwargs = (("slow", True),) if slow else ()
    jobs = [SimJob(name=name, source=get_program(name, scale=scale).source,
                   sim_kwargs=sim_kwargs)
            for name in names]
    results = run_jobs(jobs)          # serial warm-up; hot compile cache
    timing = time_fn(lambda: run_jobs(jobs, workers=workers),
                     reps=reps, warmup=False)
    return {
        "scale": scale,
        "workers": workers or 0,
        "slow": slow,
        "programs": {r.name: {"value": r.value, "cycles": r.cycles}
                     for r in results},
        "timing": timing,
    }

"""Parallel compile/simulate jobs.

A :class:`SimJob` is a self-contained, picklable description of one
compile-and-run configuration; :func:`run_jobs` executes a batch either
serially (``workers <= 1``, or whenever a pool cannot win) or on a
:class:`~repro.perf.supervisor.SupervisedPool` — the same supervised
fork workers the serve daemon executes on.  Both paths run the
identical :func:`_run_job` body — through the compile cache — so
serial and parallel table regeneration produce the same rows, and the
equivalence tests compare them directly.

The pool is *shared across batches* (same worker count): a full table
regeneration issues five ``run_jobs`` batches, and re-forking per
batch both repaid worker startup and threw away the workers'
in-process compile caches between batches.  :func:`reset_pool` closes
the shared pool (tests use it to get fresh workers).  Jobs
carry no timeout: a table cell takes as long as it takes.

The compiler's output depends only on the job (not on the hash seed
or on what a worker compiled before), so parallel results are
identical to serial ones, within a session and across sessions.

:class:`JobResult` carries the scalars the tables need (value, cycles,
stream counts) rather than the full ``SimResult`` — combined with
``SimResult.memory`` being a data-segment-only pickling view, nothing
megabyte-sized ever crosses the process boundary.

Worker failures never lose jobs: the pool retries a job whose worker
died once on another worker, and any job that still comes back as a
failure (its own exception, or a second death) is retried once more,
serially, in the parent; a job that fails that too is *quarantined* —
returned in order with ``error`` set and ``quarantined=True`` — so one
pathological configuration cannot take down a whole table
regeneration.
"""

from __future__ import annotations

import atexit
import os
from dataclasses import dataclass
from typing import Optional

from ..obs import Remark, get_remark_sink
from ..opt import OptOptions
from .cache import compile_cached, is_cached
from .supervisor import SupervisedPool, SupervisorConfig, describe_exception

__all__ = ["SimJob", "JobResult", "JobsFailed", "run_jobs", "reset_pool"]


@dataclass(frozen=True)
class SimJob:
    """One compile-and-run configuration.

    ``action`` selects what to do with the compiled program:
    ``"simulate"`` (WM cycle simulator), ``"execute"`` (scalar
    cost-model executor) or ``"compile"`` (compile only — used by the
    stream-detection table, which reads optimizer reports).
    """

    name: str
    source: str
    action: str = "simulate"
    machine: Optional[str] = None     # scalar machine name; None = WM
    options: Optional[OptOptions] = None
    sim_kwargs: tuple = ()            # extra WMSimulator settings


@dataclass
class JobResult:
    """The table-relevant scalars of one job run.

    ``error`` is ``None`` on success; a quarantined job (failed in a
    worker *and* in the serial retry) instead carries the exception
    summary and ``quarantined=True``, with the value fields left at
    their defaults.
    """

    name: str
    value: object = None
    cycles: float = 0
    streams_in: int = 0
    streams_out: int = 0
    infinite: int = 0
    #: measured-II-vs-bound rows per streamed loop; populated when the
    #: job was simulated with ``sim_kwargs`` requesting ``profile``
    profile: Optional[list] = None
    error: Optional[str] = None
    quarantined: bool = False


class JobsFailed(RuntimeError):
    """Jobs whose results cannot be used: quarantined, or wrong.

    ``run_jobs`` itself never raises it; a caller that needs every job
    (a paper table) raises it with one ``name: error`` entry per failed
    job.
    """


def _run_job(job: SimJob) -> JobResult:
    compiled = compile_cached(job.source, machine_name=job.machine,
                              options=job.options)
    out = JobResult(job.name)
    for report in compiled.reports.values():
        for stream in report.streams:
            out.streams_in += stream.streams_in
            out.streams_out += stream.streams_out
            out.infinite += 1 if stream.infinite else 0
    if job.action == "simulate":
        sim_kwargs = dict(job.sim_kwargs)
        result = compiled.simulate(**sim_kwargs)
        out.value = result.value
        out.cycles = result.cycles
        if sim_kwargs.get("profile"):
            from ..obs.profile import headroom_summary
            from ..opt.bounds import compute_module_bounds
            out.profile = headroom_summary(
                result, compute_module_bounds(compiled.rtl))
    elif job.action == "execute":
        result = compiled.execute()
        out.value = result.value
        out.cycles = result.cycles
    elif job.action != "compile":
        raise ValueError(f"unknown job action {job.action!r}")
    return out


#: Minimum batch size worth paying pool startup for.  Below this the
#: fork/teardown overhead dominates even on a multi-core machine.
_MIN_POOL_JOBS = 4


def _should_parallelize(jobs: list[SimJob],
                        workers: Optional[int]) -> bool:
    """Would a process pool plausibly beat the in-process loop?

    Serial fallback applies when any of these hold:

    * ``workers`` is ``None``, 0 or 1 — parallelism wasn't requested;
    * the batch is smaller than :data:`_MIN_POOL_JOBS` — pool startup
      cannot amortize;
    * the host has a single CPU — workers only time-slice, adding fork
      overhead to the exact same serial schedule;
    * every job is already in the in-process compile cache — the
      per-job cost is a cache probe plus simulation, and shipping jobs
      to workers re-pays result pickling for no compile saved.
    """
    if workers is None or workers <= 1:
        return False
    if len(jobs) < _MIN_POOL_JOBS:
        return False
    if (os.cpu_count() or 1) < 2:
        return False
    if all(is_cached(job.source, machine_name=job.machine,
                     options=job.options) for job in jobs):
        return False
    return True


#: the one live pool, shared across ``run_jobs`` calls so a table
#: regeneration (five batches) pays worker fork once, not per batch —
#: and so the workers' own compile caches stay warm across batches
_pool: Optional[SupervisedPool] = None
_pool_workers: int = 0


def _get_pool(workers: int) -> SupervisedPool:
    global _pool, _pool_workers
    if _pool is not None and _pool_workers != workers:
        reset_pool()
    if _pool is None:
        # error_factory=str: a job the pool could not run comes back as
        # its one-line failure text, which run_jobs retries in-process
        _pool = SupervisedPool(
            _run_pooled_job, SupervisorConfig(workers=workers,
                                              job_timeout_s=0),
            error_factory=str)
        _pool_workers = workers
    return _pool


def reset_pool() -> None:
    """Close the shared worker pool (if any).

    The next pooled batch forks fresh workers — which re-inherit the
    parent's in-process compile cache at that moment.  Called at
    interpreter exit and by tests that want fresh workers.
    """
    global _pool, _pool_workers
    if _pool is not None:
        _pool.close()
        _pool = None
        _pool_workers = 0


atexit.register(reset_pool)


def _run_pooled_job(item: tuple) -> JobResult:
    """Pool task: run one job, honouring kill-fault injection.

    ``item`` is ``(job, kill, parent_pid)``.  A ``kill`` job hard-exits
    its *worker* process (``os._exit`` — no exception, no cleanup: the
    most hostile death a pool can see).  The pid guard makes the kill
    inert wherever this body runs in the process that called
    ``run_jobs`` — inline, or the serial retry — so an injected death
    is recoverable by design.
    """
    job, kill, parent_pid = item
    if kill and os.getpid() != parent_pid:
        os._exit(17)
    return _run_job(job)


def _retry_serially(job: SimJob, first: str) -> JobResult:
    """One in-parent retry; a second failure quarantines the job."""
    sink = get_remark_sink()
    if sink.enabled:
        sink.emit(Remark("harness", "analysis", "job-retried",
                         function=job.name, detail=first,
                         args={"job": job.name}))
    try:
        return _run_job(job)
    except Exception as exc:
        error = describe_exception(exc)
        if sink.enabled:
            sink.emit(Remark("harness", "analysis", "job-quarantined",
                             function=job.name, detail=error,
                             args={"job": job.name}))
        return JobResult(job.name, error=error, quarantined=True)


def run_jobs(jobs: list[SimJob], workers: Optional[int] = None,
             kill_jobs=()) -> list[JobResult]:
    """Run a batch of jobs, preserving order and losing none.

    ``workers`` of ``None``, 0 or 1 runs in-process (sharing the
    compile cache across jobs); larger values run on the shared
    supervised pool when the batch can plausibly win from it (see
    :func:`_should_parallelize` for the serial-fallback conditions).

    Failures degrade instead of propagating: a job that fails — its
    own exception, or its worker dying on both of the pool's tries —
    is retried once serially in the parent; a job that also fails the
    retry comes back as a quarantined :class:`JobResult` (``error``
    set, value fields defaulted) in its original position.  The serial
    path applies the same retry-once-then-quarantine policy.

    ``kill_jobs`` is the fault-injection hook: a set of job *indexes*
    whose worker process is hard-killed mid-batch (no-op outside a
    pool, and on the serial retry — see :func:`_run_pooled_job`).
    """
    jobs = list(jobs)
    if _should_parallelize(jobs, workers):
        kill = frozenset(kill_jobs)
        parent = os.getpid()
        results = _get_pool(workers).run_batch(
            [(job, i in kill, parent) for i, job in enumerate(jobs)])
        return [result if isinstance(result, JobResult)
                else _retry_serially(job, result)
                for job, result in zip(jobs, results)]
    out = []
    for job in jobs:
        try:
            out.append(_run_job(job))
        except Exception as exc:
            out.append(_retry_serially(job, describe_exception(exc)))
    return out

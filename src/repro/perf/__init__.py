"""Compile cache + parallel compile/simulate jobs.

The reporting tables (``repro tables``) funnel their
(program x options x machine) configurations through this package:

* :mod:`repro.perf.cache` — a content-keyed (source, machine, options)
  compile cache, so regenerating several tables never compiles the
  same program twice;
* :mod:`repro.perf.parallel` — picklable job descriptions run on the
  shared supervised pool, with an equivalent serial path
  (``workers <= 1``), used by ``repro tables --workers``;
* :mod:`repro.perf.supervisor` — the one worker pool, which the tables
  and the serve daemon both run on: plain fork workers (or none: zero
  workers runs inline) under heartbeats, per-op timeouts, recycling,
  backoff restarts and a circuit breaker.

Speed figures for this package and the rest of the system come from
``bench/run.py`` (``--trace 1`` for the per-layer times) and
``bench/figures.py``; see bench/README.md.
"""

from .cache import (
    cache_stats, clear_cache, compile_cached, configure_disk_store,
    content_key, get_disk_store, is_cached,
)
from .parallel import JobResult, JobsFailed, SimJob, reset_pool, run_jobs
from .store import DiskStore, StoreFaults
from .supervisor import SupervisedPool, SupervisorConfig

__all__ = [
    "cache_stats", "clear_cache", "compile_cached", "is_cached",
    "configure_disk_store", "content_key", "get_disk_store", "DiskStore",
    "StoreFaults", "SupervisedPool", "SupervisorConfig",
    "JobResult", "JobsFailed", "SimJob", "reset_pool", "run_jobs",
]

"""Two-tier content-keyed compile cache.

Table regeneration compiles the same (source, machine, options)
configuration repeatedly — Table I alone compiles the Livermore-5
init/full pair under two option sets for five machines, and the golden
builder reads Table II's listings back after simulating them.  The cache
keys on the *content* of the configuration (the compiler revision, the
source text, the machine name, the option flags), so a hit is exact:
the returned :class:`~repro.compiler.CompileResult` is the same object,
and ``simulate()``/``execute()`` build fresh interpreter state per run.

Two tiers:

* **Memory** — the per-process bounded LRU that has always been here.
  Hits cost a dict probe and return the identical object.
* **Disk** (optional) — a persistent content-addressed store
  (:class:`repro.perf.store.DiskStore`) of pickled ``CompileResult``
  artifacts, shared across pool workers and across daemon restarts.
  A memory miss consults the disk tier before compiling; a compile
  populates both.  Enabled by :func:`configure_disk_store` or the
  ``REPRO_CACHE_DIR`` environment variable (which forked pool workers
  inherit, so one warm store serves the whole pool).

Every key embeds :data:`repro.__compiler_rev__`: bumping the revision
orphans all persisted artifacts at once, so a newer compiler can never
serve code generated by an older one (the in-process tier gets the same
guarantee for free — it matters for long-lived daemon processes
spanning a hot code reload).
"""

from __future__ import annotations

import hashlib
import os
from collections import OrderedDict
from dataclasses import astuple
from typing import Optional

from ..compiler import CompileResult, compile_source
from ..machine.scalar import make_machine
from ..obs.tracer import get_tracer
from ..opt import OptOptions
from .store import DEFAULT_MAX_BYTES, EVENT_COUNTERS, DiskStore

__all__ = [
    "compile_cached", "clear_cache", "cache_stats", "is_cached",
    "configure_disk_store", "get_disk_store", "content_key",
    "event_counts", "events_since",
]

#: Environment variable naming the persistent store's root directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

_CAPACITY = 64
_cache: OrderedDict[tuple, CompileResult] = OrderedDict()
_hits = 0
_misses = 0

_disk: Optional[DiskStore] = None
_disk_configured = False


def _compiler_rev() -> int:
    # Read dynamically (not imported at module load) so tests can
    # monkeypatch ``repro.__compiler_rev__`` to prove stale-artifact
    # invalidation, and so a bump takes effect without reimporting us.
    import repro
    return repro.__compiler_rev__


def _key(source: str, machine_name: Optional[str],
         options: Optional[OptOptions]) -> tuple:
    if machine_name == "wm":
        machine_name = None        # canonical spelling of the default
    opts_key = None if options is None else astuple(options)
    return (_compiler_rev(), machine_name, opts_key, source)


def _machine_for(machine_name: Optional[str]):
    """A machine instance for a cache-level machine name.

    Accepts the full CLI target vocabulary: ``None``/``"wm"`` (the WM
    default), ``"m68020"``, or any scalar-registry name.
    """
    if machine_name is None or machine_name == "wm":
        return None
    if machine_name == "m68020":
        from ..machine.m68020 import M68020
        return M68020()
    return make_machine(machine_name)


def content_key(source: str, machine_name: Optional[str] = None,
                options: Optional[OptOptions] = None) -> str:
    """The sha256 content address of one compile configuration.

    This is the disk tier's filename key: a digest over the compiler
    revision, machine, option flags, and source text, so equal keys
    imply byte-equal compile inputs under the same compiler.
    """
    return hashlib.sha256(repr(_key(source, machine_name, options))
                          .encode("utf-8")).hexdigest()


# -- disk-tier configuration --------------------------------------------------

def configure_disk_store(path: Optional[str],
                         max_bytes: int = DEFAULT_MAX_BYTES,
                         **store_kwargs) -> Optional[DiskStore]:
    """Install (or with ``path=None`` remove) the persistent disk tier.

    Explicit configuration wins over the ``REPRO_CACHE_DIR``
    environment variable.  Extra keyword arguments reach the
    :class:`DiskStore` constructor (GC knobs: ``min_age_s``,
    ``tombstone_grace_s``).  Returns the installed store, if any.
    """
    global _disk, _disk_configured
    _disk = DiskStore(path, max_bytes=max_bytes, **store_kwargs) \
        if path else None
    _disk_configured = True
    return _disk


def get_disk_store() -> Optional[DiskStore]:
    """The active disk tier, auto-configuring from ``REPRO_CACHE_DIR``
    on first use (``None`` when no persistent store is enabled)."""
    global _disk, _disk_configured
    if not _disk_configured:
        _disk_configured = True
        env_dir = os.environ.get(CACHE_DIR_ENV)
        if env_dir:
            try:
                _disk = DiskStore(env_dir)
            except OSError:
                _disk = None           # unusable directory: fail open
    return _disk


# -- the cache proper ---------------------------------------------------------

def compile_cached(source: str, machine_name: Optional[str] = None,
                   options: Optional[OptOptions] = None) -> CompileResult:
    """``compile_source`` behind the two-tier content-keyed cache.

    ``machine_name`` accepts the full CLI target vocabulary — a
    scalar-machine registry name
    (:data:`repro.machine.scalar.MACHINES`), ``"m68020"``, or
    ``None``/``"wm"`` for the WM target, as in ``compile_source``.
    """
    global _hits, _misses
    tracer = get_tracer()
    if not tracer.enabled:
        return _compile_cached_inner(source, machine_name, options)
    # Traced path: one cache.lookup span naming the tier that answered
    # (memory / disk / a fresh compile, plus whether the disk tier was
    # populated).  The untraced fast path above pays nothing for this.
    with tracer.span("cache.lookup", category="serve",
                     machine=machine_name or "wm") as span:
        before_hits = _hits
        disk = get_disk_store()
        disk_hits = disk.hits if disk is not None else 0
        disk_writes = disk.writes if disk is not None else 0
        result = _compile_cached_inner(source, machine_name, options)
        if span is not None and span.args is not None:
            if _hits > before_hits:
                span.args["tier"] = "memory"
                span.args["outcome"] = "hit"
            elif disk is not None and disk.hits > disk_hits:
                span.args["tier"] = "disk"
                span.args["outcome"] = "hit"
            else:
                span.args["tier"] = "compile"
                span.args["outcome"] = "miss"
                span.args["stored"] = bool(
                    disk is not None and disk.writes > disk_writes)
    return result


def _compile_cached_inner(source: str, machine_name: Optional[str],
                          options: Optional[OptOptions]) -> CompileResult:
    global _hits, _misses
    key = _key(source, machine_name, options)
    cached = _cache.get(key)
    if cached is not None:
        _hits += 1
        _cache.move_to_end(key)
        return cached
    _misses += 1
    disk = get_disk_store()
    if disk is not None:
        artifact = disk.get(content_key(source, machine_name, options))
        if isinstance(artifact, CompileResult):
            _remember(key, artifact)
            return artifact
    result = compile_source(source, machine=_machine_for(machine_name),
                            options=options)
    _remember(key, result)
    if disk is not None:
        disk.put(content_key(source, machine_name, options), result)
    return result


def _remember(key: tuple, result: CompileResult) -> None:
    _cache[key] = result
    if len(_cache) > _CAPACITY:
        _cache.popitem(last=False)


def is_cached(source: str, machine_name: Optional[str] = None,
              options: Optional[OptOptions] = None) -> bool:
    """Is this configuration a guaranteed *in-memory* hit?  Pure probe:
    does not touch hit/miss statistics or the LRU order.  (A disk-tier
    hit still pays an unpickle, so the parallel harness's all-cached
    serial fallback deliberately consults only the memory tier.)"""
    return _key(source, machine_name, options) in _cache


def clear_cache() -> None:
    """Empty the in-process tier and zero its counters.

    The disk tier — whose whole point is surviving process churn — is
    left untouched; use :func:`configure_disk_store` to replace it.
    """
    global _hits, _misses
    _cache.clear()
    _hits = 0
    _misses = 0


def cache_stats() -> dict:
    """Hit/miss/entry counts for both tiers.

    ``disk`` is ``None`` when no persistent store is configured;
    otherwise it carries the store's hit/miss/write/eviction counters
    plus an on-disk entry/byte census (see
    :meth:`repro.perf.store.DiskStore.stats`).
    """
    disk = _disk if _disk_configured else get_disk_store()
    return {"hits": _hits, "misses": _misses, "entries": len(_cache),
            "disk": disk.stats() if disk is not None else None}


def event_counts() -> dict:
    """This process's cache events so far, flat: the memory tier's
    ``hits``/``misses`` and, with a disk tier, ``disk.<name>`` for each
    of its event counters (:data:`repro.perf.store.EVENT_COUNTERS`)."""
    counts = {"hits": _hits, "misses": _misses}
    disk = get_disk_store()
    if disk is not None:
        for name in EVENT_COUNTERS:
            counts[f"disk.{name}"] = getattr(disk, name)
    return counts


def events_since(before: dict) -> dict:
    """The cache events this process did since ``before`` (an
    :func:`event_counts` result), only those that happened: what a
    serve worker reports back for the daemon to add up, since the
    counters themselves live in whichever process did the work."""
    return {name: count - before.get(name, 0)
            for name, count in event_counts().items()
            if count != before.get(name, 0)}

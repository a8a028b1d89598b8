"""Persistent content-addressed compile-artifact store (the disk tier).

The in-process compile cache (:mod:`repro.perf.cache`) dies with its
process; this store is the tier underneath it — a directory of pickled
:class:`~repro.compiler.CompileResult` artifacts shared by every pool
worker and surviving daemon restarts.  Keys are content hashes (sha256
over compiler revision + machine + options + source, computed by the
cache layer), so a hit is exact by construction and a compiler-revision
bump orphans every stale artifact instead of serving it.

Design invariants:

* **Atomic publication.**  Writers pickle into a same-directory temp
  file and ``os.replace`` it into place, so concurrent workers writing
  the same key race harmlessly (last rename wins, both files are
  complete) and a reader can never observe a half-written artifact
  under the final name.
* **Corruption tolerance.**  A read that fails for any reason —
  truncated pickle, garbage bytes, vanished file, version skew inside
  the payload — is a miss: the bad entry is *quarantined* (moved aside
  into ``root/quarantine/`` for post-mortem, never served again) and
  the caller recompiles and rewrites it.  The store never raises on
  the read path, and every ``read_error`` has a matching
  ``quarantined`` — the chaos harness gates on that equality.
* **Crash-safe GC.**  Removal is two-phase: a doomed entry is first
  renamed (same directory, atomic) to a *tombstone* carrying the sweep
  generation and the sweeper's pid, and only unlinked after a grace
  period.  A concurrent reader that opened the entry just before the
  rename keeps its open file descriptor (POSIX rename does not disturb
  open handles); a reader that loses the ``open`` race sees a plain
  miss and recompiles.  No ordering of rename vs. open can surface a
  torn artifact, which is the safety argument for running sweeps from
  any number of daemons concurrently.
* **Clock-skew-tolerant eviction.**  Eviction orders by
  ``(mtime, size)`` and refuses to touch entries younger than
  ``min_age_s`` unless the cap cannot otherwise be met — an entry
  another daemon wrote moments ago (possibly with a skewed clock) is
  never collateral damage of an LRU pass.  When cap pressure *forces*
  evicting a young entry anyway, ``evicted_young`` counts it so the
  chaos harness can gate on zero.
* **Startup recovery.**  Opening a store sweeps the wreckage of any
  crashed predecessor: stale ``*.tmp`` spool files are removed,
  expired tombstones are reaped, and entries failing a cheap pickle
  magic check are quarantined before any reader can trip on them.
* **Fail-open writes.**  A write that fails (disk full, permissions,
  unpicklable artifact) disables nothing and corrupts nothing — the
  temp file is discarded and the compile result is simply not
  persisted.

Hit/miss/write/evict counters feed ``cache_stats()`` and, through the
run manifest, every ``--json``/``--trace-out`` export.  They count what
this process's store object did; a serve daemon adds up what its pool
workers' copies report (:mod:`repro.serve.handlers`).
"""

from __future__ import annotations

import io
import os
import pickle
import random
import tempfile
import time
from typing import Optional

__all__ = [
    "DiskStore", "StoreFaults", "DEFAULT_MAX_BYTES",
    "DEFAULT_MIN_AGE_S", "DEFAULT_TOMBSTONE_GRACE_S", "EVENT_COUNTERS",
    "publish_gauges",
]

#: Default size cap: generous for this repo's artifacts (a compiled
#: benchmark pickles to ~20 KB) while staying unremarkable on a dev box.
DEFAULT_MAX_BYTES = 256 * 1024 * 1024

#: Entries younger than this are protected from LRU eviction: a
#: concurrent daemon may have written them "in the past" only because
#: its clock is skewed.  Seconds.
DEFAULT_MIN_AGE_S = 5.0

#: How long a tombstone lingers before its final unlink.  Must exceed
#: the longest plausible open→read window of a concurrent reader (which
#: is milliseconds); generous by three orders of magnitude.
DEFAULT_TOMBSTONE_GRACE_S = 30.0

#: A ``*.tmp`` spool file older than this belongs to a crashed writer
#: (a live ``put`` holds its temp file for well under a second).
STALE_TMP_AGE_S = 300.0

#: The counters of :meth:`DiskStore.stats` that count events done by
#: this process's store object; the rest of ``stats()`` is a census of
#: the directory, which every process sharing it sees alike.
EVENT_COUNTERS = ("hits", "misses", "writes", "evictions", "evicted_young",
                  "read_errors", "quarantined", "tombstoned", "gc_removed",
                  "recovered_tmp", "recovered_torn")

_SUFFIX = ".pkl"
_TOMB_SUFFIX = ".tomb"
#: Pickle protocol >= 2 opens with the PROTO opcode; every artifact this
#: store writes uses HIGHEST_PROTOCOL, so a first byte that is not 0x80
#: is torn or foreign with certainty.
_PICKLE_MAGIC = 0x80


class StoreFaults:
    """Seeded I/O fault injection for the chaos harness.

    Installed on a live store (``store.faults = StoreFaults(seed)``) to
    emulate a slow or flaky disk: reads and writes may stall for
    ``slow_s``, and a write may be *torn* — truncated mid-payload, the
    exact artifact a crashed non-atomic writer would leave.  Torn
    writes bypass the atomic-publication discipline on purpose; they
    exist to prove the read path quarantines what they produce.
    Deterministic for a given seed.  Never installed outside tests.
    """

    def __init__(self, seed: int = 0, *, slow_rate: float = 0.0,
                 slow_s: float = 0.005, torn_rate: float = 0.0) -> None:
        self._rng = random.Random(seed)
        self.slow_rate = slow_rate
        self.slow_s = slow_s
        self.torn_rate = torn_rate
        self.slowed = 0
        self.torn = 0

    def maybe_slow(self) -> None:
        if self.slow_rate and self._rng.random() < self.slow_rate:
            self.slowed += 1
            time.sleep(self.slow_s)

    def maybe_tear(self, payload: bytes) -> bytes:
        if self.torn_rate and self._rng.random() < self.torn_rate:
            self.torn += 1
            return payload[:max(1, len(payload) // 3)]
        return payload


class DiskStore:
    """Content-addressed pickle store under one root directory.

    Artifacts live at ``root/objects/<hh>/<hash>.pkl`` (two-character
    fan-out keeps directory listings short).  The store is safe for any
    number of concurrent reader/writer *processes* on one filesystem —
    coordination is entirely rename-based; there are no lock files.
    """

    def __init__(self, root: str,
                 max_bytes: int = DEFAULT_MAX_BYTES,
                 min_age_s: float = DEFAULT_MIN_AGE_S,
                 tombstone_grace_s: float = DEFAULT_TOMBSTONE_GRACE_S,
                 ) -> None:
        self.root = os.path.abspath(root)
        self.max_bytes = max_bytes
        self.min_age_s = min_age_s
        self.tombstone_grace_s = tombstone_grace_s
        self.objects_dir = os.path.join(self.root, "objects")
        self.quarantine_dir = os.path.join(self.root, "quarantine")
        self._gen_path = os.path.join(self.root, "gc.gen")
        os.makedirs(self.objects_dir, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.evictions = 0
        self.evicted_young = 0
        self.read_errors = 0
        self.quarantined = 0
        self.tombstoned = 0
        self.gc_removed = 0
        self.recovered_tmp = 0
        self.recovered_torn = 0
        #: chaos-only I/O fault injector; ``None`` in every real
        #: deployment, so the fast path pays one attribute test.
        self.faults: Optional[StoreFaults] = None
        self._recover()
        self._publish()

    def _publish(self, entries: Optional[int] = None,
                 nbytes: Optional[int] = None) -> None:
        """Mirror the store's counters into the process-global metrics
        registry (see :func:`publish_gauges`).  ``entries``/``bytes``
        refresh only when a caller already paid for the on-disk census
        (eviction, ``stats()``)."""
        publish_gauges(self.counters(), entries, nbytes)

    # -- paths ---------------------------------------------------------------

    def _path(self, key_hash: str) -> str:
        return os.path.join(self.objects_dir, key_hash[:2],
                            key_hash + _SUFFIX)

    # -- read path -----------------------------------------------------------

    def get(self, key_hash: str) -> Optional[object]:
        """The stored artifact for ``key_hash``, or ``None`` (a miss).

        Never raises: any failure to read or unpickle quarantines the
        entry (best-effort) and reports a miss.
        """
        path = self._path(key_hash)
        if self.faults is not None:
            self.faults.maybe_slow()
        try:
            with open(path, "rb") as fh:
                artifact = pickle.load(fh)
        except FileNotFoundError:
            self.misses += 1
            self._publish()
            return None
        except Exception:
            # Truncated write from a crashed process, garbage bytes,
            # an unpicklable payload from a different code version —
            # all equivalent: quarantine the entry, treat as a miss.
            # The move keeps the evidence and guarantees no later
            # reader can trip on the same bytes; the recompile that
            # follows heals the slot.
            self.read_errors += 1
            self.misses += 1
            self._quarantine(path)
            self.quarantined += 1
            self._publish()
            return None
        self.hits += 1
        self._publish()
        try:
            os.utime(path)            # refresh LRU recency
        except OSError:
            pass                      # concurrently evicted: still a hit
        return artifact

    def contains(self, key_hash: str) -> bool:
        """Pure existence probe; touches no counters or recency."""
        return os.path.exists(self._path(key_hash))

    # -- write path ----------------------------------------------------------

    def put(self, key_hash: str, artifact: object) -> bool:
        """Persist ``artifact`` under ``key_hash``; True on success.

        Pickles to an in-memory buffer first (so an unpicklable
        artifact can never leave a partial temp file), then publishes
        atomically via same-directory temp file + ``os.replace``.
        """
        try:
            buffer = io.BytesIO()
            pickle.dump(artifact, buffer,
                        protocol=pickle.HIGHEST_PROTOCOL)
            payload = buffer.getvalue()
        except Exception:
            return False
        if self.faults is not None:
            self.faults.maybe_slow()
            payload = self.faults.maybe_tear(payload)
        path = self._path(key_hash)
        directory = os.path.dirname(path)
        tmp_path = None
        try:
            os.makedirs(directory, exist_ok=True)
            fd, tmp_path = tempfile.mkstemp(
                dir=directory, prefix=key_hash[:8] + "-", suffix=".tmp")
            with os.fdopen(fd, "wb") as fh:
                fh.write(payload)
            os.replace(tmp_path, path)
            tmp_path = None
        except OSError:
            if tmp_path is not None:
                self._remove(tmp_path)
            return False
        self.writes += 1
        self._evict()
        return True

    # -- quarantine ----------------------------------------------------------

    def _quarantine(self, path: str) -> bool:
        """Move a corrupt entry into ``root/quarantine/`` (atomic rename
        within one filesystem).  True when the entry is gone from the
        live set afterwards — including the race where a concurrent
        daemon quarantined or overwrote it first."""
        try:
            os.makedirs(self.quarantine_dir, exist_ok=True)
            dest = os.path.join(
                self.quarantine_dir,
                f"{os.path.basename(path)}.{os.getpid()}.{self.writes}"
                f".{self.read_errors}")
            os.rename(path, dest)
            return True
        except FileNotFoundError:
            return True               # already gone: intent satisfied
        except OSError:
            # Quarantine dir unwritable: fall back to plain removal so
            # the poisoned bytes still cannot be re-read.
            return self._remove(path)

    # -- two-phase removal ---------------------------------------------------

    def _tombstone(self, path: str, generation: int) -> bool:
        """Phase one of removal: atomically rename ``path`` to a
        generation-marked tombstone in the same directory.  The entry
        vanishes from the live namespace instantly (readers miss and
        recompile) but its bytes survive until :meth:`_reap_tombstones`
        after the grace period — so a reader that won the ``open`` race
        a microsecond earlier still streams a complete artifact."""
        tomb = f"{path}.{generation}.{os.getpid()}{_TOMB_SUFFIX}"
        try:
            os.rename(path, tomb)
        except OSError:
            return False              # concurrently removed or renamed
        try:
            os.utime(tomb)            # stamp tombstone time (rename
        except OSError:               # preserves the entry's old mtime)
            pass
        self.tombstoned += 1
        return True

    def _tombstones(self) -> list[tuple[float, str]]:
        """(mtime, path) for every tombstone currently on disk."""
        tombs = []
        for _mtime, _size, path in self._scan(_TOMB_SUFFIX):
            tombs.append((_mtime, path))
        return tombs

    def _reap_tombstones(self, now: Optional[float] = None) -> int:
        """Phase two of removal: unlink tombstones older than the grace
        period.  Tolerates concurrent reapers (first unlink wins)."""
        if now is None:
            now = time.time()
        reaped = 0
        for mtime, path in self._tombstones():
            if now - mtime >= self.tombstone_grace_s:
                if self._remove(path):
                    self.gc_removed += 1
                    reaped += 1
        return reaped

    # -- eviction ------------------------------------------------------------

    def _scan(self, suffix: str) -> list[tuple[float, int, str]]:
        """(mtime, size, path) for every ``suffix`` file on disk."""
        entries = []
        try:
            fanouts = os.scandir(self.objects_dir)
        except OSError:
            return entries
        with fanouts:
            for fanout in fanouts:
                if not fanout.is_dir():
                    continue
                try:
                    children = os.scandir(fanout.path)
                except OSError:
                    continue
                with children:
                    for child in children:
                        if not child.name.endswith(suffix):
                            continue
                        try:
                            stat = child.stat()
                        except OSError:
                            continue   # concurrently removed
                        entries.append(
                            (stat.st_mtime, stat.st_size, child.path))
        return entries

    def _entries(self) -> list[tuple[float, int, str]]:
        """(mtime, size, path) for every live artifact currently on
        disk (tombstones excluded)."""
        return self._scan(_SUFFIX)

    def _evict(self) -> None:
        """Tombstone least-recently-used artifacts until under the cap.

        Ordering is ``(mtime, size)`` — among equally old entries the
        smaller goes first, so a tie never deterministically sacrifices
        the most expensive artifact.  Entries younger than
        ``min_age_s`` are skipped on the first pass: under clock skew a
        "least recently used" entry may in fact be one a peer daemon
        wrote moments ago.  Only if the old entries cannot satisfy the
        cap are young entries evicted (oldest first), each counted in
        ``evicted_young``.
        """
        entries = self._entries()
        total = sum(size for _mtime, size, _path in entries)
        count = len(entries)
        if total > self.max_bytes:
            now = time.time()
            generation = self._bump_generation()
            entries.sort()             # (mtime, size): oldest, smallest
            aged = [e for e in entries
                    if now - e[0] >= self.min_age_s]
            young = [e for e in entries
                     if now - e[0] < self.min_age_s]
            for tier, is_young in ((aged, False), (young, True)):
                for _mtime, size, path in tier:
                    if total <= self.max_bytes:
                        break
                    if self._tombstone(path, generation):
                        total -= size
                        count -= 1
                        self.evictions += 1
                        if is_young:
                            self.evicted_young += 1
            self._reap_tombstones(now)
        # The census was just paid for: refresh bytes/entries gauges.
        self._publish(entries=count, nbytes=total)

    # -- GC / compaction -----------------------------------------------------

    def _bump_generation(self) -> int:
        """Advance and return the sweep generation (monotonic-ish
        counter in ``root/gc.gen``).  Concurrent bumpers may collide on
        a generation number — harmless, the number only labels
        tombstones for post-mortem attribution; correctness rests on
        the rename/grace discipline, not on generation uniqueness."""
        generation = 0
        try:
            with open(self._gen_path, "r", encoding="ascii") as fh:
                generation = int(fh.read().strip() or 0)
        except (OSError, ValueError):
            pass
        generation += 1
        try:
            fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".gen")
            with os.fdopen(fd, "w", encoding="ascii") as fh:
                fh.write(str(generation))
            os.replace(tmp, self._gen_path)
        except OSError:
            pass                       # generation is advisory only
        return generation

    def sweep(self) -> dict:
        """One full GC/compaction pass; safe to run from any number of
        daemons concurrently.  Bumps the generation, clears crashed
        writers' stale temp files, reaps expired tombstones, and runs
        the eviction policy.  Returns a summary for the flight
        recorder."""
        before = (self.tombstoned, self.gc_removed, self.recovered_tmp)
        now = time.time()
        self._bump_generation()
        self._clear_stale_tmp(now)
        self._reap_tombstones(now)
        self._evict()
        return {
            "generation": self.generation(),
            "tombstoned": self.tombstoned - before[0],
            "reaped": self.gc_removed - before[1],
            "stale_tmp": self.recovered_tmp - before[2],
        }

    def generation(self) -> int:
        try:
            with open(self._gen_path, "r", encoding="ascii") as fh:
                return int(fh.read().strip() or 0)
        except (OSError, ValueError):
            return 0

    def _clear_stale_tmp(self, now: float) -> None:
        for mtime, _size, path in self._scan(".tmp"):
            if now - mtime >= STALE_TMP_AGE_S:
                if self._remove(path):
                    self.recovered_tmp += 1

    # -- startup recovery ----------------------------------------------------

    def _recover(self) -> None:
        """Clean up after crashed predecessors before serving reads.

        Three sweeps, all tolerant of concurrent stores doing the same:
        stale ``*.tmp`` spool files are unlinked (a live writer's temp
        file is seconds old, these are minutes), expired tombstones are
        reaped, and any live entry failing the pickle magic check —
        torn by a crashed or faulted writer — is quarantined before a
        reader can pay a full unpickle failure for it."""
        now = time.time()
        self._clear_stale_tmp(now)
        self._reap_tombstones(now)
        for _mtime, size, path in self._entries():
            torn = size == 0
            if not torn:
                try:
                    with open(path, "rb") as fh:
                        head = fh.read(1)
                    torn = (not head) or head[0] != _PICKLE_MAGIC
                except FileNotFoundError:
                    continue
                except OSError:
                    torn = True
            if torn and self._quarantine(path):
                self.recovered_torn += 1

    @staticmethod
    def _remove(path: str) -> bool:
        try:
            os.remove(path)
            return True
        except OSError:
            return False

    # -- introspection -------------------------------------------------------

    def counters(self) -> dict:
        """This store object's event counters (:data:`EVENT_COUNTERS`)."""
        return {name: getattr(self, name) for name in EVENT_COUNTERS}

    def census(self) -> dict:
        """A fresh count of the directory: live entries, their bytes,
        and tombstones awaiting their grace period."""
        entries = self._entries()
        return {"tombstones": len(self._tombstones()),
                "entries": len(entries),
                "bytes": sum(size for _mtime, size, _path in entries)}

    def stats(self) -> dict:
        """Counters plus a fresh on-disk entry/byte census."""
        census = self.census()
        self._publish(census["entries"], census["bytes"])
        return {**self.counters(), **census}


def publish_gauges(counts: dict, entries: Optional[int] = None,
                   nbytes: Optional[int] = None) -> None:
    """Set the process-global registry's ``store.*`` gauges from
    ``counts`` (event counters by name), so a ``/metrics`` scrape sees
    the persistent tier without a side channel.  Gauges (not counters)
    because the caller owns the authoritative values — a store
    object, or a daemon summing what its workers' stores did — and
    last-set-wins is the semantic wanted.  ``entries``/``nbytes``, when
    given, refresh the census gauges."""
    from ..obs.metrics import global_registry
    registry = global_registry()
    for name in EVENT_COUNTERS:
        registry.gauge(f"store.{name}").set(counts.get(name, 0))
    if entries is not None:
        registry.gauge("store.entries").set(entries)
    if nbytes is not None:
        registry.gauge("store.bytes").set(nbytes)

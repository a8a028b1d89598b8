"""The persistent compile-artifact store and the two-tier cache.

Covers the disk tier's invariants (atomic publication under concurrent
writers, corruption-tolerant reads, LRU eviction under a size cap) and
the cache layer's contracts on top of it: compiler-revision-keyed
invalidation, cross-process artifact fidelity, and stats surfacing.
"""

import multiprocessing
import os
import pathlib
import pickle

import pytest

import repro
from repro.compiler import CompileResult, compile_source
from repro.opt import OptOptions
from repro.perf import cache as cache_mod
from repro.perf import clear_cache, compile_cached, content_key
from repro.perf.store import DiskStore, StoreFaults

LIVERMORE5 = (pathlib.Path(__file__).resolve().parent.parent
              / "examples" / "livermore5.c").read_text()
SOURCE = "int main(void) { return 41 + 1; }"


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_cache()
    cache_mod.configure_disk_store(None)
    yield
    clear_cache()
    cache_mod._disk = None
    cache_mod._disk_configured = False


@pytest.fixture()
def store(tmp_path):
    return DiskStore(str(tmp_path / "cache"))


class TestDiskStore:
    def test_round_trip(self, store):
        key = "ab" + "0" * 62
        assert store.get(key) is None                 # cold miss
        assert store.put(key, {"x": [1, 2, 3]})
        assert store.get(key) == {"x": [1, 2, 3]}
        stats = store.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["writes"] == 1
        assert stats["entries"] == 1
        assert stats["bytes"] > 0

    def test_fanout_layout(self, store):
        key = "cd" + "1" * 62
        store.put(key, "artifact")
        assert os.path.exists(os.path.join(store.objects_dir, "cd",
                                           key + ".pkl"))

    def test_truncated_pickle_is_a_miss_and_deleted(self, store):
        key = "ef" + "2" * 62
        store.put(key, list(range(100)))
        path = store._path(key)
        with open(path, "wb") as fh:
            fh.write(pickle.dumps(list(range(100)))[:10])   # truncate
        assert store.get(key) is None
        assert store.read_errors == 1
        assert not os.path.exists(path)                # dropped
        # ...and the slot is rewritable afterwards.
        assert store.put(key, "fresh")
        assert store.get(key) == "fresh"

    def test_garbage_bytes_are_a_miss(self, store):
        key = "01" + "3" * 62
        path = store._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(b"this is not a pickle")
        assert store.get(key) is None
        assert store.read_errors == 1

    def test_unpicklable_artifact_fails_open(self, store):
        key = "23" + "4" * 62
        assert not store.put(key, lambda: None)        # lambdas can't pickle
        assert store.stats()["entries"] == 0           # no temp debris
        assert os.listdir(store.objects_dir) == []

    def test_eviction_under_tiny_cap(self, tmp_path):
        store = DiskStore(str(tmp_path / "small"), max_bytes=1)
        for idx in range(4):
            key = f"{idx:02d}" + "5" * 62
            store.put(key, "payload-%d" % idx)
        # Cap of one byte: every put evicts down toward zero, so at
        # most the newest entry survives each round.
        assert store.stats()["entries"] <= 1
        assert store.evictions >= 3

    def test_eviction_is_lru_by_recency(self, tmp_path, monkeypatch):
        store = DiskStore(str(tmp_path / "lru"), max_bytes=10**9)
        old, new = "aa" + "6" * 62, "bb" + "7" * 62
        store.put(old, "x" * 100)
        store.put(new, "y" * 100)
        os.utime(store._path(old), (1, 1))             # force 'old' stale
        store.max_bytes = 150                          # room for one
        store._evict()
        assert not store.contains(old)
        assert store.contains(new)

    def test_concurrent_writers_same_key(self, tmp_path):
        root = str(tmp_path / "shared")
        key = "cc" + "8" * 62
        procs = [multiprocessing.Process(target=_writer_proc,
                                         args=(root, key, idx))
                 for idx in range(4)]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join()
        assert all(proc.exitcode == 0 for proc in procs)
        # Last rename wins; whichever payload survived is complete.
        artifact = DiskStore(root).get(key)
        assert artifact in [("payload", idx, "x" * 4096)
                            for idx in range(4)]
        # No temp files left behind.
        debris = [name for _dir, _sub, files
                  in os.walk(root) for name in files
                  if name.endswith(".tmp")]
        assert debris == []


def _writer_proc(root, key, idx):
    store = DiskStore(root)
    for _round in range(20):
        assert store.put(key, ("payload", idx, "x" * 4096))
        store.get(key)


class TestQuarantine:
    def test_corrupt_entry_moves_to_quarantine_dir(self, store):
        key = "45" + "9" * 62
        store.put(key, list(range(50)))
        path = store._path(key)
        with open(path, "wb") as fh:
            fh.write(b"\x80torn mid-payload")
        assert store.get(key) is None
        assert not os.path.exists(path)
        # The evidence is preserved, not destroyed.
        quarantined = os.listdir(store.quarantine_dir)
        assert len(quarantined) == 1
        assert quarantined[0].startswith(key + ".pkl")
        # The ledger balances: every read error has its quarantine.
        assert store.read_errors == store.quarantined == 1

    def test_read_errors_always_equal_quarantined(self, store):
        for idx in range(3):
            key = f"{idx:02d}" + "a" * 62
            path = store._path(key)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "wb") as fh:
                fh.write(b"garbage %d" % idx)
            assert store.get(key) is None
        assert store.read_errors == 3
        assert store.quarantined == 3


class TestTwoPhaseGC:
    def test_eviction_tombstones_then_reaps_after_grace(self, tmp_path):
        store = DiskStore(str(tmp_path / "gc"), max_bytes=150,
                          min_age_s=0.0, tombstone_grace_s=3600.0)
        old, new = "aa" + "b" * 62, "bb" + "c" * 62
        store.put(old, "x" * 100)
        os.utime(store._path(old), (1, 1))
        store.put(new, "y" * 100)              # triggers eviction of old
        assert not store.contains(old)         # gone from the live set
        assert store.tombstoned == 1
        assert store.gc_removed == 0           # grace not yet elapsed
        stats = store.stats()
        assert stats["tombstones"] == 1
        # Within the grace period a sweep must not touch the tombstone.
        store.sweep()
        assert store.stats()["tombstones"] == 1
        # After the grace period, it is reaped.
        store.tombstone_grace_s = 0.0
        summary = store.sweep()
        assert summary["reaped"] == 1
        assert store.gc_removed == 1
        assert store.stats()["tombstones"] == 0

    def test_tombstoned_entry_is_a_plain_miss(self, tmp_path):
        store = DiskStore(str(tmp_path / "gc"), max_bytes=10**9,
                          min_age_s=0.0, tombstone_grace_s=3600.0)
        key = "cc" + "d" * 62
        store.put(key, "artifact")
        assert store._tombstone(store._path(key), generation=1)
        assert store.get(key) is None
        assert store.read_errors == 0          # a miss, not corruption

    def test_min_age_floor_protects_young_entries(self, tmp_path):
        store = DiskStore(str(tmp_path / "young"), max_bytes=10**9,
                          min_age_s=3600.0, tombstone_grace_s=0.0)
        aged, young = "dd" + "e" * 62, "ee" + "f" * 62
        store.put(aged, "x" * 100)
        os.utime(store._path(aged), (1, 1))    # ancient
        store.put(young, "y" * 100)            # just written
        store.max_bytes = 150                  # room for one entry
        store._evict()
        # The aged entry is sacrificed; the young one is protected even
        # though (mtime, size) ordering alone would not care.
        assert not store.contains(aged)
        assert store.contains(young)
        assert store.evicted_young == 0

    def test_forced_young_eviction_is_counted(self, tmp_path):
        store = DiskStore(str(tmp_path / "forced"), max_bytes=10**9,
                          min_age_s=3600.0, tombstone_grace_s=0.0)
        for idx in range(3):
            store.put(f"{idx:02d}" + "0" * 62, "z" * 100)
        store.max_bytes = 150                  # every entry is young
        store._evict()
        # Cap pressure forced young evictions — and said so.
        assert store.evicted_young >= 1
        assert store.evicted_young == store.evictions

    def test_sweep_summary_and_generation(self, tmp_path):
        store = DiskStore(str(tmp_path / "sweep"))
        generation = store.generation()
        summary = store.sweep()
        assert summary["generation"] == generation + 1
        assert store.generation() == generation + 1
        assert summary["tombstoned"] == 0
        assert summary["reaped"] == 0

    def test_sweep_clears_stale_tmp_spool(self, tmp_path):
        store = DiskStore(str(tmp_path / "tmpgc"))
        key = "ff" + "1" * 62
        store.put(key, "live")
        fanout = os.path.dirname(store._path(key))
        stale = os.path.join(fanout, "deadbeef-crashed.tmp")
        with open(stale, "wb") as fh:
            fh.write(b"half a pickle")
        os.utime(stale, (1, 1))                # ancient: crashed writer
        fresh = os.path.join(fanout, "cafecafe-live.tmp")
        with open(fresh, "wb") as fh:
            fh.write(b"in-flight write")
        summary = store.sweep()
        assert summary["stale_tmp"] == 1
        assert not os.path.exists(stale)
        assert os.path.exists(fresh)           # live writers untouched
        assert store.contains(key)


class TestStartupRecovery:
    def test_reopen_quarantines_torn_entries(self, tmp_path):
        root = str(tmp_path / "recover")
        first = DiskStore(root)
        good, torn, empty = ("11" + "2" * 62, "22" + "3" * 62,
                             "33" + "4" * 62)
        first.put(good, "intact")
        for key, payload in ((torn, b"not a pickle at all"),
                             (empty, b"")):
            path = first._path(key)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "wb") as fh:
                fh.write(payload)
        second = DiskStore(root)
        assert second.recovered_torn == 2
        assert not second.contains(torn)
        assert not second.contains(empty)
        assert second.get(good) == "intact"
        # Startup recovery is bookkept separately from read-path
        # quarantine, preserving read_errors == quarantined.
        assert second.read_errors == second.quarantined == 0

    def test_reopen_reaps_expired_tombstones_and_tmp(self, tmp_path):
        root = str(tmp_path / "reopen")
        first = DiskStore(root, tombstone_grace_s=0.0)
        key = "44" + "5" * 62
        first.put(key, "doomed")
        first._tombstone(first._path(key), generation=7)
        fanout = os.path.dirname(first._path(key))
        stale = os.path.join(fanout, "00000000-crash.tmp")
        with open(stale, "wb") as fh:
            fh.write(b"spool debris")
        os.utime(stale, (1, 1))
        second = DiskStore(root, tombstone_grace_s=0.0)
        assert second.gc_removed == 1          # tombstone reaped
        assert second.recovered_tmp == 1       # spool debris cleared
        assert not os.path.exists(stale)


class TestStoreFaults:
    def test_deterministic_for_a_seed(self):
        a = StoreFaults(7, slow_rate=0.5, torn_rate=0.5)
        b = StoreFaults(7, slow_rate=0.5, torn_rate=0.5)
        payload = b"\x80" + b"x" * 99
        assert [a.maybe_tear(payload) for _ in range(20)] == \
            [b.maybe_tear(payload) for _ in range(20)]

    def test_torn_write_is_quarantined_on_read(self, tmp_path):
        store = DiskStore(str(tmp_path / "faulted"))
        store.faults = StoreFaults(0, torn_rate=1.0)
        key = "55" + "6" * 62
        store.put(key, list(range(200)))
        assert store.faults.torn == 1
        assert store.get(key) is None          # torn: a miss, never junk
        assert store.read_errors == store.quarantined == 1
        # The slot heals on rewrite once the fault stops firing.
        store.faults = None
        store.put(key, "healed")
        assert store.get(key) == "healed"


class TestConcurrentDaemonGC:
    """Two stores, one root, GC churning under live traffic.

    The acceptance bar: across ~1000 mixed operations per process
    (puts, gets, sweeps, eviction pressure), no reader in either
    process ever observes a torn or wrong artifact — every get is a
    correct hit or a clean miss (``read_errors == quarantined == 0``
    with no fault injection installed), despite concurrent two-phase
    removal running in both processes.
    """

    def test_two_daemons_share_a_root_safely(self, tmp_path):
        root = str(tmp_path / "shared-root")
        queue = multiprocessing.Queue()
        # Neither rank re-publishes its hot key until both have stopped
        # churning: a rank still putting under the 64 KiB cap would
        # evict a key its peer published and left behind.
        done_churning = multiprocessing.Barrier(2)
        procs = [multiprocessing.Process(
                     target=_gc_churn_proc,
                     args=(root, rank, queue, done_churning))
                 for rank in range(2)]
        for proc in procs:
            proc.start()
        reports = [queue.get(timeout=120) for _ in procs]
        for proc in procs:
            proc.join(timeout=60)
        assert all(proc.exitcode == 0 for proc in procs)
        for report in reports:
            assert report["failures"] == []
            assert report["ops"] >= 1000
            # Crash-safe GC's whole claim: concurrent sweeps never
            # manufacture corruption.
            assert report["read_errors"] == report["quarantined"] == 0
        # Both processes ran real GC traffic, not a quiet no-op.
        assert sum(r["tombstoned"] for r in reports) > 0
        # The hot keys each process kept re-writing survived to the end.
        survivor = DiskStore(root, max_bytes=10**9)
        for rank in range(2):
            artifact = survivor.get(_hot_key(rank))
            assert artifact is not None
            assert artifact[0] == ("hot", rank)


def _hot_key(rank):
    return f"{rank:02d}" + "e" * 62


def _gc_churn_proc(root, rank, queue, done_churning):
    """~1000 mixed store ops with aggressive GC; report invariants."""
    import random as random_mod
    rng = random_mod.Random(1000 + rank)
    store = DiskStore(root, max_bytes=64 * 1024, min_age_s=0.0,
                      tombstone_grace_s=0.05)
    written = {}
    failures = []
    ops = 0
    for step in range(1100):
        ops += 1
        roll = rng.random()
        if roll < 0.35:                        # put a cold key
            key = f"{rank:02d}" + f"{rng.randrange(64):02x}" * 31
            value = ("cold", rank, step, "x" * rng.randrange(256, 2048))
            if store.put(key, value):
                written[key] = value
        elif roll < 0.55:                      # refresh the hot key
            value = (("hot", rank), step, "y" * 512)
            store.put(_hot_key(rank), value)
            written[_hot_key(rank)] = value
        elif roll < 0.9:                       # read something back
            if not written:
                continue
            key = rng.choice(list(written))
            artifact = store.get(key)
            # Eviction may have removed it (a clean miss); what it may
            # never be is present-but-wrong or torn.
            if artifact is not None and artifact != written[key] \
                    and key != _hot_key(rank):
                failures.append(f"step {step}: wrong bytes for {key}")
        else:                                  # GC pass
            store.sweep()
    # Re-publish the hot key last so the parent can assert liveness.
    done_churning.wait(timeout=120)
    store.put(_hot_key(rank), (("hot", rank), "final", "z" * 512))
    stats = store.stats()
    queue.put({
        "rank": rank,
        "ops": ops,
        "failures": failures[:10],
        "read_errors": stats["read_errors"],
        "quarantined": stats["quarantined"],
        "tombstoned": stats["tombstoned"],
        "gc_removed": stats["gc_removed"],
    })


class TestContentKey:
    def test_stable_and_distinct(self):
        base = content_key(SOURCE)
        assert base == content_key(SOURCE)
        assert len(base) == 64
        assert content_key(SOURCE, "generic-risc") != base
        assert content_key(SOURCE,
                           options=OptOptions.no_streaming()) != base
        assert content_key(SOURCE + " ") != base

    def test_wm_spellings_are_canonical(self):
        assert content_key(SOURCE, None) == content_key(SOURCE, "wm")

    def test_compiler_rev_changes_key(self, monkeypatch):
        before = content_key(SOURCE)
        monkeypatch.setattr(repro, "__compiler_rev__",
                            repro.__compiler_rev__ + 1)
        assert content_key(SOURCE) != before


class TestTwoTierCache:
    def test_disk_hit_after_memory_flush(self, tmp_path):
        cache_mod.configure_disk_store(str(tmp_path / "store"))
        first = compile_cached(LIVERMORE5)
        clear_cache()                      # simulate a fresh process
        second = compile_cached(LIVERMORE5)
        assert second is not first         # unpickled, not the object
        disk = cache_mod.get_disk_store()
        assert disk.hits == 1
        assert disk.writes == 1

    def test_disk_artifact_is_faithful(self, tmp_path):
        cache_mod.configure_disk_store(str(tmp_path / "store"))
        live = compile_cached(LIVERMORE5)
        live_sim = live.simulate()
        clear_cache()
        revived = compile_cached(LIVERMORE5)
        assert revived.listing() == live.listing()
        sim = revived.simulate()
        assert (sim.value, sim.cycles) == (live_sim.value,
                                           live_sim.cycles)
        assert revived.run_oracle().value == live.run_oracle().value

    def test_version_bump_invalidates_persisted_artifacts(
            self, tmp_path, monkeypatch):
        cache_mod.configure_disk_store(str(tmp_path / "store"))
        compile_cached(SOURCE)
        clear_cache()
        monkeypatch.setattr(repro, "__compiler_rev__",
                            repro.__compiler_rev__ + 1)
        compile_cached(SOURCE)
        disk = cache_mod.get_disk_store()
        assert disk.hits == 0              # old artifact never served
        assert disk.writes == 2            # recompiled and re-persisted

    def test_corrupt_disk_entry_recompiles_and_heals(self, tmp_path):
        cache_mod.configure_disk_store(str(tmp_path / "store"))
        compile_cached(SOURCE)
        disk = cache_mod.get_disk_store()
        path = disk._path(content_key(SOURCE))
        with open(path, "wb") as fh:
            fh.write(b"\x80corrupt")
        clear_cache()
        result = compile_cached(SOURCE)    # recompiles through the rot
        assert isinstance(result, CompileResult)
        assert disk.read_errors == 1
        clear_cache()
        assert isinstance(compile_cached(SOURCE), CompileResult)
        assert disk.hits == 1              # healed entry serves again

    def test_non_compileresult_payload_is_ignored(self, tmp_path):
        cache_mod.configure_disk_store(str(tmp_path / "store"))
        cache_mod.get_disk_store().put(content_key(SOURCE), {"not": "it"})
        result = compile_cached(SOURCE)
        assert isinstance(result, CompileResult)

    def test_env_autoconfiguration(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cache_mod.CACHE_DIR_ENV,
                           str(tmp_path / "env-store"))
        cache_mod._disk = None
        cache_mod._disk_configured = False
        disk = cache_mod.get_disk_store()
        assert disk is not None
        assert disk.root == str(tmp_path / "env-store")

    def test_explicit_config_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cache_mod.CACHE_DIR_ENV,
                           str(tmp_path / "env-store"))
        cache_mod.configure_disk_store(str(tmp_path / "explicit"))
        assert cache_mod.get_disk_store().root == \
            str(tmp_path / "explicit")

    def test_cache_stats_carries_disk_section(self, tmp_path):
        cache_mod.configure_disk_store(str(tmp_path / "store"))
        compile_cached(SOURCE)
        from repro.perf import cache_stats
        stats = cache_stats()
        assert stats["disk"]["writes"] == 1
        assert stats["disk"]["entries"] == 1

    def test_manifest_surfaces_cache_stats(self, tmp_path):
        cache_mod.configure_disk_store(str(tmp_path / "store"))
        compile_cached(SOURCE)
        from repro.obs import run_manifest
        manifest = run_manifest()
        assert manifest["compiler_rev"] == repro.__compiler_rev__
        assert manifest["cache"]["misses"] == 1
        assert manifest["cache"]["disk"]["writes"] == 1


class TestCrossProcessPickle:
    """A CompileResult must survive the pool/daemon pickle boundary."""

    def test_instr_df_bitmasks_not_pickled(self):
        result = compile_source(LIVERMORE5)
        payload = pickle.dumps(result)
        revived = pickle.loads(payload)
        # Dataflow bitmask caches are process-local (cell interning
        # order); they must come back empty and rebuild on demand.
        for func in revived.rtl.functions.values():
            for instr in func.instrs:
                if hasattr(instr, "_df"):
                    assert instr._df is None
        assert revived.listing() == result.listing()

    def test_sim_caches_dropped_and_rebuilt(self):
        result = compile_source(LIVERMORE5)
        baseline = result.simulate()
        revived = pickle.loads(pickle.dumps(result))
        sim = revived.simulate()
        assert (sim.value, sim.cycles) == (baseline.value,
                                           baseline.cycles)
        # and again, to prove rebuilt caches are reusable
        sim2 = revived.simulate()
        assert (sim2.value, sim2.cycles) == (sim.value, sim.cycles)

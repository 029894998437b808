"""Tests for the SQLite result store and its plan-layer integration.

The store's contract is the cache's, one tier further out: a store-served
result must be **byte-identical** to the fresh simulation's (same row
codec as cache entries), a corrupt store is quarantined and rebuilt
rather than trusted, a schema mismatch refuses instead of misreading, and
concurrent writers (WAL mode) never corrupt each other.  Alongside: the
``on_progress`` reporting that landed in the same change.
"""

import json
import os
import sqlite3
import threading
import warnings

import pytest

from repro.cpu.workloads import workload_by_name
from repro.scenarios.registry import scenarios as catalog_scenarios
from repro.sim import faults
from repro.sim.configs import (
    conventional_spec,
    dnuca_spec,
    lnuca_dnuca_spec,
    lnuca_l3_spec,
)
from repro.sim.faults import FaultPlan, FaultSpec
from repro.sim.plan import (
    ResultCache,
    compile_sweep,
    execute,
    set_default_progress,
    use_store,
)
from repro.sim.runner import RunResult
from repro.sim.store import STORE_SCHEMA, ResultStore, StoreSchemaError

TINY = 1200

FOUR_HIERARCHIES = {
    "L2-256KB": conventional_spec(),
    "LN2-72KB": lnuca_l3_spec(2),
    "DN-4x8": dnuca_spec(),
    "LN2+DN-4x8": lnuca_dnuca_spec(2),
}


def two_workloads():
    return [workload_by_name("mcf-like"), workload_by_name("milc-like")]


def result_tuple(result):
    return (
        result.system, result.workload, result.category, result.ipc,
        result.cycles, result.instructions, result.activity, result.core_stats,
    )


def assert_identical(lhs, rhs):
    assert len(lhs) == len(rhs)
    for a, b in zip(lhs, rhs):
        assert result_tuple(a) == result_tuple(b)


def _dummy_result(workload, system="dummy", ipc=1.0):
    return RunResult(
        system=system, workload=workload, category="int",
        ipc=ipc, cycles=100.0, instructions=100.0, activity={}, core_stats={},
    )


@pytest.fixture
def pinned_version(monkeypatch):
    monkeypatch.setenv("REPRO_SIM_VERSION", "test-version-1")


@pytest.fixture
def clean_faults():
    faults.install(FaultPlan())
    yield
    faults.reset()


def _wipe_cache_entries(cache):
    import shutil

    shutil.rmtree(os.path.join(cache.directory, "results"), ignore_errors=True)


class TestCachePruneAudit:
    """``ResultCache.put`` audits the entry tree only under a size limit."""

    def _count_prunes(self, cache, monkeypatch):
        calls = []
        original = cache.prune

        def counting_prune():
            calls.append(1)
            return original()

        monkeypatch.setattr(cache, "prune", counting_prune)
        return calls

    def test_unlimited_cache_never_prunes_on_put(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_LIMIT_MB", raising=False)
        cache = ResultCache(str(tmp_path / "cache"))
        assert cache.limit_bytes is None
        calls = self._count_prunes(cache, monkeypatch)
        for index in range(ResultCache.PRUNE_EVERY + 2):
            cache.put(f"{index:064x}", _dummy_result(f"w{index}"))
        assert calls == []
        assert cache.get(f"{0:064x}") is not None

    def test_limited_cache_prunes_first_write_then_amortised(self, tmp_path, monkeypatch):
        cache = ResultCache(str(tmp_path / "cache"), limit_mb=64)
        calls = self._count_prunes(cache, monkeypatch)
        cache.put(f"{0:064x}", _dummy_result("w0"))
        assert len(calls) == 1
        for index in range(1, ResultCache.PRUNE_EVERY + 1):
            cache.put(f"{index:064x}", _dummy_result(f"w{index}"))
        assert len(calls) == 2


# ---------------------------------------------------------------- round trips
class TestStoreRoundTrip:
    def test_live_ingest_then_store_hits_byte_identical_four_hierarchies(
        self, tmp_path, pinned_version
    ):
        cache = ResultCache(str(tmp_path / "cache"))
        store = ResultStore(str(tmp_path / "results.sqlite"))
        plan = compile_sweep(FOUR_HIERARCHIES, two_workloads(), TINY)

        cold = execute(plan, cache=cache, store=store)
        assert cold.stats.simulated == len(plan.jobs)
        assert store.stats()["rows"] == len(plan.jobs)

        # Lose the cache, keep the store: the warm run must be pure store
        # hits, byte-identical to the cold run.
        _wipe_cache_entries(cache)
        warm = execute(compile_sweep(FOUR_HIERARCHIES, two_workloads(), TINY),
                       cache=cache, store=store)
        assert warm.stats.simulated == 0
        assert warm.stats.store_hits == len(plan.jobs)
        assert_identical(cold.results, warm.results)

        # The store hit repaired the cache tier: third run is pure cache.
        third = execute(compile_sweep(FOUR_HIERARCHIES, two_workloads(), TINY),
                        cache=cache, store=store)
        assert third.stats.cached == len(plan.jobs)
        assert third.stats.store_hits == 0
        assert_identical(cold.results, third.results)

    def test_ingest_cache_etl_preserves_bytes_and_digests(
        self, tmp_path, pinned_version
    ):
        cache = ResultCache(str(tmp_path / "cache"))
        builders = {"L2-256KB": conventional_spec()}
        cold = execute(compile_sweep(builders, two_workloads(), TINY), cache=cache)

        store = ResultStore(str(tmp_path / "results.sqlite"))
        report = store.ingest_cache(cache)
        assert report["ingested"] == len(cold.results)
        assert report["skipped"] == 0

        # Digest provenance survived the ETL (entries carry meta now).
        rows = store.query(label="L2-256KB")
        assert len(rows) == len(cold.results)
        assert all(row["builder_digest"] for row in rows)
        assert all(row["simulator_version"] == "test-version-1" for row in rows)

        # And the store alone reproduces the sweep byte-identically.
        _wipe_cache_entries(cache)
        warm = execute(compile_sweep(builders, two_workloads(), TINY),
                       cache=cache, store=store)
        assert warm.stats.store_hits == len(cold.results)
        assert_identical(cold.results, warm.results)

        # Re-ingesting is idempotent: first writer wins, nothing changes.
        again = store.ingest_cache(cache)
        assert again["ingested"] == 0

    def test_query_filters_and_scenario_tag(self, tmp_path, pinned_version):
        store = ResultStore(str(tmp_path / "results.sqlite"))
        graph = [spec.name for spec in catalog_scenarios(tag="graph")]
        assert graph  # the catalog carries the tag this test keys on
        store.put("1" * 64, _dummy_result(graph[0], system="LN3-144KB"),
                  meta={"simulator_version": "v1"})
        store.put("2" * 64, _dummy_result("mcf-like", system="L2-256KB"),
                  meta={"simulator_version": "v1"})

        assert len(store.query(tag="graph")) == 1
        assert store.query(tag="graph")[0]["workload"] == graph[0]
        assert store.query(tag="no-such-tag") == []
        assert len(store.query(label="L2-256KB")) == 1
        assert len(store.query(version="v1")) == 2
        assert len(store.query(version="v2")) == 0
        assert len(store.query(limit=1)) == 1

    def test_compare_matches_jobs_across_versions(self, tmp_path):
        store = ResultStore(str(tmp_path / "results.sqlite"))
        meta = {
            "builder_digest": "b" * 64, "trace_digest": "t" * 64,
            "num_instructions": 100, "mode": "event",
        }
        store.put("1" * 64, _dummy_result("wl", ipc=1.0),
                  meta={**meta, "simulator_version": "v1"})
        store.put("2" * 64, _dummy_result("wl", ipc=1.5),
                  meta={**meta, "simulator_version": "v2"})
        rows = store.compare("v1", "v2")
        assert len(rows) == 1
        assert rows[0]["ipc_delta"] == pytest.approx(0.5)

    def test_dirty_version_bypasses_store(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_VERSION", "abc123-dirty")
        store = ResultStore(str(tmp_path / "results.sqlite"))
        builders = {"L2-256KB": conventional_spec()}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            run = execute(compile_sweep(builders, two_workloads()[:1], TINY),
                          store=store)
        assert run.stats.simulated == 1
        assert store.stats()["rows"] == 0  # nothing from a dirty tree persists

    def test_use_store_context_feeds_execute(self, tmp_path, pinned_version):
        store = ResultStore(str(tmp_path / "results.sqlite"))
        builders = {"L2-256KB": conventional_spec()}
        with use_store(store):
            cold = execute(compile_sweep(builders, two_workloads(), TINY))
            warm = execute(compile_sweep(builders, two_workloads(), TINY))
        assert cold.stats.simulated == 2
        assert warm.stats.store_hits == 2 and warm.stats.simulated == 0
        assert_identical(cold.results, warm.results)
        # Outside the context the default is gone again.
        after = execute(compile_sweep(builders, two_workloads(), TINY))
        assert after.stats.store_hits == 0 and after.stats.simulated == 2


# -------------------------------------------------------------------- schema
class TestStoreSchema:
    def test_schema_mismatch_refuses_to_open(self, tmp_path):
        path = str(tmp_path / "results.sqlite")
        store = ResultStore(path)
        store.put("9" * 64, _dummy_result("wl"))
        store.close()
        conn = sqlite3.connect(path)
        with conn:
            conn.execute("UPDATE meta SET value = '999' WHERE key = 'schema'")
        conn.close()
        with pytest.raises(StoreSchemaError, match="schema 999"):
            ResultStore(path)

    def test_schema_1_store_opens_after_migrate(self, tmp_path):
        """Schema-1 rows carry content digests: they are refused, then
        migrated with their digests cleared and every row kept."""
        assert STORE_SCHEMA == 2
        path = str(tmp_path / "results.sqlite")
        store = ResultStore(path)
        meta = {"builder_digest": "b" * 64, "trace_digest": "t" * 64,
                "simulator_version": "v1"}
        for index in range(3):
            store.put(f"{index}" * 64, _dummy_result(f"wl{index}"), meta=meta)
        store.close()
        conn = sqlite3.connect(path)
        with conn:
            conn.execute("UPDATE meta SET value = '1' WHERE key = 'schema'")
        conn.close()
        with pytest.raises(StoreSchemaError, match="schema 1"):
            ResultStore(path)
        ResultStore.migrate(path)
        migrated = ResultStore(path)
        rows = migrated.query(label="dummy")
        assert sorted(row["workload"] for row in rows) == ["wl0", "wl1", "wl2"]
        assert all(row["trace_digest"] is None for row in rows)
        assert migrated.get("0" * 64).workload == "wl0"
        assert migrated.compare("v1", "v1") == []
        ResultStore.migrate(path)  # already current: a no-op
        assert ResultStore(path).stats()["rows"] == 3

    def test_migrate_refuses_an_unknown_schema(self, tmp_path):
        path = str(tmp_path / "results.sqlite")
        ResultStore(path).close()
        conn = sqlite3.connect(path)
        with conn:
            conn.execute("UPDATE meta SET value = '999' WHERE key = 'schema'")
        conn.close()
        with pytest.raises(StoreSchemaError, match="cannot migrate"):
            ResultStore.migrate(path)


# --------------------------------------------------------------- concurrency
class TestStoreConcurrency:
    def test_concurrent_writers_wal_mode(self, tmp_path):
        path = str(tmp_path / "results.sqlite")
        store = ResultStore(path)
        threads, errors = [], []
        barrier = threading.Barrier(4)

        def writer(worker: int) -> None:
            try:
                barrier.wait(timeout=30)
                for i in range(25):
                    key = f"{worker:02d}{i:02d}".ljust(64, "0")
                    store.put(key, _dummy_result(f"wl-{worker}-{i}"))
                    # Contended key: every worker writes it, first wins.
                    store.put("f" * 64, _dummy_result("shared", ipc=1.0 + worker))
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        for worker in range(4):
            thread = threading.Thread(target=writer, args=(worker,))
            threads.append(thread)
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        stats = store.stats()
        assert stats["rows"] == 4 * 25 + 1
        assert store.verify()["ok"]
        # The contended row is exactly one of the writers' versions, intact.
        shared = store.get("f" * 64)
        assert shared.workload == "shared"
        assert shared.ipc in (1.0, 2.0, 3.0, 4.0)

    def test_two_store_instances_share_one_file(self, tmp_path):
        path = str(tmp_path / "results.sqlite")
        first = ResultStore(path)
        second = ResultStore(path)
        assert first.put("a" * 64, _dummy_result("wl-a"))
        assert not second.put("a" * 64, _dummy_result("wl-a"))  # already there
        assert second.put("b" * 64, _dummy_result("wl-b"))
        assert first.stats()["rows"] == 2
        assert result_tuple(second.get("a" * 64)) == result_tuple(
            first.get("a" * 64)
        )


# ------------------------------------------------------------ fault injection
class TestStoreFaultInjection:
    @pytest.mark.parametrize("op", ["corrupt", "truncate", "delete"])
    def test_store_file_mangled_mid_ingest_recovers(
        self, tmp_path, clean_faults, op
    ):
        path = str(tmp_path / "results.sqlite")
        store = ResultStore(path)
        faults.install(FaultPlan(specs=[FaultSpec(site="store", op=op, nth=1)]))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for i in range(4):
                store.put(f"{i:x}".ljust(64, "0"), _dummy_result(f"wl-{i}"))
            # A fresh connection sees the mangled file (an open handle may
            # coast on the unlinked/corrupted inode) — the store must
            # quarantine and re-initialise, never crash, never trust it.
            store.close()
            assert store.put("e" * 64, _dummy_result("after-fault"))
            roundtrip = store.get("e" * 64)
        assert roundtrip is not None
        assert roundtrip.workload == "after-fault"
        assert store.verify()["ok"]
        # Whatever survived decodes cleanly; queries never raise.
        store.query(limit=10)
        assert store.stats()["rows"] >= 1

    def test_corrupt_header_warns_and_quarantines(self, tmp_path, clean_faults):
        path = str(tmp_path / "results.sqlite")
        store = ResultStore(path)
        store.put("1" * 64, _dummy_result("wl"))
        store.close()
        with open(path, "r+b") as handle:
            handle.write(b"\x00garbage\x00" * 4)  # stomp the SQLite header
        with pytest.warns(RuntimeWarning, match="corrupt"):
            assert store.get("1" * 64) is None  # degraded to a miss
        # The fresh store works; the corpse was set aside for post-mortem.
        assert store.put("2" * 64, _dummy_result("wl-2"))
        assert any(
            name.startswith("results.sqlite.corrupt-")
            for name in os.listdir(tmp_path)
        )


# ------------------------------------------------------------------ progress
class TestProgressReporting:
    def test_on_progress_reports_each_landed_job(self, tmp_path, pinned_version):
        cache = ResultCache(str(tmp_path / "cache"))
        builders = {"L2-256KB": conventional_spec()}
        calls = []
        run = execute(
            compile_sweep(builders, two_workloads(), TINY), cache=cache,
            on_progress=lambda done, total, stats: calls.append((done, total)),
        )
        # One call per landed job plus the terminating call.
        assert calls == [(1, 2), (2, 2), (2, 2)]
        assert run.stats.simulated == 2

        calls.clear()
        execute(
            compile_sweep(builders, two_workloads(), TINY), cache=cache,
            on_progress=lambda done, total, stats: calls.append((done, total)),
        )
        assert calls == [(1, 2), (2, 2), (2, 2)]  # warm: cache hits report too

    def test_set_default_progress_is_the_fallback(self, tmp_path, pinned_version):
        cache = ResultCache(str(tmp_path / "cache"))
        builders = {"L2-256KB": conventional_spec()}
        calls = []
        set_default_progress(lambda done, total, stats: calls.append(done))
        try:
            execute(compile_sweep(builders, two_workloads()[:1], TINY), cache=cache)
        finally:
            set_default_progress(None)
        assert calls == [1, 1]
        calls.clear()
        execute(compile_sweep(builders, two_workloads()[:1], TINY), cache=cache)
        assert calls == []  # cleared: no callback fires

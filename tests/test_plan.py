"""Differential tests for the declarative run-plan layer.

The contract of :mod:`repro.sim.plan`: every fast path — file-backed
trace-pool replay, the content-addressed result cache, worker fan-out —
must be **bit-identical** (cycles, IPC, every activity and core counter)
to the direct path (fresh build, per-job prewarm, per-job synthesis,
sequential, uncached).  These tests enforce it across all four
hierarchy types, warm and cold.
"""

import json
import os
import sys
import threading
import warnings
from collections import OrderedDict

import pytest

from repro.cpu.workloads import workload_by_name
from repro.scenarios import records_bytes, scenario
from repro.scenarios.tracefile import map_trace
from repro.sim import plan
from repro.sim.configs import (
    BuilderSpec,
    build_conventional_hierarchy,
    conventional_spec,
    dnuca_spec,
    lnuca_dnuca_spec,
    lnuca_l3_spec,
)
from repro.sim.plan import (
    ExecutionStats,
    JobSpec,
    ResultCache,
    TracePool,
    compile_sweep,
    execute,
    trace_digest,
    trace_source_for,
)
from repro.sim.runner import run_suite, run_workload

TINY = 1200

#: One representative of each of the paper's four hierarchy types.
FOUR_HIERARCHIES = {
    "L2-256KB": conventional_spec(),
    "LN2-72KB": lnuca_l3_spec(2),
    "DN-4x8": dnuca_spec(),
    "LN2+DN-4x8": lnuca_dnuca_spec(2),
}


def two_workloads():
    return [workload_by_name("mcf-like"), workload_by_name("milc-like")]


def result_tuple(result):
    """Everything a RunResult observes, for exact comparisons."""
    return (
        result.system,
        result.workload,
        result.category,
        result.ipc,
        result.cycles,
        result.instructions,
        result.activity,
        result.core_stats,
    )


def assert_identical(lhs, rhs):
    assert len(lhs) == len(rhs)
    for a, b in zip(lhs, rhs):
        assert result_tuple(a) == result_tuple(b)


@pytest.fixture
def cache(tmp_path, monkeypatch):
    """A writable result cache with a pinned (clean) simulator version."""
    monkeypatch.setenv("REPRO_SIM_VERSION", "test-version-1")
    return ResultCache(str(tmp_path / "cache"))


def _dummy_result(workload):
    from repro.sim.runner import RunResult

    return RunResult(
        system="dummy", workload=workload, category="int",
        ipc=1.0, cycles=100.0, instructions=100.0, activity={}, core_stats={},
    )


def direct_path(compiled, specs):
    """The direct path for every job of ``compiled``: a fresh build, its
    own prewarm and its own synthesis per job, via ``run_workload``."""
    by_name = {spec.name: spec for spec in specs}
    results = []
    for job in compiled.jobs:
        result = run_workload(
            compiled.builders[job.builder].factory, by_name[job.trace],
            job.num_instructions, prewarm=job.prewarm,
        )
        result.system = job.system
        results.append(result)
    return results


# ------------------------------------------------------------ repeated jobs
class TestRepeatedJobs:
    """Jobs a plan repeats build and prewarm their own hierarchy, like every
    other job, and stay bit-identical to the direct path."""

    @pytest.mark.parametrize("name", sorted(FOUR_HIERARCHIES))
    def test_repeated_jobs_match_fresh_prewarm(self, name):
        spec = two_workloads()[0]
        builder = FOUR_HIERARCHIES[name]
        direct = run_workload(builder.factory, spec, TINY, prewarm=True)
        direct.system = name
        compiled = compile_sweep({name: builder}, [spec], TINY)
        compiled.jobs = compiled.jobs * 3
        planned = execute(compiled)
        assert planned.stats.simulated == 3
        assert_identical([direct, direct, direct], planned.results)

    @pytest.mark.parametrize("name", sorted(FOUR_HIERARCHIES))
    def test_repeated_jobs_across_workers_match_fresh_prewarm(self, name):
        spec = two_workloads()[0]
        builder = FOUR_HIERARCHIES[name]
        direct = run_workload(builder.factory, spec, TINY, prewarm=True)
        direct.system = name
        compiled = compile_sweep({name: builder}, [spec], TINY)
        compiled.jobs = compiled.jobs * 3
        planned = execute(compiled, workers=2)
        assert not planned.failures
        assert planned.stats.simulated == 3
        assert_identical([direct, direct, direct], planned.results)

    @pytest.mark.parametrize("name", sorted(FOUR_HIERARCHIES))
    def test_pool_payload_takes_the_in_process_path(self, name):
        """A pool worker's payload and an in-process job run the same
        build -> prewarm -> simulate helper, so their results match."""
        spec = two_workloads()[0]
        compiled = compile_sweep({name: FOUR_HIERARCHIES[name]}, [spec], TINY)
        job = compiled.jobs[0]
        source = compiled.traces[job.trace]
        trace = source.build()
        stats = ExecutionStats()
        local = plan._run_job(compiled, job, trace, stats)
        assert stats.job_s > 0.0
        payload = {
            "job": job,
            "builder": compiled.builders[job.builder],
            "workload": source.name,
            "category": source.category,
            "core_config": compiled.core_config,
            "trace_ref": ("bytes", trace.name, trace.category, records_bytes(trace)),
        }
        shipped, job_s = plan._run_payload(payload, OrderedDict())
        assert job_s > 0.0
        assert_identical([local], [shipped])

    @pytest.mark.parametrize("name", sorted(FOUR_HIERARCHIES))
    def test_cold_runs_match_direct(self, name):
        """prewarm=False plans take the fresh-build path and stay identical."""
        spec = two_workloads()[0]
        builder = FOUR_HIERARCHIES[name]
        direct = run_workload(builder.factory, spec, TINY, prewarm=False)
        direct.system = name
        planned = execute(compile_sweep({name: builder}, [spec], TINY, prewarm=False))
        assert_identical([direct], planned.results)

    def test_cached_sweep_matches_direct(self, cache):
        specs = two_workloads()
        compiled = compile_sweep(FOUR_HIERARCHIES, specs, TINY)
        planned = execute(compiled, cache=cache)
        assert planned.stats.simulated == len(compiled.jobs)
        assert_identical(planned.results, direct_path(compiled, specs))

    def test_repeated_job_among_singletons_matches_direct(self):
        specs = two_workloads()
        compiled = compile_sweep({"L2-256KB": conventional_spec()}, specs, TINY)
        repeated = compiled.jobs[0]
        compiled.jobs = [repeated, compiled.jobs[1], repeated]
        planned = execute(compiled)
        assert planned.stats.simulated == 3
        assert_identical(planned.results, direct_path(compiled, specs))

    def test_cold_duplicates_match_direct(self):
        specs = two_workloads()[:1]
        compiled = compile_sweep(
            {"L2-256KB": conventional_spec()}, specs, TINY, prewarm=False
        )
        compiled.jobs = compiled.jobs * 2
        planned = execute(compiled)
        assert_identical(planned.results, direct_path(compiled, specs))

    def test_deduplicated_duplicates_match_direct(self, cache):
        """With a cache, duplicates wait on their in-flight twin instead of
        simulating."""
        specs = two_workloads()[:1]
        compiled = compile_sweep(
            {"L2-256KB": conventional_spec(), "LN2-72KB": lnuca_l3_spec(2)},
            specs, TINY,
        )
        compiled.jobs = compiled.jobs * 3
        planned = execute(compiled, cache=cache)
        assert planned.stats.simulated == 2
        assert planned.stats.inflight_hits == 4
        assert_identical(planned.results, direct_path(compiled, specs))

    def test_cached_duplicates_simulate_nothing(self, cache):
        compiled = compile_sweep({"L2-256KB": conventional_spec()}, two_workloads(), TINY)
        compiled.jobs = compiled.jobs * 2
        first = execute(compiled, cache=cache)
        warm = execute(compiled, cache=cache)
        assert warm.stats.simulated == 0
        assert_identical(warm.results, first.results)

    def test_repeated_execute_calls_are_identical(self):
        """Nothing one execute call builds leaks into the next."""
        compiled = compile_sweep({"L2-256KB": conventional_spec()}, two_workloads()[:1], TINY)
        compiled.jobs = compiled.jobs * 3
        runs = [execute(compiled) for _ in range(2)]
        assert_identical(runs[0].results, runs[1].results)

    def test_run_suite_is_the_direct_path(self):
        specs = two_workloads()
        fast = run_suite(FOUR_HIERARCHIES, specs, TINY)
        direct = direct_path(compile_sweep(FOUR_HIERARCHIES, specs, TINY), specs)
        assert_identical(fast, direct)

    def test_adhoc_lambda_builders_still_run(self):
        """Plain callables (no digest) still execute, uncached."""
        builders = {"adhoc": build_conventional_hierarchy}
        assert BuilderSpec(key="adhoc", factory=build_conventional_hierarchy).digest() is None
        results = run_suite(builders, two_workloads()[:1], TINY)
        direct = run_workload(build_conventional_hierarchy, two_workloads()[0], TINY)
        direct.system = "adhoc"
        assert_identical([direct], results)


# ------------------------------------------------------------------- workers
class TestWorkers:
    def test_workers_identical_to_sequential(self):
        specs = two_workloads()
        sequential = run_suite(FOUR_HIERARCHIES, specs, TINY, workers=0)
        parallel = run_suite(FOUR_HIERARCHIES, specs, TINY, workers=2)
        assert_identical(sequential, parallel)

    def test_workers_with_cache_populate_and_replay(self, cache):
        specs = two_workloads()
        first = run_suite(FOUR_HIERARCHIES, specs, TINY, workers=2, cache=cache)
        warm = execute(compile_sweep(FOUR_HIERARCHIES, specs, TINY), cache=cache)
        assert warm.stats.simulated == 0
        assert warm.stats.cached == len(first)
        assert_identical(first, warm.results)


class TestAutoWorkers:
    """``run_suite(workers=None)`` fans out over every usable CPU."""

    def test_single_cpu_runs_in_process_silently(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        forked = plan.worker_pool_stats()["forked"]
        with plan.collect_stats() as stats, warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            run_suite(FOUR_HIERARCHIES, two_workloads(), TINY)
        assert stats.workers_effective == 1
        assert plan.worker_pool_stats()["forked"] == forked

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_two_cpus_fan_out_identically(self, monkeypatch):
        specs = two_workloads()
        sequential = run_suite(FOUR_HIERARCHIES, specs, TINY, workers=1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        with plan.collect_stats() as stats:
            pooled = run_suite(FOUR_HIERARCHIES, specs, TINY)
        assert stats.workers_effective == 2
        assert_identical(sequential, pooled)

    def test_without_fork_only_an_explicit_request_warns(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.delattr(os, "fork", raising=False)
        monkeypatch.setattr(plan, "_FALLBACK_WARNED", False)
        with plan.collect_stats() as stats, warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            run_suite(FOUR_HIERARCHIES, two_workloads(), TINY)
        assert stats.workers_effective == 1
        with pytest.warns(RuntimeWarning, match="lacks os.fork"):
            run_suite(FOUR_HIERARCHIES, two_workloads(), TINY, workers=2)


class TestJobSeconds:
    """``ExecutionStats.job_s``: per-job wall time, wherever the job ran."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sweep_reports_job_seconds(self, workers):
        with plan.collect_stats() as stats:
            run_suite(FOUR_HIERARCHIES, two_workloads()[:1], TINY, workers=workers)
        assert stats.workers_effective == workers
        assert stats.job_s > 0
        assert stats.describe().endswith(f"job_s={stats.job_s:.3f}")

    def test_add_sums_job_seconds(self):
        total = ExecutionStats()
        total.add(ExecutionStats(job_s=0.25))
        total.add(ExecutionStats(job_s=0.5))
        assert total.job_s == 0.75


# ---------------------------------------------------------------- trace pool
class TestTracePool:
    def test_pool_replay_is_byte_identical_to_synthesis(self, tmp_path):
        spec = scenario("kv-zipf-hot")
        source = trace_source_for(spec, TINY)
        synthesized = source.build()
        pool = TracePool(str(tmp_path / "pool"))
        stats = ExecutionStats()
        captured = pool.fetch(source, stats)  # first fetch synthesizes + saves
        replayed = pool.fetch(source, stats)  # second fetch replays the file
        assert stats.pool_saves == 1 and stats.pool_loads == 1
        assert records_bytes(replayed) == records_bytes(synthesized)
        assert trace_digest(replayed) == trace_digest(synthesized)

    def test_pooled_runs_match_unpooled(self, tmp_path):
        specs = [scenario("kv-zipf-hot"), scenario("gups-8m")]
        builders = {"L2-256KB": conventional_spec()}
        unpooled = run_suite(builders, specs, TINY)
        pool = TracePool(str(tmp_path / "pool"))
        run_suite(builders, specs, TINY, pool=pool)  # populates the pool
        pooled = run_suite(builders, specs, TINY, pool=pool)  # replays it
        assert_identical(unpooled, pooled)

    def test_same_name_workload_and_scenario_entries_coexist(self, tmp_path):
        """The spec2006 port reuses legacy workload names; the two sources
        have incompatible signatures and must not fight over one file."""
        workload_src = trace_source_for(workload_by_name("mcf-like"), 500)
        scenario_src = trace_source_for(scenario("mcf-like"), 500)
        pool = TracePool(str(tmp_path / "pool"))
        assert pool.path_for(workload_src) != pool.path_for(scenario_src)
        pool.fetch(workload_src)
        pool.fetch(scenario_src)
        stats = ExecutionStats()
        pool.fetch(workload_src, stats)
        pool.fetch(scenario_src, stats)
        assert stats.pool_loads == 2 and stats.pool_saves == 0  # no churn

    def test_custom_factory_scenario_source_is_opaque(self):
        """A non-registry factory must not publish the catalog signature,
        or the memo/pool would serve custom content under the catalog
        identity."""
        source = trace_source_for(
            scenario("kv-zipf-hot"), 500, trace_factory=lambda spec, n: None
        )
        assert source.signature is None
        assert source.kind == "opaque"

    def test_workload_sources_pool_too(self, tmp_path):
        spec = two_workloads()[0]
        source = trace_source_for(spec, TINY)
        assert source.signature is not None
        pool = TracePool(str(tmp_path / "pool"))
        stats = ExecutionStats()
        first = pool.fetch(source, stats)
        second = pool.fetch(source, stats)
        assert stats.pool_loads == 1
        assert records_bytes(first) == records_bytes(second)


# -------------------------------------------------------------- result cache
class TestResultCache:
    def test_warm_cache_simulates_nothing_and_is_bit_identical(self, cache):
        specs = two_workloads()
        cold = execute(compile_sweep(FOUR_HIERARCHIES, specs, TINY), cache=cache)
        assert cold.stats.simulated == len(cold.results)
        warm = execute(compile_sweep(FOUR_HIERARCHIES, specs, TINY), cache=cache)
        assert warm.stats.simulated == 0
        assert warm.stats.cached == len(cold.results)
        assert_identical(cold.results, warm.results)
        uncached = run_suite(FOUR_HIERARCHIES, specs, TINY)
        assert_identical(uncached, warm.results)

    def test_cache_preserves_value_types(self, cache):
        """JSON round trip keeps ints ints and floats floats, so every
        downstream formatter and CSV writer emits identical bytes."""
        spec = two_workloads()[0]
        builders = {"L2-256KB": conventional_spec()}
        cold = execute(compile_sweep(builders, [spec], TINY), cache=cache).results[0]
        warm = execute(compile_sweep(builders, [spec], TINY), cache=cache).results[0]
        assert type(warm.cycles) is type(cold.cycles)
        assert type(warm.ipc) is type(cold.ipc)
        for key, value in cold.activity.items():
            assert type(warm.activity[key]) is type(value), key

    def test_label_reapplied_on_hit(self, cache):
        """The cache key excludes the display label: an identical
        architecture under a different name reuses the entry."""
        spec = two_workloads()[0]
        execute(compile_sweep({"first-label": lnuca_l3_spec(2)}, [spec], TINY), cache=cache)
        warm = execute(
            compile_sweep({"second-label": lnuca_l3_spec(2)}, [spec], TINY), cache=cache
        )
        assert warm.stats.cached == 1
        assert warm.results[0].system == "second-label"

    def test_different_builder_params_miss(self, cache):
        spec = two_workloads()[0]
        execute(compile_sweep({"LN2": lnuca_l3_spec(2)}, [spec], TINY), cache=cache)
        other = execute(compile_sweep({"LN2": lnuca_l3_spec(3)}, [spec], TINY), cache=cache)
        assert other.stats.cached == 0

    def test_dirty_simulator_version_bypasses_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_VERSION", "abc123-dirty")
        monkeypatch.setattr(plan, "_DIRTY_WARNED", False)
        cache = ResultCache(str(tmp_path / "cache"))
        spec = two_workloads()[0]
        builders = {"L2-256KB": conventional_spec()}
        with pytest.warns(RuntimeWarning, match="result cache bypassed"):
            first = execute(compile_sweep(builders, [spec], TINY), cache=cache)
        second = execute(compile_sweep(builders, [spec], TINY), cache=cache)
        # Both passes simulated; nothing was written to the cache directory.
        assert first.stats.simulated == 1 and second.stats.simulated == 1
        assert second.stats.cached == 0
        assert not os.path.exists(os.path.join(str(tmp_path / "cache"), "results"))
        assert_identical(first.results, second.results)

    def test_unknown_simulator_version_bypasses_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_VERSION", "unknown")
        monkeypatch.setattr(plan, "_DIRTY_WARNED", False)
        cache = ResultCache(str(tmp_path / "cache"))
        spec = two_workloads()[0]
        with pytest.warns(RuntimeWarning, match="result cache bypassed"):
            run = execute(
                compile_sweep({"L2-256KB": conventional_spec()}, [spec], TINY), cache=cache
            )
        assert run.stats.simulated == 1
        assert not os.path.exists(os.path.join(str(tmp_path / "cache"), "results"))

    def _entry_paths(self, cache):
        root = os.path.join(cache.directory, "results")
        return [
            os.path.join(directory, name)
            for directory, _, names in os.walk(root)
            for name in names
        ]

    def test_corrupt_entry_discarded_with_warning(self, cache):
        spec = two_workloads()[0]
        builders = {"L2-256KB": conventional_spec()}
        cold = execute(compile_sweep(builders, [spec], TINY), cache=cache)
        (entry,) = self._entry_paths(cache)
        with open(entry, "w", encoding="utf-8") as handle:
            handle.write('{"schema": 1, "result": {"system": "L2-256')  # truncated
        with pytest.warns(RuntimeWarning, match="discarding corrupt entry"):
            rerun = execute(compile_sweep(builders, [spec], TINY), cache=cache)
        # The corrupt entry was discarded, re-simulated, and re-written.
        assert rerun.stats.simulated == 1
        assert_identical(cold.results, rerun.results)
        with open(self._entry_paths(cache)[0], "r", encoding="utf-8") as handle:
            assert json.load(handle)["result"]["system"] == "L2-256KB"

    def test_wrong_typed_entry_discarded(self, cache):
        spec = two_workloads()[0]
        builders = {"L2-256KB": conventional_spec()}
        execute(compile_sweep(builders, [spec], TINY), cache=cache)
        (entry,) = self._entry_paths(cache)
        with open(entry, "w", encoding="utf-8") as handle:
            json.dump({"schema": 1, "result": {"system": "x", "activity": 3}}, handle)
        with pytest.warns(RuntimeWarning, match="discarding corrupt entry"):
            rerun = execute(compile_sweep(builders, [spec], TINY), cache=cache)
        assert rerun.stats.simulated == 1

    def test_size_cap_prunes_oldest_access_entries(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_VERSION", "test-version-1")
        cache = ResultCache(str(tmp_path / "cache"), limit_mb=0.5)
        now = 1_700_000_000
        for index in range(6):
            cache.put(f"{index:064x}", _dummy_result(f"wl{index}"))
            path = cache._path(f"{index:064x}")
            os.utime(path, (now + index, now + index))  # distinct access order
        # Inflate every entry far past the cap so pruning must evict.
        for path in self._entry_paths(cache):
            with open(path, "r+", encoding="utf-8") as handle:
                payload = json.load(handle)
                payload["padding"] = "x" * 200_000
                handle.seek(0)
                json.dump(payload, handle)
        for index, path in enumerate(sorted(self._entry_paths(cache))):
            os.utime(path, (now + index, now + index))
        deleted = cache.prune()
        assert deleted > 0
        survivors = sorted(self._entry_paths(cache))
        # Oldest-access entries went first: the survivors are the newest.
        expected = sorted(cache._path(f"{i:064x}") for i in range(6))[6 - len(survivors):]
        assert survivors == expected

    def test_warm_hit_bit_identical_after_pruning_unrelated_entries(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_SIM_VERSION", "test-version-1")
        cache = ResultCache(str(tmp_path / "cache"), limit_mb=2048.0)
        specs = two_workloads()
        builders = {"L2-256KB": conventional_spec()}
        cold = execute(compile_sweep(builders, specs, TINY), cache=cache)
        assert cold.stats.simulated == len(cold.results)
        # Flood the cache with unrelated entries, then squeeze the budget:
        # the flood is older than the real entries' last access, so pruning
        # removes only the flood.
        for index in range(40):
            cache.put(f"{index:064x}", _dummy_result(f"junk{index}"))
        before = len(self._entry_paths(cache))
        execute(compile_sweep(builders, specs, TINY), cache=cache)  # refresh LRU stamps
        # Budget fits the two refreshed real entries (result row plus digest
        # provenance meta) and nothing else.
        cache.limit_bytes = 4096
        assert cache.prune() > 0
        assert len(self._entry_paths(cache)) < before
        warm = execute(compile_sweep(builders, specs, TINY), cache=cache)
        assert warm.stats.simulated == 0
        assert warm.stats.cached == len(cold.results)
        assert_identical(cold.results, warm.results)

    def test_env_limit_and_put_amortised_prune(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_VERSION", "test-version-1")
        monkeypatch.setenv("REPRO_CACHE_LIMIT_MB", "0.001")  # ~1 KB budget
        cache = ResultCache(str(tmp_path / "cache"))
        assert cache.limit_bytes == 1048  # 0.001 MB
        for index in range(ResultCache.PRUNE_EVERY + 2):
            cache.put(f"{index:064x}", _dummy_result(f"wl{index}"))
        # Writes audit the size periodically, so the cache cannot grow
        # without bound even though no one called prune() explicitly.
        total = sum(os.path.getsize(path) for path in self._entry_paths(cache))
        assert total <= 1048 + 1024  # budget plus at most a few fresh puts


# ---------------------------------------------------------- concurrent writes
class TestThreadedSameKeyWrites:
    """Threads of one process share a pid, so same-key writers of the
    result cache and the trace pool must never share a temp file."""

    THREADS = 8
    ROUNDS = 20

    def _hammer(self, write):
        barrier = threading.Barrier(self.THREADS)
        errors = []

        def writer():
            try:
                barrier.wait()
                for _ in range(self.ROUNDS):
                    write()
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(self.THREADS)]
        interval = sys.getswitchinterval()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sys.setswitchinterval(1e-6)  # interleave the writers as finely as possible
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
            finally:
                sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert [str(w.message) for w in caught] == []

    @staticmethod
    def _tmp_leftovers(directory):
        return [name for name in os.listdir(directory) if ".tmp" in name]

    def test_result_cache_same_key(self, cache):
        result = _dummy_result("mcf-like")
        key = "ab" * 32
        self._hammer(lambda: cache.put(key, result))
        assert result_tuple(cache.get(key)) == result_tuple(result)
        assert self._tmp_leftovers(os.path.dirname(cache._path(key))) == []
        assert cache.verify()["corrupt"] == 0

    def test_trace_pool_same_trace(self, tmp_path):
        source = trace_source_for(two_workloads()[0], TINY)
        trace = source.build()
        pool = TracePool(str(tmp_path / "pool"))
        path = pool.path_for(source)
        self._hammer(lambda: pool._save(path, source, trace, None))
        assert self._tmp_leftovers(pool.directory) == []
        assert trace_digest(map_trace(path)) == trace_digest(trace)
        assert pool.fetch(source).instructions == trace.instructions


# ------------------------------------------------------------- atomic writes
class TestAtomicWrites:
    """Publishing through a unique temp file: never a torn entry, never a
    stray temp file the cache audit cannot find."""

    @staticmethod
    def _fail(tmp):
        with open(tmp, "w") as handle:
            handle.write("half an entry")
        raise OSError("disk full")

    @pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
    def test_failed_write_removes_its_temp_and_keeps_the_target(self, tmp_path, existing):
        target = tmp_path / "entry.json"
        if existing:
            target.write_text("old entry")
        with pytest.raises(OSError, match="disk full"):
            plan._atomic_write(str(target), self._fail)
        assert sorted(os.listdir(tmp_path)) == (["entry.json"] if existing else [])
        if existing:
            assert target.read_text() == "old entry"

    def test_temp_names_are_unique_and_carry_the_marker(self, tmp_path):
        seen = []

        def record(tmp):
            seen.append(os.path.basename(tmp))
            with open(tmp, "w") as handle:
                handle.write("entry")

        target = str(tmp_path / "entry.json")
        for _ in range(5):
            plan._atomic_write(target, record)
        assert len(set(seen)) == len(seen)
        assert all(name.startswith("entry.json.tmp") for name in seen)
        assert os.listdir(tmp_path) == ["entry.json"]
        assert oct(os.stat(target).st_mode & 0o777) == oct(0o644)

    def test_verify_sweeps_a_crashed_writers_temp(self, cache):
        import tempfile

        key = "cd" * 32
        cache.put(key, _dummy_result("mcf-like"))
        directory = os.path.dirname(cache._path(key))
        fd, leftover = tempfile.mkstemp(
            prefix=f"{os.path.basename(cache._path(key))}.tmp", dir=directory
        )
        os.close(fd)
        report = cache.verify()
        assert report["checked"] == 1
        assert report["stale_tmp"] == 1
        assert not os.path.exists(leftover)
        assert cache.get(key) is not None


# ----------------------------------------------------- write-fault recovery
class TestWriteFaultRecovery:
    """A damaged write to either on-disk tier is detected on the next read
    and replaced, never replayed."""

    @pytest.fixture(autouse=True)
    def _no_faults_after(self):
        from repro.sim import faults

        yield
        faults.reset()

    @pytest.mark.parametrize("op", ["corrupt", "truncate", "delete"])
    def test_result_cache_entry_is_resimulated(self, cache, op):
        from repro.sim import faults
        from repro.sim.faults import FaultPlan, FaultSpec

        compiled = compile_sweep({"L2-256KB": conventional_spec()}, two_workloads(), TINY)
        reference = execute(compiled).results
        faults.install(FaultPlan(specs=[FaultSpec(site="result-cache", op=op, nth=0)]))
        execute(compiled, cache=cache)
        faults.install(FaultPlan())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the corrupt-entry report
            second = execute(compiled, cache=cache)
        assert second.stats.simulated == 1
        assert second.stats.cached == len(compiled.jobs) - 1
        assert_identical(second.results, reference)
        assert execute(compiled, cache=cache).stats.cached == len(compiled.jobs)

    @pytest.mark.parametrize("op", ["corrupt", "truncate", "delete"])
    def test_trace_pool_capture_is_regenerated(self, tmp_path, op):
        from repro.sim import faults
        from repro.sim.faults import FaultPlan, FaultSpec

        source = trace_source_for(two_workloads()[0], TINY)
        reference = source.build()
        pool = TracePool(str(tmp_path / "pool"))
        faults.install(FaultPlan(specs=[FaultSpec(site="trace-pool", op=op, nth=0)]))
        pool.fetch(source)
        faults.install(FaultPlan())
        stats = ExecutionStats()
        replayed = pool.fetch(source, stats)
        assert stats.pool_loads == 0 and stats.pool_saves == 1
        assert replayed.instructions == reference.instructions
        healed = ExecutionStats()
        assert trace_digest(pool.fetch(source, healed)) == trace_digest(reference)
        assert healed.pool_loads == 1


# ------------------------------------------------------------------ the plan
class TestPlanCompilation:
    def test_jobs_are_hashable_and_ordered(self):
        compiled = compile_sweep(FOUR_HIERARCHIES, two_workloads(), TINY)
        assert len(set(compiled.jobs)) == len(compiled.jobs) == 8
        # Historical sweep order: systems outer, specs inner.
        assert [job.system for job in compiled.jobs[:2]] == ["L2-256KB", "L2-256KB"]
        assert isinstance(hash(compiled.jobs[0]), int)

    def test_pregenerated_traces_short_circuit(self):
        spec = two_workloads()[0]
        from repro.cpu.workloads import generate_trace

        trace = generate_trace(spec, TINY)
        compiled = compile_sweep(
            {"L2-256KB": conventional_spec()}, [spec], TINY, traces={spec.name: trace}
        )
        source = compiled.traces[spec.name]
        assert source.signature is None  # inline traces are not pooled
        assert source.build() is trace

    def test_scenario_signature_excludes_backend_override(self):
        spec = scenario("kv-zipf-hot")
        assert plan.scenario_signature(spec) == plan.scenario_signature(
            spec.with_params(vectorized=True)
        )


# --------------------------------------------------------------- warm report
class TestWarmReport:
    def test_second_report_pass_is_cached_and_byte_identical(self, tmp_path, cache):
        """The acceptance criterion: a warm-cache report performs zero
        simulation and reproduces every artifact byte for byte."""
        from repro.experiments import report as report_module

        out = str(tmp_path / "out")
        # In-process (workers=1): under an injected fault plan a pooled cold
        # pass is "degraded" and REPORT.md records it, so the warm pass
        # would differ by design.
        with plan.collect_stats() as cold_stats:
            report_module.write_report(
                out, num_instructions=600, per_category=1, cache=cache, workers=1
            )
        assert cold_stats.simulated > 0
        artifacts = sorted(
            name for name in os.listdir(out) if name.endswith((".md", ".csv"))
        )
        first_bytes = {
            name: open(os.path.join(out, name), "rb").read() for name in artifacts
        }
        with plan.collect_stats() as warm_stats:
            report_module.write_report(
                out, num_instructions=600, per_category=1, cache=cache, workers=1
            )
        assert warm_stats.simulated == 0
        assert warm_stats.cached == cold_stats.simulated + cold_stats.cached
        for name in artifacts:
            assert open(os.path.join(out, name), "rb").read() == first_bytes[name], name

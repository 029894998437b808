"""Differential tests for the shared-state parallel execution substrate.

Two layers, one contract — bit-identical to sequential by construction:

* the **persistent worker pool**: workers outlive ``execute()`` calls,
  are reused across sweeps (and across concurrent sweeps from threads —
  the old ``_FORK_LOCK`` is gone), and are recycled per supervision
  policy without changing a single result;
* the **mmap trace path**: a pooled ``.lntr`` capture replayed through
  ``mmap`` decodes to exactly the bytes, digest, and instructions of the
  eager loader (``REPRO_NO_MMAP=1`` fallback included).
"""

import threading

import pytest

from repro.scenarios.tracefile import MappedTrace, load_trace, map_trace, records_bytes
from repro.sim import faults, plan
from repro.sim.configs import (
    conventional_spec,
    dnuca_spec,
    lnuca_dnuca_spec,
    lnuca_l3_spec,
)
from repro.sim.faults import FaultPlan, FaultSpec
from repro.sim.plan import (
    ExecutionStats,
    SupervisionPolicy,
    TracePool,
    compile_sweep,
    configure_worker_pool,
    execute,
    shutdown_worker_pool,
    trace_digest,
    trace_source_for,
    worker_pool_stats,
)

from tests.test_plan import TINY, assert_identical, two_workloads

FAST = SupervisionPolicy(backoff_base=0.01)


@pytest.fixture(autouse=True)
def isolated_faults():
    faults.install(FaultPlan())
    yield
    faults.reset()


@pytest.fixture(autouse=True)
def pool_defaults():
    """Each test starts from an empty pool with default knobs."""
    shutdown_worker_pool()
    yield
    plan._POOL.size_override = None
    plan._POOL.max_jobs_override = None
    shutdown_worker_pool()


def small_plan():
    builders = {"L2-256KB": conventional_spec(), "LN2-72KB": lnuca_l3_spec(2)}
    return compile_sweep(builders, two_workloads(), TINY)


def other_plan():
    builders = {"DN-4x8": dnuca_spec(), "LN2+DN-4x8": lnuca_dnuca_spec(2)}
    return compile_sweep(builders, two_workloads(), TINY)


def reference_results(compiled):
    faults.install(FaultPlan())
    run = execute(compiled)
    assert not run.failures
    return run.results


class TestPersistentPool:
    def test_workers_reused_across_consecutive_executes(self):
        """The second sweep runs on the first sweep's workers — no forks."""
        compiled = small_plan()
        reference = reference_results(compiled)
        before = worker_pool_stats()
        first = execute(compiled, workers=2, supervision=FAST)
        mid = worker_pool_stats()
        assert mid["forked"] - before["forked"] == 2
        assert mid["idle"] == 2  # parked, not torn down
        second = execute(compiled, workers=2, supervision=FAST)
        after = worker_pool_stats()
        assert after["forked"] == mid["forked"]  # nothing respawned
        assert after["reused"] - mid["reused"] == 2
        assert first.stats.pool_reused == 0
        assert second.stats.pool_reused == 2
        assert_identical(first.results, reference)
        assert_identical(second.results, reference)

    def test_fork_lock_is_gone(self):
        assert not hasattr(plan, "_FORK_LOCK")

    def test_concurrent_executes_from_threads(self):
        """Two sweeps in flight at once, both bit-identical to sequential."""
        plans = [small_plan(), other_plan()]
        references = [reference_results(compiled) for compiled in plans]
        runs = [None, None]
        errors = []

        def sweep(index):
            try:
                runs[index] = execute(plans[index], workers=2, supervision=FAST)
            except Exception as exc:  # pragma: no cover - the assert reports it
                errors.append(exc)

        threads = [
            threading.Thread(target=sweep, args=(index,)) for index in (0, 1)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        assert not errors
        for run, reference in zip(runs, references):
            assert run is not None and not run.failures
            assert_identical(run.results, reference)

    def test_crashed_worker_is_replaced_by_a_fresh_fork(self):
        compiled = small_plan()
        reference = reference_results(compiled)
        faults.install(FaultPlan(specs=[
            FaultSpec(site="worker-job", op="crash", nth=0, attempt=0),
        ]))
        before = worker_pool_stats()
        run = execute(compiled, workers=2, supervision=FAST)
        after = worker_pool_stats()
        assert not run.failures
        assert run.stats.retries >= 1
        # Two initial forks plus at least one replacement for the crash.
        assert after["forked"] - before["forked"] >= 3
        assert_identical(run.results, reference)

    def test_worker_recycle_fault_discards_instead_of_pooling(self):
        compiled = small_plan()
        reference = reference_results(compiled)
        faults.install(FaultPlan(specs=[
            FaultSpec(site="worker-recycle", op="kill", nth=0),
        ]))
        before = worker_pool_stats()
        run = execute(compiled, workers=2, supervision=FAST)
        after = worker_pool_stats()
        assert not run.failures
        assert after["recycled"] - before["recycled"] == 1
        assert after["idle"] == 1  # the other worker still pooled
        assert_identical(run.results, reference)

    def test_max_jobs_recycles_workers(self):
        compiled = small_plan()
        reference = reference_results(compiled)
        configure_worker_pool(max_jobs=1)
        before = worker_pool_stats()
        run = execute(compiled, workers=2, supervision=FAST)
        after = worker_pool_stats()
        assert not run.failures
        assert after["recycled"] - before["recycled"] == 2
        assert after["idle"] == 0
        assert_identical(run.results, reference)

    def test_pool_size_zero_disables_retention(self):
        compiled = small_plan()
        configure_worker_pool(size=0)
        run = execute(compiled, workers=2, supervision=FAST)
        assert not run.failures
        assert worker_pool_stats()["idle"] == 0

    def test_no_pool_env_discards_on_release(self, monkeypatch):
        compiled = small_plan()
        monkeypatch.setenv("REPRO_NO_POOL", "1")
        first = execute(compiled, workers=2, supervision=FAST)
        assert worker_pool_stats()["idle"] == 0
        second = execute(compiled, workers=2, supervision=FAST)
        assert second.stats.pool_reused == 0
        assert_identical(first.results, second.results)

    def test_describe_appends_pool_counters(self):
        text = ExecutionStats().describe()
        # Existing CI greps key off these exact "token=value " shapes.
        assert "cached=0 " in text
        assert "simulated=0 " in text
        assert "retries=0 " in text
        assert "pool_reused=0 " in text
        assert text.endswith("job_s=0.000")
        assert "snapshot_clones=" not in text
        assert "resumed_from_journal=" not in text

    def test_add_sums_pool_counters(self):
        total = ExecutionStats()
        part = ExecutionStats(pool_reused=2, pool_loads=3, job_s=0.25)
        total.add(part)
        total.add(part)
        assert total.pool_reused == 4
        assert total.pool_loads == 6
        assert total.job_s == 0.5

    @pytest.mark.parametrize("counter", ["retries", "timeouts", "quarantined"])
    def test_degraded_counts_supervision_events(self, counter):
        assert not ExecutionStats().degraded()
        assert ExecutionStats(**{counter: 1}).degraded()

    def test_hits_and_pool_counters_are_not_degraded(self):
        stats = ExecutionStats(
            jobs=6, simulated=1, cached=2, store_hits=1, inflight_hits=2,
            pool_loads=1, pool_saves=1, pool_reused=3, workers_effective=2,
            job_s=1.5,
        )
        assert not stats.degraded()

    def test_healthz_reports_worker_pool(self):
        from repro.service.manager import SweepManager

        payload = SweepManager().healthz()
        assert set(payload["worker_pool"]) == {
            "idle", "forked", "reused", "recycled", "discarded",
        }
        assert payload["executor"]["pool_reused"] == 0


class TestMappedTraces:
    def test_map_trace_matches_load_trace(self, tmp_path):
        source = trace_source_for(two_workloads()[0], TINY)
        pool = TracePool(str(tmp_path / "pool"))
        pool.fetch(source)  # synthesizes and saves the .lntr capture
        path = pool.path_for(source)
        eager = load_trace(path)
        mapped = map_trace(path)
        assert isinstance(mapped, MappedTrace)
        assert len(mapped) == len(eager.instructions)
        assert records_bytes(mapped) == records_bytes(eager)
        assert trace_digest(mapped) == trace_digest(eager)
        assert mapped.instructions == eager.instructions  # lazy decode

    def test_no_mmap_env_falls_back_bit_identically(self, tmp_path, monkeypatch):
        source = trace_source_for(two_workloads()[0], TINY)
        pool = TracePool(str(tmp_path / "pool"))
        pool.fetch(source)
        path = pool.path_for(source)
        mapped = map_trace(path)
        monkeypatch.setenv("REPRO_NO_MMAP", "1")
        fallback = map_trace(path)
        assert not isinstance(fallback, MappedTrace)
        assert records_bytes(fallback) == records_bytes(mapped)
        assert fallback.instructions == mapped.instructions

    def test_pooled_sweep_identical_with_and_without_mmap(
        self, tmp_path, monkeypatch
    ):
        builders = {"L2-256KB": conventional_spec()}
        compiled = compile_sweep(builders, two_workloads(), TINY)
        pool = TracePool(str(tmp_path / "pool"))
        execute(compiled, pool=pool, trace_memo=False)  # populates the pool
        mapped = execute(compiled, pool=pool, trace_memo=False)
        assert mapped.stats.pool_loads == len(two_workloads())
        monkeypatch.setenv("REPRO_NO_MMAP", "1")
        eager = execute(compiled, pool=pool, trace_memo=False)
        assert eager.stats.pool_loads == len(two_workloads())
        assert_identical(mapped.results, eager.results)

"""Differential tests for the fault-tolerant supervised executor.

The contract extends the plan layer's: a sweep disturbed by worker
crashes, hangs, garbage replies, and corrupted files must still produce
results **bit-identical** to an undisturbed sequential run — and a sweep
interrupted outright (SIGKILL) must resume simulating only the jobs
that never committed, via their result-cache entries.

Every disturbance is injected deterministically through
:mod:`repro.sim.faults`, so these paths are exercised on every test run,
not only when production infrastructure actually fails.
"""

import multiprocessing
import os
import signal
import warnings
from types import SimpleNamespace

import pytest

from repro.common.errors import ExecutionError
from repro.sim import faults, plan
from repro.sim.configs import (
    conventional_spec,
    dnuca_spec,
    lnuca_dnuca_spec,
    lnuca_l3_spec,
)
from repro.sim.faults import FaultPlan, FaultSpec
from repro.sim.plan import (
    ResultCache,
    SupervisionPolicy,
    compile_sweep,
    execute,
)
from repro.sim.runner import run_suite

from tests.test_plan import (
    FOUR_HIERARCHIES,
    TINY,
    assert_identical,
    result_tuple,
    two_workloads,
)

#: Fast retries for tests: near-zero backoff, no minutes-long defaults.
FAST = SupervisionPolicy(backoff_base=0.01)


@pytest.fixture(autouse=True)
def isolated_faults():
    """Each test starts fault-free (even under a CI REPRO_FAULT_PLAN)."""
    faults.install(FaultPlan())
    yield
    faults.reset()


@pytest.fixture
def cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_SIM_VERSION", "test-version-1")
    return ResultCache(str(tmp_path / "cache"))


def small_plan():
    """Two builders x two workloads: enough for fan-out, fast enough."""
    builders = {"L2-256KB": conventional_spec(), "LN2-72KB": lnuca_l3_spec(2)}
    return compile_sweep(builders, two_workloads(), TINY)


def four_hierarchy_plan():
    return compile_sweep(FOUR_HIERARCHIES, two_workloads(), TINY)


def reference_results(compiled):
    faults.install(FaultPlan())
    run = execute(compiled)
    assert not run.failures
    return run.results


class TestRetryBitIdentity:
    """Disturbed supervised sweeps match the undisturbed sequential run."""

    def test_worker_crash_is_retried(self):
        compiled = small_plan()
        reference = reference_results(compiled)
        faults.install(FaultPlan(specs=[
            FaultSpec(site="worker-job", op="crash", nth=0, attempt=0),
        ]))
        run = execute(compiled, workers=2, supervision=FAST)
        assert not run.failures
        assert run.stats.retries >= 1
        assert run.stats.simulated == len(compiled.jobs)  # retries don't inflate
        assert_identical(run.results, reference)

    def test_hung_worker_is_timed_out_and_retried(self):
        compiled = small_plan()
        reference = reference_results(compiled)
        faults.install(FaultPlan(specs=[
            FaultSpec(site="worker-job", op="hang", nth=0, attempt=0, seconds=60.0),
        ]))
        policy = SupervisionPolicy(job_timeout=2.0, backoff_base=0.01)
        run = execute(compiled, workers=2, supervision=policy)
        assert not run.failures
        assert run.stats.timeouts >= 1
        assert run.stats.retries >= 1
        assert_identical(run.results, reference)

    def test_garbage_reply_replaces_worker_and_retries(self):
        compiled = small_plan()
        reference = reference_results(compiled)
        faults.install(FaultPlan(specs=[
            FaultSpec(site="worker-job", op="garbage", nth=1, attempt=0),
        ]))
        run = execute(compiled, workers=2, supervision=FAST)
        assert not run.failures
        assert run.stats.retries >= 1
        assert_identical(run.results, reference)

    def test_transient_error_is_retried(self):
        compiled = small_plan()
        reference = reference_results(compiled)
        faults.install(FaultPlan(specs=[
            FaultSpec(site="worker-job", op="error", nth=2, attempt=0),
        ]))
        run = execute(compiled, workers=2, supervision=FAST)
        assert not run.failures
        assert run.stats.retries >= 1
        assert_identical(run.results, reference)

    def test_multiple_disturbances_in_one_sweep(self):
        """Crash + hang + garbage in a single sweep, still bit-identical."""
        compiled = four_hierarchy_plan()
        reference = reference_results(compiled)
        faults.install(FaultPlan(specs=[
            FaultSpec(site="worker-job", op="crash", nth=0, attempt=0),
            FaultSpec(site="worker-job", op="hang", nth=3, attempt=0, seconds=60.0),
            FaultSpec(site="worker-job", op="garbage", nth=5, attempt=0),
        ]))
        policy = SupervisionPolicy(job_timeout=3.0, backoff_base=0.01)
        run = execute(compiled, workers=2, supervision=policy)
        assert not run.failures
        assert run.stats.retries >= 3
        assert run.stats.simulated == len(compiled.jobs)
        assert_identical(run.results, reference)


class TestQuarantine:
    def test_persistent_crash_is_quarantined(self):
        compiled = small_plan()
        reference = reference_results(compiled)
        faults.install(FaultPlan(specs=[
            FaultSpec(site="worker-job", op="crash", nth=0),  # every attempt
        ]))
        with pytest.warns(RuntimeWarning, match="quarantined"):
            run = execute(compiled, workers=2, supervision=FAST)
        assert len(run.failures) == 1
        failure = run.failures[0]
        assert failure.reason == "crash"
        assert failure.attempts == FAST.max_retries + 1
        assert run.stats.quarantined == 1
        assert run.results[failure.index] is None
        # Every other job still completed, bit-identically.
        for index, result in enumerate(run.results):
            if index != failure.index:
                assert result_tuple(result) == result_tuple(reference[index])

    def test_strict_mode_raises(self):
        compiled = small_plan()
        faults.install(FaultPlan(specs=[
            FaultSpec(site="worker-job", op="crash", nth=0),
        ]))
        policy = SupervisionPolicy(backoff_base=0.01, strict=True)
        with pytest.warns(RuntimeWarning, match="quarantined"):
            with pytest.raises(ExecutionError, match="failed permanently"):
                execute(compiled, workers=2, supervision=policy)

    def test_deterministic_error_skips_retries(self):
        """A SimulationError reproduces on retry, so none are attempted."""
        compiled = small_plan()
        faults.install(FaultPlan(specs=[
            FaultSpec(site="worker-job", op="fatal-error", nth=0),
        ]))
        with pytest.warns(RuntimeWarning, match="quarantined"):
            run = execute(compiled, workers=2, supervision=FAST)
        assert len(run.failures) == 1
        assert run.failures[0].attempts == 1
        assert run.stats.retries == 0
        assert run.stats.quarantined == 1

    def test_run_suite_excludes_quarantined_results(self):
        faults.install(FaultPlan(specs=[
            FaultSpec(site="worker-job", op="crash", nth=0),
        ]))
        builders = {"L2-256KB": conventional_spec(), "LN2-72KB": lnuca_l3_spec(2)}
        with pytest.warns(RuntimeWarning, match="quarantined and excluded"):
            results = run_suite(
                builders, two_workloads(), TINY, workers=2, supervision=FAST
            )
        assert len(results) == 3  # 4 jobs, 1 quarantined
        assert all(result is not None for result in results)

    def test_quarantined_job_completes_on_clean_rerun(self, cache):
        """Only the failed job re-simulates once the fault clears."""
        compiled = small_plan()
        reference = reference_results(compiled)
        faults.install(FaultPlan(specs=[
            FaultSpec(site="worker-job", op="crash", nth=0),
        ]))
        policy = SupervisionPolicy(backoff_base=0.01, max_retries=0)
        with pytest.warns(RuntimeWarning, match="quarantined"):
            first = execute(compiled, workers=2, cache=cache, supervision=policy)
        assert len(first.failures) == 1
        faults.install(FaultPlan())
        second = execute(compiled, workers=2, cache=cache, supervision=policy)
        assert not second.failures
        assert second.stats.simulated == 1  # only the quarantined job
        assert second.stats.cached == len(compiled.jobs) - 1
        assert_identical(second.results, reference)


class TestWaitTimeout:
    """The supervisor sleeps on its workers' pipes instead of busy-polling."""

    def busy_executor(self, deadlines):
        executor = plan._SupervisedExecutor(
            [], plan.ExecutionStats(), FAST, commit=None, processes=len(deadlines),
            payload_for=None, run_local=None, transportable=lambda entry: True,
        )
        job = small_plan().jobs[0]
        for seq, deadline in enumerate(deadlines):
            worker = plan._Worker(SimpleNamespace(conn=object(), process=None))
            worker.entry = plan._Pending(seq, job, None, seq)
            worker.deadline = deadline
            executor.workers[worker.conn] = worker
        executor.queue.append(plan._Pending(len(deadlines), job, None, len(deadlines)))
        return executor

    def test_ready_entry_behind_busy_workers_waits_for_the_deadline(self):
        now = 100.0
        executor = self.busy_executor([now + 5.0, now + 3.0])
        assert executor._wait_timeout(now) == 1.0  # capped, not 0
        executor = self.busy_executor([now + 5.0, now + 0.4])
        assert executor._wait_timeout(now) == pytest.approx(0.4)

    def test_backing_off_entry_still_bounds_the_wait(self):
        now = 100.0
        executor = self.busy_executor([now + 5.0, now + 3.0])
        retry = plan._Pending(9, small_plan().jobs[1], None, 9)
        retry.ready_at = now + 0.2
        executor.queue.append(retry)
        assert executor._wait_timeout(now) == pytest.approx(0.2)


class TestDegradation:
    def test_missing_fork_warns_and_runs_in_process(self, monkeypatch):
        compiled = small_plan()
        reference = reference_results(compiled)
        monkeypatch.delattr(os, "fork")
        monkeypatch.setattr(plan, "_FALLBACK_WARNED", False)
        with pytest.warns(RuntimeWarning, match="lacks os.fork"):
            run = execute(compiled, workers=2)
        assert run.stats.workers_effective == 1
        assert_identical(run.results, reference)

    def test_fork_warning_fires_once_per_process(self, monkeypatch):
        compiled = small_plan()
        monkeypatch.delattr(os, "fork")
        monkeypatch.setattr(plan, "_FALLBACK_WARNED", False)
        with pytest.warns(RuntimeWarning, match="lacks os.fork"):
            execute(compiled, workers=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            execute(compiled, workers=2)  # silent the second time

    def test_spawn_failure_degrades_to_in_process(self):
        compiled = small_plan()
        reference = reference_results(compiled)
        faults.install(FaultPlan(specs=[
            FaultSpec(site="spawn", op="error"),  # every spawn fails
        ]))
        with pytest.warns(RuntimeWarning, match="degrading to in-process"):
            run = execute(compiled, workers=2, supervision=FAST)
        assert not run.failures
        assert run.stats.workers_effective == 1
        assert_identical(run.results, reference)


class TestCorruptionRecovery:
    def test_corrupt_cache_entry_self_heals(self, cache):
        compiled = small_plan()
        reference = reference_results(compiled)
        faults.install(FaultPlan(specs=[
            FaultSpec(site="result-cache", op="corrupt", nth=0),
        ]))
        execute(compiled, cache=cache)
        faults.install(FaultPlan())
        with pytest.warns(RuntimeWarning):
            second = execute(compiled, cache=cache)
        assert second.stats.simulated >= 1  # the corrupt entry re-simulated
        assert second.stats.cached == len(compiled.jobs) - second.stats.simulated
        assert_identical(second.results, reference)
        third = execute(compiled, cache=cache)
        assert third.stats.cached == len(compiled.jobs)  # healed

    def test_cache_verify_deletes_corrupt_entries(self, cache):
        compiled = small_plan()
        execute(compiled, cache=cache)
        root = os.path.join(cache.directory, "results")
        entries = sorted(
            os.path.join(dirpath, name)
            for dirpath, _, names in os.walk(root)
            for name in names
            if name.endswith(".json")
        )
        assert len(entries) == len(compiled.jobs)
        with open(entries[0], "w") as handle:
            handle.write("{truncated")
        with open(entries[1] + ".tmp", "w") as handle:
            handle.write("leftover")
        with pytest.warns(RuntimeWarning, match="corrupt"):
            report = cache.verify()
        assert report["checked"] == len(entries)
        assert report["corrupt"] == 1
        assert report["stale_tmp"] == 1
        assert not os.path.exists(entries[0])
        assert os.path.exists(entries[1])

    def test_cache_verify_keep_mode(self, cache):
        compiled = small_plan()
        execute(compiled, cache=cache)
        root = os.path.join(cache.directory, "results")
        entry = next(
            os.path.join(dirpath, name)
            for dirpath, _, names in os.walk(root)
            for name in names
            if name.endswith(".json")
        )
        with open(entry, "w") as handle:
            handle.write("not json")
        with pytest.warns(RuntimeWarning, match="corrupt"):
            report = cache.verify(delete=False)
        assert report["corrupt"] == 1
        assert os.path.exists(entry)  # kept

    def test_cache_verify_cli(self, cache, monkeypatch, capsys):
        from repro import cli

        monkeypatch.setenv("REPRO_CACHE_DIR", cache.directory)
        assert cli.main(["cache", "verify"]) == 0
        out = capsys.readouterr().out
        assert "entries checked" in out


def _result_entries(cache):
    return [
        name
        for _, _, names in os.walk(os.path.join(cache.directory, "results"))
        for name in names
    ]


class TestSingleCheckpoint:
    """A sweep's only on-disk checkpoint is its fsync'd cache entries;
    beside them the cache directory holds only the trace pool."""

    def test_cached_sweep_writes_only_cache_entries(self, cache):
        compiled = small_plan()
        execute(compiled, cache=cache)
        assert sorted(os.listdir(cache.directory)) == ["results", "traces"]
        entries = _result_entries(cache)
        assert len(entries) == len(compiled.jobs)
        assert all(name.endswith(".json") for name in entries)

    def test_pooled_cached_sweep_writes_only_cache_entries(self, cache):
        compiled = small_plan()
        run = execute(compiled, cache=cache, workers=2, supervision=FAST)
        assert not run.failures
        assert sorted(os.listdir(cache.directory)) == ["results", "traces"]
        entries = _result_entries(cache)
        assert len(entries) == len(compiled.jobs)
        assert all(name.endswith(".json") for name in entries)

    def test_leftover_journal_directory_is_ignored(self, cache):
        """A ``journals/`` directory an older version left behind is
        neither read nor touched."""
        compiled = small_plan()
        reference = reference_results(compiled)
        journals = os.path.join(cache.directory, "journals")
        os.makedirs(journals)
        leftover = os.path.join(journals, "old-sweep.jsonl")
        with open(leftover, "w") as handle:
            handle.write('{"truncated-by-sigki')
        first = execute(compiled, cache=cache)
        assert first.stats.simulated == len(compiled.jobs)
        assert_identical(first.results, reference)
        rerun = execute(compiled, cache=cache)
        assert rerun.stats.cached == len(compiled.jobs)
        assert_identical(rerun.results, reference)
        report = cache.verify()
        assert report == {
            "checked": len(compiled.jobs), "corrupt": 0, "stale_tmp": 0, "deleted": 0,
        }
        with open(leftover) as handle:
            assert handle.read() == '{"truncated-by-sigki'

    def test_cache_verify_cli_reports_cache_counts_only(self, cache, monkeypatch, capsys):
        from repro import cli

        compiled = small_plan()
        execute(compiled, cache=cache)
        monkeypatch.setenv("REPRO_CACHE_DIR", cache.directory)
        assert cli.main(["cache", "verify"]) == 0
        out = capsys.readouterr().out
        assert f"{len(compiled.jobs)} entries checked" in out
        assert "0 corrupt (deleted)" in out
        assert "0 stale tmp files" in out
        assert "journal" not in out


def _interrupted_child(compiled, cache_dir):
    """Run the sweep sequentially; the installed fault SIGKILLs it."""
    faults.install(FaultPlan(specs=[
        FaultSpec(site="commit", op="exit", nth=2),
    ]))
    execute(compiled, cache=ResultCache(cache_dir))
    os._exit(1)  # pragma: no cover - the fault must have killed us


class TestInterruptResume:
    """SIGKILL a sweep mid-flight; its cache entries make it resumable."""

    def _interrupt(self, compiled, cache):
        ctx = multiprocessing.get_context("fork")
        child = ctx.Process(
            target=_interrupted_child, args=(compiled, cache.directory)
        )
        child.start()
        child.join(timeout=120)
        assert child.exitcode == -signal.SIGKILL
        entries = [
            name
            for _, _, names in os.walk(os.path.join(cache.directory, "results"))
            for name in names
        ]
        assert len(entries) == 3  # the fault fired after the third commit
        assert all(name.endswith(".json") for name in entries)
        # The cache entry is the only checkpoint.
        assert not os.path.exists(os.path.join(cache.directory, "journals"))

    def test_resume_simulates_only_incomplete_jobs(self, cache):
        compiled = four_hierarchy_plan()
        reference = reference_results(compiled)
        self._interrupt(compiled, cache)
        resumed = execute(compiled, cache=cache)
        # The three committed jobs hit the cache; the rest simulate.
        assert resumed.stats.cached == 3
        assert resumed.stats.simulated == len(compiled.jobs) - 3
        assert not resumed.failures
        assert_identical(resumed.results, reference)


class TestStreamingAndStats:
    def test_on_result_streams_completions(self, cache):
        compiled = small_plan()
        seen = []
        execute(compiled, cache=cache, on_result=lambda job, result: seen.append(job))
        assert len(seen) == len(compiled.jobs)  # all fresh simulations
        seen.clear()
        execute(compiled, cache=cache, on_result=lambda job, result: seen.append(job))
        assert len(seen) == len(compiled.jobs)  # all cache hits stream too

    def test_on_result_streams_under_workers(self):
        compiled = small_plan()
        seen = []
        run = execute(
            compiled, workers=2, on_result=lambda job, result: seen.append(job)
        )
        assert len(seen) == len(compiled.jobs)
        assert not run.failures

    def test_workers_effective_recorded(self):
        compiled = small_plan()
        run = execute(compiled, workers=2)
        assert run.stats.workers_effective == 2
        sequential = execute(compiled)
        assert sequential.stats.workers_effective == 1

    def test_describe_includes_supervision_counters(self):
        compiled = small_plan()
        run = execute(compiled)
        text = run.stats.describe()
        for token in ("workers_effective=", "retries=", "timeouts=", "quarantined="):
            assert token in text
        assert not run.stats.degraded()

    def test_timeout_derived_from_instruction_budget(self):
        policy = SupervisionPolicy()
        assert policy.timeout_for(0) == 30.0
        assert policy.timeout_for(1_000_000) == pytest.approx(10030.0)
        assert SupervisionPolicy(job_timeout=5.0).timeout_for(10**9) == 5.0

    def test_fault_plan_policy_overrides(self):
        faults.install(FaultPlan(policy={"job_timeout": 1.5, "max_retries": 7}))
        effective = plan._effective_policy(SupervisionPolicy())
        assert effective.job_timeout == 1.5
        assert effective.max_retries == 7
        assert effective.backoff_base == SupervisionPolicy().backoff_base

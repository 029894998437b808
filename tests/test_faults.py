"""Unit tests for the deterministic fault-injection harness.

:mod:`repro.sim.faults` is test machinery, but it is *trusted* test
machinery — the supervised-executor suite (``test_supervised.py``) only
proves what the harness actually injects.  So the harness itself gets
direct coverage: plan sources and precedence, spec matching, the file
ops, and the guarantee that a malformed environment plan never breaks a
real run.
"""

import json
import os
import warnings

import pytest

from repro.sim import faults
from repro.sim.faults import FaultPlan, FaultSpec


@pytest.fixture(autouse=True)
def clean_harness(monkeypatch):
    monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)
    faults.reset()
    yield
    faults.reset()


class TestPlanSources:
    def test_no_plan_by_default(self):
        assert faults.active() is None

    def test_env_json_string(self, monkeypatch):
        monkeypatch.setenv(
            "REPRO_FAULT_PLAN",
            json.dumps({"faults": [{"site": "spawn", "op": "error"}]}),
        )
        plan = faults.active()
        assert plan is not None
        assert plan.specs[0].site == "spawn"

    def test_env_file_path(self, monkeypatch, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"policy": {"job_timeout": 2.5}, "faults": []}))
        monkeypatch.setenv("REPRO_FAULT_PLAN", str(path))
        assert faults.policy_overrides() == {"job_timeout": 2.5}

    def test_malformed_env_warns_and_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_PLAN", "{not json")
        with pytest.warns(RuntimeWarning, match="REPRO_FAULT_PLAN ignored"):
            assert faults.active() is None

    def test_install_takes_precedence_over_env(self, monkeypatch):
        monkeypatch.setenv(
            "REPRO_FAULT_PLAN",
            json.dumps({"faults": [{"site": "spawn", "op": "error"}]}),
        )
        faults.install(FaultPlan())  # empty plan disables the env plan
        assert faults.active() is not None
        assert faults.active().specs == []
        faults.reset()
        assert len(faults.active().specs) == 1

    def test_install_none_means_no_plan(self, monkeypatch):
        monkeypatch.setenv(
            "REPRO_FAULT_PLAN",
            json.dumps({"faults": [{"site": "spawn", "op": "error"}]}),
        )
        faults.install(None)
        assert faults.active() is None


class TestMatching:
    def test_match_fields(self):
        spec = FaultSpec(site="worker-job", op="error", job="A/t", nth=1, attempt=0)
        assert spec.matches(job="A/t", nth=1, attempt=0)
        assert not spec.matches(job="B/t", nth=1, attempt=0)
        assert not spec.matches(job="A/t", nth=0, attempt=0)
        assert not spec.matches(job="A/t", nth=1, attempt=2)

    def test_times_caps_firings(self):
        faults.install(FaultPlan(specs=[
            FaultSpec(site="worker-job", op="error", times=1)
        ]))
        with pytest.raises(RuntimeError, match="injected fault"):
            faults.worker_job("A/t", 0, 0)
        assert faults.worker_job("A/t", 0, 1) is None  # spent

    def test_path_substring(self):
        spec = FaultSpec(site="result-cache", op="delete", path="results")
        assert spec.matches(path="/tmp/cache/results/ab/abc.json")
        assert not spec.matches(path="/tmp/cache/traces/abc.lntr")

    def test_garbage_op_returns_marker(self):
        faults.install(FaultPlan(specs=[FaultSpec(site="worker-job", op="garbage")]))
        assert faults.worker_job("A/t", 0, 0) == "garbage"

    def test_fatal_error_is_simulation_error(self):
        from repro.common.errors import SimulationError

        faults.install(FaultPlan(specs=[
            FaultSpec(site="worker-job", op="fatal-error")
        ]))
        with pytest.raises(SimulationError):
            faults.worker_job("A/t", 0, 0)


class TestFileOps:
    def _write(self, tmp_path, content=b"x" * 100):
        path = tmp_path / "entry.json"
        path.write_bytes(content)
        return str(path)

    def test_corrupt_overwrites_head(self, tmp_path):
        path = self._write(tmp_path)
        faults.install(FaultPlan(specs=[FaultSpec(site="result-cache", op="corrupt")]))
        faults.on_write("result-cache", path)
        data = open(path, "rb").read()
        assert data != b"x" * 100
        assert len(data) == 100  # overwritten in place, not truncated

    def test_truncate_halves(self, tmp_path):
        path = self._write(tmp_path)
        faults.install(FaultPlan(specs=[FaultSpec(site="result-cache", op="truncate")]))
        faults.on_write("result-cache", path)
        assert os.path.getsize(path) == 50

    def test_delete_removes(self, tmp_path):
        path = self._write(tmp_path)
        faults.install(FaultPlan(specs=[FaultSpec(site="store", op="delete")]))
        faults.on_write("store", path)
        assert not os.path.exists(path)

    def test_nth_write_counter(self, tmp_path):
        first = self._write(tmp_path)
        faults.install(FaultPlan(specs=[
            FaultSpec(site="result-cache", op="delete", nth=1)
        ]))
        faults.on_write("result-cache", first)
        assert os.path.exists(first)  # nth=0 does not match
        faults.on_write("result-cache", first)
        assert not os.path.exists(first)  # nth=1 does

    def test_no_plan_is_free(self, tmp_path):
        path = self._write(tmp_path)
        faults.on_write("result-cache", path)
        assert open(path, "rb").read() == b"x" * 100


class TestSpawn:
    def test_spawn_error(self):
        faults.install(FaultPlan(specs=[FaultSpec(site="spawn", op="error")]))
        with pytest.raises(OSError, match="injected fault"):
            faults.on_spawn()

    def test_spawn_noop_without_plan(self):
        faults.on_spawn()

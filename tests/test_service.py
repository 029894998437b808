"""Tests for the sweep service: request canonicalization, in-flight dedup
(job-level and request-level), and the stdlib HTTP front end.

The service's headline guarantee mirrors the cache's: a repeated identical
``POST /sweeps`` executes **zero** simulation and returns byte-identical
JSON, and *concurrent* identical requests share one execution instead of
racing.  The HTTP tests run a real ``ThreadingHTTPServer`` on an
ephemeral port — the same wire path CI's service-smoke job exercises.
"""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.cpu.workloads import workload_by_name
from repro.service import SweepManager, SweepRequestError, create_server
from repro.service.manager import canonicalize_request, request_digest
from repro.sim.configs import conventional_spec
from repro.sim.plan import InflightRegistry, ResultCache, compile_sweep, execute
from repro.sim.store import ResultStore

TINY = 1200


@pytest.fixture
def pinned_version(monkeypatch):
    monkeypatch.setenv("REPRO_SIM_VERSION", "test-version-1")


# ------------------------------------------------------------- canonical form
class TestCanonicalizeRequest:
    def test_minimal_request_fills_defaults(self):
        canonical = canonicalize_request(
            {"systems": ["L2-256KB"], "scenarios": ["mcf-like"]}
        )
        assert canonical["systems"] == ["L2-256KB"]
        assert canonical["scenarios"] == ["mcf-like"]
        assert canonical["instructions"] > 0

    def test_tag_expands_to_catalog_scenarios(self):
        canonical = canonicalize_request(
            {"systems": ["L2-256KB"], "tag": "graph"}
        )
        assert canonical["scenarios"]  # the catalog carries graph scenarios

    @pytest.mark.parametrize(
        "body",
        [
            "not a dict",
            {},
            {"systems": ["no-such-system"], "scenarios": ["mcf-like"]},
            {"systems": ["L2-256KB"], "scenarios": ["no-such-workload"]},
            {"systems": ["L2-256KB"], "scenarios": ["mcf-like"], "bogus": 1},
            {"systems": ["L2-256KB", "L2-256KB"], "scenarios": ["mcf-like"]},
            {"systems": ["L2-256KB"], "scenarios": ["mcf-like"], "instructions": 0},
            {"systems": ["L2-256KB"], "scenarios": ["mcf-like"], "instructions": "1k"},
            {"systems": ["L2-256KB"], "tag": "no-such-tag"},
        ],
    )
    def test_invalid_requests_are_refused(self, body):
        with pytest.raises(SweepRequestError):
            canonicalize_request(body)

    def test_digest_is_order_insensitive_but_content_sensitive(
        self, pinned_version
    ):
        a = canonicalize_request(
            {"scenarios": ["mcf-like"], "systems": ["L2-256KB"], "instructions": 500}
        )
        b = canonicalize_request(
            {"instructions": 500, "systems": ["L2-256KB"], "scenarios": ["mcf-like"]}
        )
        assert request_digest(a) == request_digest(b)
        c = canonicalize_request(
            {"systems": ["L2-256KB"], "scenarios": ["mcf-like"], "instructions": 501}
        )
        assert request_digest(a) != request_digest(c)

    def test_digest_tracks_simulator_version(self, monkeypatch):
        canonical = canonicalize_request(
            {"systems": ["L2-256KB"], "scenarios": ["mcf-like"]}
        )
        monkeypatch.setenv("REPRO_SIM_VERSION", "v1")
        first = request_digest(canonical)
        monkeypatch.setenv("REPRO_SIM_VERSION", "v2")
        assert request_digest(canonical) != first


# -------------------------------------------------------- job-level in-flight
class TestInflightRegistry:
    def test_first_claim_owns_second_waits(self):
        registry = InflightRegistry()
        assert registry.claim("k") is None  # caller owns
        entry = registry.claim("k")
        assert entry is not None and not entry.event.is_set()
        registry.resolve("k", "the-result")
        assert entry.event.is_set()
        assert entry.result == "the-result"
        # Resolution pops the key: the next claimant owns it again.
        assert registry.claim("k") is None

    def test_abandon_wakes_waiters_empty_handed(self):
        registry = InflightRegistry()
        assert registry.claim("k") is None
        entry = registry.claim("k")
        registry.abandon("k")
        assert entry.event.is_set() and entry.result is None

    def test_waiter_thread_receives_the_result(self):
        registry = InflightRegistry()
        assert registry.claim("k") is None
        received = []

        def waiter():
            entry = registry.claim("k")
            entry.event.wait(timeout=30)
            received.append(entry.result)

        thread = threading.Thread(target=waiter)
        thread.start()
        registry.resolve("k", 42)
        thread.join(timeout=30)
        assert received == [42]

    def test_distinct_keys_are_independent(self):
        registry = InflightRegistry()
        assert registry.claim("a") is None
        assert registry.claim("b") is None  # no false sharing across keys


class TestConcurrentExecuteDedup:
    def test_overlapping_identical_executes_simulate_each_job_once(
        self, tmp_path, pinned_version
    ):
        cache = ResultCache(str(tmp_path / "cache"))
        store = ResultStore(str(tmp_path / "results.sqlite"))
        builders = {"L2-256KB": conventional_spec()}
        workloads = [workload_by_name("mcf-like"), workload_by_name("milc-like")]
        barrier = threading.Barrier(2)
        runs, errors = [None, None], []

        def run(slot: int) -> None:
            try:
                plan = compile_sweep(builders, workloads, TINY)
                barrier.wait(timeout=30)
                runs[slot] = execute(plan, cache=cache, store=store)
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(slot,)) for slot in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors
        a, b = runs[0].stats, runs[1].stats
        # Each of the 2 jobs simulates exactly once across both calls; the
        # other side answers it from the in-flight registry (overlap), the
        # cache, or the store (one call finished first) — never twice.
        assert a.simulated + b.simulated == 2
        assert (a.cached + a.store_hits + a.inflight_hits
                + b.cached + b.store_hits + b.inflight_hits) == 2
        for lhs, rhs in zip(runs[0].results, runs[1].results):
            assert lhs.ipc == rhs.ipc
            assert lhs.cycles == rhs.cycles
            assert lhs.core_stats == rhs.core_stats
            assert lhs.system == rhs.system == "L2-256KB"


# ----------------------------------------------------------- manager dedup
class TestSweepManager:
    def test_submit_runs_to_completion(self, tmp_path, pinned_version):
        manager = SweepManager(cache=ResultCache(str(tmp_path / "cache")))
        sweep, deduplicated = manager.submit(
            {"systems": ["L2-256KB"], "scenarios": ["mcf-like"], "instructions": 600}
        )
        assert not deduplicated
        assert sweep.finished.wait(timeout=120)
        payload = sweep.to_dict()
        assert payload["state"] == "complete"
        assert payload["done"] == payload["total"] == 1
        assert payload["counts"]["simulated"] == 1
        assert payload["results"][0]["system"] == "L2-256KB"
        assert manager.get(sweep.sweep_id) is sweep
        assert manager.get("sw999-nope") is None

    def test_identical_inflight_request_attaches_to_the_live_sweep(
        self, tmp_path, pinned_version
    ):
        manager = SweepManager(cache=ResultCache(str(tmp_path / "cache")))
        body = {
            "systems": ["L2-256KB"],
            "scenarios": ["mcf-like", "milc-like"],
            "instructions": 20000,  # wide submit window: the run takes a while
        }
        first, dedup_first = manager.submit(body)
        second, dedup_second = manager.submit(body)
        assert not dedup_first
        assert dedup_second
        assert second is first  # one sweep, two submitters
        assert first.finished.wait(timeout=120)
        assert first.to_dict()["counts"]["simulated"] == 2

        # Once it finished, the request leaves the in-flight map: a new
        # identical submit is a fresh sweep (all cache hits this time).
        third, dedup_third = manager.submit(body)
        assert not dedup_third and third is not first
        assert third.finished.wait(timeout=120)
        counts = third.to_dict()["counts"]
        assert counts["simulated"] == 0
        assert counts["cached"] == 2

    def test_healthz_aggregates_lifetime_stats(self, tmp_path, pinned_version):
        store = ResultStore(str(tmp_path / "results.sqlite"))
        manager = SweepManager(
            cache=ResultCache(str(tmp_path / "cache")), store=store
        )
        sweep, _ = manager.submit(
            {"systems": ["L2-256KB"], "scenarios": ["mcf-like"], "instructions": 600}
        )
        assert sweep.finished.wait(timeout=120)
        payload = manager.healthz()
        assert payload["status"] == "ok"
        assert payload["sweeps"] == {"complete": 1}
        assert payload["executor"]["jobs"] == 1
        assert payload["executor"]["simulated"] == 1
        assert payload["store"]["rows"] == 1
        assert payload["simulator_version"] == "test-version-1"


# -------------------------------------------------------- trace sources
class TestServiceTraceSources:
    """Service sweeps use the catalog trace sources, so they share cache
    entries with the CLI experiments instead of keying every trace by
    content in the parent."""

    def test_every_compiled_source_carries_a_signature(self):
        from repro.cpu.workloads import full_suite
        from repro.scenarios import scenarios
        from repro.service.manager import compile_request

        names = list(dict.fromkeys(
            [spec.name for spec in scenarios()] + [spec.name for spec in full_suite()]
        ))
        plan = compile_request(canonicalize_request(
            {"systems": ["L2-256KB"], "scenarios": names, "instructions": 500}
        ))
        assert len(plan.traces) == len(names)
        assert all(source.signature is not None for source in plan.traces.values())

    def test_service_sweep_then_cli_run_suite_simulates_nothing(
        self, tmp_path, pinned_version
    ):
        from repro.service.manager import _resolve_spec, compile_request, system_registry
        from repro.sim.plan import collect_stats
        from repro.sim.runner import run_suite

        cache = ResultCache(str(tmp_path / "cache"))
        canonical = canonicalize_request({
            "systems": ["L2-256KB", "LN2-72KB"],
            "scenarios": ["mcf-like", "kv-zipf-hot"],
            "instructions": 600,
        })
        served = execute(compile_request(canonical), cache=cache)
        assert served.stats.simulated == 4
        registry = system_registry()
        builders = {name: registry[name] for name in canonical["systems"]}
        specs = [_resolve_spec(name) for name in canonical["scenarios"]]
        with collect_stats() as stats:
            results = run_suite(builders, specs, 600, cache=cache, workers=1)
        assert stats.simulated == 0 and stats.cached == 4
        assert [(r.system, r.workload, r.ipc, r.cycles, r.activity) for r in results] == [
            (r.system, r.workload, r.ipc, r.cycles, r.activity) for r in served.results
        ]

# ------------------------------------------------------------------ HTTP wire
def _request(base: str, method: str, path: str, body=None, timeout=120):
    data = None if body is None else json.dumps(body).encode("utf-8")
    request = urllib.request.Request(
        base + path, data=data, method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


@pytest.fixture
def service(tmp_path, pinned_version):
    manager = SweepManager(
        cache=ResultCache(str(tmp_path / "cache")),
        store=ResultStore(str(tmp_path / "results.sqlite")),
    )
    server = create_server("127.0.0.1", 0, manager)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield f"http://{host}:{port}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=30)


TINY_SWEEP = {
    "systems": ["L2-256KB"],
    "scenarios": ["mcf-like", "milc-like"],
    "instructions": 600,
    "wait": True,
}


class TestHttpService:
    def test_repeated_post_simulates_zero_and_matches_byte_for_byte(self, service):
        code, first = _request(service, "POST", "/sweeps", TINY_SWEEP)
        assert code == 200
        assert first["state"] == "complete"
        assert first["counts"]["simulated"] == 2

        code, second = _request(service, "POST", "/sweeps", TINY_SWEEP)
        assert code == 200
        assert second["counts"]["simulated"] == 0
        assert second["counts"]["cached"] == 2
        # The service-level contract: identical request, identical results.
        assert second["results"] == first["results"]

    def test_concurrent_identical_posts_share_one_execution(self, service):
        barrier = threading.Barrier(2)
        responses, errors = [None, None], []

        def post(slot: int) -> None:
            try:
                barrier.wait(timeout=30)
                responses[slot] = _request(service, "POST", "/sweeps", TINY_SWEEP)
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [threading.Thread(target=post, args=(slot,)) for slot in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors
        (code_a, a), (code_b, b) = responses
        assert code_a == code_b == 200
        assert a["results"] == b["results"]
        if a["id"] == b["id"]:
            # Request-level dedup: both callers attached to one sweep.
            assert a["deduplicated"] or b["deduplicated"]
            assert a["counts"]["simulated"] == 2
        else:
            # One landed after the other finished: it must be all hits.
            assert min(a["counts"]["simulated"], b["counts"]["simulated"]) == 0

    def test_async_post_then_poll(self, service):
        body = dict(TINY_SWEEP)
        del body["wait"]
        code, accepted = _request(service, "POST", "/sweeps", body)
        assert code == 202
        assert accepted["state"] in ("queued", "running", "complete")
        assert "results" not in accepted

        deadline = 120
        while True:
            code, status = _request(service, "GET", f"/sweeps/{accepted['id']}")
            assert code == 200
            if status["state"] == "complete" or deadline <= 0:
                break
            deadline -= 1
            threading.Event().wait(0.25)
        assert status["state"] == "complete"
        assert status["done"] == status["total"] == 2
        assert all(row is not None for row in status["results"])

    def test_results_endpoint_queries_the_store(self, service):
        _request(service, "POST", "/sweeps", TINY_SWEEP)
        code, payload = _request(
            service, "GET", "/results?label=L2-256KB&limit=10"
        )
        assert code == 200
        assert len(payload["results"]) == 2
        assert {row["workload"] for row in payload["results"]} == {
            "mcf-like", "milc-like"
        }
        code, payload = _request(service, "GET", "/results?label=no-such-label")
        assert code == 200 and payload["results"] == []

    def test_healthz_over_the_wire(self, service):
        code, payload = _request(service, "GET", "/healthz")
        assert code == 200
        assert payload["status"] == "ok"
        assert "executor" in payload and "store" in payload

    def test_error_paths(self, service, tmp_path):
        code, payload = _request(service, "POST", "/sweeps",
                                 {"systems": ["nope"], "scenarios": ["mcf-like"]})
        assert code == 400 and "nope" in payload["error"]
        code, _ = _request(service, "POST", "/nope", {"x": 1})
        assert code == 404
        code, _ = _request(service, "GET", "/sweeps/sw0-missing")
        assert code == 404
        code, payload = _request(service, "GET", "/results?bogus=1")
        assert code == 400 and "bogus" in payload["error"]
        code, _ = _request(service, "GET", "/results?limit=ten")
        assert code == 400

    def test_results_without_a_store_is_503(self, tmp_path, pinned_version):
        manager = SweepManager(cache=ResultCache(str(tmp_path / "c2")))
        server = create_server("127.0.0.1", 0, manager)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        try:
            code, payload = _request(f"http://{host}:{port}", "GET", "/results")
            assert code == 503
            assert "store" in payload["error"]
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=30)

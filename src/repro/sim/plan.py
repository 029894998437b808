"""Declarative run plans: one scheduler for every experiment sweep.

The experiment modules used to each hand-roll a loop around
:func:`~repro.sim.runner.run_suite`, re-synthesizing traces per run and
re-prewarming every hierarchy from scratch.  This module replaces those
loops with a compile/execute split:

* a sweep **compiles** (:func:`compile_sweep`) into a :class:`RunPlan` — a
  list of hashable :class:`JobSpec`\\ s over a registry of digestable
  builders (:class:`~repro.sim.configs.BuilderSpec`) and
  :class:`TraceSource`\\ s;
* one **executor** (:func:`execute`) runs the plan.  Its fast path, the
  **result cache**, is guaranteed bit-identical to the direct path
  (fresh build, per-job prewarm, per-job synthesis): finished
  :class:`~repro.sim.runner.RunResult`\\ s are memoized on disk
  (:class:`ResultCache`) keyed by (builder digest, trace key, simulator
  version, run parameters), so a warm re-run performs zero simulation
  and builds no trace.

A catalog trace (one whose :class:`TraceSource` has a ``signature``) is a
pure function of its signature and instruction count, and the simulator
version — the git commit — is in every key, so its **trace key** is the
digest of that signature (:func:`trace_key`).  Only opaque sources are
keyed by their content (:func:`trace_digest`).  Catalog sources pickle,
so a pool worker receives the source itself and synthesizes its own
trace; the parent builds a trace only for an opaque key or a job it runs
in-process.  Each process shares synthesized traces through an
in-memory memo (:func:`materialize`).

Every job builds and prewarms its own hierarchy: no paper sweep repeats
a (builder, trace) pair, so there is nothing to clone.

Fault tolerance
===============

``execute(workers=N)`` runs uncached jobs under a **supervised executor**
(:class:`_SupervisedExecutor`) drawing workers from a **persistent
process-global pool** (:class:`_WorkerPool`): workers are forked lazily,
outlive the ``execute()`` call, and are reused by later and concurrent
sweeps — jobs ship as self-contained payloads, so no fork lock serializes
fan-outs.  Jobs are dispatched one at a time over a per-worker pipe (a
dead worker loses only its current job, never a chunk), every job carries
a wall-clock timeout derived from its instruction budget, and a job whose
worker crashes, hangs, or returns garbage is retried with exponential
backoff on a replacement worker (the failing worker is discarded, never
returned to the pool).  A
job that exhausts its retries — it keeps killing workers — is
*quarantined*: the sweep still completes and reports a structured
:class:`JobFailure` instead of raising (opt-in ``strict`` mode raises
:class:`~repro.common.errors.ExecutionError`).  When forking itself keeps
failing the executor degrades to in-process execution with a warning.

Every sweep is **checkpoint-resumable**: each finished result is
committed to the result cache — fsync'd, then atomically renamed into
place — the moment it completes, and that entry is the sweep's only
checkpoint.  Re-running an interrupted sweep hits the cache for every
committed job and simulates only the jobs that never finished.

All of these paths are exercised deterministically by the fault-injection
harness in :mod:`repro.sim.faults` (``REPRO_FAULT_PLAN`` / test API).

Safety rules
============

* Cache keys include :func:`simulator_version`; a ``-dirty`` (or unknown)
  git state bypasses the result cache entirely, so edited-tree results can
  never poison it.
* A truncated or corrupt cache entry is discarded with a
  :class:`RuntimeWarning` and re-simulated, never trusted and never fatal
  (``ResultCache.verify`` — ``repro cache verify`` — scans for them).
* Builders without a digestable parameter description (ad-hoc lambdas)
  still execute — they just skip the result cache.  Jobs whose builder or
  trace source will not pickle run in-process.
* ``REPRO_CACHE_DIR`` overrides the on-disk cache location;
  ``REPRO_SIM_VERSION`` pins the simulator version (used by tests and CI).

Differential tests (``tests/test_plan.py``, ``tests/test_supervised.py``)
enforce bit-identity of every fast path against the direct path for all
four hierarchy types, warm and cold — including sweeps whose workers are
crashed, hung, and corrupted mid-flight.
"""

from __future__ import annotations

import atexit
import hashlib
import json
import os
import pickle
import subprocess
import tempfile
import threading
import time
import warnings
from collections import OrderedDict, deque
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import lru_cache, partial
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.sim import faults

# Imported at module level on purpose: pool workers are forked lazily and
# must never take the import lock mid-job (a function-level import inside a
# forked worker can deadlock against an importing thread in the parent).
from repro.common.errors import ConfigurationError, ExecutionError, SimulationError
from repro.cpu.core import CoreConfig, OoOCore
from repro.cpu.trace import Trace
from repro.cpu.workloads import WorkloadSpec, generate_trace
from repro.scenarios.families import CATALOG_FAMILIES
from repro.scenarios.registry import build_trace
from repro.scenarios.spec import ScenarioSpec
from repro.scenarios.tracefile import records_bytes
from repro.sim.configs import BuilderSpec, _canonical
from repro.sim.runner import RunResult, simulate

#: Bump when the cache entry layout or the digest scheme changes; old
#: entries then simply miss instead of being misread.  Schema 2 keys
#: catalog traces by their signature digest instead of their content.
RESULT_SCHEMA = 2


# --------------------------------------------------------------------- version
def simulator_version() -> str:
    """The simulator identity baked into every result-cache key.

    ``REPRO_SIM_VERSION`` (tests, CI) takes precedence; otherwise the git
    commit of the source tree, with ``-dirty`` appended when tracked files
    have uncommitted modifications and ``unknown`` when git is unavailable.
    Both ``-dirty`` and ``unknown`` disable the result cache (see
    :func:`execute`): results from an unidentifiable tree must never be
    memoized.
    """
    pinned = os.environ.get("REPRO_SIM_VERSION")
    if pinned:
        return pinned
    return _git_version()


@lru_cache(maxsize=1)
def _git_version() -> str:
    cwd = os.path.dirname(os.path.abspath(__file__))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd, capture_output=True, text=True, timeout=10,
        )
        if out.returncode != 0 or not out.stdout.strip():
            return "unknown"
        commit = out.stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=cwd, capture_output=True, text=True, timeout=10,
        )
        if status.returncode != 0 or status.stdout.strip():
            commit += "-dirty"
        return commit
    except (OSError, subprocess.SubprocessError):
        return "unknown"


# --------------------------------------------------------------------- sources
@dataclass
class TraceSource:
    """One workload's trace, described declaratively.

    ``signature`` is the canonical generation description (family, seed,
    params — everything that determines the instruction stream except the
    backend, which is bit-identical by design).  With the instruction count
    it identifies the trace: it keys the job (:func:`trace_key`) and the
    in-process memo, and ``scenarios run --traces-dir`` stores it in capture
    headers so stale captures are detected.  Catalog sources build through
    a :func:`functools.partial` of a module-level generator, so they pickle
    and a pool worker synthesizes its own copy.  ``None`` means an opaque
    source (inline traces, custom factories): it still executes, in this
    process, and is still result-cacheable through its content digest.
    """

    name: str
    category: str
    num_instructions: int
    builder: Callable[[], Trace]
    signature: Optional[Dict[str, object]] = None

    def build(self) -> Trace:
        return self.builder()


def scenario_signature(spec: ScenarioSpec) -> Dict[str, object]:
    """Canonical generation signature of a scenario (capture-header shape).

    The ``vectorized`` backend override is excluded: both backends are
    bit-identical by design, so a capture generated with either must
    replay against the catalog spec without looking stale.
    """
    params = {key: value for key, value in spec.params.items() if key != "vectorized"}
    return {
        "family": spec.family,
        "seed": spec.seed,
        "params": _canonical(params),
    }


#: Process-global in-memory trace memo: generation-signature key -> Trace.
#: Repeated sweeps in one process (report, benchmarks, services, a
#: persistent pool worker) share the synthesized trace objects (and with
#: them the cached decode / resident set) instead of re-synthesizing per
#: sweep.  Sound because traces are immutable once generated; bounded FIFO.
_TRACE_MEMO: "OrderedDict[str, Trace]" = OrderedDict()
_TRACE_MEMO_CAP = 32


def _memo_key(source: "TraceSource") -> Optional[str]:
    if source.signature is None:
        return None
    return json.dumps(
        {"signature": source.signature, "n": source.num_instructions,
         "name": source.name, "category": source.category},
        sort_keys=True,
    )


def materialize(source: TraceSource) -> Trace:
    """``source``'s trace, shared through :data:`_TRACE_MEMO` when the
    source has a signature.

    The one way a job gets its trace, in this process and on a pool worker
    alike (a worker keeps its memo across jobs and sweeps).
    """
    memo_key = _memo_key(source)
    if memo_key is None:
        return source.build()
    trace = _TRACE_MEMO.get(memo_key)
    if trace is None:
        trace = source.build()
        _TRACE_MEMO[memo_key] = trace
        while len(_TRACE_MEMO) > _TRACE_MEMO_CAP:
            _TRACE_MEMO.popitem(last=False)
    return trace


def trace_source_for(
    spec,
    num_instructions: int,
    trace_factory: Optional[Callable] = None,
    pregenerated: Optional[Trace] = None,
) -> TraceSource:
    """Build the :class:`TraceSource` for one sweep spec.

    ``spec`` may be a legacy :class:`~repro.cpu.workloads.WorkloadSpec`, a
    :class:`~repro.scenarios.spec.ScenarioSpec`, or any object with
    ``name``/``category`` that ``trace_factory`` understands (opaque: no
    signature).  ``pregenerated`` short-circuits generation entirely
    (e.g. traces replayed by the caller).
    """
    name, category = spec.name, spec.category
    if pregenerated is not None:
        return TraceSource(
            name, category, num_instructions, builder=lambda: pregenerated
        )
    if isinstance(spec, ScenarioSpec):
        # A custom factory may synthesize anything, and a family registered
        # outside the package is not pinned by the commit in the cache key
        # (nor known to pool workers forked before it): only the registry's
        # generator over a catalog family honours the signature.  Anything
        # else stays opaque rather than risk serving custom content under
        # the catalog identity.
        if trace_factory in (None, build_trace) and spec.family in CATALOG_FAMILIES:
            return TraceSource(
                name,
                category,
                num_instructions,
                builder=partial(build_trace, spec, num_instructions),
                signature=scenario_signature(spec),
            )
    elif isinstance(spec, WorkloadSpec) and trace_factory in (None, generate_trace):
        return TraceSource(
            name,
            category,
            num_instructions,
            builder=partial(generate_trace, spec, num_instructions),
            signature={"workload": _canonical(spec)},
        )
    factory = trace_factory or generate_trace
    return TraceSource(
        name, category, num_instructions, builder=lambda: factory(spec, num_instructions)
    )


def trace_digest(trace: Trace) -> str:
    """Content digest of a trace: name, category, and every record byte.

    Memoized on the trace (traces are immutable once generated), so sweeps
    that share a trace hash its record bytes exactly once.
    """
    cached = trace._digest_cache
    if cached is not None:
        return cached
    digest = hashlib.sha256()
    digest.update(
        f"trace/{trace.name}\x00{trace.category}\x00{len(trace)}\x00".encode()
    )
    digest.update(records_bytes(trace))
    value = digest.hexdigest()
    trace._digest_cache = value
    return value


def trace_key(source: TraceSource, trace: Callable[[], Trace]) -> str:
    """The trace's part of a job's cache key.

    A source with a signature is keyed by the SHA-256 of its canonical
    signature key, without building the trace; an opaque source by the
    content digest of ``trace()``.
    """
    memo_key = _memo_key(source)
    if memo_key is None:
        return trace_digest(trace())
    return hashlib.sha256(memo_key.encode("utf-8")).hexdigest()


# --------------------------------------------------------------- atomic writes
def _atomic_write(path: str, write: Callable[[str], None]) -> None:
    """Publish ``path`` atomically: ``write(tmp)`` fills a temp file, which
    then replaces ``path`` in one rename.

    The temp file is named by :func:`tempfile.mkstemp` in the target
    directory, so it is unique per writer — threads of one process share
    a pid, and concurrent writers of the same key must never share a temp
    file.  The name carries a ``.tmp`` marker, so leftovers of a crashed
    writer are swept by :meth:`ResultCache.verify`.  Raises ``OSError``
    (after removing the temp file) when any step fails.
    """
    fd, tmp = tempfile.mkstemp(
        prefix=f"{os.path.basename(path)}.tmp", dir=os.path.dirname(path)
    )
    try:
        os.close(fd)
        # mkstemp creates 0600; entries stay readable like plain open()s.
        os.chmod(tmp, 0o644)
        write(tmp)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise


# ---------------------------------------------------------------- result cache
def _result_to_row(result: RunResult) -> Dict[str, object]:
    """The JSON row shared by cache entries and result-store rows."""
    return {
        "system": result.system,
        "workload": result.workload,
        "category": result.category,
        "ipc": result.ipc,
        "cycles": result.cycles,
        "instructions": result.instructions,
        "activity": result.activity,
        "core_stats": result.core_stats,
    }


def _result_from_row(row: Dict[str, object]) -> RunResult:
    """Rebuild a :class:`RunResult`; raises on malformed rows."""
    return RunResult(
        system=str(row["system"]),
        workload=str(row["workload"]),
        category=str(row["category"]),
        ipc=row["ipc"],
        cycles=row["cycles"],
        instructions=row["instructions"],
        activity=dict(row["activity"]),
        core_stats=dict(row["core_stats"]),
    )


def default_cache_dir() -> str:
    """``REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro-lnuca`` (or ~/.cache)."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return env
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(base, "repro-lnuca")


class ResultCache:
    """Content-addressed on-disk memo of :class:`RunResult`\\ s.

    Entries are small JSON files under ``<directory>/results``; the file
    name is the full cache key (see :func:`_cache_key`), so a lookup is one
    ``open``.  All IO failures degrade to a miss; corrupt entries are
    discarded with a :class:`RuntimeWarning`.

    The cache is size-capped: when ``limit_mb`` (default: the
    ``REPRO_CACHE_LIMIT_MB`` environment variable; unlimited when unset)
    is exceeded, the oldest-access entries are pruned until the cache fits
    again.  Hits refresh their entry's access time, so a hot working set
    survives pruning; surviving entries are byte-untouched and keep
    returning bit-identical results.
    """

    #: Pruning is amortised: the size audit walks the entry tree, so it
    #: runs at most once every this many writes (and on the first write).
    PRUNE_EVERY = 32

    def __init__(self, directory: str, limit_mb: Optional[float] = None):
        self.directory = directory
        self._write_failed = False
        if limit_mb is None:
            env = os.environ.get("REPRO_CACHE_LIMIT_MB")
            if env:
                try:
                    limit_mb = float(env)
                except ValueError:
                    warnings.warn(
                        f"REPRO_CACHE_LIMIT_MB={env!r} is not a number; ignoring it",
                        RuntimeWarning,
                        stacklevel=2,
                    )
        self.limit_bytes = None if limit_mb is None else int(limit_mb * 1024 * 1024)
        self._puts_since_prune: Optional[int] = None  # None = never audited

    @classmethod
    def default(cls, limit_mb: Optional[float] = None) -> "ResultCache":
        return cls(default_cache_dir(), limit_mb=limit_mb)

    def prune(self) -> int:
        """Evict oldest-access entries until the cache fits its size limit.

        Returns the number of entries deleted (0 when unlimited or within
        budget).  Entry age is the access time recorded on hits and
        writes; ties and IO races degrade gracefully (a file someone else
        already removed just counts as pruned).
        """
        if self.limit_bytes is None:
            return 0
        root = os.path.join(self.directory, "results")
        entries: List[Tuple[float, int, str]] = []
        total = 0
        try:
            for dirpath, _, filenames in os.walk(root):
                for filename in filenames:
                    if not filename.endswith(".json"):
                        continue
                    path = os.path.join(dirpath, filename)
                    try:
                        info = os.stat(path)
                    except OSError:
                        continue
                    entries.append((info.st_mtime, info.st_size, path))
                    total += info.st_size
        except OSError:
            return 0
        deleted = 0
        if total > self.limit_bytes:
            entries.sort()
            for _, size, path in entries:
                try:
                    os.remove(path)
                except OSError:
                    pass
                total -= size
                deleted += 1
                if total <= self.limit_bytes:
                    break
        return deleted

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, "results", key[:2], f"{key}.json")

    def get(self, key: str) -> Optional[RunResult]:
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            if payload.get("schema") != RESULT_SCHEMA:
                return None
            if self.limit_bytes is not None:
                try:
                    os.utime(path)  # LRU stamp: hits protect their entry
                except OSError:
                    pass
            return _result_from_row(payload["result"])
        except FileNotFoundError:
            return None
        except (OSError, ValueError, KeyError, TypeError) as exc:
            warnings.warn(
                f"result cache: discarding corrupt entry {path} ({exc})",
                RuntimeWarning,
                stacklevel=2,
            )
            try:
                os.remove(path)
            except OSError:
                pass
            return None

    def put(self, key: str, result: RunResult, meta: Optional[Dict[str, object]] = None) -> None:
        """Write one entry.  ``meta`` (digest provenance: builder digest,
        trace digest, simulator version, run params) rides along in the
        entry so the SQLite result store can ETL cache entries without
        re-deriving their keys; lookups ignore it."""
        path = self._path(key)
        payload = {"schema": RESULT_SCHEMA, "result": _result_to_row(result)}
        if meta is not None:
            payload["meta"] = meta

        def write(tmp: str) -> None:
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, sort_keys=True)
                # Durability before visibility: entries are the sweep
                # checkpoint, so a crash right after os.replace must not
                # leave a half-written page behind.
                handle.flush()
                os.fsync(handle.fileno())

        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            _atomic_write(path, write)
        except OSError as exc:
            if not self._write_failed:
                self._write_failed = True
                warnings.warn(
                    f"result cache: disabled writes ({exc})", RuntimeWarning, stacklevel=2
                )
            return
        faults.on_write("result-cache", path)
        if self.limit_bytes is None:
            return
        count = self._puts_since_prune
        if count is None or count + 1 >= self.PRUNE_EVERY:
            self.prune()
            self._puts_since_prune = 0
        else:
            self._puts_since_prune = count + 1

    def verify(self, delete: bool = True) -> Dict[str, int]:
        """Scan the cache directory for corrupt, truncated, or stale files.

        Every entry is parsed and rebuilt exactly the way a lookup would
        rebuild it; entries that fail (truncated JSON, wrong schema,
        mistyped fields) are *corrupt* and — with ``delete``, the default —
        removed, as are ``.tmp`` leftovers of crashed writers.  Returns
        ``{"checked", "corrupt", "stale_tmp", "deleted"}`` counts; each
        corrupt entry is also reported through a :class:`RuntimeWarning`.
        Surviving entries are byte-untouched, so verification never
        changes what a warm sweep replays.
        """
        root = os.path.join(self.directory, "results")
        report = {"checked": 0, "corrupt": 0, "stale_tmp": 0, "deleted": 0}

        def remove(path: str) -> None:
            if delete:
                try:
                    os.remove(path)
                    report["deleted"] += 1
                except OSError:
                    pass

        for dirpath, _, filenames in os.walk(root):
            for filename in filenames:
                path = os.path.join(dirpath, filename)
                if ".tmp" in filename:
                    report["stale_tmp"] += 1
                    remove(path)
                    continue
                if not filename.endswith(".json"):
                    continue
                report["checked"] += 1
                try:
                    with open(path, "r", encoding="utf-8") as handle:
                        payload = json.load(handle)
                    if payload.get("schema") != RESULT_SCHEMA:
                        raise ValueError(f"schema {payload.get('schema')!r}")
                    _result_from_row(payload["result"])
                except (OSError, ValueError, KeyError, TypeError) as exc:
                    report["corrupt"] += 1
                    warnings.warn(
                        f"cache verify: corrupt entry {path} ({exc})",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                    remove(path)
        return report


def _core_config_digest(core_config: Optional[CoreConfig]) -> str:
    if core_config is None:
        return "default"
    return hashlib.sha256(
        json.dumps(_canonical(core_config), sort_keys=True).encode("utf-8")
    ).hexdigest()


def _cache_key(
    job: "JobSpec",
    builder_digest: str,
    trace_content_digest: str,
    core_digest: str,
    version: str,
) -> str:
    """The content address of one job's result.

    Deliberately excludes the job's display label (``job.system``): two
    sweeps that run the identical architecture on the identical trace share
    the entry, and the label is re-applied on lookup.
    """
    payload = json.dumps(
        {
            "schema": RESULT_SCHEMA,
            "simulator": version,
            "builder": builder_digest,
            "trace": trace_content_digest,
            "core": core_digest,
            "instructions": job.num_instructions,
            "prewarm": job.prewarm,
            "mode": job.mode,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ------------------------------------------------------------------- the plan
@dataclass(frozen=True)
class JobSpec:
    """One hashable (system, workload) simulation of a plan."""

    system: str  #: result label (``RunResult.system``)
    builder: str  #: key into ``RunPlan.builders``
    trace: str  #: key into ``RunPlan.traces``
    num_instructions: int
    prewarm: bool = True
    mode: str = "event"


@dataclass
class RunPlan:
    """A compiled sweep: jobs over builder and trace registries."""

    jobs: List[JobSpec]
    builders: Dict[str, BuilderSpec]
    traces: Dict[str, TraceSource]
    core_config: Optional[CoreConfig] = None


def compile_sweep(
    system_builders: Dict[str, Callable],
    specs: Iterable,
    num_instructions: int,
    core_config: Optional[CoreConfig] = None,
    prewarm: bool = True,
    mode: str = "event",
    trace_factory: Optional[Callable] = None,
    traces: Optional[Dict[str, Trace]] = None,
) -> RunPlan:
    """Compile a classic (builders x specs) sweep into a :class:`RunPlan`.

    Accepts exactly what :func:`~repro.sim.runner.run_suite` accepts:
    builders may be :class:`~repro.sim.configs.BuilderSpec`\\ s (digestable,
    cacheable) or plain callables (ad hoc, still executable); ``traces``
    short-circuits generation for the named workloads.  Job order is the
    historical sweep order — systems outer, specs inner.
    """
    specs = list(specs)
    pregenerated = dict(traces or {})
    builders = {
        name: builder if isinstance(builder, BuilderSpec)
        else BuilderSpec(key=name, factory=builder)
        for name, builder in system_builders.items()
    }
    sources = {
        spec.name: trace_source_for(
            spec, num_instructions, trace_factory, pregenerated.get(spec.name)
        )
        for spec in specs
    }
    jobs = [
        JobSpec(
            system=system_name,
            builder=system_name,
            trace=spec.name,
            num_instructions=num_instructions,
            prewarm=prewarm,
            mode=mode,
        )
        for system_name in builders
        for spec in specs
    ]
    return RunPlan(jobs=jobs, builders=builders, traces=sources, core_config=core_config)


# ------------------------------------------------------------------- executor
@dataclass
class ExecutionStats:
    """What one :func:`execute` call actually did.

    ``simulated`` counts jobs that went to simulation (a retried job
    counts once — fault runs and clean runs report identical counts);
    ``retries`` / ``timeouts`` / ``quarantined`` count supervision
    events; ``store_hits`` counts results served by the SQLite result
    store after a cache miss; ``inflight_hits`` counts results adopted
    from an identical job that another thread of this process was
    already simulating; ``workers_effective`` records the peak number of
    processes that actually executed jobs (1 when in-process), so
    reports show what really ran.  ``pool_reused`` counts worker
    acquisitions served by an already-warm persistent-pool worker
    (instead of a fork).  ``job_s`` sums the wall seconds of every
    simulated job, measured where it ran (a pool worker or this
    process), so ``job_s / (wall * workers_effective)`` shows how busy
    the workers were; like every counter here it never enters a digest,
    a cache entry, or a report artifact.
    """

    jobs: int = 0
    simulated: int = 0
    cached: int = 0
    store_hits: int = 0
    inflight_hits: int = 0
    pool_reused: int = 0
    retries: int = 0
    timeouts: int = 0
    quarantined: int = 0
    workers_effective: int = 0
    job_s: float = 0.0

    def add(self, other: "ExecutionStats") -> None:
        self.jobs += other.jobs
        self.simulated += other.simulated
        self.cached += other.cached
        self.store_hits += other.store_hits
        self.inflight_hits += other.inflight_hits
        self.pool_reused += other.pool_reused
        self.retries += other.retries
        self.timeouts += other.timeouts
        self.quarantined += other.quarantined
        self.workers_effective = max(self.workers_effective, other.workers_effective)
        self.job_s += other.job_s

    def describe(self) -> str:
        # New counters append at the end: CI and scripts grep for the
        # existing "token=value " shapes and must keep matching.
        return (
            f"jobs={self.jobs} simulated={self.simulated} cached={self.cached} "
            f"workers_effective={self.workers_effective} retries={self.retries} "
            f"timeouts={self.timeouts} quarantined={self.quarantined} "
            f"store_hits={self.store_hits} inflight_hits={self.inflight_hits} "
            f"pool_reused={self.pool_reused} job_s={self.job_s:.3f}"
        )

    def degraded(self) -> bool:
        """True when this execution needed any fault-recovery machinery."""
        return bool(self.retries or self.timeouts or self.quarantined)


# --------------------------------------------------------------- supervision
@dataclass
class SupervisionPolicy:
    """How the supervised executor treats failing jobs.

    ``job_timeout`` is the per-job wall-clock limit in seconds (``None``
    derives one from the job's instruction budget); ``max_retries``
    bounds re-dispatches per job after crashes, timeouts, garbage
    replies, and transient errors; ``backoff_base`` seeds the
    exponential backoff (``base * 2**(attempt-1)``) before each retry;
    ``strict`` turns a quarantined job into an
    :class:`~repro.common.errors.ExecutionError` instead of a
    :class:`JobFailure` record.  A deterministic model error
    (:class:`~repro.common.errors.SimulationError` /
    :class:`~repro.common.errors.ConfigurationError`) quarantines
    immediately — re-running it would reproduce it.
    """

    job_timeout: Optional[float] = None
    max_retries: int = 2
    backoff_base: float = 0.05
    strict: bool = False

    def timeout_for(self, num_instructions: int) -> float:
        """Wall-clock budget of one job: generous, but bounded.

        Scaled on the instruction budget (the dense-mode worst case is
        hundreds of Python-level ticks per instruction), floored so tiny
        test jobs on loaded machines never false-trip.
        """
        if self.job_timeout is not None:
            return self.job_timeout
        return 30.0 + num_instructions * 0.01


def _effective_policy(policy: Optional[SupervisionPolicy]) -> SupervisionPolicy:
    """The caller's policy with any fault-plan overrides applied (tests)."""
    base = policy if policy is not None else SupervisionPolicy()
    overrides = {
        key: value
        for key, value in faults.policy_overrides().items()
        if key in ("job_timeout", "max_retries", "backoff_base", "strict")
    }
    return replace(base, **overrides) if overrides else base


@dataclass
class JobFailure:
    """A quarantined job: the sweep completed, this job did not."""

    index: int  #: position in ``RunPlan.jobs`` (and the results list)
    job: JobSpec
    reason: str  #: "crash" | "timeout" | "garbage" | "error"
    attempts: int
    detail: str = ""

    def describe(self) -> str:
        return (
            f"{self.job.system}/{self.job.trace}: {self.reason} "
            f"after {self.attempts} attempt(s)"
            + (f" ({self.detail})" if self.detail else "")
        )


@dataclass
class PlanRun:
    """Results of an executed plan (job order), plus what the executor did.

    ``results`` holds ``None`` at the index of every quarantined job;
    ``failures`` carries their :class:`JobFailure` records (empty for a
    healthy sweep, always empty under ``strict`` — that raises instead).
    """

    results: List[RunResult]
    stats: ExecutionStats = field(default_factory=ExecutionStats)
    failures: List[JobFailure] = field(default_factory=list)


#: Stats sinks for nested :func:`execute` calls (``collect_stats``).
_COLLECTORS: List[ExecutionStats] = []


@contextmanager
def collect_stats():
    """Aggregate the stats of every :func:`execute` call inside the block.

    Used by the CLI to report, across a whole ``report`` invocation, how
    many jobs simulated versus hit the cache — the two-pass CI smoke
    asserts ``simulated=0`` on the warm pass.
    """
    stats = ExecutionStats()
    _COLLECTORS.append(stats)
    try:
        yield stats
    finally:
        _COLLECTORS.remove(stats)


# ------------------------------------------------------------ in-flight dedup
class _InflightEntry:
    """One job digest currently being simulated somewhere in this process."""

    __slots__ = ("event", "result")

    def __init__(self):
        self.event = threading.Event()
        self.result: Optional[RunResult] = None


class InflightRegistry:
    """Process-wide registry of cache keys whose simulation is in flight.

    Concurrent :func:`execute` calls (the service's sweep threads) that
    contain the identical job — same builder digest, trace digest,
    simulator version, run params — must not simulate it twice.  The
    first caller to :meth:`claim` a key owns it and must
    :meth:`resolve` (or :meth:`abandon`) it; every other caller gets the
    owner's entry back and waits on its event instead of simulating.
    An abandoned key (owner raised, or quarantined the job) wakes the
    waiters with ``result=None`` and they fall back to simulating
    themselves — dedup is an optimisation, never a correctness
    dependency.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._entries: Dict[str, _InflightEntry] = {}

    def claim(self, key: str) -> Optional[_InflightEntry]:
        """``None``: the caller now owns ``key`` (and must resolve it);
        an entry: someone else owns it — wait on ``entry.event``."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                return entry
            self._entries[key] = _InflightEntry()
            return None

    def resolve(self, key: str, result: Optional[RunResult]) -> None:
        with self._lock:
            entry = self._entries.pop(key, None)
        if entry is not None:
            entry.result = result
            entry.event.set()

    def abandon(self, key: str) -> None:
        self.resolve(key, None)


#: The process singleton :func:`execute` registers in-flight jobs with.
_INFLIGHT = InflightRegistry()


def _copy_result(result: RunResult) -> RunResult:
    """A deep, independent copy (results are mutable: labels get rewritten)."""
    return _result_from_row(_result_to_row(result))


# ----------------------------------------------------- module-default hooks
#: Default result store / progress callback for :func:`execute` when the
#: caller passes none — set once by the CLI (``--store`` / ``--progress``)
#: instead of threading new parameters through every experiment signature.
_DEFAULT_STORE = None
_DEFAULT_PROGRESS: Optional[Callable[[int, int, ExecutionStats], None]] = None


@contextmanager
def use_store(store):
    """Make ``store`` the default :class:`~repro.sim.store.ResultStore`
    for every :func:`execute` call inside the block (``None`` disables)."""
    global _DEFAULT_STORE
    previous = _DEFAULT_STORE
    _DEFAULT_STORE = store
    try:
        yield store
    finally:
        _DEFAULT_STORE = previous


def set_default_progress(
    callback: Optional[Callable[[int, int, ExecutionStats], None]],
) -> None:
    """Install a process-default ``on_progress`` callback (``None`` clears).

    The callback receives ``(done, total, stats)`` after every job lands
    and once more when the sweep finishes, so a renderer can terminate
    its line even when jobs were quarantined.
    """
    global _DEFAULT_PROGRESS
    _DEFAULT_PROGRESS = callback


_DIRTY_WARNED = False


def _warn_cache_bypassed(version: str) -> None:
    global _DIRTY_WARNED
    if not _DIRTY_WARNED:
        _DIRTY_WARNED = True
        warnings.warn(
            f"result cache bypassed: simulator version is {version!r} "
            "(commit your changes or set REPRO_SIM_VERSION to re-enable caching)",
            RuntimeWarning,
            stacklevel=3,
        )


def _simulate_job(
    job: JobSpec,
    builder: BuilderSpec,
    source: TraceSource,
    trace: Trace,
    core_config: Optional[CoreConfig],
) -> RunResult:
    """Build → prewarm → simulate one job: the one path every job takes,
    in this process (:func:`_run_job`) and on a pool worker
    (:func:`_run_payload`) alike."""
    system = builder.factory()
    if job.prewarm:
        system.prewarm(trace.resident_addresses())
    core = OoOCore(trace, system, config=core_config)
    summary = simulate(core, mode=job.mode)
    return RunResult(
        system=job.system,
        workload=source.name,
        category=source.category,
        ipc=summary["ipc"],
        cycles=summary["cycles"],
        instructions=summary["instructions"],
        activity=system.activity(),
        core_stats=core.stats.as_dict(),
    )


def _run_job(plan: RunPlan, job: JobSpec, trace: Trace, stats: ExecutionStats) -> RunResult:
    """Simulate one job in this process, timed into ``stats.job_s``."""
    started = time.perf_counter()
    result = _simulate_job(
        job, plan.builders[job.builder], plan.traces[job.trace], trace,
        plan.core_config,
    )
    stats.job_s += time.perf_counter() - started
    return result


class _JobError:
    """Picklable report of an exception raised inside a worker.

    ``deterministic`` marks model errors (:class:`SimulationError`,
    :class:`ConfigurationError`): re-running those reproduces them, so
    the supervisor quarantines immediately instead of burning retries.
    """

    __slots__ = ("exc_type", "detail", "deterministic")

    def __init__(self, exc_type: str, detail: str, deterministic: bool):
        self.exc_type = exc_type
        self.detail = detail
        self.deterministic = deterministic

    def __getstate__(self):
        return (self.exc_type, self.detail, self.deterministic)

    def __setstate__(self, state):
        self.exc_type, self.detail, self.deterministic = state


def _run_payload(payload: Dict[str, object]) -> Tuple[RunResult, float]:
    """Run one shipped job inside a pool worker; returns (result, job_s).

    The worker synthesizes the job's trace from the shipped source (or
    recalls it from its own memo), so ``job_s`` includes that.  Per-worker
    stats die with the worker, so each reply carries the job's wall seconds
    back to the supervisor.
    """
    started = time.perf_counter()
    source = payload["source"]
    result = _simulate_job(
        payload["job"], payload["builder"], source, materialize(source),
        payload["core_config"],
    )
    return result, time.perf_counter() - started


def _pool_worker(conn) -> None:
    """One persistent pool worker: receive a job payload, run it, reply.

    Jobs arrive as self-contained payload dicts (job spec, picklable
    builder spec, trace source, pre-matched fault action) — the worker
    outlives the ``execute()`` call that forked it and serves any later
    sweep, so nothing may depend on fork-time sweep state.  Replies
    ``(index, RunResult | _JobError, job_s)``; no exception escapes — the
    supervisor, not the worker, decides between retry and quarantine.
    Exits on a ``None`` sentinel or a broken pipe.
    """
    # Fault plans are matched by the supervisor and shipped per job; a
    # plan inherited over fork must not also fire worker-side (its
    # counters would race the parent's).
    faults.install(None)
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message is None:
            return
        index = message["index"]
        seconds = 0.0
        payload: object
        try:
            action = faults.apply_worker_action(message.get("action"), message["label"])
            if action == "garbage":
                payload = "\x00injected-garbage-payload"
            else:
                payload, seconds = _run_payload(message)
        except Exception as exc:
            payload = _JobError(
                type(exc).__name__,
                str(exc),
                isinstance(exc, (SimulationError, ConfigurationError)),
            )
        try:
            conn.send((index, payload, seconds))
        except (BrokenPipeError, OSError):
            return


class _PoolWorker:
    """One persistent worker process plus its duplex pipe."""

    __slots__ = ("process", "conn", "jobs_done")

    def __init__(self, process, conn):
        self.process = process
        self.conn = conn
        self.jobs_done = 0  #: completed jobs (recycling threshold)


class _WorkerPool:
    """Process-global pool of persistent workers, shared across sweeps.

    Workers are forked lazily on first demand, parked idle when a sweep's
    supervisor releases them, and handed — still warm, with their trace
    memo intact — to the next sweep that asks, whether that sweep runs
    in this thread or a concurrent service thread.  Jobs travel as
    self-contained payloads, so nothing here depends on fork-time sweep
    state and no fork lock serializes concurrent supervised fan-outs.

    Supervision is unchanged and lives in :class:`_SupervisedExecutor`:
    a crashed, hung, or garbage-spewing worker is discarded (never
    pooled), exactly as the fork-per-sweep executor replaced it.  Knobs:
    ``REPRO_POOL_SIZE`` caps the idle workers retained (default
    :data:`_POOL_SIZE_DEFAULT`), ``REPRO_POOL_MAX_JOBS`` recycles a
    worker after that many jobs (worker lifetime; default unlimited),
    ``REPRO_NO_POOL=1`` disables reuse entirely (every acquisition
    forks, every release discards — the bench's fork-per-sweep A/B
    leg).  Both knobs are overridable
    per process via :func:`configure_worker_pool`.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._idle: List[_PoolWorker] = []
        self._pid = os.getpid()
        self.size_override: Optional[int] = None
        self.max_jobs_override: Optional[int] = None
        self.forked = 0
        self.reused = 0
        self.recycled = 0
        self.discarded = 0

    def _int_knob(self, override: Optional[int], env_name: str) -> Optional[int]:
        if override is not None:
            return override
        env = os.environ.get(env_name)
        if env:
            try:
                return int(env)
            except ValueError:
                warnings.warn(
                    f"{env_name}={env!r} is not an integer; ignoring it",
                    RuntimeWarning,
                    stacklevel=3,
                )
        return None

    def _limit(self) -> int:
        value = self._int_knob(self.size_override, "REPRO_POOL_SIZE")
        return _POOL_SIZE_DEFAULT if value is None else max(0, value)

    def _max_jobs(self) -> Optional[int]:
        return self._int_knob(self.max_jobs_override, "REPRO_POOL_MAX_JOBS")

    def _check_pid_locked(self) -> None:
        # A forked child (a pool worker, a test harness fork) inherits
        # this module state, but the idle workers belong to the parent:
        # drop the bookkeeping, never the processes.
        if self._pid != os.getpid():
            self._idle = []
            self._pid = os.getpid()
            self.forked = self.reused = self.recycled = self.discarded = 0

    def acquire(self) -> _PoolWorker:
        """A live worker: a warm idle one when available, else a fresh fork.

        Fires the ``spawn`` fault site on *every* acquisition (reuse
        included), so spawn-degradation stays testable; raises ``OSError``
        on spawn failure — the supervisor owns the degradation policy.
        """
        faults.on_spawn()
        with self._lock:
            self._check_pid_locked()
            # REPRO_NO_POOL must disable reuse symmetrically: a no-pool
            # acquisition forking past the idle list (instead of draining
            # and then discarding it) leaves pooled sweeps' warm workers
            # for pooled sweeps.
            while self._idle and not os.environ.get("REPRO_NO_POOL"):
                worker = self._idle.pop()
                if worker.process.is_alive():
                    self.reused += 1
                    return worker
                self._close_locked(worker)
            # Fork under the lock: a concurrent fork could otherwise
            # inherit this pipe's child end and mask the worker's EOF.
            import multiprocessing

            ctx = multiprocessing.get_context("fork")
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            try:
                process = ctx.Process(
                    target=_pool_worker, args=(child_conn,), daemon=True
                )
                process.start()
            except OSError:
                parent_conn.close()
                child_conn.close()
                raise
            child_conn.close()
            self.forked += 1
            return _PoolWorker(process, parent_conn)

    def release(self, worker: _PoolWorker) -> None:
        """Park a healthy worker for reuse (or retire it per policy)."""
        if not worker.process.is_alive():
            self.discard(worker, kill=False)
            return
        if faults.on_worker_recycle():
            self.recycled += 1
            self.discard(worker)
            return
        if os.environ.get("REPRO_NO_POOL"):
            self.discard(worker)
            return
        max_jobs = self._max_jobs()
        if max_jobs is not None and worker.jobs_done >= max_jobs:
            self.recycled += 1
            self.discard(worker)
            return
        with self._lock:
            self._check_pid_locked()
            if len(self._idle) < self._limit():
                self._idle.append(worker)
                return
        self.discard(worker)

    def _close_locked(self, worker: _PoolWorker) -> None:
        try:
            worker.conn.close()
        except OSError:
            pass
        worker.process.join(timeout=5.0)
        self.discarded += 1

    def discard(self, worker: _PoolWorker, kill: bool = True) -> None:
        """Retire a worker for good (dead, unhealthy, or over its limits)."""
        try:
            worker.conn.close()
        except OSError:
            pass
        if kill and worker.process.is_alive():
            worker.process.kill()
        worker.process.join(timeout=5.0)
        self.discarded += 1

    def shutdown(self) -> None:
        """Stop every idle worker (atexit, tests, explicit CLI teardown)."""
        with self._lock:
            self._check_pid_locked()
            idle, self._idle = self._idle, []
        for worker in idle:
            try:
                worker.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        deadline = time.monotonic() + 2.0
        for worker in idle:
            worker.process.join(timeout=max(0.0, deadline - time.monotonic()))
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(timeout=5.0)
            try:
                worker.conn.close()
            except OSError:
                pass

    def stats(self) -> Dict[str, int]:
        with self._lock:
            self._check_pid_locked()
            return {
                "idle": len(self._idle),
                "forked": self.forked,
                "reused": self.reused,
                "recycled": self.recycled,
                "discarded": self.discarded,
            }


#: Idle workers retained when no explicit pool size is configured.
_POOL_SIZE_DEFAULT = 8

#: The process singleton every supervised :func:`execute` draws from.
_POOL = _WorkerPool()
atexit.register(_POOL.shutdown)


def configure_worker_pool(
    size: Optional[int] = None, max_jobs: Optional[int] = None
) -> None:
    """Set the persistent pool's retention knobs for this process.

    ``size`` caps idle workers retained between sweeps (overrides
    ``REPRO_POOL_SIZE``); ``max_jobs`` recycles a worker after that many
    completed jobs (overrides ``REPRO_POOL_MAX_JOBS``).  ``None`` leaves
    the respective knob as configured.  Wired to the CLI's
    ``--pool-size`` / ``--pool-max-jobs`` flags.
    """
    if size is not None:
        _POOL.size_override = size
    if max_jobs is not None:
        _POOL.max_jobs_override = max_jobs


def shutdown_worker_pool() -> None:
    """Stop all idle pool workers now (tests, service shutdown)."""
    _POOL.shutdown()


def worker_pool_stats() -> Dict[str, int]:
    """The pool's lifetime counters (``/healthz``, tests)."""
    return _POOL.stats()


class _Pending:
    """One not-yet-committed job in the supervisor's queue."""

    __slots__ = ("index", "job", "key", "seq", "attempts", "ready_at")

    def __init__(self, index: int, job: JobSpec, key: Optional[str], seq: int):
        self.index = index
        self.job = job
        self.key = key
        self.seq = seq  #: stable position in the pending list (fault matching)
        self.attempts = 0  #: dispatches so far
        self.ready_at = 0.0  #: backoff: earliest monotonic re-dispatch time

    def label(self) -> str:
        return f"{self.job.system}/{self.job.trace}"


class _Worker:
    """One pool worker currently leased by a supervisor."""

    __slots__ = ("pool_worker", "entry", "deadline")

    def __init__(self, pool_worker: _PoolWorker):
        self.pool_worker = pool_worker
        self.entry: Optional[_Pending] = None
        self.deadline = 0.0

    @property
    def conn(self):
        return self.pool_worker.conn

    @property
    def process(self):
        return self.pool_worker.process


#: Consecutive worker-spawn failures before the supervisor gives up on
#: forking and degrades to in-process execution.
_SPAWN_FAILURE_LIMIT = 3


class _SupervisedExecutor:
    """Per-job dispatch with timeouts, retry/backoff, and quarantine.

    Each worker holds exactly one job at a time over its own duplex pipe,
    so a dead worker loses only that job; ``pool.map``-style chunking
    would lose the whole chunk.  The supervisor multiplexes the worker
    pipes with :func:`multiprocessing.connection.wait`, which doubles as
    both the completion signal (a reply arrives) and the death signal
    (the pipe hits EOF), and enforces each job's wall-clock deadline by
    SIGKILLing and replacing the worker.  Completed results are committed
    — cache, store, caller callback — the moment they arrive, which is
    what makes an interrupted sweep resumable.

    Workers are leased from the process-global persistent pool
    (:class:`_WorkerPool`): jobs ship as self-contained payloads
    (``payload_for``), so a worker forked by last week's sweep serves this
    one.  Healthy workers return to the pool at shutdown; crashed, hung,
    or garbage-spewing ones are discarded — never pooled.  Jobs whose
    payload cannot ship (``transportable`` is false: ad-hoc lambda
    builders, opaque trace sources) run in-process via ``run_local`` with
    quarantine-on-exception semantics, as does the whole queue when
    worker acquisition keeps failing (degradation).
    """

    def __init__(self, entries: List[_Pending], stats: ExecutionStats,
                 policy: SupervisionPolicy, commit: Callable[[_Pending, RunResult], None],
                 processes: int,
                 payload_for: Callable[[_Pending], Dict[str, object]],
                 run_local: Callable[[_Pending], RunResult],
                 transportable: Callable[[_Pending], bool]):
        self.queue: "deque[_Pending]" = deque(
            entry for entry in entries if transportable(entry)
        )
        self.local: List[_Pending] = [
            entry for entry in entries if not transportable(entry)
        ]
        self.stats = stats
        self.policy = policy
        self.commit = commit
        self.processes = processes
        self.payload_for = payload_for
        self.run_local = run_local
        self.workers: Dict[object, _Worker] = {}  # conn -> worker
        self.failures: List[JobFailure] = []
        self.remaining = len(entries)
        self._spawn_failures = 0
        self._degraded = False

    # -- lifecycle ---------------------------------------------------------
    def _spawn(self) -> bool:
        try:
            pool_worker = _POOL.acquire()
        except OSError as exc:
            self._spawn_failures += 1
            if self._spawn_failures >= _SPAWN_FAILURE_LIMIT and not self._live():
                self._degraded = True
                warnings.warn(
                    f"supervised executor: worker fork kept failing ({exc}); "
                    "degrading to in-process execution",
                    RuntimeWarning,
                    stacklevel=4,
                )
            return False
        self._spawn_failures = 0
        if pool_worker.jobs_done > 0:
            self.stats.pool_reused += 1
        self.workers[pool_worker.conn] = _Worker(pool_worker)
        self.stats.workers_effective = max(
            self.stats.workers_effective, len(self.workers)
        )
        return True

    def _live(self) -> int:
        return len(self.workers)

    def _reap(self, worker: _Worker, kill: bool) -> None:
        # Job-level failure: this worker is not trustworthy (or dead) —
        # retire it from the pool entirely, never park it.
        self.workers.pop(worker.conn, None)
        _POOL.discard(worker.pool_worker, kill=kill)

    def _shutdown(self) -> None:
        for worker in list(self.workers.values()):
            if worker.entry is None:
                _POOL.release(worker.pool_worker)
            else:
                # Still holding a job (strict-mode abort mid-flight): the
                # reply would arrive into nobody's sweep — kill it.
                _POOL.discard(worker.pool_worker, kill=True)
        self.workers.clear()

    # -- failure handling --------------------------------------------------
    def _quarantine(self, entry: _Pending, reason: str, detail: str) -> None:
        failure = JobFailure(
            index=entry.index, job=entry.job, reason=reason,
            attempts=entry.attempts, detail=detail,
        )
        self.failures.append(failure)
        self.stats.quarantined += 1
        self.remaining -= 1
        warnings.warn(
            f"supervised executor: quarantined {failure.describe()}",
            RuntimeWarning,
            stacklevel=4,
        )
        if self.policy.strict:
            raise ExecutionError(
                f"sweep job failed permanently: {failure.describe()} "
                "(completed jobs are checkpointed; a re-run resumes from them)"
            )

    def _fail(self, entry: _Pending, reason: str, detail: str,
              deterministic: bool = False) -> None:
        entry.attempts += 1
        if deterministic or entry.attempts > self.policy.max_retries:
            self._quarantine(entry, reason, detail)
            return
        self.stats.retries += 1
        entry.ready_at = (
            time.monotonic() + self.policy.backoff_base * (2 ** (entry.attempts - 1))
        )
        self.queue.append(entry)

    # -- main loop ---------------------------------------------------------
    def _dispatch(self, now: float) -> None:
        idle = [worker for worker in self.workers.values() if worker.entry is None]
        if not idle:
            return
        held: List[_Pending] = []
        while idle and self.queue:
            entry = self.queue.popleft()
            if entry.ready_at > now:
                held.append(entry)  # still backing off
                continue
            worker = idle.pop()
            try:
                # The payload is built per dispatch: the shipped fault
                # action depends on the attempt.
                worker.conn.send(self.payload_for(entry))
            except (BrokenPipeError, OSError):
                # Died while idle: no job was lost, just replace it.
                self._reap(worker, kill=False)
                held.append(entry)
                continue
            worker.entry = entry
            worker.deadline = now + self.policy.timeout_for(entry.job.num_instructions)
        self.queue.extendleft(reversed(held))

    def _wait_timeout(self, now: float) -> float:
        horizons = [w.deadline for w in self.workers.values() if w.entry is not None]
        # Only a backoff still running sets a horizon.  A ready entry left
        # queued after dispatch waits for a busy worker, whose reply or EOF
        # wakes the wait; counting its ``ready_at`` (0.0) would turn the
        # wait into a busy-poll competing with the workers for CPU.
        horizons.extend(entry.ready_at for entry in self.queue if entry.ready_at > now)
        if not horizons:
            return 0.05
        # Cap the sleep so replenish/dispatch stay live even when quiet.
        return min(max(min(horizons) - now, 0.0), 1.0)

    def _run_one_local(self, entry: _Pending) -> None:
        try:
            result = self.run_local(entry)
        except Exception as exc:
            entry.attempts += 1
            self._quarantine(entry, "error", f"{type(exc).__name__}: {exc}")
            return
        self.commit(entry, result)
        self.remaining -= 1

    def _run_local_entries(self) -> None:
        """Jobs whose payload cannot ship (ad-hoc builders) run here.

        Same quarantine-on-exception semantics as the degraded path: the
        sweep still completes, strict mode still raises.
        """
        if not self.local:
            return
        self.stats.workers_effective = max(self.stats.workers_effective, 1)
        for entry in self.local:
            self._run_one_local(entry)

    def _run_in_process(self) -> None:
        """Worker acquisition is unavailable or keeps failing: finish here.

        No crash/timeout supervision is possible in-process (a crash
        would be ours), so job exceptions quarantine directly — but the
        sweep still completes, committed jobs stay committed, and strict
        mode still raises.
        """
        self.stats.workers_effective = max(self.stats.workers_effective, 1)
        while self.queue:
            self._run_one_local(self.queue.popleft())

    def run(self) -> List[JobFailure]:
        from multiprocessing import connection as mp_connection

        try:
            self._run_local_entries()
            while self.remaining > 0:
                if self._degraded:
                    self._run_in_process()
                    break
                in_flight = sum(
                    1 for worker in self.workers.values() if worker.entry is not None
                )
                want = min(self.processes, len(self.queue) + in_flight)
                while self._live() < want and not self._degraded:
                    if not self._spawn():
                        break
                if self._degraded:
                    continue
                now = time.monotonic()
                self._dispatch(now)
                timeout = self._wait_timeout(time.monotonic())
                if self.workers:
                    ready = mp_connection.wait(list(self.workers), timeout=timeout)
                else:
                    time.sleep(timeout)
                    ready = []
                for conn in ready:
                    worker = self.workers.get(conn)
                    if worker is None:
                        continue
                    self._on_readable(worker)
                now = time.monotonic()
                for worker in list(self.workers.values()):
                    if worker.entry is not None and worker.deadline < now:
                        entry = worker.entry
                        worker.entry = None
                        self._reap(worker, kill=True)
                        self.stats.timeouts += 1
                        self._fail(
                            entry, "timeout",
                            f"exceeded {self.policy.timeout_for(entry.job.num_instructions):.1f}s "
                            f"wall clock; worker killed",
                        )
        finally:
            self._shutdown()
        return self.failures

    def _on_readable(self, worker: _Worker) -> None:
        entry = worker.entry
        try:
            message = worker.conn.recv()
        except (EOFError, OSError):
            worker.entry = None
            exitcode = worker.process.exitcode
            self._reap(worker, kill=False)
            if entry is not None:
                self._fail(entry, "crash", f"worker died (exit code {exitcode})")
            return
        worker.entry = None
        valid = (
            entry is not None
            and isinstance(message, tuple)
            and len(message) == 3
            and message[0] == entry.index
        )
        payload = message[1] if valid else None
        if valid and isinstance(payload, _JobError):
            self._fail(
                entry, "error", f"{payload.exc_type}: {payload.detail}",
                deterministic=payload.deterministic,
            )
            return
        if valid and isinstance(payload, RunResult):
            self.stats.job_s += message[2]
            worker.pool_worker.jobs_done += 1
            self.commit(entry, payload)
            self.remaining -= 1
            return
        # Garbage reply: the worker's state is not trustworthy anymore —
        # replace it, retry the job elsewhere.
        self._reap(worker, kill=True)
        if entry is not None:
            self._fail(entry, "garbage", f"unusable reply {type(payload).__name__}")


_FALLBACK_WARNED = False


def _warn_sequential_fallback(reason: str) -> None:
    """One warning per process when requested fan-out cannot happen."""
    global _FALLBACK_WARNED
    if not _FALLBACK_WARNED:
        _FALLBACK_WARNED = True
        warnings.warn(
            f"worker fan-out disabled: {reason}; executing jobs in-process "
            "(workers_effective records what actually ran)",
            RuntimeWarning,
            stacklevel=3,
        )


def execute(
    plan: RunPlan,
    workers: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    supervision: Optional[SupervisionPolicy] = None,
    on_result: Optional[Callable[[JobSpec, RunResult], None]] = None,
    on_progress: Optional[Callable[[int, int, ExecutionStats], None]] = None,
    store=None,
) -> PlanRun:
    """Execute ``plan`` and return its results in job order.

    Args:
        workers: fan the uncached jobs out over that many worker processes
            leased from the persistent pool under the supervised executor
            (order-preserving and result-identical to in-process
            execution; falls back to in-process execution — with a
            :class:`RuntimeWarning` naming the reason — without ``fork``).
            ``None``, 0 and 1 run in-process: unlike
            :func:`~repro.sim.runner.run_suite`, which defaults to every
            usable CPU, this call only fans out on request, so the service
            (``SweepManager``) stays sequential unless ``--workers`` is
            set.  Workers outlive this call and are reused by later
            sweeps, including concurrent ones from service threads (no
            fork lock).  A worker receives the job's trace source and
            synthesizes the trace itself.
        cache: result cache; ``None`` disables memoization.  A ``-dirty``
            or unknown simulator version bypasses a configured cache with a
            warning.  The cache is also the sweep's checkpoint: each job
            is committed to it the moment it finishes, so an interrupted
            sweep resumes from the committed jobs.
        supervision: retry/timeout/quarantine policy for the worker path
            (defaults to :class:`SupervisionPolicy`'s defaults; an active
            fault plan may override fields for testing).
        on_result: streaming-completion hook, called as each job's result
            becomes available (cache hit, store hit, in-flight adoption,
            or fresh simulation; completion order
            under workers is nondeterministic).
        on_progress: called as ``callback(done, total, stats)`` after
            every landed job and once more when the sweep finishes
            (defaults to the process-wide callback installed by
            :func:`set_default_progress`).
        store: a :class:`~repro.sim.store.ResultStore` consulted after a
            cache miss and fed every landed result (defaults to the
            :func:`use_store` context's store).  The same dirty/unknown
            version rule as the cache applies.  Jobs neither the cache
            nor the store can answer are deduplicated against identical
            jobs already in flight in other threads of this process.
    """
    stats = ExecutionStats(jobs=len(plan.jobs))
    version: Optional[str] = None
    active_cache = cache
    active_store = store if store is not None else _DEFAULT_STORE
    if active_cache is not None or active_store is not None:
        version = simulator_version()
        if version == "unknown" or version.endswith("-dirty"):
            _warn_cache_bypassed(version)
            active_cache = None
            active_store = None

    progress = on_progress if on_progress is not None else _DEFAULT_PROGRESS
    total = len(plan.jobs)
    done = 0

    def note_done() -> None:
        nonlocal done
        done += 1
        if progress is not None:
            progress(done, total, stats)

    traces: Dict[str, Trace] = {}

    def trace_for(name: str) -> Trace:
        """``plan.traces[name]``'s trace, built at most once per call."""
        trace = traces.get(name)
        if trace is None:
            trace = traces[name] = materialize(plan.traces[name])
        return trace

    core_digest = _core_config_digest(plan.core_config)
    results: List[Optional[RunResult]] = [None] * len(plan.jobs)

    # Address every job up front: the keys name the cache entries, the
    # store rows and the in-flight claims.  A catalog trace is keyed by its
    # signature, so only an opaque one is built here.  The metas carry the
    # digest provenance the store persists per row.
    keys: List[Optional[str]] = [None] * len(plan.jobs)
    metas: List[Optional[Dict[str, object]]] = [None] * len(plan.jobs)
    if active_cache is not None or active_store is not None:
        for index, job in enumerate(plan.jobs):
            builder_digest = plan.builders[job.builder].digest()
            if builder_digest is not None:
                trace_id = trace_key(plan.traces[job.trace], partial(trace_for, job.trace))
                keys[index] = _cache_key(
                    job, builder_digest, trace_id, core_digest, version
                )
                metas[index] = {
                    "builder_digest": builder_digest,
                    "trace_digest": trace_id,
                    "core_digest": core_digest,
                    "simulator_version": version,
                    "num_instructions": job.num_instructions,
                    "prewarm": job.prewarm,
                    "mode": job.mode,
                }

    def store_put(index: int, key: str, result: RunResult) -> None:
        if active_store is not None:
            active_store.put(key, result, meta=metas[index])

    def lookup(index: int, job: JobSpec, key: str) -> bool:
        """Answer one job from the cache, else the store; True on a hit."""
        hit = active_cache.get(key) if active_cache is not None else None
        if hit is not None:
            stats.cached += 1
            # The store converges on everything the cache knows.
            store_put(index, key, hit)
        else:
            hit = active_store.get(key) if active_store is not None else None
            if hit is None:
                return False
            stats.store_hits += 1
            if active_cache is not None:
                # Repair the faster tier so the next run is one open().
                active_cache.put(key, hit, meta=metas[index])
        hit.system = job.system
        results[index] = hit
        if on_result is not None:
            on_result(job, hit)
        note_done()
        return True

    pending = [
        (index, job, keys[index])
        for index, job in enumerate(plan.jobs)
        if keys[index] is None or not lookup(index, job, keys[index])
    ]

    # In-flight dedup: claim every addressable pending job.  Owned jobs
    # simulate here; a job another thread already claimed waits for that
    # thread's result instead of simulating it twice.
    claimed: set = set()
    owned: List[Tuple[int, JobSpec, Optional[str]]] = []
    waiting: List[Tuple[int, JobSpec, str, _InflightEntry]] = []
    failures: List[JobFailure] = []
    try:
        for index, job, key in pending:
            entry = _INFLIGHT.claim(key) if key is not None else None
            if entry is not None:
                waiting.append((index, job, key, entry))
                continue
            if key is not None:
                claimed.add(key)
                # Another thread may have committed the job (cache write,
                # then release of its claim) between the lookup above and
                # this claim: look again rather than simulate it twice.
                if lookup(index, job, key):
                    claimed.discard(key)
                    _INFLIGHT.resolve(key, _copy_result(results[index]))
                    continue
            owned.append((index, job, key))

        if pending:
            stats.simulated = len(owned)

            def commit(index: int, job: JobSpec, key: Optional[str],
                       result: RunResult) -> None:
                """Checkpoint one finished job the moment it completes."""
                results[index] = result
                if key is not None:
                    if active_cache is not None:
                        active_cache.put(key, result, meta=metas[index])
                    store_put(index, key, result)
                    if key in claimed:
                        # Hand waiters their own copy: results are mutable
                        # (labels get rewritten by adopting sweeps).
                        _INFLIGHT.resolve(key, _copy_result(result))
                        claimed.discard(key)
                if on_result is not None:
                    on_result(job, result)
                faults.on_commit()
                note_done()

            use_workers = workers is not None and workers > 1 and len(owned) > 1
            if use_workers and not hasattr(os, "fork"):
                _warn_sequential_fallback(
                    f"workers={workers} requested but the platform lacks os.fork"
                )
                use_workers = False

            if use_workers:
                policy = _effective_policy(supervision)
                entries = [
                    _Pending(index, job, key, seq)
                    for seq, (index, job, key) in enumerate(owned)
                ]
                # Jobs ship to the persistent pool as self-contained
                # payloads: a builder must carry a digest, and it and the
                # trace source must pickle by reference (registry specs
                # and catalog sources do — functools.partial of
                # module-level factories).  Anything else runs in-process.
                shippable: Dict[Tuple[str, str], bool] = {}

                def transportable(entry: _Pending) -> bool:
                    names = (entry.job.builder, entry.job.trace)
                    known = shippable.get(names)
                    if known is None:
                        builder = plan.builders[names[0]]
                        known = builder.digest() is not None
                        if known:
                            try:
                                pickle.dumps(
                                    (builder, plan.traces[names[1]]),
                                    pickle.HIGHEST_PROTOCOL,
                                )
                            except Exception:
                                known = False
                        shippable[names] = known
                    return known

                def payload_for(entry: _Pending) -> Dict[str, object]:
                    job = entry.job
                    return {
                        "index": entry.index,
                        "label": entry.label(),
                        # The supervisor matches worker-job faults and
                        # ships the action: pool workers run with no
                        # installed plan (they may predate it).
                        "action": faults.worker_job_action(
                            entry.label(), entry.seq, entry.attempts
                        ),
                        "job": job,
                        "builder": plan.builders[job.builder],
                        "source": plan.traces[job.trace],
                        "core_config": plan.core_config,
                    }

                def run_local(entry: _Pending) -> RunResult:
                    return _run_job(plan, entry.job, trace_for(entry.job.trace), stats)

                executor = _SupervisedExecutor(
                    entries,
                    stats,
                    policy,
                    lambda entry, result: commit(
                        entry.index, entry.job, entry.key, result
                    ),
                    processes=min(workers, len(owned)),
                    payload_for=payload_for,
                    run_local=run_local,
                    transportable=transportable,
                )
                failures = executor.run()
            elif owned:
                stats.workers_effective = max(stats.workers_effective, 1)
                for index, job, key in owned:
                    commit(index, job, key, _run_job(plan, job, trace_for(job.trace), stats))

            if waiting:
                # Quarantined owned jobs never committed: release their
                # claims now so a same-key waiter below (or in another
                # thread) falls back to simulating instead of timing out.
                for failure in failures:
                    failed_key = keys[failure.index]
                    if failed_key is not None and failed_key in claimed:
                        _INFLIGHT.abandon(failed_key)
                        claimed.discard(failed_key)
                policy = _effective_policy(supervision)
                for index, job, key, entry in waiting:
                    # Generous cap: the owner has the same per-job timeout
                    # budget plus retries.  Dedup is best-effort — on a
                    # timed-out or abandoned claim we simulate ourselves;
                    # every write path is idempotent.
                    cap = max(
                        60.0,
                        policy.timeout_for(job.num_instructions)
                        * (policy.max_retries + 2),
                    )
                    adopted = entry.result if entry.event.wait(cap) else None
                    if adopted is None:
                        stats.simulated += 1
                        stats.workers_effective = max(stats.workers_effective, 1)
                        commit(
                            index, job, key, _run_job(plan, job, trace_for(job.trace), stats)
                        )
                        continue
                    result = _copy_result(adopted)
                    result.system = job.system
                    stats.inflight_hits += 1
                    commit(index, job, key, result)
    finally:
        # Claims left over (exception mid-sweep, quarantined jobs with no
        # same-plan waiter) must wake cross-thread waiters.
        for key in list(claimed):
            _INFLIGHT.abandon(key)

    if progress is not None:
        progress(done, total, stats)
    for collector in _COLLECTORS:
        collector.add(stats)
    return PlanRun(results=results, stats=stats, failures=failures)


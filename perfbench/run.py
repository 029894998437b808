"""Paper-sweep benchmark: cold Fig. 4 and Fig. 6 sweeps plus a warm report.

Run from the repository root::

    python3 perfbench/run.py --workload fig4_cold --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py            # every workload, then the layer ledger

Each repetition is a fresh ``child.py`` process with its own cache
directory under ``.bench_work/`` and a pinned ``REPRO_SIM_VERSION`` (an
unpinned dirty tree would silently bypass the result cache).  The sweeps
run sequentially at the default size (15,000 instructions per trace,
3 traces per category), like the CLI defaults.  A run measures for
``--seconds`` and at least its workload's minimum repetition count
(``WORKLOADS``), so a run may last longer than ``--seconds``.

``--trace 0`` reports the end-to-end metrics (host time unless noted):

* ``wall_s`` — median seconds from the sweep / report call to its return;
* ``setup_s`` — median seconds from process spawn to that call
  (interpreter start, ``import repro``, building the specs), over several
  set-up-only spawns plus every repetition;
* ``peak_rss_mb`` — median peak resident memory of the measured process;
* ``cache_written_mb`` — median size of the run's cache directory after
  the timed call (for ``report_warm``: the filled cache it reads);
* ``ok_job_frac`` — jobs that simulated or loaded correctly, as a share
  of the jobs attempted (``1 - failed_job_frac``).

``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer ledger (``tracer.py``): host self time per layer, inclusive
simulation time, tracing overhead, and the deterministic work counters
and modelled-hardware counts (simulated, not host, quantities).

Every repetition passes a correctness gate: at the default seed each CSV
it produces must equal the committed ``results/`` byte for byte; at any
seed, cold outputs must equal a warm re-run's (``report_warm``: the
cold fill's).  Execution statistics are asserted (cold: everything
simulated, nothing cached or quarantined; warm: nothing simulated), and
every deterministic count must repeat exactly across the repetitions of
one invocation.  Any failure exits non-zero.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from child import DEFAULT_SEED, SWEEP_CSVS, TABLE2_CSV  # noqa: E402

#: Workload -> the sweeps of its timed call, the fewest repetitions a run
#: takes even past --seconds, and (report_warm) how its cache is filled.
#: This host's speed shifts by tens of percent in regimes lasting tens of
#: seconds, so every run spans at least ~20 s of measured work: two cold
#: sweeps, or forty sub-second warm reports.
WORKLOADS = {
    "fig4_cold": {"sweeps": ["fig4"], "min_reps": 2},
    "fig6_cold": {"sweeps": ["fig6"], "min_reps": 2},
    # Filled by two concurrent cold processes (untimed set-up), then
    # every repetition reads the same cache.
    "report_warm": {"sweeps": ["report"], "min_reps": 40, "fill": [["fig4", "fig5"], ["fig6"]]},
}

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cache_written_mb", "MB"),
    ("ok_job_frac", "frac"),
)

#: Per-layer ledger rows: (name, unit).
LAYERS = (
    ("cpu.core.self_s", "s"),
    ("cache.conventional.self_s", "s"),
    ("core.lnuca.self_s", "s"),
    ("dnuca.self_s", "s"),
    ("sim.simulate_s", "s"),
    ("trace.synth_s", "s"),
    ("trace.prepare_s", "s"),
    ("memsys.prewarm_s", "s"),
    ("sim.plan.self_s", "s"),
    ("sim.cache_s", "s"),
    ("sim.trace_pool_s", "s"),
    ("sim.snapshot_store_s", "s"),
    ("sim.schedstore_s", "s"),
    ("energy.s", "s"),
    ("experiments.self_s", "s"),
    ("sim.ns_per_cycle", "ns"),
    ("trace.overhead_s", "s"),
    ("sim.jobs", "count"),
    ("sim.simulated", "count"),
    ("sim.cached", "count"),
    ("sim.instructions", "count"),
    ("sim.cycles", "count"),
    ("memsys.calls", "count"),
    ("memsys.tick_calls", "count"),
    ("sim.tick_ratio", "ratio"),
    ("sim.snapshot_builds", "count"),
    ("sim.snapshot_clones", "count"),
    ("sim.snapshot_disk_hits", "count"),
    ("sim.snapshot_use_ratio", "ratio"),
    ("sim.pool_loads", "count"),
    ("sim.pool_saves", "count"),
    ("cpu.span.ff_cycles", "count"),
    ("cpu.span.replays", "count"),
    ("sim.sched_store_builds", "count"),
    ("sim.sched_store_hits", "count"),
    ("model.l1.read_hits", "count"),
    ("model.l1.read_misses", "count"),
    ("model.lnuca.search_waves", "count"),
    ("model.lnuca.tile_lookups", "count"),
    ("model.dnuca.bank_lookups", "count"),
    ("model.dnuca.mesh_messages", "count"),
    ("model.mem.reads", "count"),
    ("model.core.rob_full_stalls", "count"),
    ("model.core.fetch_stall_cycles", "count"),
)

#: Set-up-only spawns per run, on top of one set-up sample per repetition.
SETUP_SPAWNS = 6
#: A run must end well inside the 180 s a benchmark invocation may take.
RUN_BUDGET_S = 150.0
CHILD_TIMEOUT_S = 170.0
SIM_VERSION = "perfbench"


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a correctness failure)."""


class Run:
    """One invocation's scratch space, spawns and correctness record."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.sweeps = WORKLOADS[workload]["sweeps"]
        self.min_reps = WORKLOADS[workload]["min_reps"]
        self.started = time.monotonic()
        work = os.path.join(ROOT, ".bench_work")
        os.makedirs(work, exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix=f"{workload}-", dir=work)
        self.attempted = 0
        self.failed = 0
        self.errors = []
        #: The first repetition's deterministic counts, untraced and traced.
        self.first = {}
        self._serial = 0

    def path(self, name: str) -> str:
        self._serial += 1
        return os.path.join(self.dir, f"{self._serial:03d}-{name}")

    def env(self, cache: str) -> dict:
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env.update(
            PYTHONPATH=os.path.join(ROOT, "src"),
            PYTHONHASHSEED="0",
            REPRO_CACHE_DIR=cache,
            REPRO_SIM_VERSION=SIM_VERSION,
        )
        return env

    def spawn(self, sweeps=(), cache=None, csv_dir=None, warm_check=False,
              trace=None, wait=True):
        """Start one child; with ``wait`` return its record, else (proc, out)."""
        cache = cache or self.path("cache")
        out = self.path("out.json")
        cmd = [sys.executable, os.path.join(HERE, "child.py"), "--out", out,
               "--seed", str(self.seed), "--sweeps", ",".join(sweeps), "--cache", cache]
        if csv_dir:
            cmd += ["--csv-dir", csv_dir]
        if warm_check:
            cmd.append("--warm-check")
        if trace:
            cmd += ["--trace", trace]
        spawned = time.monotonic()
        proc = subprocess.Popen(
            cmd + ["--spawned-at", repr(spawned)], cwd=ROOT, env=self.env(cache),
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        if not wait:
            return proc, out
        return self.collect(proc, out)

    def collect(self, proc, out) -> dict:
        try:
            _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"{self.workload}: child timed out after {CHILD_TIMEOUT_S:.0f} s")
        except BaseException:
            proc.kill()
            proc.communicate()
            raise
        if proc.returncode != 0:
            raise BenchError(
                f"{self.workload}: child exited {proc.returncode}:\n{err[-3000:]}"
            )
        with open(out) as handle:
            return json.load(handle)

    def remaining(self) -> float:
        return RUN_BUDGET_S - (time.monotonic() - self.started)

    # ---------------------------------------------------------- correctness
    def check(self, record: dict, csv_dir: str, reference_dir: str, cold: bool) -> None:
        """Gate one repetition: outputs, execution stats, counts."""
        stats = record["stats"]
        jobs = stats["jobs"]
        self.attempted += jobs
        problems = []
        if cold and not (stats["simulated"] == jobs
                         and stats["cached"] == stats["quarantined"] == 0):
            problems.append(f"cold run stats {stats}")
        if not cold and not (stats["simulated"] == 0 and stats["cached"] == jobs):
            problems.append(f"warm run stats {stats}")
        if "warm_stats" in record:
            warm = record["warm_stats"]
            if not (warm["simulated"] == 0 and warm["cached"] == warm["jobs"] == jobs):
                problems.append(f"warm re-run stats {warm}")
        expected_dirs = [reference_dir]
        if self.seed == DEFAULT_SEED:
            expected_dirs.append(os.path.join(ROOT, "results"))
        for expected_dir in expected_dirs:
            for name in (f for sweep in self.sweeps for f in SWEEP_CSVS[sweep]):
                expected = os.path.join(expected_dir, name)
                actual = os.path.join(csv_dir, name)
                if not (os.path.exists(actual) and os.path.exists(expected)
                        and filecmp.cmp(expected, actual, shallow=False)):
                    problems.append(f"{name} differs from {expected}")
        for kind in ("counts", "traced_counts"):
            if kind not in record:
                continue
            first = self.first.setdefault(kind, record[kind])
            changed = sorted(k for k in first if first[k] != record[kind].get(k))
            if changed:
                problems.append(f"deterministic counts changed between repetitions: {changed}")
        if problems:
            # Outputs are compared per sweep, so a mismatch fails every job.
            self.failed += jobs
            self.errors += problems

    # ------------------------------------------------------------ repetitions
    def fill(self) -> tuple:
        """Untimed set-up of ``report_warm``: two cold lanes, one cache.

        Returns the cache and a directory holding the lanes' cold CSVs,
        the reference of the warm reports at any seed.
        """
        cache = self.path("cache")
        merged = self.path("fill-csv")
        os.makedirs(merged)
        lanes = []
        try:
            for sweeps in WORKLOADS[self.workload]["fill"]:
                csv_dir = self.path("lane-csv")
                proc, out = self.spawn(sweeps, cache=cache, csv_dir=csv_dir, wait=False)
                lanes.append((sweeps, csv_dir, proc, out))
            for sweeps, csv_dir, proc, out in lanes:
                self.collect(proc, out)
                for name in [f for sweep in sweeps for f in SWEEP_CSVS[sweep]] + [TABLE2_CSV]:
                    shutil.copyfile(os.path.join(csv_dir, name), os.path.join(merged, name))
        finally:
            for _, _, proc, _ in lanes:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        return cache, merged

    def repetition(self, cache, reference_dir, trace: bool) -> dict:
        cold = reference_dir is None
        csv_dir = self.path("csv")
        spans = None
        if trace:
            spans = os.path.join(ROOT, ".bench_work", "spans",
                                 f"{self.workload}-seed{self.seed}-{self._serial}.jsonl")
            os.makedirs(os.path.dirname(spans), exist_ok=True)
        rep_cache = cache or self.path("cache")
        record = self.spawn(self.sweeps, cache=rep_cache, csv_dir=csv_dir,
                            warm_check=cold, trace=spans)
        record["cache_written_mb"] = tree_bytes(rep_cache) / 1e6
        if cold:
            # The reference of a cold run is its own warm re-run.
            self.check(record, os.path.join(csv_dir, "warm"), csv_dir, cold=True)
            shutil.rmtree(rep_cache, ignore_errors=True)
        else:
            self.check(record, csv_dir, reference_dir, cold=False)
        record["spans"] = spans
        return record

    def measure(self, seconds: float, trace: bool) -> tuple:
        """Set-up samples plus repetitions; returns both.

        Repetitions continue until ``seconds`` have passed and, untraced,
        the workload's ``min_reps`` have run.  Traced runs take one
        (untraced, traced) pair or more, until ``seconds`` have passed.
        """
        self.spawn()  # untimed: compiles bytecode and warms the page cache
        # Set-up samples bracket the repetitions: the host's speed drifts
        # over seconds, and one burst would sample a single moment of it.
        half = 0 if trace else SETUP_SPAWNS // 2
        setups = [self.spawn()["setup_s"] for _ in range(half)]
        cache = reference = None
        if "fill" in WORKLOADS[self.workload]:
            cache, reference = self.fill()
        reps = []
        begun = time.monotonic()
        while True:
            start = time.monotonic()
            if trace:
                # A pair: the untraced twin gives the overhead baseline.
                pair = (self.repetition(cache, reference, trace=False),
                        self.repetition(cache, reference, trace=True))
                reps.append(pair)
            else:
                reps.append(self.repetition(cache, reference, trace=False))
            took = time.monotonic() - start
            elapsed = time.monotonic() - begun
            if self.remaining() < 1.5 * took:
                break
            if elapsed >= seconds and (trace or len(reps) >= self.min_reps):
                break
        setups += [self.spawn()["setup_s"] for _ in range(half)]
        return setups, reps

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def tree_bytes(path: str) -> int:
    total = 0
    for parent, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(parent, name)) for name in files)
    return total


def end_to_end(run: Run, setups, reps) -> dict:
    setups = setups + [rep["setup_s"] for rep in reps]
    ok = 1.0 - run.failed / run.attempted if run.attempted else 0.0
    values = {
        "wall_s": statistics.median(rep["wall_s"] for rep in reps),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
        "cache_written_mb": statistics.median(rep["cache_written_mb"] for rep in reps),
        "ok_job_frac": ok,
    }
    print(f"{run.workload} seed={run.seed}: {len(reps)} repetition(s), "
          f"{len(setups)} set-up sample(s)")
    walls = sorted(rep["wall_s"] for rep in reps)
    print(f"  wall_s samples: {', '.join(f'{w:.3f}' for w in walls)}")
    for name, unit in END_TO_END:
        print(f"  {name:<18} {values[name]:>12.4f} {unit}")
    print(f"  {'failed_job_frac':<18} {1.0 - ok:>12.4f} frac "
          f"({run.failed} of {run.attempted} jobs)")
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(run: Run, pairs) -> dict:
    traced = [twin for _, twin in pairs]
    missing = sorted({name for twin in traced for name in twin["trace_missing"]})
    if missing:
        print(f"warning: trace targets not found (their layers read 0): {missing}",
              file=sys.stderr)
    values = dict(run.first["counts"], **run.first["traced_counts"])
    values.update(
        (name, statistics.median(twin["layers"][name] for twin in traced))
        for name in traced[0]["layers"]
    )
    values["trace.overhead_s"] = statistics.median(t["wall_s"] - p["wall_s"] for p, t in pairs)
    simulated_cycles = values["sim.cycles"] if values["sim.simulated"] else 0
    values["sim.tick_ratio"] = (
        values["memsys.tick_calls"] / simulated_cycles if simulated_cycles else 0.0
    )
    builds = values["sim.snapshot_builds"]
    values["sim.snapshot_use_ratio"] = (
        (values["sim.snapshot_clones"] + values["sim.snapshot_disk_hits"]) / builds
        if builds else 0.0
    )
    print(f"{run.workload} seed={run.seed}: {len(pairs)} traced repetition(s); "
          f"spans in {os.path.relpath(traced[-1]['spans'], ROOT)}")
    return {name: {"value": values[name], "unit": unit} for name, unit in LAYERS}


def print_ledger(title: str, columns: dict) -> None:
    """One row per metric, one column per workload (print_comparison style)."""
    names = list(columns)
    print(f"\n{'=' * 70}\n{title}\n{'=' * 70}")
    print(f"  {'metric':<30} {'unit':<6}" + "".join(f" {n:>14}" for n in names))
    print(f"  {'-' * 30} {'-' * 6}" + f" {'-' * 14}" * len(names))
    rows = next(iter(columns.values()))
    for metric, cell in rows.items():
        line = f"  {metric:<30} {cell['unit']:<6}"
        for name in names:
            value = columns[name][metric]["value"]
            text = f"{value:.0f}" if cell["unit"] == "count" else f"{value:.4g}"
            line += f" {text:>14}"
        print(line)


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    run = Run(workload, seed)
    try:
        setups, reps = run.measure(seconds, trace)
        metrics = per_layer(run, reps) if trace else end_to_end(run, setups, reps)
    finally:
        run.close()
    for problem in run.errors:
        print(f"CORRECTNESS: {workload}: {problem}", file=sys.stderr)
    return {
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: all, then the layer ledger)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed, >= 0 ({DEFAULT_SEED}: the catalog specs)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measured time per run (at least one repetition)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run, per-layer metrics instead of end-to-end")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no program to benchmark under {ROOT}/src", file=sys.stderr)
        return 2

    try:
        if args.workload:
            result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
            if args.trace:
                print_ledger("per-layer ledger", {args.workload: result["metrics"]})
            print(json.dumps(result))
            return 0 if result["correct"] else 1
        results = {}
        for trace in (False, True):
            for workload in WORKLOADS:
                results[workload, trace] = run_one(workload, args.seed, args.seconds, trace)
        print_ledger("end-to-end", {w: results[w, False]["metrics"] for w in WORKLOADS})
        print_ledger("per-layer ledger", {w: results[w, True]["metrics"] for w in WORKLOADS})
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for (w, trace), r in results.items() if not trace
                        for m, v in r["metrics"].items()},
        }
        print(json.dumps(summary))
        return 0 if summary["correct"] else 1
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

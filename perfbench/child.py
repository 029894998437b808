"""One measured process of the paper-sweep benchmark.

``run.py`` spawns this script once per repetition, so every timed call
starts from a fresh interpreter: nothing warm survives from an earlier
repetition except what the cache directory it is handed holds.  It

1. imports the program and builds the sweep specs (``setup_s``, timed from
   the parent's spawn stamp);
2. runs the requested sweeps in one timed call (``wall_s``), with the
   result cache in ``--cache``, sequentially, exactly like the CLI
   defaults (no ``--workers``, no ``--store``);
3. writes the sweeps' CSV files with the program's own report writer and,
   with ``--warm-check``, re-runs the sweeps against the now-warm cache
   and writes those CSVs too, so the parent can diff cold against warm;
4. reports everything as one JSON document in ``--out``.

With ``--trace`` the layer tracer (``tracer.py``) is installed before the
timed call and the per-layer ledger is derived from its spans.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import sys
import time

#: The seed that runs the catalog specs unchanged (reproduces ``results/``).
DEFAULT_SEED = 0

#: Sweep name -> the CSV files its outputs are written to.
SWEEP_CSVS = {
    "fig4": ("fig4a_ipc.csv", "fig4b_energy.csv", "table3_hits.csv"),
    "fig5": ("fig5a_ipc.csv", "fig5b_energy.csv"),
    "fig6": ("fig6_scenarios.csv",),
}
#: Written next to every sweep's CSVs (Table II depends on no simulation).
TABLE2_CSV = "table2_area.csv"
SWEEP_CSVS["report"] = (TABLE2_CSV,) + tuple(f for files in SWEEP_CSVS.values() for f in files)

#: Activity / core-stat keys summed into the modelled-hardware counts.
MODEL_COUNTS = {
    "model.l1.read_hits": ("L1.read_hits", "L1-RT.read_hits"),
    "model.l1.read_misses": ("L1.read_misses", "L1-RT.read_misses"),
    "model.lnuca.search_waves": ("search_waves",),
    "model.lnuca.tile_lookups": ("tiles.search_lookups",),
    "model.dnuca.bank_lookups": ("DNUCA.bank_lookups",),
    "model.dnuca.mesh_messages": ("DNUCA.mesh.messages",),
    "model.mem.reads": ("MEM.reads",),
}
CORE_COUNTS = {
    "model.core.rob_full_stalls": "rob_full_stalls",
    "model.core.fetch_stall_cycles": "fetch_stall_cycles",
}

#: ExecutionStats field -> deterministic count name.
STAT_COUNTS = {
    "jobs": "sim.jobs",
    "simulated": "sim.simulated",
    "cached": "sim.cached",
    "snapshot_builds": "sim.snapshot_builds",
    "snapshot_clones": "sim.snapshot_clones",
    "snapshot_disk_hits": "sim.snapshot_disk_hits",
    "pool_loads": "sim.pool_loads",
    "pool_saves": "sim.pool_saves",
    "hier_fast_forwarded_cycles": "cpu.span.ff_cycles",
    "hier_schedule_replays": "cpu.span.replays",
    "sched_store_builds": "sim.sched_store_builds",
    "sched_store_hits": "sim.sched_store_hits",
}


def reseed(specs, seed: int):
    """The specs at benchmark ``seed``: unchanged at the default seed.

    Other seeds shift each spec's ``seed`` field with
    :func:`dataclasses.replace`, so the stock trace factories, trace pool
    and memo stay on the path (a custom factory would be opaque to them).
    """
    if seed == DEFAULT_SEED:
        return list(specs)
    return [dataclasses.replace(spec, seed=spec.seed + 1000 * seed) for spec in specs]


def install_seed(seed: int) -> None:
    """Route the experiments' spec selection through :func:`reseed`."""
    if seed == DEFAULT_SEED:
        return
    from repro.experiments import common, fig6_scenarios

    select, sweep = common.select_workloads, fig6_scenarios.default_sweep
    common.select_workloads = lambda *a, **k: reseed(select(*a, **k), seed)
    fig6_scenarios.default_sweep = lambda: reseed(sweep(), seed)


def build_specs() -> None:
    """Build every spec list a sweep draws from (part of set-up)."""
    from repro.experiments import common, fig6_scenarios

    common.select_workloads()
    fig6_scenarios.default_sweep()


def run_sweeps(sweeps, cache, csv_dir):
    """Run ``sweeps`` in order; return (parts for the CSV writer, results)."""
    from repro.experiments import (
        fig4_conventional, fig5_dnuca, fig6_scenarios, report, table3_hits,
    )

    parts, results = {}, []
    for sweep in sweeps:
        if sweep == "fig4":
            parts["fig4"] = fig4_conventional.run(cache=cache)
            parts["table3"] = table3_hits.run(results=parts["fig4"]["results"])
            results += parts["fig4"]["results"]
        elif sweep == "fig5":
            parts["fig5"] = fig5_dnuca.run(cache=cache)
            results += parts["fig5"]["results"]
        elif sweep == "fig6":
            parts["fig6"] = fig6_scenarios.run(cache=cache)
            results += parts["fig6"]["results"]
        elif sweep == "report":
            # The CLI's `report` path: simulate (or read), render, write
            # REPORT.md and every CSV.  Nothing is left for write_csvs.
            full = report.generate_report(cache=cache)
            os.makedirs(csv_dir, exist_ok=True)
            with open(os.path.join(csv_dir, "REPORT.md"), "w") as handle:
                handle.write(report.render_markdown(full))
            report.write_csv_files(full, csv_dir)
            results += [r for key in ("fig4", "fig5", "fig6") for r in full[key]["results"]]
        else:
            raise SystemExit(f"unknown sweep {sweep!r}")
    return parts, results


def write_csvs(parts, directory: str) -> None:
    """Write the sweeps' CSVs with the program's own report writer.

    Parts a sweep did not produce are stubbed empty; only the files of
    the sweeps actually run are ever compared.
    """
    if not parts:
        return
    from repro.experiments import report, table2_area

    full = {
        "table2": table2_area.run(),
        "fig4": {"ipc": {}, "energy": {}},
        "fig5": {"ipc": {}, "energy": {}},
        "fig6": {"systems": [], "ipc": {}},
        "table3": {},
    }
    full.update(parts)
    report.write_csv_files(full, directory)


def execution_summary(stats) -> dict:
    """The ExecutionStats fields the correctness gate asserts on."""
    return {"jobs": stats.jobs, "simulated": stats.simulated,
            "cached": stats.cached, "quarantined": stats.quarantined}


def deterministic_counts(stats, results) -> dict:
    counts = {name: getattr(stats, field, 0) for field, name in STAT_COUNTS.items()}
    counts["sim.quarantined"] = stats.quarantined
    counts["sim.instructions"] = int(sum(r.instructions for r in results))
    counts["sim.cycles"] = int(sum(r.cycles for r in results))
    for name, keys in MODEL_COUNTS.items():
        counts[name] = int(sum(r.activity.get(key, 0.0) for r in results for key in keys))
    for name, key in CORE_COUNTS.items():
        counts[name] = int(sum(r.core_stats.get(key, 0.0) for r in results))
    return counts


def layer_metrics(tracer, counts: dict) -> dict:
    """The per-layer host times and engine counters from one traced call."""
    from tracer import HIERARCHIES, MEMSYS_METHODS

    simulate_s = tracer.inclusive_s("sim.simulate")
    cycles = counts["sim.cycles"] if counts["sim.simulated"] else 0
    layers = {
        "cpu.core.self_s": tracer.self_s("sim.simulate"),
        "sim.simulate_s": simulate_s,
        "trace.synth_s": tracer.self_s("trace.synth"),
        "trace.prepare_s": tracer.self_s("trace.prepare"),
        "memsys.prewarm_s": tracer.self_s("memsys.prewarm"),
        "sim.plan.self_s": tracer.self_s("sim.execute", "sim.job"),
        "sim.cache_s": tracer.self_s("sim.cache"),
        "sim.trace_pool_s": tracer.self_s("sim.trace_pool"),
        "sim.snapshot_store_s": tracer.self_s("sim.snapshot_store"),
        "sim.schedstore_s": tracer.self_s("sim.schedstore"),
        "energy.s": tracer.self_s("energy"),
        "experiments.self_s": tracer.self_s("experiments"),
        "sim.ns_per_cycle": simulate_s * 1e9 / cycles if cycles else 0.0,
    }
    for _, _, layer in HIERARCHIES:
        layers[f"{layer}.self_s"] = tracer.self_s(
            *(f"{layer}.{method}" for method in MEMSYS_METHODS)
        )
    return layers


def traced_counts(tracer) -> dict:
    """Deterministic call counts only a traced run can see."""
    from tracer import HIERARCHIES

    return {
        "memsys.calls": tracer.call_count(),
        # Front-side ticks (scheduler and core), not backside ticks nested
        # inside another hierarchy's tick or finalize.
        "memsys.tick_calls": sum(
            tracer.call_count(name=f"{layer}.tick", parent="sim.simulate")
            for _, _, layer in HIERARCHIES
        ),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON result file")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent just before the spawn")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--sweeps", default="", help="comma-separated sweeps; empty: set-up only")
    parser.add_argument("--cache", help="result-cache directory")
    parser.add_argument("--csv-dir", help="where the sweeps' CSV files go")
    parser.add_argument("--warm-check", action="store_true",
                        help="re-run the sweeps warm afterwards (untimed) and write their CSVs")
    parser.add_argument("--trace", default=None, help="trace the timed call; spans go to this file")
    args = parser.parse_args(argv)

    from repro.sim.plan import ResultCache, collect_stats  # import cost is set-up

    install_seed(args.seed)
    build_specs()
    sweeps = [name for name in args.sweeps.split(",") if name]
    record = {}
    if sweeps:
        cache = ResultCache(args.cache)
        tracer = None
        call = run_sweeps
        if args.trace:
            sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
            from tracer import Tracer

            tracer = Tracer().install()
            call = tracer.span("experiments", run_sweeps)
        with collect_stats() as stats:
            start = time.monotonic()
            record["setup_s"] = start - args.spawned_at
            parts, results = call(sweeps, cache, args.csv_dir)
            record["wall_s"] = time.monotonic() - start
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        write_csvs(parts, args.csv_dir)
        record["stats"] = execution_summary(stats)
        record["counts"] = deterministic_counts(stats, results)
        if tracer is not None:
            record["layers"] = layer_metrics(tracer, record["counts"])
            record["traced_counts"] = traced_counts(tracer)
            record["trace_missing"] = tracer.missing
            tracer.write(args.trace)
        if args.warm_check:
            with collect_stats() as warm:
                warm_parts, _ = run_sweeps(sweeps, cache, os.path.join(args.csv_dir, "warm"))
            write_csvs(warm_parts, os.path.join(args.csv_dir, "warm"))
            record["warm_stats"] = execution_summary(warm)
    else:
        record["setup_s"] = time.monotonic() - args.spawned_at
    with open(args.out, "w") as handle:
        json.dump(record, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())

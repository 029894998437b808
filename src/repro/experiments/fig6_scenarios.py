"""Figure 6 (beyond the paper) — scenario sweep across all four hierarchies.

The paper evaluates its hierarchies on SPEC-like behaviour only; this
experiment drives one representative of each of the four system types
(conventional L1/L2/L3, L-NUCA + L3, D-NUCA, L-NUCA + D-NUCA) with the
scenario engine's new workload families — key-value serving, graph
traversal, stencil/dense linear algebra, GUPS random update, and
phase-alternating mixes — and reports per-scenario IPC plus the gain of
every organisation over the conventional baseline.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.experiments.common import DEFAULT_INSTRUCTIONS
from repro.scenarios import ScenarioSpec, build_trace, default_sweep
from repro.sim.configs import (
    BuilderSpec,
    conventional_spec,
    dnuca_spec,
    lnuca_dnuca_spec,
    lnuca_l3_spec,
)
from repro.sim.runner import RunResult, run_suite

BASELINE = "L2-256KB"


def scenario_builders() -> Dict[str, BuilderSpec]:
    """One representative of each of the paper's four hierarchy types."""
    return {
        "L2-256KB": conventional_spec(),
        "LN3-144KB": lnuca_l3_spec(3),
        "DN-4x8": dnuca_spec(),
        "LN3+DN-4x8": lnuca_dnuca_spec(3),
    }


def run(
    num_instructions: int = DEFAULT_INSTRUCTIONS,
    specs: Optional[Iterable[ScenarioSpec]] = None,
    workers: Optional[int] = None,
    traces: Optional[Dict[str, object]] = None,
    results: Optional[List[RunResult]] = None,
    cache=None,
    supervision=None,
) -> Dict[str, object]:
    """Sweep the scenarios over the four hierarchies.

    Returns a dictionary with:

    * ``"ipc"`` — ``{scenario: {system: ipc}}``;
    * ``"systems"`` — system names in sweep order (baseline first);
    * ``"results"`` — the raw per-run :class:`RunResult` list.

    ``traces`` may carry pre-loaded (captured/replayed) traces keyed by
    scenario name; every other trace is synthesized from its catalog
    signature where its job runs.  ``cache`` memoizes finished runs on
    disk.
    """
    builders = scenario_builders()
    specs = list(specs) if specs is not None else default_sweep()
    if results is None:
        results = run_suite(
            builders,
            specs,
            num_instructions,
            workers=workers,
            trace_factory=build_trace,
            traces=traces,
            cache=cache,
            supervision=supervision,
        )
    ipc: Dict[str, Dict[str, float]] = {}
    for result in results:
        ipc.setdefault(result.workload, {})[result.system] = result.ipc
    return {"ipc": ipc, "systems": list(builders), "results": results}


def format_rows(report: Dict[str, object]) -> List[str]:
    """Render the scenario sweep as printable table rows."""
    systems: List[str] = report["systems"]
    header = f"{'scenario':<18}" + "".join(f" {system:>12}" for system in systems)
    lines = [header + f"   {'best gain':>10}"]
    for scenario_name, by_system in report["ipc"].items():
        base = by_system.get(BASELINE, 0.0)
        cells = "".join(f" {by_system.get(system, 0.0):>12.3f}" for system in systems)
        others = [value for system, value in by_system.items() if system != BASELINE]
        gain = 100.0 * (max(others) / base - 1.0) if base and others else 0.0
        lines.append(f"{scenario_name:<18}{cells}   {gain:>+9.1f}%")
    return lines


def write_csv(report: Dict[str, object], path: str) -> str:
    """Write the per-scenario IPC table as a CSV file."""
    import csv

    systems: List[str] = report["systems"]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["scenario"] + systems)
        for scenario_name, by_system in report["ipc"].items():
            writer.writerow(
                [scenario_name] + [by_system.get(system, "") for system in systems]
            )
    return path


def main(
    num_instructions: int = DEFAULT_INSTRUCTIONS,
    specs: Optional[Iterable[ScenarioSpec]] = None,
    workers: Optional[int] = None,
    traces: Optional[Dict[str, object]] = None,
    cache=None,
    supervision=None,
) -> None:
    """Print the scenario sweep table."""
    report = run(
        num_instructions=num_instructions,
        specs=specs,
        workers=workers,
        traces=traces,
        cache=cache,
        supervision=supervision,
    )
    print("Figure 6 — scenario sweep IPC across the four hierarchy types")
    for line in format_rows(report):
        print("  " + line)


if __name__ == "__main__":
    main()

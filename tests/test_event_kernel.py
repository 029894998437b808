"""Dense vs. event-driven scheduler equivalence.

The event-driven kernel (``repro.sim.runner.simulate`` with
``mode="event"``) must be a pure speedup: for every hierarchy the paper
evaluates it has to produce **bit-identical** results to the dense
lock-step loop — same cycle counts, same IPC, same activity counters
(which feed the energy model), and same core statistics (including the
per-cycle stall counters re-applied in bulk for skipped spans).
"""

from __future__ import annotations

import os

import pytest

from repro.sim.configs import (
    build_conventional_hierarchy,
    build_dnuca_hierarchy,
    build_lnuca_dnuca_hierarchy,
    build_lnuca_l3_hierarchy,
)
from repro.sim.runner import run_suite, run_workload, simulate
from repro.cpu.core import OoOCore
from repro.cpu.isa import Instruction, InstrClass
from repro.cpu.trace import Trace
from repro.cpu.workloads import workload_by_name
from repro.scenarios import build_trace, scenario

_N = 2500

#: One builder per hierarchy family of the paper (Fig. 1(a)-(d)).
SYSTEMS = {
    "conventional": build_conventional_hierarchy,
    "lnuca+l3": lambda: build_lnuca_l3_hierarchy(3),
    "dnuca": build_dnuca_hierarchy,
    "lnuca+dnuca": lambda: build_lnuca_dnuca_hierarchy(2),
}

#: Workload mix: regular int, pointer-chasing (long serialized misses,
#: exercising deep skips), and streaming fp (write/stream traffic).
WORKLOADS = ["perlbench-like", "mcf-like", "bwaves-like"]


def _assert_identical(dense, event, context: str) -> None:
    assert dense.cycles == event.cycles, f"{context}: cycle count diverged"
    assert dense.ipc == event.ipc, f"{context}: IPC diverged"
    assert dense.instructions == event.instructions, context
    assert dense.activity == event.activity, f"{context}: activity counters diverged"
    assert dense.core_stats == event.core_stats, f"{context}: core stats diverged"


class TestDenseEventEquivalence:
    @pytest.mark.parametrize("system", sorted(SYSTEMS))
    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_warm_runs_bit_identical(self, system, workload):
        spec = workload_by_name(workload)
        dense = run_workload(SYSTEMS[system], spec, _N, mode="dense")
        event = run_workload(SYSTEMS[system], spec, _N, mode="event")
        _assert_identical(dense, event, f"{system}/{workload} (warm)")

    @pytest.mark.parametrize("system", sorted(SYSTEMS))
    def test_cold_runs_bit_identical(self, system):
        # Cold runs maximise long idle miss spans, the regime in which the
        # event kernel skips the most cycles.
        spec = workload_by_name("mcf-like")
        dense = run_workload(SYSTEMS[system], spec, _N, prewarm=False, mode="dense")
        event = run_workload(SYSTEMS[system], spec, _N, prewarm=False, mode="event")
        _assert_identical(dense, event, f"{system}/mcf-like (cold)")

    def test_event_mode_is_default(self):
        spec = workload_by_name("perlbench-like")
        default = run_workload(build_conventional_hierarchy, spec, _N)
        dense = run_workload(build_conventional_hierarchy, spec, _N, mode="dense")
        _assert_identical(dense, default, "default mode")

    def test_unknown_mode_rejected(self):
        spec = workload_by_name("perlbench-like")
        with pytest.raises(ValueError):
            run_workload(build_conventional_hierarchy, spec, 200, mode="turbo")


class TestSuiteParallelism:
    @pytest.mark.skipif(not hasattr(os, "fork"), reason="requires fork")
    def test_workers_match_sequential(self):
        specs = [workload_by_name("perlbench-like"), workload_by_name("bwaves-like")]
        builders = {
            "conventional": build_conventional_hierarchy,
            "lnuca+l3": lambda: build_lnuca_l3_hierarchy(2),
        }
        sequential = run_suite(builders, specs, 1200)
        parallel = run_suite(builders, specs, 1200, workers=2)
        assert len(sequential) == len(parallel)
        for seq, par in zip(sequential, parallel):
            assert seq.system == par.system and seq.workload == par.workload
            _assert_identical(seq, par, f"workers {seq.system}/{seq.workload}")


class TestNextEventContract:
    def test_idle_hierarchy_reports_no_event(self):
        system = build_conventional_hierarchy()
        assert system.next_event_cycle(0) is None

    def test_busy_hierarchy_defers_drains_without_tick_wakeups(self):
        # The conventional hierarchy never requests tick wakeups: buffered
        # writes are deferred and replayed at their exact dense-mode fire
        # cycles the moment anything observes the hierarchy.
        from repro.cache.request import AccessType

        dense = build_conventional_hierarchy()
        lazy = build_conventional_hierarchy()
        dense.issue(0x1000, AccessType.STORE, 0)  # write-through L1 -> buffered
        lazy.issue(0x1000, AccessType.STORE, 0)
        assert lazy.busy()
        assert lazy.next_event_cycle(0) is None
        for cycle in range(40):
            dense.tick(cycle)
        # One late observation must replay the same drains bit-identically.
        lazy.tick(39)
        assert lazy.activity() == dense.activity()
        assert not lazy.busy() and not dense.busy()

    def test_lnuca_wave_pins_event(self):
        from helpers import make_small_lnuca
        from repro.cache.request import AccessType

        lnuca = make_small_lnuca(3)
        lnuca.issue(0x8000, AccessType.LOAD, 0)  # r-tile miss -> search wave
        event = lnuca.next_event_cycle(0)
        assert event is not None
        # The wave probes one level per cycle, but the intermediate steps
        # are burst-replayed (`_catch_up_waves`), so the scheduler leaps
        # straight to the wave's decisive cycle — and never past it.
        decisive = min(lnuca._wave_decisive_cycle(w) for w in lnuca._waves)
        assert event == decisive
        # The skipped steps really are replayed: a tick at the decisive
        # cycle must observe the same probe/broadcast activity as a
        # hierarchy ticked densely up to that point.
        dense = make_small_lnuca(3)
        dense.issue(0x8000, AccessType.LOAD, 0)
        for cycle in range(event + 1):
            dense.tick(cycle)
        lnuca.tick(event)
        assert lnuca.activity() == dense.activity()

    #: Search-wave workloads: one global miss, two overlapping misses, and
    #: a load of the oldest prewarmed block still held in a fabric tile
    #: (its wave hits part-way out instead of running to the leaves).
    WAVE_PATTERNS = ["single-miss", "overlapping-misses", "fabric-hit"]

    @pytest.mark.parametrize("levels", [2, 3, 4])
    @pytest.mark.parametrize("pattern", WAVE_PATTERNS)
    def test_wave_leaps_replay_dense_ticks(self, levels, pattern):
        from helpers import make_small_lnuca
        from repro.cache.request import AccessType
        from repro.core.lnuca import ROOT

        dense = make_small_lnuca(levels)
        lazy = make_small_lnuca(levels)
        warm = [index * 128 for index in range(600)] if pattern == "fabric-hit" else []
        for system in (dense, lazy):
            system.prewarm(warm)
        if pattern == "fabric-hit":
            addrs = [next(
                addr for addr in warm
                if lazy.find_block(lazy.rtile.block_addr(addr)) not in ([], [ROOT])
            )]
        elif pattern == "overlapping-misses":
            addrs = [0x800000, 0x900080]
        else:
            addrs = [0x800000]
        for system in (dense, lazy):
            for addr in addrs:
                system.issue(addr, AccessType.LOAD, 0)
        # Walk the lazy copy from event to event, ticking the dense copy
        # through every cycle in between: each observation must agree.
        cycle, ticked, leaps = 0, -1, 0
        while True:
            event = lazy.next_event_cycle(cycle)
            if event is None:
                break
            assert event > cycle
            leaps += event > cycle + 1
            for step in range(ticked + 1, event + 1):
                dense.tick(step)
            ticked = cycle = event
            lazy.tick(event)
            assert lazy.activity() == dense.activity(), f"diverged at cycle {event}"
            assert cycle < 2000, "wave never retired"
        assert leaps >= 1, "the scheduler never leapt — the test is vacuous"
        assert not lazy.busy() and not dense.busy()
        misses = lazy.activity().get("global_misses", 0.0)
        assert misses == (0.0 if pattern == "fabric-hit" else float(len(addrs)))


#: A resident block (prewarmed) and a far block that cold-misses to
#: main memory, keeping an L1 MSHR entry live for ~a hundred cycles.
RESIDENT = 64
FAR = 1 << 20


def _streak_groups(groups: int) -> list:
    """``groups`` fetch groups of [LOAD(resident), ALU, ALU, ALU]."""
    instrs = []
    for _ in range(groups):
        instrs.append(Instruction(InstrClass.LOAD, addr=RESIDENT))
        instrs.extend(Instruction(InstrClass.INT_ALU) for _ in range(3))
    return instrs


def _run_trace(trace: Trace, mode: str, warm=None, builder=build_conventional_hierarchy):
    hierarchy = builder()
    hierarchy.prewarm(trace.resident_addresses() if warm is None else warm)
    core = OoOCore(trace, hierarchy)
    simulate(core, mode=mode)
    return core, hierarchy


def _assert_trace_identical(trace: Trace, warm=None, builder=build_conventional_hierarchy):
    dense, dense_h = _run_trace(trace, "dense", warm, builder)
    event, event_h = _run_trace(trace, "event", warm, builder)
    assert event.cycle == dense.cycle
    assert event.stats.as_dict() == dense.stats.as_dict()
    assert event_h.activity() == dense_h.activity()
    return dense, dense_h


class TestInstructionBoundBatches:
    """Hand-built hit streaks and ALU-heavy runs: the batched kernel's home turf."""

    @pytest.mark.parametrize("groups", [50, 200, 256, 400])
    def test_hand_decoded_steady_state(self, groups):
        # Hand-decoded schedule: one fetch group per cycle (fetch width 4,
        # all four slots filled), whose single load hits the warm L1 and
        # whose three ALU ops issue independently — so the machine retires
        # one group per cycle in steady state, plus a 3-cycle constant
        # (fetch->issue->complete of the last group before its commit).
        trace = Trace(f"hit-streak-{groups}", "int", _streak_groups(groups))
        dense, _ = _assert_trace_identical(trace)
        assert dense.cycle == groups + 3

    @pytest.mark.parametrize("system", sorted(SYSTEMS))
    @pytest.mark.parametrize("groups", [50, 400])
    def test_streak_bit_identical_on_every_hierarchy(self, system, groups):
        trace = Trace(f"hit-streak-{groups}", "int", _streak_groups(groups))
        dense, _ = _assert_trace_identical(trace, builder=SYSTEMS[system])
        # Every hierarchy's first level answers the warm streak the same
        # way, so the conventional closed form holds throughout.
        assert dense.cycle == groups + 3

    @staticmethod
    def _mshr_live_trace(re_access: bool) -> Trace:
        # A cold miss to FAR allocates an L1 MSHR entry whose fill is a
        # hundred-odd cycles out; the RESIDENT streak behind it is pure
        # L1 hits.  With ``re_access`` a second load to FAR lands in the
        # middle of the streak and merges into the live entry.
        instrs = [Instruction(InstrClass.LOAD, addr=FAR)]
        instrs.extend(Instruction(InstrClass.INT_ALU) for _ in range(3))
        instrs.extend(_streak_groups(30))
        if re_access:
            instrs.append(Instruction(InstrClass.LOAD, addr=FAR))
        instrs.extend(_streak_groups(30))
        return Trace(f"mshr-live-{re_access}", "int", instrs)

    def test_streak_behind_outstanding_miss_bit_identical(self):
        _assert_trace_identical(self._mshr_live_trace(False), warm=[RESIDENT])

    @pytest.mark.parametrize("system", sorted(SYSTEMS))
    @pytest.mark.parametrize("re_access", [False, True], ids=["streak", "merge"])
    def test_live_mshr_streak_on_every_hierarchy(self, system, re_access):
        _assert_trace_identical(
            self._mshr_live_trace(re_access), warm=[RESIDENT], builder=SYSTEMS[system]
        )

    def test_secondary_merge_bit_identical(self):
        _, dense_h = _assert_trace_identical(self._mshr_live_trace(True), warm=[RESIDENT])
        # The re-access really did merge into the live entry.
        assert dense_h.activity().get("secondary_miss_merges", 0.0) == 1.0

    @pytest.mark.parametrize("system", sorted(SYSTEMS))
    @pytest.mark.parametrize("prewarm", [True, False], ids=["warm", "cold"])
    def test_alu_scenario_bit_identical(self, system, prewarm):
        spec = scenario("fma-unroll")
        trace = build_trace(spec, 4000)
        dense = run_workload(
            SYSTEMS[system], spec, 4000, trace=trace, prewarm=prewarm, mode="dense"
        )
        event = run_workload(
            SYSTEMS[system], spec, 4000, trace=trace, prewarm=prewarm, mode="event"
        )
        _assert_identical(dense, event, f"{system}/fma-unroll")

    @staticmethod
    def _window_filling_chain() -> Trace:
        # Independent fillers, then a serial ``dep1=1`` chain that fills
        # the integer window, one of whose members also depends 16 back on
        # a long-committed filler, then more fillers.
        instrs = [Instruction(InstrClass.INT_ALU) for _ in range(64)]
        for depth in range(120):
            instrs.append(
                Instruction(InstrClass.INT_ALU, dep1=1, dep2=16 if depth == 14 else 0)
            )
        instrs.extend(Instruction(InstrClass.INT_ALU) for _ in range(600))
        return Trace("window-filling-chain", "int", instrs)

    def test_window_filling_chain_bit_identical(self):
        _assert_trace_identical(self._window_filling_chain())

    @pytest.mark.parametrize("system", ["dnuca", "lnuca+dnuca", "lnuca+l3"])
    def test_window_filling_chain_on_nuca_hierarchies(self, system):
        _assert_trace_identical(self._window_filling_chain(), builder=SYSTEMS[system])

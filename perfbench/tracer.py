"""Layer tracer for the paper-sweep benchmark.

The program carries no instrumentation of its own: :meth:`Tracer.install` wraps
the public entry points of each layer from the outside (class methods and
module globals are replaced for the life of the traced process) and
records, in memory,

* a span per call at the coarse, per-job boundaries (sweep, plan
  execution, one job, simulation, prewarm, trace synthesis and
  preparation, every storage tier, energy accounting): name, start, end,
  parent span and job id;
* for the per-cycle ``MemorySystem`` calls, only a count and a total /
  self time in ns per ``(parent, name)`` pair — one span per call would
  cost more than the calls themselves.

Every wrapper keeps a child-time accumulator on a shared stack, so a
frame's *self* time is its duration minus whatever wrapped calls ran
inside it (a backside L3 tick inside an L-NUCA tick is charged to the L3,
not to the L-NUCA).  Host time only: simulated cycles never pass through
here.  Single-threaded by design, like the sweeps it traces.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from typing import Callable, Dict, List, Optional, Tuple

#: ``MemorySystem`` methods traced per call, per hierarchy class.
MEMSYS_METHODS = ("can_accept", "issue", "tick", "next_event_cycle", "span_window", "finalize")

#: Hierarchy class -> layer prefix of its per-call aggregates.
HIERARCHIES = (
    ("repro.cache.hierarchy", "ConventionalHierarchy", "cache.conventional"),
    ("repro.core.lnuca", "LightNUCA", "core.lnuca"),
    ("repro.dnuca.system", "DNUCASystem", "dnuca"),
)

#: Coarse span targets: (module, class or None, attribute, span name).
SPAN_TARGETS = (
    ("repro.sim.plan", None, "execute", "sim.execute"),
    ("repro.sim.plan", None, "_run_job", "sim.job"),
    ("repro.sim.plan", None, "simulate", "sim.simulate"),
    ("repro.sim.runner", None, "simulate", "sim.simulate"),
    ("repro.sim.plan", "TraceSource", "build", "trace.synth"),
    ("repro.cpu.trace", "Trace", "decoded", "trace.prepare"),
    ("repro.cpu.trace", "Trace", "resident_addresses", "trace.prepare"),
    ("repro.sim.plan", None, "trace_digest", "trace.prepare"),
    ("repro.cache.hierarchy", "ConventionalHierarchy", "prewarm", "memsys.prewarm"),
    ("repro.core.lnuca", "LightNUCA", "prewarm", "memsys.prewarm"),
    ("repro.dnuca.system", "DNUCASystem", "prewarm", "memsys.prewarm"),
    ("repro.sim.plan", "ResultCache", "get", "sim.cache"),
    ("repro.sim.plan", "ResultCache", "put", "sim.cache"),
    ("repro.sim.plan", "SweepJournal", "for_plan", "sim.cache"),
    ("repro.sim.plan", "SweepJournal", "load", "sim.cache"),
    ("repro.sim.plan", "SweepJournal", "append", "sim.cache"),
    ("repro.sim.plan", "SweepJournal", "close", "sim.cache"),
    ("repro.sim.plan", "SweepJournal", "delete", "sim.cache"),
    ("repro.sim.plan", "TracePool", "fetch", "sim.trace_pool"),
    ("repro.sim.plan", "TracePool", "ensure", "sim.trace_pool"),
    ("repro.sim.plan", "SnapshotStore", "get", "sim.snapshot_store"),
    ("repro.sim.plan", "SnapshotStore", "put", "sim.snapshot_store"),
    ("repro.sim.schedstore", "ScheduleStore", "load", "sim.schedstore"),
    ("repro.sim.schedstore", "ScheduleStore", "store", "sim.schedstore"),
    ("repro.experiments.common", None, "build_accountant", "energy"),
    ("repro.energy.accounting", "EnergyAccountant", "evaluate", "energy"),
)


def _job_label(args) -> str:
    """Job id of a ``plan._run_job(plan, job, ...)`` call."""
    return f"{args[1].system}/{args[1].trace}"


class Tracer:
    """In-memory spans plus per-(parent, name) call aggregates."""

    def __init__(self) -> None:
        # A frame is [name, child_ns, span_id, job]; the root never pops.
        self.stack: List[list] = [["<root>", 0, None, None]]
        self.spans: List[Optional[tuple]] = []
        self.calls: Dict[Tuple[str, str], List[int]] = {}
        self.missing: List[str] = []

    # -------------------------------------------------------------- wrappers
    def span(self, name: str, fn: Callable, job_of=None) -> Callable:
        """Wrap ``fn`` so each call records one span (``job_of(args)``: its job id)."""
        stack, spans, clock = self.stack, self.spans, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            job = job_of(args) if job_of is not None else parent[3]
            frame = [name, 0, len(spans), job]
            spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                parent[1] += end - start
                spans[frame[2]] = (frame[2], parent[2], name, job, start, end,
                                   end - start - frame[1])

        return wrapper

    def _aggregate(self, name: str, fn: Callable) -> Callable:
        stack, calls, clock = self.stack, self.calls, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0, parent[2], parent[3]]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[1] += elapsed
                key = (parent[0], name)
                record = calls.get(key)
                if record is None:
                    record = calls[key] = [0, 0, 0]
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - frame[1]

        return wrapper

    # --------------------------------------------------------------- patching
    def _patch(self, module: str, owner: Optional[str], attr: str,
               make: Callable[[Callable], Callable]) -> None:
        label = f"{module}.{owner + '.' if owner else ''}{attr}"
        try:
            target = importlib.import_module(module)
            if owner is not None:
                target = getattr(target, owner)
            raw = inspect.getattr_static(target, attr)
        except (ImportError, AttributeError):
            # A refactor moved or deleted the entry point: its layer then
            # reads zero, and the miss is reported rather than fatal.
            self.missing.append(label)
            return
        if isinstance(raw, classmethod):
            setattr(target, attr, classmethod(make(raw.__func__)))
        else:
            setattr(target, attr, make(raw))

    def install(self) -> "Tracer":
        """Wrap every target for the rest of this (throwaway) process."""
        for module, owner, attr, name in SPAN_TARGETS:
            job_of = _job_label if name == "sim.job" else None
            self._patch(module, owner, attr,
                        lambda fn, name=name, job_of=job_of: self.span(name, fn, job_of))
        for module, owner, layer in HIERARCHIES:
            for method in MEMSYS_METHODS:
                self._patch(module, owner, method,
                            lambda fn, name=f"{layer}.{method}": self._aggregate(name, fn))
        return self

    # ---------------------------------------------------------------- results
    def self_s(self, *names: str) -> float:
        """Self time in seconds of every span or call named in ``names``."""
        wanted = set(names)
        total = sum(span[6] for span in self.spans if span is not None and span[2] in wanted)
        total += sum(record[2] for (_, name), record in self.calls.items() if name in wanted)
        return total / 1e9

    def inclusive_s(self, name: str) -> float:
        """Summed duration of the spans called ``name`` (never nested)."""
        return sum(span[5] - span[4] for span in self.spans
                   if span is not None and span[2] == name) / 1e9

    def call_count(self, name: Optional[str] = None, parent: Optional[str] = None) -> int:
        """Aggregated per-call count, optionally of one name / one caller."""
        return sum(
            record[0]
            for (caller, callee), record in self.calls.items()
            if (name is None or callee == name) and (parent is None or caller == parent)
        )

    def write(self, path: str) -> None:
        """Dump spans and call aggregates as JSON lines."""
        with open(path, "w") as handle:
            for span in self.spans:
                if span is None:
                    continue
                span_id, parent, name, job, start, end, self_ns = span
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name, "job": job,
                    "start_ns": start, "end_ns": end, "self_ns": self_ns,
                }) + "\n")
            for (caller, callee), (count, total, self_ns) in sorted(self.calls.items()):
                handle.write(json.dumps({
                    "parent": caller, "name": callee, "count": count,
                    "total_ns": total, "self_ns": self_ns,
                }) + "\n")

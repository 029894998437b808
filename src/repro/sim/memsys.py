"""Abstract interface between the core model and a memory hierarchy.

Every hierarchy the paper evaluates (conventional three-level, L-NUCA + L3,
D-NUCA, L-NUCA + D-NUCA) implements this interface, so the out-of-order core
and the experiment harness are completely agnostic of which hierarchy they
drive.

Cycle semantics
===============

The contract has a *dense* face and an *event-driven* face; both must
describe the same machine.

Dense face (what :meth:`tick` means):

* the core calls :meth:`can_accept` and, if true, :meth:`issue` during its
  execute stage;
* the system simulates forward when :meth:`tick` is called once per cycle
  (after the core's tick for that cycle);
* a request is finished when its ``complete_cycle`` is set and is in the
  past.

Event-driven face (when :meth:`tick` may be skipped):

* :meth:`next_event_cycle` returns the earliest cycle strictly after
  ``cycle`` at which a call to :meth:`tick` could change any state *or
  statistics counter* that the rest of the simulation can observe, or
  ``None`` when no tick wakeup is required;
* the scheduler is then allowed to skip every cycle in
  ``(cycle, next_event_cycle(cycle))`` exclusive — implementations must
  guarantee that a dense simulation calling :meth:`tick` on those skipped
  cycles would have been unobservable (no request completed, no
  back-pressure changed, no divergent counter);
* returning a cycle that is *earlier* than the next real event is always
  safe (the extra tick is a no-op, exactly as in a dense run); suppressing
  a wakeup is only legal under the **deferred-drain exemption** below —
  anything else later than a real event is a correctness bug, because the
  event-driven run must be bit-identical to the dense run, not merely
  statistically close;
* after every :meth:`issue` / :meth:`post_write` / :meth:`tick`, the caller
  must re-query :meth:`next_event_cycle`, because new work (search waves,
  pending fills, buffered writes) may have created earlier events.

Deferred-drain exemption (burst drains)
=======================================

Background work whose schedule is *fully determined* by already-committed
state — write-buffer drains pacing a fixed port interval, corner-eviction
pops, anything whose fire cycles can be computed arithmetically — may be
**deferred** instead of woken for: the hierarchy omits it from
:meth:`next_event_cycle` and instead burst-replays the missed span (for
example via :meth:`~repro.cache.writebuffer.WriteBuffer.drain_until`),
applying each action at the exact cycle a dense run would have used,
*before* anything can observe the hierarchy.  "Before anything can
observe" concretely means a catch-up runs at the top of
:meth:`can_accept`, :meth:`post_write`, :meth:`tick` and :meth:`finalize`;
:meth:`issue` deliberately does **not** catch up, because every
core-driven issue is preceded by a same-cycle :meth:`can_accept` while
backside issues from an L-NUCA carry a future stamp and must observe
pre-drain state, exactly matching dense intra-cycle call order (front-side
issues first, hierarchy drains after).  Under this exemption a hierarchy
with only deterministic drain work left reports ``None`` and the scheduler
skips it entirely; the results remain bit-identical because the replay
uses the dense fire cycles and the dense ordering (within a cycle:
buffer drain before corner pop, levels front to back).

The default :meth:`next_event_cycle` is maximally conservative: one cycle
ahead whenever :meth:`busy` reports pending work.  Subclasses that model
multi-cycle waits (memory channels, search waves, drain intervals) should
override it to expose the true next event — or defer the work outright
under the exemption — so the scheduler can leap over the idle span.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Optional

from repro.cache.request import AccessType, MemoryRequest
from repro.common.errors import SimulationError
from repro.sim.stats import Stats

#: Finalize refuses to chase pending work further than this many cycles
#: past the end of a run; a hierarchy that has not drained by then is
#: wedged, and truncating its statistics would silently corrupt results.
FINALIZE_GUARD_CYCLES = 1_000_000


class MemorySystem(ABC):
    """A cycle-level memory hierarchy the core can issue requests into."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.stats = Stats(name)

    @abstractmethod
    def can_accept(self, cycle: int, access: AccessType) -> bool:
        """Return True if a new request of kind ``access`` can be issued now."""

    @abstractmethod
    def issue(self, addr: int, access: AccessType, cycle: int) -> MemoryRequest:
        """Issue a request and return its handle.

        Implementations may complete the request immediately (setting
        ``complete_cycle``) or leave it outstanding until a later
        :meth:`tick`.
        """

    @abstractmethod
    def tick(self, cycle: int) -> None:
        """Advance internal state by one cycle.

        Under the event-driven kernel this is *not* called every cycle: the
        scheduler only guarantees calls at the cycles exposed through
        :meth:`next_event_cycle` (plus any extra cycles other components are
        active on, which must be no-ops for this hierarchy).
        """

    def next_event_cycle(self, cycle: int) -> Optional[int]:
        """Earliest cycle ``> cycle`` at which :meth:`tick` can do work.

        Returns ``None`` when the hierarchy is inert until the next request
        enters it.  See the module docstring for the exact guarantee.  The
        conservative default never skips while :meth:`busy`.
        """
        return cycle + 1 if self.busy() else None

    def busy(self) -> bool:
        """Return True while the hierarchy still has internal work pending."""
        return False

    def finalize(self, cycle: int) -> int:
        """Drain pending work at the end of a run, skipping idle cycles.

        Ticks only at the cycles :meth:`next_event_cycle` exposes, so
        finalization costs one iteration per pending event rather than one
        per idle cycle.  Returns the cycle the drain finished at so
        subclasses can chain their own cleanup (e.g. a backside).  A
        hierarchy that is not :meth:`busy` returns immediately.

        Raises:
            SimulationError: when the hierarchy is still :meth:`busy` after
                :data:`FINALIZE_GUARD_CYCLES` cycles.  A wedged hierarchy
                must abort loudly — returning would hand the experiment
                truncated-but-plausible statistics.
        """
        guard = cycle
        limit = cycle + FINALIZE_GUARD_CYCLES
        while self.busy() and guard < limit:
            self.tick(guard)
            nxt = self.next_event_cycle(guard)
            guard = nxt if nxt is not None and nxt > guard else guard + 1
        if self.busy():
            raise self.wedged_error(cycle)
        return guard

    def wedged_error(self, cycle: int) -> SimulationError:
        """The wedged-finalize error, shared by every finalize override.

        Building the error in one place keeps the message (and any future
        fields) identical no matter which hierarchy's finalize detected the
        wedge; it only runs on the error path.
        """
        return SimulationError(
            f"memory system {self.name!r} failed to drain within "
            f"{FINALIZE_GUARD_CYCLES} cycles of finalize "
            f"(started at cycle {cycle}): {self.pending_work()}"
        )

    def pending_work(self) -> str:
        """One-line description of why :meth:`busy` is still True.

        Used by :meth:`finalize` to name the wedged work in its error;
        subclasses override it to report their specific queues.
        """
        return "unspecified pending work (busy() is True)"

    def activity(self) -> Dict[str, float]:
        """Return the activity counters used by the energy accounting model."""
        return self.stats.as_dict()

    def post_write(self, block_addr: int, cycle: int) -> None:
        """Accept a posted (non-blocking) write of ``block_addr``.

        Posted writes come from write buffers and copy-back evictions of the
        level in front of this system; they update state and count towards
        energy but must not contend with demand reads for ports.  The
        default implementation falls back to a regular store issue.
        """
        self.issue(block_addr, AccessType.STORE, cycle)

    def prewarm(self, addresses) -> None:
        """Functionally install ``addresses`` into the hierarchy's arrays.

        This replaces the paper's 200-million-instruction warm-up: contents
        are placed as if the address stream had already been executed once,
        without simulating any timing, so the measured run starts from a
        warm state.  Implementations must not touch timing state or
        statistics counters used by the experiments.
        """
        # Default: no warm-up support (a cold run is still correct).
        return None

"""Event loop and simulated clock.

The :class:`Simulator` owns a priority queue of :class:`Event` objects keyed
by ``(time, priority, sequence)``.  Everything in the PiCloud model --
CPU schedulers, network flow completions, DHCP lease expiry, REST request
handling -- ultimately becomes an event on this queue.
"""

from __future__ import annotations

import gc
import heapq
import time
from collections import deque
from typing import Any, Callable, Optional

from repro.errors import SimBudgetExceeded, SimulationError
from repro.sim.budget import (
    TRACE_LENGTH,
    WALL_CHECK_EVERY,
    BudgetSnapshot,
    SimBudgetConfig,
)


# Collector policy for the span of a :meth:`Simulator.run`: generation 0
# collects every GC_GEN0_THRESHOLD net allocations instead of CPython's 700.
# Kernel events, flows and tasks are freed by reference counting, so the
# cycle collector finds almost nothing, yet each young collection that
# overflows into generation 2 re-scans the whole long-lived cloud.  Cyclic
# garbage is still collected, just less often.
GC_GEN0_THRESHOLD = 10_000


def _callback_label(callback: Callable[..., None]) -> str:
    """Stable human-readable name for a scheduled callback."""
    label = getattr(callback, "__qualname__", None)
    if label is None:
        label = getattr(type(callback), "__qualname__", repr(callback))
    owner = getattr(callback, "__self__", None)
    if owner is not None:
        name = getattr(owner, "name", None)
        if isinstance(name, str) and name:
            label = f"{label}[{name}]"
    return label


class Event:
    """A scheduled callback.

    Events are created via :meth:`Simulator.schedule` /
    :meth:`Simulator.schedule_at` and may be cancelled with :meth:`cancel`
    any time before they fire.  Comparison is by ``(time, priority, seq)``
    so the heap is stable: two events at the same instant fire in
    scheduling order.
    """

    __slots__ = ("time", "priority", "seq", "callback", "args", "cancelled")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        callback: Callable[..., None],
        args: tuple,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent this event from firing.  Idempotent."""
        self.cancelled = True

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.priority, self.seq) < (
            other.time,
            other.priority,
            other.seq,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time:.6f} prio={self.priority} {state}>"


class Simulator:
    """Discrete-event simulator: a clock plus an ordered event queue.

    Typical use::

        sim = Simulator()
        sim.schedule(5.0, print, "five seconds in")
        sim.run()          # runs until the queue drains
        assert sim.now == 5.0

    Processes (see :mod:`repro.sim.process`) are spawned with
    :meth:`process`, which is attached by that module to avoid a circular
    import at definition time.
    """

    # Tombstone compaction: every COMPACT_CHECK_MASK+1 scheduled events,
    # if the queue is at least COMPACT_MIN_QUEUE long and more than half
    # of it is cancelled tombstones, rebuild the heap without them.  The
    # fluid flow model cancels/reschedules completion events constantly;
    # without compaction the heap grows with dead entries and every push
    # and pop pays log(dead + live).
    COMPACT_CHECK_MASK = 0x0FFF
    COMPACT_MIN_QUEUE = 8192

    def __init__(self, budget: Optional[SimBudgetConfig] = None) -> None:
        self._now = 0.0
        # Heap entries are (time, priority, seq, event) tuples: seq is
        # unique, so ordering never falls through to comparing Event
        # objects and every heap operation compares at C speed.
        self._queue: list[tuple[float, int, int, Event]] = []
        self._seq = 0
        self._running = False
        self._stop_requested = False
        self.events_executed = 0
        self.heap_compactions = 0
        self.budget = budget
        # Causal tracing hook (repro.trace.Tracer installs itself here).
        # None keeps the kernel's dispatch path tracing-free: the only
        # per-event cost is the is-None check below.
        self.tracer = None
        self.budget_trips = 0
        self.watchdog_trips = 0  # wall-clock trips specifically
        # Recent-event ring: stores (time, callback) pairs raw; callbacks
        # are resolved to human-readable labels only when a snapshot is
        # taken (budget trip / inspection), keeping the dispatch loop free
        # of the getattr chain in _callback_label.
        self._trace: deque[tuple[float, Callable[..., None]]] = deque(
            maxlen=TRACE_LENGTH
        )
        # Live Process objects (registered by repro.sim.process) so budget
        # snapshots can name what was still runnable.
        self._live_processes: set = set()

    # -- clock ------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- scheduling -------------------------------------------------------

    def schedule(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        ``delay`` must be non-negative (NaN is rejected).  Lower
        ``priority`` values fire first among events scheduled for the same
        instant.
        """
        if not delay >= 0:
            raise SimulationError(f"cannot schedule with delay {delay}s (must be >= 0)")
        # Builds the event itself rather than forwarding ``*args`` to
        # schedule_at: this is the hottest call in the simulator.
        time = self._now + delay
        seq = self._seq
        event = Event(time, priority, seq, callback, args)
        heapq.heappush(self._queue, (time, priority, seq, event))
        seq += 1
        self._seq = seq
        if (seq & self.COMPACT_CHECK_MASK) == 0:
            self._maybe_compact()
        return event

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback(*args)`` at an absolute simulated time."""
        if not time >= self._now:
            raise SimulationError(
                f"cannot schedule at t={time} (now is t={self._now})"
            )
        event = Event(time, priority, self._seq, callback, args)
        heapq.heappush(self._queue, (time, priority, self._seq, event))
        self._seq += 1
        if (self._seq & self.COMPACT_CHECK_MASK) == 0:
            self._maybe_compact()
        return event

    def _maybe_compact(self) -> None:
        """Drop cancelled tombstones when they dominate the queue."""
        queue = self._queue
        if len(queue) < self.COMPACT_MIN_QUEUE:
            return
        live = [entry for entry in queue if not entry[3].cancelled]
        if len(live) * 2 > len(queue):
            return
        heapq.heapify(live)
        # In place, so aliases held by a running dispatch loop stay valid.
        queue[:] = live
        self.heap_compactions += 1

    # -- execution --------------------------------------------------------

    def peek(self) -> Optional[float]:
        """Time of the next pending event, or ``None`` if the queue is empty."""
        while self._queue and self._queue[0][3].cancelled:
            heapq.heappop(self._queue)
        return self._queue[0][0] if self._queue else None

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        budget: Optional[SimBudgetConfig] = None,
    ) -> None:
        """Run events in order.

        Stops when the queue drains, when the next event lies strictly
        beyond ``until`` (the clock is then advanced *to* ``until``), after
        ``max_events`` events, or once the event that called :meth:`stop`
        has finished -- whichever comes first.  ``run`` may be called
        repeatedly to resume; ``run(max_events=1)`` executes one event.

        ``budget`` (or, if omitted, the simulator's installed default
        budget) is a hard safety net: unlike ``until``/``max_events``,
        which return quietly, exhausting a budget raises
        :class:`~repro.errors.SimBudgetExceeded` with a diagnostic
        :class:`~repro.sim.budget.BudgetSnapshot`.  The event budget is
        cumulative over the simulator's lifetime; the wall-clock budget is
        per ``run()`` call.

        While events are dispatched, generation 0 of the cycle collector
        runs at :data:`GC_GEN0_THRESHOLD` (never lowered, and left at 0 if
        automatic collection is off); the caller's thresholds are restored
        on return.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not re-entrant")
        self._running = True
        effective = budget if budget is not None else self.budget
        if effective is not None and effective.unbounded:
            effective = None
        executed = 0
        wall_start = time.monotonic() if effective is not None else 0.0
        # Hoist per-event budget state out of the loop: the hot path pays
        # int compares only, and wall-clock reads happen every
        # WALL_CHECK_EVERY events rather than per event.
        if effective is not None:
            limit_events = effective.max_events
            limit_sim_time = effective.max_sim_time_s
            limit_wall_s = effective.max_wall_s
        else:
            limit_events = limit_sim_time = limit_wall_s = None
        next_wall_check = WALL_CHECK_EVERY
        queue = self._queue
        heappop = heapq.heappop
        thresholds = gc.get_threshold()
        if 0 < thresholds[0] < GC_GEN0_THRESHOLD:
            gc.set_threshold(GC_GEN0_THRESHOLD, *thresholds[1:])
        try:
            while True:
                if self._stop_requested:
                    return
                if max_events is not None and executed >= max_events:
                    return
                if limit_events is not None and self.events_executed >= limit_events:
                    self._trip(effective, "events", time.monotonic() - wall_start)
                if limit_wall_s is not None and executed >= next_wall_check:
                    next_wall_check = executed + WALL_CHECK_EVERY
                    if time.monotonic() - wall_start > limit_wall_s:
                        self.watchdog_trips += 1
                        self._trip(effective, "wall_clock",
                                   time.monotonic() - wall_start)
                while queue and queue[0][3].cancelled:
                    heappop(queue)
                if not queue:
                    if until is not None and until > self._now:
                        self._now = until
                    return
                next_time, _, _, event = queue[0]
                if until is not None and next_time > until:
                    self._now = until
                    return
                if limit_sim_time is not None and next_time > limit_sim_time:
                    if limit_sim_time > self._now:
                        self._now = limit_sim_time
                    self._trip(effective, "sim_time",
                               time.monotonic() - wall_start)
                heappop(queue)
                self._now = next_time
                self.events_executed += 1
                self._trace.append((next_time, event.callback))
                tracer = self.tracer
                if tracer is not None and tracer.kernel_events:
                    tracer.on_kernel_event(next_time, _callback_label(event.callback))
                event.callback(*event.args)
                executed += 1
        finally:
            gc.set_threshold(*thresholds)
            self._running = False
            self._stop_requested = False

    def stop(self) -> None:
        """Ask the running :meth:`run` to return once the current event ends.

        Budget checks and later events are skipped; the clock stays at the
        stopping event's time.  A no-op when no run is in progress.
        """
        if self._running:
            self._stop_requested = True

    # -- budget enforcement ------------------------------------------------

    def _trip(self, budget: SimBudgetConfig, reason: str, wall_elapsed_s: float) -> None:
        self.budget_trips += 1
        snapshot = self.snapshot(reason, wall_elapsed_s=wall_elapsed_s)
        limit = {
            "events": f"{budget.max_events} events",
            "sim_time": f"sim time t={budget.max_sim_time_s}",
            "wall_clock": f"{budget.max_wall_s}s wall clock",
        }[reason]
        message = f"simulation exceeded its run budget ({limit})"
        culprit = snapshot.repeated_callback()
        if culprit is not None:
            message += f"; recent events dominated by {culprit}"
        raise SimBudgetExceeded(f"{message}\n{snapshot.describe()}", snapshot)

    def snapshot(self, reason: str = "inspect",
                 wall_elapsed_s: float = 0.0, head: int = 8) -> BudgetSnapshot:
        """Capture the kernel's diagnostic state (cheap; safe anytime)."""
        pending = [entry[3] for entry in sorted(self._queue)
                   if not entry[3].cancelled]
        return BudgetSnapshot(
            reason=reason,
            now=self._now,
            events_executed=self.events_executed,
            wall_elapsed_s=wall_elapsed_s,
            pending_count=len(pending),
            pending_head=[
                (e.time, _callback_label(e.callback)) for e in pending[:head]
            ],
            # The ring buffer stores raw callbacks; labels are resolved
            # here, off the dispatch hot path.
            recent_events=[
                (when, _callback_label(callback))
                for when, callback in self._trace
            ],
            runnable_processes=sorted(
                getattr(p, "name", repr(p)) for p in self._live_processes
            ),
            trace_id=(
                self.tracer.active_trace_id() if self.tracer is not None else None
            ),
        )

    def pending_events(self) -> int:
        """Number of non-cancelled events still queued (O(n); for tests)."""
        return sum(1 for entry in self._queue if not entry[3].cancelled)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Simulator t={self._now:.6f} queued={len(self._queue)}>"

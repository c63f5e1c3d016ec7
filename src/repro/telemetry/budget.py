"""Telemetry for the kernel's run-budget / watchdog subsystem.

:class:`BudgetTelemetry` mirrors the simulator's budget accounting into
the standard :class:`~repro.telemetry.series.Counter` /
:class:`~repro.telemetry.series.Gauge` primitives so dashboards and
experiment reports can read budget pressure from the same place as every
other metric::

    telemetry = BudgetTelemetry(sim)
    ...
    sim.run()                    # trips are counted via a budget hook
    telemetry.sample()           # sync the events-executed counter
    print(telemetry.report())
"""

from __future__ import annotations

from typing import Optional

from repro.sim.budget import BudgetSnapshot, SimBudgetConfig
from repro.sim.kernel import Simulator
from repro.telemetry.series import Counter, Gauge


class BudgetTelemetry:
    """Counters and gauges over one simulator's budget consumption."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.events_executed = Counter(sim, "sim.events.executed")
        self.budget_trips = Counter(sim, "sim.budget.trips")
        self.watchdog_trips = Counter(sim, "sim.watchdog.trips")
        # Fraction of the event budget consumed (0..1; stays 0 unbudgeted).
        self.event_budget_consumed = Gauge(sim, "sim.budget.events_consumed")
        self.last_snapshot: Optional[BudgetSnapshot] = None
        sim.budget_hooks.append(self._on_trip)

    def _on_trip(self, snapshot: BudgetSnapshot) -> None:
        self.last_snapshot = snapshot
        self.budget_trips.add()
        if snapshot.reason == "wall_clock":
            self.watchdog_trips.add()
        self.sample()

    def sample(self) -> None:
        """Sync cumulative counters with the simulator's own accounting."""
        delta = self.sim.events_executed - self.events_executed.total
        if delta > 0:
            self.events_executed.add(delta)
        budget = self.sim.budget
        if budget is not None and budget.max_events:
            self.event_budget_consumed.set(
                min(1.0, self.sim.events_executed / budget.max_events)
            )

    @property
    def last_trip_trace_id(self) -> Optional[int]:
        """Trace id in flight when the last budget trip happened (or None)."""
        if self.last_snapshot is None:
            return None
        return self.last_snapshot.trace_id

    def report(self) -> dict[str, float]:
        """Plain-dict summary row (experiment tabulation friendly)."""
        self.sample()
        budget: Optional[SimBudgetConfig] = self.sim.budget
        return {
            "events_executed": self.events_executed.total,
            "event_budget": float(budget.max_events) if budget and budget.max_events else 0.0,
            "event_budget_consumed": self.event_budget_consumed.value,
            "budget_trips": self.budget_trips.total,
            "watchdog_trips": self.watchdog_trips.total,
        }

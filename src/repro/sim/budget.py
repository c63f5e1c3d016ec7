"""Run budgets for the discrete-event kernel.

A :class:`SimBudgetConfig` bounds a simulation along three axes -- events
executed, simulated time, and wall-clock time -- so that no run can spin
forever.  When the kernel trips a budget it raises
:class:`~repro.errors.SimBudgetExceeded` carrying a
:class:`BudgetSnapshot`: the pending event queue head, the runnable
processes, and the tail of recently executed events.  The snapshot is the
debugging tool: a non-terminating simulation almost always shows the same
callback re-executing at the same instant, and the trace names it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.errors import ConfigurationError

# Recently executed events kept for the snapshot's trace tail.
TRACE_LENGTH = 32
# The wall clock is read once per this many events, not per event.
WALL_CHECK_EVERY = 1024


@dataclass(frozen=True, kw_only=True)
class SimBudgetConfig:
    """Hard safety nets for the discrete-event kernel.

    Exhausting an axis raises
    :class:`~repro.errors.SimBudgetExceeded` with a diagnostic snapshot
    instead of spinning.  ``None`` disables an axis.  ``max_events`` is
    cumulative over the simulator's lifetime; ``max_sim_time_s`` is an
    *absolute* simulated timestamp (the run trips when the next event lies
    strictly beyond it); ``max_wall_s`` is wall-clock seconds per
    :meth:`~repro.sim.kernel.Simulator.run` call, checked every
    ``WALL_CHECK_EVERY`` events.
    """

    max_events: Optional[int] = None
    max_sim_time_s: Optional[float] = None
    max_wall_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_events is not None and self.max_events < 1:
            raise ConfigurationError(
                f"max_events must be >= 1, got {self.max_events}"
            )
        if self.max_sim_time_s is not None and self.max_sim_time_s < 0:
            raise ConfigurationError(
                f"max_sim_time_s must be >= 0, got {self.max_sim_time_s}"
            )
        if self.max_wall_s is not None and self.max_wall_s <= 0:
            raise ConfigurationError(
                f"max_wall_s must be > 0, got {self.max_wall_s}"
            )

    @property
    def unbounded(self) -> bool:
        return (self.max_events is None and self.max_sim_time_s is None
                and self.max_wall_s is None)

    def run_budget(self) -> Optional["SimBudgetConfig"]:
        """This budget, or None when fully unbounded."""
        return None if self.unbounded else self


@dataclass
class BudgetSnapshot:
    """Diagnostic state captured the moment a budget trips.

    ``reason`` is one of ``"events"``, ``"sim_time"``, ``"wall_clock"``.
    ``pending_head`` and ``recent_events`` are ``(sim_time, label)`` pairs;
    labels are the scheduled callback's qualified name.
    """

    reason: str
    now: float
    events_executed: int
    wall_elapsed_s: float
    pending_count: int
    pending_head: List[Tuple[float, str]] = field(default_factory=list)
    recent_events: List[Tuple[float, str]] = field(default_factory=list)
    runnable_processes: List[str] = field(default_factory=list)
    # When a repro.trace.Tracer is installed, the trace id of the most
    # recently started still-open span at the moment of the trip -- the
    # handle that correlates a watchdog/budget failure with the causal
    # trace of the operation that was in flight.
    trace_id: Optional[int] = None

    def describe(self) -> str:
        """Multi-line human-readable dump (printed by the CLI on a trip)."""
        lines = [
            f"budget exceeded ({self.reason}) at t={self.now:.6f} after "
            f"{self.events_executed} events ({self.wall_elapsed_s:.2f}s wall)",
            f"pending events: {self.pending_count}",
        ]
        if self.trace_id is not None:
            lines.append(f"active trace: {self.trace_id}")
        for when, label in self.pending_head:
            lines.append(f"  next  t={when:.6f}  {label}")
        if self.runnable_processes:
            lines.append(f"live processes: {len(self.runnable_processes)}")
            for name in self.runnable_processes[:16]:
                lines.append(f"  proc  {name}")
        if self.recent_events:
            lines.append(f"last {len(self.recent_events)} executed events:")
            for when, label in self.recent_events:
                lines.append(f"  done  t={when:.6f}  {label}")
        return "\n".join(lines)

    def repeated_callback(self) -> Optional[str]:
        """The label dominating the recent trace, if one does (>= half).

        This is the usual smoking gun for a non-terminating loop: one
        callback rescheduling itself at the same instant.
        """
        if not self.recent_events:
            return None
        counts: dict[str, int] = {}
        for __, label in self.recent_events:
            counts[label] = counts.get(label, 0) + 1
        label, count = max(counts.items(), key=lambda kv: kv[1])
        return label if count * 2 >= len(self.recent_events) else None

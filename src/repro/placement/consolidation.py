"""Runtime consolidation: pack containers onto fewer hosts, power off the rest.

Implements the §III research direction ("consolidation to reduce power
consumption") as an executable controller:

1. Snapshot all running containers and hosts.
2. Compute a packed assignment with first-fit-decreasing by RSS onto the
   smallest prefix of hosts that fits (respecting per-host RAM).
3. Emit a migration plan (container -> destination host) and execute it
   with real :func:`~repro.virt.migration.live_migrate` calls -- so the
   plan's network cost is borne on the fabric, and the cross-layer
   congestion side effects the paper warns about are observable.
4. Optionally shut down hosts left empty.

``aggressiveness`` caps how many migrations a single round may issue,
modelling cautious vs. greedy consolidation (ablation experiment C2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro import trace
from repro.sim.kernel import Simulator
from repro.sim.process import Signal
from repro.virt.container import Container
from repro.virt.lxc import LxcRuntime
from repro.virt.migration import MigrationReport, live_migrate


@dataclass
class ConsolidationReport:
    """Outcome of one consolidation round."""

    planned_migrations: int = 0
    executed_migrations: int = 0
    failed_migrations: int = 0
    hosts_before: int = 0
    hosts_after: int = 0
    hosts_powered_off: List[str] = field(default_factory=list)
    migration_reports: List[MigrationReport] = field(default_factory=list)
    total_bytes_moved: float = 0.0


def plan_packing(
    containers: Sequence[Tuple[Container, str]],
    host_free_memory: Dict[str, int],
    host_order: Sequence[str],
) -> Dict[str, str]:
    """First-fit-decreasing packing plan.

    ``containers`` is ``(container, current_host)`` pairs;
    ``host_free_memory`` maps host -> bytes free for guests *excluding*
    currently-running containers (i.e. capacity available if the host were
    emptied).  Returns ``{container_name: target_host}`` including
    containers that stay put.
    """
    remaining = {host: host_free_memory[host] for host in host_order}
    ordered = sorted(containers, key=lambda pair: (-pair[0].memory_bytes, pair[0].name))
    assignment: Dict[str, str] = {}
    for container, __ in ordered:
        for host in host_order:
            if remaining[host] >= container.memory_bytes:
                assignment[container.name] = host
                remaining[host] -= container.memory_bytes
                break
        else:
            # Cannot pack this container anywhere: leave it where it is.
            current = dict(containers)[container]
            assignment[container.name] = current
    return assignment


class Consolidator:
    """Executes consolidation rounds over a set of per-host LXC runtimes."""

    def __init__(
        self,
        sim: Simulator,
        runtimes: Dict[str, LxcRuntime],
        aggressiveness: int = 1_000_000,
        power_off_empty: bool = False,
    ) -> None:
        if aggressiveness < 0:
            raise ValueError("aggressiveness must be >= 0")
        self.sim = sim
        self.runtimes = dict(runtimes)
        self.aggressiveness = aggressiveness
        self.power_off_empty = power_off_empty
        self.rounds_run = 0

    # -- planning ----------------------------------------------------------------

    def _snapshot(self) -> Tuple[list[Tuple[Container, str]], Dict[str, int]]:
        containers: list[Tuple[Container, str]] = []
        free_if_empty: Dict[str, int] = {}
        for host, runtime in self.runtimes.items():
            if not runtime.kernel.machine.is_on:
                free_if_empty[host] = 0
                continue
            running = [c for c in runtime.containers() if c.is_running]
            for container in running:
                containers.append((container, host))
            machine = runtime.kernel.machine
            occupied_by_guests = sum(c.memory_bytes for c in running)
            free_if_empty[host] = machine.memory.available + occupied_by_guests
        return containers, free_if_empty

    def plan(self) -> Dict[str, str]:
        """Compute the target assignment without executing anything."""
        containers, free_if_empty = self._snapshot()
        return plan_packing(containers, free_if_empty, sorted(self.runtimes))

    # -- execution ------------------------------------------------------------------

    def run_round(self) -> Signal:
        """Execute one consolidation round; Signal -> ConsolidationReport."""
        self.rounds_run += 1
        report = ConsolidationReport()
        containers, __ = self._snapshot()
        current = {c.name: host for c, host in containers}
        by_name = {c.name: c for c, __ in containers}
        report.hosts_before = len({h for h in current.values()})

        assignment = self.plan()
        moves = [
            (by_name[name], target)
            for name, target in sorted(assignment.items())
            if current.get(name) != target
        ]
        moves = moves[: self.aggressiveness]
        report.planned_migrations = len(moves)
        span = trace.start_span(
            self.sim, "consolidation.round", kind="mgmt",
            attributes={"round": self.rounds_run, "planned": len(moves)},
        )

        def run():
            for container, target in moves:
                migration = live_migrate(container, self.runtimes[target],
                                         parent=span)
                try:
                    migration_report = yield migration
                except Exception:  # noqa: BLE001 - count and continue
                    report.failed_migrations += 1
                    continue
                report.executed_migrations += 1
                report.migration_reports.append(migration_report)
                report.total_bytes_moved += migration_report.total_bytes

            live_hosts = {
                host
                for host, runtime in self.runtimes.items()
                if runtime.running_count() > 0
            }
            report.hosts_after = len(live_hosts)
            if self.power_off_empty:
                for host, runtime in sorted(self.runtimes.items()):
                    machine = runtime.kernel.machine
                    if (
                        host not in live_hosts
                        and machine.is_on
                        and not runtime.containers()  # nothing defined either
                    ):
                        machine.shutdown()
                        report.hosts_powered_off.append(host)
            span.set_attribute("executed", report.executed_migrations)
            span.set_attribute("failed", report.failed_migrations)
            span.end("ok" if report.failed_migrations == 0 else "error")
            return report

        return self.sim.process(run(), name="consolidation.round")

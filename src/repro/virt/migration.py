"""Live migration: iterative pre-copy over the simulated fabric.

The paper's §VI names "sophisticated live migration within the PiCloud"
as the immediate next step; this module implements the standard pre-copy
algorithm (as in Xen/QEMU):

1. Copy the container's full RSS to the destination host while it keeps
   running (and keeps dirtying pages at ``container.dirty_rate``).
2. Repeat: copy only the pages dirtied during the previous round.  Rounds
   shrink geometrically while the achieved bandwidth exceeds the dirty
   rate.
3. When the residual set is small enough (or ``DEFAULT_MAX_ROUNDS`` is hit),
   freeze the container, copy the last residue (**downtime**), move the
   IP, and resume on the destination.

Every copy round is a real flow through the fabric, so migration traffic
contends with -- and is slowed by -- application traffic, reproducing the
cross-layer coupling the paper argues simulators miss.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro import trace
from repro.errors import MigrationError
from repro.sim.process import Signal
from repro.virt.container import Container, ContainerState
from repro.virt.lxc import LxcRuntime

# Stop iterating once the residual dirty set fits in this many bytes.
DEFAULT_STOP_THRESHOLD = 256 * 1024
DEFAULT_MAX_ROUNDS = 30


@dataclass
class MigrationReport:
    """What happened during one live migration."""

    container: str
    source: str
    destination: str
    rounds: int = 0
    bytes_per_round: List[float] = field(default_factory=list)
    total_bytes: float = 0.0
    started_at: float = 0.0
    finished_at: float = 0.0
    downtime_s: float = 0.0
    converged: bool = True

    @property
    def duration_s(self) -> float:
        return self.finished_at - self.started_at


def live_migrate(
    container: Container,
    destination: LxcRuntime,
    parent=None,
) -> Signal:
    """Start a live migration; the Signal succeeds with a MigrationReport.

    Fails with :class:`MigrationError` if the container is not running,
    the destination is the same host, or the destination lacks memory.
    """
    source = container.runtime
    sim = source.sim
    span = trace.start_span(
        sim, "virt.migrate", parent=parent, kind="virt",
        attributes={"container": container.name, "source": source.host_id,
                    "destination": destination.host_id},
    )

    if container.state is not ContainerState.RUNNING:
        span.end("error", "not running")
        return Signal(sim).fail(MigrationError(
            f"container {container.name!r} is {container.state.value}, not running"
        ))
    if destination is source:
        span.end("error", "same host")
        return Signal(sim).fail(MigrationError(
            f"container {container.name!r} is already on {destination.host_id}"
        ))

    network = source.kernel.netstack.fabric.network
    src_node = source.kernel.netstack.node_id
    dst_node = destination.kernel.netstack.node_id
    report = MigrationReport(
        container=container.name,
        source=source.host_id,
        destination=destination.host_id,
        started_at=sim.now,
    )

    def run():
        # Reserve memory and rootfs on the destination up-front, so a full
        # host fails fast instead of after copying hundreds of MB.
        try:
            dst_container = yield destination.lxc_create(
                container.name,
                container.image,
                cpu_shares=container.cgroup.cpu_shares,
                cpu_quota=container.cgroup.cpu_quota,
                memory_limit_bytes=container.cgroup.memory_limit_bytes,
                provision_rootfs=False,
                parent=span,
            )
            dst_container.cgroup.charge_memory(container.memory_bytes)
        except Exception as exc:
            span.end("error", str(exc))
            raise MigrationError(
                f"destination {destination.host_id} cannot host "
                f"{container.name!r}: {exc}"
            ) from exc

        try:
            # --- iterative pre-copy -------------------------------------
            to_copy = float(container.memory_bytes)
            while True:
                report.rounds += 1
                round_start = sim.now
                flow = network.transfer(
                    src_node, dst_node, to_copy,
                    tag=f"migrate:{container.name}:round{report.rounds}",
                    parent=span,
                )
                yield flow
                report.bytes_per_round.append(to_copy)
                report.total_bytes += to_copy
                round_time = sim.now - round_start
                dirtied = container.dirty_rate * round_time
                if dirtied <= DEFAULT_STOP_THRESHOLD:
                    to_copy = dirtied
                    break
                if report.rounds >= DEFAULT_MAX_ROUNDS:
                    report.converged = False
                    to_copy = dirtied
                    break
                if report.bytes_per_round[-1] > 0 and dirtied >= to_copy:
                    # Dirty rate >= achieved bandwidth: rounds are not
                    # shrinking; go to stop-and-copy now.
                    report.converged = False
                    to_copy = dirtied
                    break
                to_copy = dirtied

            # --- stop-and-copy (downtime window) ------------------------
            source.lxc_freeze(container)
            downtime_start = sim.now
            if to_copy > 0:
                flow = network.transfer(
                    src_node, dst_node, to_copy,
                    tag=f"migrate:{container.name}:final",
                    parent=span,
                )
                yield flow
                report.total_bytes += to_copy
            # Switch over: move the IP (and its open server sockets),
            # re-home the container object.
            ip = container.ip
            source_stack = source.kernel.netstack
            if ip is not None:
                source_stack.set_rate_cap(ip, None)
                source_stack.unbind_address(ip)
                destination.kernel.netstack.bind_address(ip)
                source_stack.transfer_listeners(ip, destination.kernel.netstack)
                if container.net_rate_cap is not None:
                    destination.kernel.netstack.set_rate_cap(
                        ip, container.net_rate_cap
                    )
            source.abandon(container)
            # Release source-side resources.
            old_cgroup = container.cgroup
            old_rss = container.memory_bytes
            if old_rss > 0:
                old_cgroup.uncharge_memory(old_rss)
            source.kernel.remove_cgroup(old_cgroup.name)
            if source.kernel.filesystem.exists(container.rootfs_path):
                source.kernel.filesystem.delete(container.rootfs_path)
            # Adopt on the destination.
            container.cgroup = dst_container.cgroup
            destination._containers.pop(dst_container.name, None)
            destination.adopt(container, ip)
            container.state = ContainerState.RUNNING
            container.migration_count += 1
            report.downtime_s = sim.now - downtime_start
            report.finished_at = sim.now
            span.set_attribute("rounds", report.rounds)
            span.set_attribute("downtime_s", report.downtime_s)
            span.set_attribute("converged", report.converged)
            span.end("ok")
            return report
        except Exception as exc:  # noqa: BLE001 - report migration failure
            if container.state is ContainerState.FROZEN:
                source.lxc_unfreeze(container)
            span.end("error", str(exc))
            raise MigrationError(f"migration of {container.name!r} failed: {exc}") from exc

    return sim.process(run(), name=f"migrate.{container.name}")

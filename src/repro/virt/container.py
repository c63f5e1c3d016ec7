"""The container object and its LXC lifecycle.

State machine (mirroring LXC's)::

    DEFINED --start--> RUNNING --freeze--> FROZEN
       ^                  |  ^---unfreeze----'
       |                stop
       '---destroy <------'--> DEFINED ... --destroy--> DESTROYED

A container is "an enhanced chroot" (paper §II-B): its own process and
network space, enforced by a cgroup.  All CPU work an application does
inside the container goes through :meth:`Container.execute`, which charges
the container's cgroup on whatever host currently runs it -- this
indirection is what makes live migration transparent to applications.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Any, Optional

from repro.errors import ContainerStateError
from repro.hostos.cgroup import CGroup
from repro.hostos.scheduler import Task
from repro.sim.process import Signal
from repro.virt.image import ContainerImage

if TYPE_CHECKING:  # pragma: no cover
    from repro.virt.lxc import LxcRuntime


class ContainerState(enum.Enum):
    DEFINED = "defined"      # created on disk, not running
    RUNNING = "running"
    FROZEN = "frozen"
    DESTROYED = "destroyed"


class Container:
    """One Linux Container: image instance + cgroup + bridged IP."""

    def __init__(
        self,
        name: str,
        image: ContainerImage,
        runtime: "LxcRuntime",
        cgroup: CGroup,
        rootfs_path: str,
    ) -> None:
        self.name = name
        self.image = image
        self.runtime = runtime
        self.cgroup = cgroup
        self.rootfs_path = rootfs_path
        self.state = ContainerState.DEFINED
        self.ip: Optional[str] = None
        self.memory_bytes = 0            # current RSS (0 while stopped)
        self.dirty_rate = 0.0            # bytes/s of page dirtying (migration)
        self.net_rate_cap: Optional[float] = None  # egress cap, bytes/s
        self.created_at = runtime.sim.now
        self.started_at: Optional[float] = None
        self.app: Any = None             # application object bound to this container
        self.migration_count = 0

    # -- state helpers ---------------------------------------------------------

    @property
    def is_running(self) -> bool:
        return self.state is ContainerState.RUNNING

    @property
    def host_id(self) -> str:
        """The machine currently hosting this container."""
        return self.runtime.kernel.machine.machine_id

    def require_state(self, *states: ContainerState) -> None:
        if self.state not in states:
            wanted = ", ".join(s.value for s in states)
            raise ContainerStateError(
                f"container {self.name!r} is {self.state.value}; needs {wanted}"
            )

    # -- resource operations (application-facing) --------------------------------

    def execute(self, cycles: float, name: str = "") -> Task:
        """Run CPU work inside the container on its *current* host."""
        self.require_state(ContainerState.RUNNING)
        return self.runtime.kernel.submit(
            cycles, cgroup=self.cgroup, name=name or f"{self.name}.work"
        )

    def send(self, dst_ip: str, dst_port: int, payload: Any, size: int,
             **kwargs: Any) -> Signal:
        """Send a message from this container's bridged IP."""
        self.require_state(ContainerState.RUNNING)
        if self.ip is None:
            raise ContainerStateError(f"container {self.name!r} has no IP")
        return self.runtime.kernel.netstack.send(
            dst_ip, dst_port, payload, size, src_ip=self.ip, **kwargs
        )

    def listen(self, port: int):
        """Open a mailbox on this container's IP."""
        self.require_state(ContainerState.RUNNING)
        if self.ip is None:
            raise ContainerStateError(f"container {self.name!r} has no IP")
        return self.runtime.kernel.netstack.listen(port, ip=self.ip)

    def set_network_cap(self, bytes_per_s: Optional[float]) -> None:
        """Soft per-VM network limit (Fig. 4): cap this container's egress."""
        self.require_state(ContainerState.RUNNING, ContainerState.FROZEN)
        if self.ip is None:
            raise ContainerStateError(f"container {self.name!r} has no IP")
        self.runtime.kernel.netstack.set_rate_cap(self.ip, bytes_per_s)
        self.net_rate_cap = bytes_per_s

    # -- reporting ------------------------------------------------------------------

    def describe(self) -> dict[str, Any]:
        """One row of the Fig. 4 management panel's VM table."""
        return {
            "name": self.name,
            "image": self.image.qualified_name,
            "state": self.state.value,
            "host": self.host_id,
            "ip": self.ip,
            "memory": self.memory_bytes,
            "cpu_shares": self.cgroup.cpu_shares,
            "cpu_quota": self.cgroup.cpu_quota,
            "migrations": self.migration_count,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Container {self.name} {self.state.value} on {self.host_id}>"

"""The per-host LXC runtime: lxc-create / start / freeze / stop / destroy.

Container density is *emergent*, not hard-coded: ``lxc_start`` charges the
image's idle RSS to the container's cgroup, which charges the machine's
physical memory -- so a 256 MB Model B with the Raspbian reserve fits
exactly three ~30 MB containers (paper §II-B), and the fourth start
raises OOM.  Rootfs provisioning is timed SD-card I/O, so spawning many
containers on one Pi queues on the card, as it does in reality.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro import trace
from repro.errors import ContainerStateError, OutOfMemoryError, VirtualisationError
from repro.hostos.kernelhost import HostKernel
from repro.sim.process import Signal, Timeout
from repro.virt.container import Container, ContainerState
from repro.virt.image import ContainerImage

# lxc-start process overhead before the app is reachable.
DEFAULT_START_DELAY_S = 2.0
LXC_ROOT = "/var/lib/lxc"


class LxcRuntime:
    """One host's container runtime."""

    def __init__(self, kernel: HostKernel) -> None:
        self.kernel = kernel
        self.sim = kernel.sim
        self._containers: Dict[str, Container] = {}
        self.containers_created = 0
        self.containers_started = 0

    @property
    def host_id(self) -> str:
        return self.kernel.machine.machine_id

    # -- queries -----------------------------------------------------------------

    def container(self, name: str) -> Container:
        try:
            return self._containers[name]
        except KeyError:
            raise VirtualisationError(
                f"{self.host_id}: no container {name!r}"
            ) from None

    def containers(self, state: Optional[ContainerState] = None) -> list[Container]:
        out = [
            c for c in self._containers.values()
            if state is None or c.state is state
        ]
        return sorted(out, key=lambda c: c.name)

    def running_count(self) -> int:
        return sum(1 for c in self._containers.values() if c.is_running)

    # -- lifecycle ------------------------------------------------------------------

    def lxc_create(
        self,
        name: str,
        image: ContainerImage,
        cpu_shares: int = 1024,
        cpu_quota: Optional[float] = None,
        memory_limit_bytes: Optional[int] = None,
        provision_rootfs: bool = True,
        parent=None,
    ) -> Signal:
        """Define a container: cgroup + rootfs copy onto the SD card.

        The Signal succeeds with the :class:`Container` once the rootfs
        write finishes (timed I/O); it fails on duplicate names or a full
        card.  ``provision_rootfs=False`` skips the timed write (used by
        migration, which streams state instead).
        """
        span = trace.start_span(
            self.sim, "virt.create", parent=parent, kind="virt",
            attributes={"host": self.host_id, "container": name,
                        "image": image.qualified_name},
        )
        if name in self._containers:
            span.end("error", "name exists")
            return Signal(self.sim).fail(
                VirtualisationError(f"{self.host_id}: container {name!r} exists")
            )
        rootfs = f"{LXC_ROOT}/{name}/rootfs"
        try:
            cgroup = self.kernel.create_cgroup(
                f"lxc.{name}",
                cpu_shares=cpu_shares,
                cpu_quota=cpu_quota,
                memory_limit_bytes=memory_limit_bytes,
            )
        except Exception as exc:  # duplicate cgroup
            span.end("error", str(exc))
            return Signal(self.sim).fail(VirtualisationError(str(exc)))

        container = Container(name, image, self, cgroup, rootfs)
        self._containers[name] = container

        def run():
            try:
                if provision_rootfs:
                    yield self.kernel.filesystem.write(
                        rootfs, image.rootfs_bytes,
                        metadata={"image": image.qualified_name},
                    )
                else:
                    self.kernel.filesystem.create(
                        rootfs, image.rootfs_bytes,
                        metadata={"image": image.qualified_name},
                    )
            except Exception as exc:
                self._containers.pop(name, None)
                self.kernel.remove_cgroup(cgroup.name)
                span.end("error", str(exc))
                raise VirtualisationError(f"lxc-create {name!r}: {exc}") from exc
            self.containers_created += 1
            span.end("ok")
            return container

        return self.sim.process(run(), name=f"{self.host_id}.lxc-create.{name}")

    def lxc_start(self, container: Container, ip: Optional[str] = None,
                  parent=None) -> Signal:
        """Start a defined container; charges idle RSS, binds the IP.

        Fails with :class:`OutOfMemoryError` if the idle footprint does not
        fit -- the mechanism behind the paper's 3-containers-per-Pi limit.
        """
        span = trace.start_span(
            self.sim, "virt.start", parent=parent, kind="virt",
            attributes={"host": self.host_id, "container": container.name},
        )
        try:
            container.require_state(ContainerState.DEFINED)
        except ContainerStateError as exc:
            span.end("error", str(exc))
            return Signal(self.sim).fail(exc)
        try:
            container.cgroup.charge_memory(container.image.idle_memory_bytes)
        except OutOfMemoryError as exc:
            span.end("error", str(exc))
            return Signal(self.sim).fail(exc)
        container.memory_bytes = container.image.idle_memory_bytes

        def run():
            yield Timeout(self.sim, DEFAULT_START_DELAY_S)
            if container.state is not ContainerState.DEFINED:
                span.end("error", "state changed during start")
                raise ContainerStateError(
                    f"container {container.name!r} changed state during start"
                )
            if ip is not None:
                self.kernel.netstack.bind_address(ip)
                container.ip = ip
                if container.net_rate_cap is not None:
                    self.kernel.netstack.set_rate_cap(ip, container.net_rate_cap)
            container.state = ContainerState.RUNNING
            container.started_at = self.sim.now
            self.containers_started += 1
            span.end("ok")
            return container

        return self.sim.process(run(), name=f"{self.host_id}.lxc-start.{container.name}")

    def lxc_freeze(self, container: Container) -> None:
        """Suspend: new work is rejected until unfreeze (cgroup freezer)."""
        container.require_state(ContainerState.RUNNING)
        container.state = ContainerState.FROZEN

    def lxc_unfreeze(self, container: Container) -> None:
        container.require_state(ContainerState.FROZEN)
        container.state = ContainerState.RUNNING

    def lxc_stop(self, container: Container) -> None:
        """Stop: release RSS and the IP; rootfs stays (state DEFINED)."""
        container.require_state(ContainerState.RUNNING, ContainerState.FROZEN)
        if container.memory_bytes > 0:
            container.cgroup.uncharge_memory(container.memory_bytes)
            container.memory_bytes = 0
        if container.ip is not None:
            self.kernel.netstack.set_rate_cap(container.ip, None)
            self.kernel.netstack.unbind_address(container.ip)
            container.ip = None
        container.state = ContainerState.DEFINED

    def lxc_destroy(self, container: Container) -> None:
        """Destroy: delete the rootfs and the cgroup.  Must be stopped."""
        container.require_state(ContainerState.DEFINED)
        if self.kernel.filesystem.exists(container.rootfs_path):
            self.kernel.filesystem.delete(container.rootfs_path)
        self.kernel.remove_cgroup(container.cgroup.name)
        container.state = ContainerState.DESTROYED
        self._containers.pop(container.name, None)

    # -- migration hooks (used by repro.virt.migration) -----------------------------

    def adopt(self, container: Container, ip: Optional[str]) -> None:
        """Take ownership of a migrated-in container (already RUNNING)."""
        if container.name in self._containers:
            raise VirtualisationError(
                f"{self.host_id}: container name {container.name!r} collides"
            )
        self._containers[container.name] = container
        container.runtime = self
        if ip is not None:
            container.ip = ip

    def abandon(self, container: Container) -> None:
        """Release a migrated-out container without destroying its object."""
        self._containers.pop(container.name, None)

    # -- reporting ----------------------------------------------------------------------

    def describe(self) -> dict[str, object]:
        return {
            "host": self.host_id,
            "containers": [c.describe() for c in self.containers()],
            "running": self.running_count(),
        }

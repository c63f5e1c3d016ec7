"""The host kernel: what "running Raspbian" gives one machine.

A :class:`HostKernel` assembles the OS services on a booted machine:
the fair-share CPU scheduler, the cgroup tree, the SD-card filesystem and
the IP stack.  The LXC runtime (:mod:`repro.virt.lxc`) and the per-node
management daemon (:mod:`repro.mgmt.node_daemon`) are built on this.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.errors import PiCloudError
from repro.hardware.machine import Machine
from repro.hostos.cgroup import CGroup, DEFAULT_CPU_SHARES
from repro.hostos.filesystem import FileSystem
from repro.hostos.netstack import IpFabric, NetStack
from repro.hostos.scheduler import FairShareScheduler, Task
from repro.sim.kernel import Simulator


class HostKernel:
    """OS services for one machine: scheduler + cgroups + fs + network."""

    def __init__(
        self,
        sim: Simulator,
        machine: Machine,
        ip_fabric: IpFabric,
    ) -> None:
        if not machine.is_on:
            raise PiCloudError(
                f"{machine.machine_id}: cannot start a kernel on a machine "
                f"in state {machine.state.value}"
            )
        self.sim = sim
        self.machine = machine
        self.node_id = machine.machine_id
        self.scheduler = FairShareScheduler(sim, machine.cpu, owner=machine.machine_id)
        self.filesystem = FileSystem(sim, machine.storage, owner=machine.machine_id)
        self.netstack = NetStack(sim, ip_fabric, self.node_id, name=machine.machine_id)
        self._cgroups: Dict[str, CGroup] = {}

    # -- cgroup management ---------------------------------------------------

    def create_cgroup(
        self,
        name: str,
        cpu_shares: int = DEFAULT_CPU_SHARES,
        cpu_quota: Optional[float] = None,
        memory_limit_bytes: Optional[int] = None,
    ) -> CGroup:
        if name in self._cgroups:
            raise PiCloudError(f"{self.machine.machine_id}: cgroup {name!r} exists")
        group = CGroup(
            name,
            self.machine.memory,
            cpu_shares=cpu_shares,
            cpu_quota=cpu_quota,
            memory_limit_bytes=memory_limit_bytes,
        )
        self._cgroups[name] = group
        return group

    def remove_cgroup(self, name: str) -> None:
        group = self._cgroups.pop(name, None)
        if group is None:
            raise PiCloudError(f"{self.machine.machine_id}: no cgroup {name!r}")
        if group.memory_used > 0:
            group.uncharge_memory(group.memory_used)

    def cgroup(self, name: str) -> CGroup:
        try:
            return self._cgroups[name]
        except KeyError:
            raise PiCloudError(
                f"{self.machine.machine_id}: no cgroup {name!r}"
            ) from None

    def cgroups(self) -> list[str]:
        return sorted(self._cgroups)

    # -- convenience passthroughs ---------------------------------------------

    def submit(self, cycles: float, cgroup: Optional[CGroup] = None,
               name: str = "") -> Task:
        return self.scheduler.submit(cycles, cgroup, name)

    def cpu_load(self) -> float:
        """Instantaneous CPU utilisation (the Fig. 4 dashboard number)."""
        return self.machine.cpu.utilization.value

    def describe(self) -> dict[str, Any]:
        return {
            "node": self.node_id,
            "cpu_util": self.cpu_load(),
            "runnable": self.scheduler.runnable_count,
            "cgroups": self.cgroups(),
            "mem_used": self.machine.memory.used,
            "mem_capacity": self.machine.memory.capacity,
            "disk_used": self.machine.storage.used,
        }

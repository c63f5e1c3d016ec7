"""A libvirt-flavoured facade over the LXC runtime.

The paper (§II-C) intends to adapt the libvirt framework but notes it is
"currently not fully functional on the Pi platform", falling back to a
bespoke REST API.  This adapter provides libvirt's *read side* -- a
connection per host, its domains, and each domain's name, state and
``info()`` -- as a thin veneer over :class:`~repro.virt.lxc.LxcRuntime`.
The container lifecycle itself goes through the runtime or the node
daemon's REST API, the paper's fallback.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.errors import VirtualisationError
from repro.virt.container import Container, ContainerState
from repro.virt.lxc import LxcRuntime

# libvirt numeric domain states (subset; values match libvirt's enum).
VIR_DOMAIN_RUNNING = 1
VIR_DOMAIN_PAUSED = 3
VIR_DOMAIN_SHUTOFF = 5

_STATE_MAP = {
    ContainerState.DEFINED: VIR_DOMAIN_SHUTOFF,
    ContainerState.RUNNING: VIR_DOMAIN_RUNNING,
    ContainerState.FROZEN: VIR_DOMAIN_PAUSED,
}


class Domain:
    """libvirt-style handle to one container."""

    def __init__(self, connection: "LibvirtConnection", container: Container) -> None:
        self._connection = connection
        self._container = container

    # -- naming ----------------------------------------------------------------

    def name(self) -> str:
        return self._container.name

    # -- introspection --------------------------------------------------------------

    def state(self) -> int:
        try:
            return _STATE_MAP[self._container.state]
        except KeyError:
            raise VirtualisationError(
                f"domain {self.name()!r} is destroyed"
            ) from None

    def info(self) -> Dict[str, Any]:
        """libvirt ``dom.info()`` analogue."""
        limit = self._container.cgroup.memory_limit_bytes
        return {
            "state": self.state(),
            "maxMem": limit if limit is not None else
            self._connection.runtime.kernel.machine.memory.capacity,
            "memory": self._container.memory_bytes,
            "nrVirtCpu": 1,
            "cpuShares": self._container.cgroup.cpu_shares,
        }

    @property
    def container(self) -> Container:
        """Escape hatch to the underlying container object."""
        return self._container


class LibvirtConnection:
    """libvirt ``virConnect`` analogue bound to one host's LXC runtime.

    The URI follows libvirt's LXC driver convention: ``lxc://<host>/``.
    """

    def __init__(self, runtime: LxcRuntime) -> None:
        self.runtime = runtime

    def getURI(self) -> str:
        return f"lxc://{self.runtime.host_id}/"

    def listAllDomains(self) -> list[Domain]:
        return [Domain(self, c) for c in self.runtime.containers()]

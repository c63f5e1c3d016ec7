"""Management plane: pimaster, node daemons, DHCP/DNS, images, dashboard.

The paper (§II-A/C) describes "an API daemon on each Pi providing a
RESTful management interface ... interacting with a head node (the
pimaster)", with DHCP and DNS services, image management tools and an
outward-facing web control panel.  This package is that plane, running
over the simulated fabric so management traffic contends with workloads:

* :mod:`~repro.mgmt.rest` -- a REST framework over the message sockets.
* :mod:`~repro.mgmt.dhcp` / :mod:`~repro.mgmt.dns` -- address and naming
  policy services on the pimaster.
* :mod:`~repro.mgmt.images` -- the image store: publish, patch, and push
  images to nodes (real bytes over the fabric onto real SD cards).
* :mod:`~repro.mgmt.node_daemon` -- the per-Pi REST agent wrapping LXC.
* :mod:`~repro.mgmt.monitoring` -- the pimaster's polling loop feeding
* :mod:`~repro.mgmt.dashboard` -- the Fig. 4 web control panel, rendered
  as text.
* :mod:`~repro.mgmt.health` -- heartbeat failure detection and per-node
  circuit breakers (the self-healing plane's sensors).
* :mod:`~repro.mgmt.recovery` -- container evacuation off dead nodes.
* :mod:`~repro.mgmt.pimaster` -- the head node tying it all together.
"""

from repro.mgmt.autoscaler import Autoscaler, AutoscalerConfig
from repro.mgmt.dashboard import Dashboard
from repro.mgmt.dhcp import DhcpServer, Lease
from repro.mgmt.dns import DnsServer
from repro.mgmt.health import (
    BreakerState,
    CircuitBreaker,
    FailureDetector,
    NodeHealth,
)
from repro.mgmt.images import ImageService
from repro.mgmt.monitoring import MonitoringService
from repro.mgmt.node_daemon import NODE_DAEMON_PORT, NodeDaemon
from repro.mgmt.p2p import P2P_PORT, P2pAgent
from repro.mgmt.pimaster import PiMaster
from repro.mgmt.recovery import RecoveryManager, UnschedulableContainer
from repro.mgmt.rest import RestClient, RestRequest, RestResponse, RestServer

__all__ = [
    "Autoscaler",
    "AutoscalerConfig",
    "BreakerState",
    "CircuitBreaker",
    "Dashboard",
    "DhcpServer",
    "DnsServer",
    "FailureDetector",
    "ImageService",
    "Lease",
    "MonitoringService",
    "NODE_DAEMON_PORT",
    "NodeDaemon",
    "NodeHealth",
    "P2P_PORT",
    "P2pAgent",
    "PiMaster",
    "RecoveryManager",
    "RestClient",
    "RestRequest",
    "RestResponse",
    "RestServer",
    "UnschedulableContainer",
]

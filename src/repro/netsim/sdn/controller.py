"""The SDN controller and the reactive OpenFlow path service.

``OpenFlowPathService`` is a :class:`~repro.netsim.routing.PathService`
the fabric can use directly.  Flow setup follows the OpenFlow reactive
pattern:

1. A new flow's first packet reaches the first OpenFlow switch on its
   way; the switch has no matching rule -> **PacketIn** to the controller
   (control-channel latency).
2. The controller's routing app computes a path; the controller sends
   **FlowMod** installs to every OpenFlow switch on it (one control RTT,
   installs in parallel).
3. The flow proceeds; subsequent flows between the same endpoints hit the
   cached rules and start with *no* controller involvement -- until the
   rules idle out.

The control channel is modelled as out-of-band with constant per-message
latency (the common deployment; the paper's switches hang off the same
gateway but control traffic is negligible at flow granularity).
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Protocol

import networkx as nx

from repro.errors import NoRouteError
from repro.netsim.routing import PathCache, path_links
from repro.netsim.sdn.openflow import OpenFlowSwitch
from repro.netsim.topology import Topology
from repro.sim.kernel import Simulator
from repro.sim.process import Signal, Timeout
from repro.units import msec

DEFAULT_IDLE_TIMEOUT_S = 60.0
DEFAULT_CONTROL_LATENCY_S = msec(1)


class RoutingApp(Protocol):
    """A controller application choosing paths."""

    def compute_path(
        self, graph: nx.Graph, src: str, dst: str, flow_key: Hashable,
        controller: "SdnController",
    ) -> List[str]:
        """Return a node path or raise :class:`NoRouteError`."""
        ...


class SdnController:
    """Logically-centralised control: topology view + switch handles + app."""

    def __init__(
        self, sim: Simulator, topology: Topology, app: RoutingApp,
        structured: bool = True,
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.app = app
        self.switches: Dict[str, OpenFlowSwitch] = {
            node: OpenFlowSwitch(sim, node)
            for node in topology.switches()
            if topology.is_openflow(node)
        }
        # The controller's topology view: structured path groups over a
        # working graph patched in place per link event.  Apps answer
        # PacketIns from these caches instead of re-searching the graph.
        self.paths = PathCache(topology, structured)
        self.network = None  # attached after Network construction
        self.packet_in_count = 0
        self.flow_mod_count = 0

    def attach_network(self, network) -> None:
        """Give the controller a stats view of the live fabric."""
        self.network = network

    # -- topology view ---------------------------------------------------------

    def mark_link(self, a: str, b: str, up: bool) -> None:
        self.paths.mark_link(a, b, up)
        if not up:
            # Purge rules that forward into the dead link.
            for node in (a, b):
                switch = self.switches.get(node)
                if switch is not None:
                    other = b if node == a else a
                    switch.table.remove_via(other)

    def working_graph(self) -> nx.Graph:
        return self.paths.graph

    # -- control-plane operations -------------------------------------------------

    def handle_packet_in(self, src: str, dst: str, flow_key: Hashable) -> List[str]:
        """Compute a path for a table-miss (PacketIn handler)."""
        self.packet_in_count += 1
        return self.app.compute_path(self.working_graph(), src, dst, flow_key, self)

    def install_path(self, path: List[str], idle_timeout: float,
                     key: Hashable = None) -> int:
        """Install FlowMods along a path; returns the number sent.

        ``key=None`` installs pair-granularity rules; a flow key installs
        per-flow (5-tuple-style) rules.
        """
        sent = 0
        for a, b in path_links(path):
            switch = self.switches.get(a)
            if switch is not None:
                switch.table.install((path[0], path[-1], key), b, idle_timeout)
                sent += 1
        self.flow_mod_count += sent
        return sent

    def openflow_nodes_on(self, path: List[str]) -> list[str]:
        return [node for node in path if node in self.switches]

    def path_still_installed(self, path: List[str], key: Hashable = None) -> bool:
        """Do all OpenFlow switches on the path still hold live rules?"""
        for a, b in path_links(path):
            switch = self.switches.get(a)
            if switch is None:
                continue
            entry = switch.table.lookup(path[0], path[-1], key)
            if entry is None or entry.next_hop != b:
                return False
        return True


class OpenFlowPathService:
    """Reactive path resolution with realistic control-plane latency.

    Implements the :class:`~repro.netsim.routing.PathService` protocol, so
    a :class:`~repro.netsim.fabric.Network` can be built directly on it.
    """

    def __init__(
        self,
        sim: Simulator,
        controller: SdnController,
        idle_timeout: float = DEFAULT_IDLE_TIMEOUT_S,
        control_latency: float = DEFAULT_CONTROL_LATENCY_S,
        match_granularity: str = "pair",
    ) -> None:
        if match_granularity not in ("pair", "flow"):
            raise ValueError("match_granularity must be 'pair' or 'flow'")
        self.sim = sim
        self.controller = controller
        self.idle_timeout = idle_timeout
        self.control_latency = control_latency
        # "pair": one rule covers all (src, dst) traffic -- cheap tables,
        # but every flow between a pair shares one path.  "flow": rules
        # are per flow key (5-tuple style) -- per-flow ECMP/TE works, at
        # the cost of a PacketIn per new flow.
        self.match_granularity = match_granularity
        # Cache of the last installed path per match; validity is
        # re-checked against the switches' live tables on every use.
        self._installed_paths: Dict[tuple, List[str]] = {}
        self.cache_hits = 0
        self.setups = 0

    def _match_key(self, src: str, dst: str, flow_key: Hashable):
        discriminator = flow_key if self.match_granularity == "flow" else None
        return (src, dst, discriminator)

    # -- PathService protocol ----------------------------------------------------

    def resolve(self, src: str, dst: str, flow_key: Hashable = None) -> Signal:
        if src == dst:
            return Signal(self.sim).succeed([src])

        match = self._match_key(src, dst, flow_key)
        cached = self._installed_paths.get(match)
        if cached is not None and self.controller.path_still_installed(
            cached, key=match[2]
        ):
            self.cache_hits += 1
            return Signal(self.sim).succeed(list(cached))

        def setup():
            # PacketIn: first OpenFlow switch -> controller.
            yield Timeout(self.sim, self.control_latency)
            try:
                path = self.controller.handle_packet_in(src, dst, flow_key)
            except (nx.NetworkXNoPath, nx.NodeNotFound) as exc:
                raise NoRouteError(f"no path from {src!r} to {dst!r}") from exc
            # FlowMods: controller -> switches (parallel, one latency).
            yield Timeout(self.sim, self.control_latency)
            self.controller.install_path(path, self.idle_timeout, key=match[2])
            self._installed_paths[match] = list(path)
            self.setups += 1
            return list(path)

        return self.sim.process(setup(), name=f"of-setup:{src}->{dst}")

    def mark_link(self, a: str, b: str, up: bool) -> None:
        """Fabric hook: propagate link state into the controller's view."""
        self.controller.mark_link(a, b, up)
        # Drop cached paths crossing the changed link.
        doomed = [
            key
            for key, path in self._installed_paths.items()
            if any({x, y} == {a, b} for x, y in path_links(path))
        ]
        for key in doomed:
            del self._installed_paths[key]

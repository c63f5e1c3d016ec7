"""Topology: the wiring diagram of the PiCloud fabric.

A :class:`Topology` is a :mod:`networkx` graph with typed nodes (hosts,
ToR / aggregation / core switches, the gateway) and capacitated edges.
Builders construct the paper's shapes:

* :func:`multi_root_tree` -- the canonical topology of Fig. 2: hosts in
  racks under ToR switches, ToRs connected to every (OpenFlow-enabled)
  aggregation root, roots connected to the university-gateway border
  router.
* :func:`fat_tree` -- the k-ary fat-tree the paper says the clusters "can
  easily be re-cabled to form".
* :func:`single_switch` -- a star, for unit tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import networkx as nx

from repro.errors import NetworkError
from repro.units import gbit_per_s, mbit_per_s, usec

HOST = "host"
TOR = "tor"
AGGREGATION = "aggregation"
CORE = "core"
GATEWAY = "gateway"

SWITCH_KINDS = (TOR, AGGREGATION, CORE, GATEWAY)


@dataclass(frozen=True)
class EdgeSpec:
    """Bandwidth/latency attributes of one cable."""

    bandwidth: float
    latency: float


class Topology:
    """A typed, capacitated wiring graph."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.graph = nx.Graph()

    # -- construction -------------------------------------------------------

    def add_host(self, node_id: str, rack: Optional[str] = None) -> None:
        self._add_node(node_id, HOST, rack)

    def add_switch(self, node_id: str, kind: str, rack: Optional[str] = None,
                   openflow: bool = False) -> None:
        if kind not in SWITCH_KINDS:
            raise NetworkError(f"unknown switch kind {kind!r}; use one of {SWITCH_KINDS}")
        self._add_node(node_id, kind, rack, openflow=openflow)

    def _add_node(self, node_id: str, kind: str, rack: Optional[str],
                  openflow: bool = False) -> None:
        if node_id in self.graph:
            raise NetworkError(f"duplicate node {node_id!r}")
        self.graph.add_node(node_id, kind=kind, rack=rack, openflow=openflow)

    def connect(self, a: str, b: str, bandwidth: float, latency: float = usec(50)) -> None:
        """Cable two nodes together."""
        for node in (a, b):
            if node not in self.graph:
                raise NetworkError(f"cannot cable unknown node {node!r}")
        if a == b:
            raise NetworkError(f"cannot cable {a!r} to itself")
        if self.graph.has_edge(a, b):
            raise NetworkError(f"{a!r} and {b!r} are already cabled")
        if bandwidth <= 0 or latency < 0:
            raise NetworkError(f"bad edge spec for {a!r}<->{b!r}")
        self.graph.add_edge(a, b, spec=EdgeSpec(bandwidth, latency))

    # -- queries --------------------------------------------------------------

    def kind(self, node_id: str) -> str:
        return self.graph.nodes[node_id]["kind"]

    def rack_of(self, node_id: str) -> Optional[str]:
        return self.graph.nodes[node_id].get("rack")

    def is_openflow(self, node_id: str) -> bool:
        return bool(self.graph.nodes[node_id].get("openflow"))

    def hosts(self) -> list[str]:
        return sorted(n for n, d in self.graph.nodes(data=True) if d["kind"] == HOST)

    def switches(self, kind: Optional[str] = None) -> list[str]:
        return sorted(
            n
            for n, d in self.graph.nodes(data=True)
            if d["kind"] != HOST and (kind is None or d["kind"] == kind)
        )

    def racks(self) -> dict[str, list[str]]:
        """Rack name -> sorted member hosts."""
        out: dict[str, list[str]] = {}
        for node in self.hosts():
            rack = self.rack_of(node)
            if rack is not None:
                out.setdefault(rack, []).append(node)
        return {rack: sorted(members) for rack, members in out.items()}

    def edges(self) -> Iterator[tuple[str, str, EdgeSpec]]:
        for a, b, data in self.graph.edges(data=True):
            yield a, b, data["spec"]

    def degree(self, node_id: str) -> int:
        return self.graph.degree[node_id]

    def validate(self) -> None:
        """Check the wiring is usable: non-empty and fully connected."""
        if self.graph.number_of_nodes() == 0:
            raise NetworkError(f"topology {self.name!r} is empty")
        if not nx.is_connected(self.graph):
            components = list(nx.connected_components(self.graph))
            raise NetworkError(
                f"topology {self.name!r} is partitioned into {len(components)} components"
            )

    def describe(self) -> dict[str, int]:
        """Shape summary used by the Fig. 2 reproduction bench."""
        counts = {kind: 0 for kind in (HOST,) + SWITCH_KINDS}
        for _, data in self.graph.nodes(data=True):
            counts[data["kind"]] += 1
        counts["links"] = self.graph.number_of_edges()
        counts["openflow_switches"] = sum(
            1 for _, d in self.graph.nodes(data=True) if d.get("openflow")
        )
        return counts


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def single_switch(
    hosts: Sequence[str],
    bandwidth: float = mbit_per_s(100),
    latency: float = usec(50),
) -> Topology:
    """A star: every host on one switch.  The minimal test fabric."""
    topo = Topology(name="single-switch")
    topo.add_switch("sw0", TOR)
    for host in hosts:
        topo.add_host(host)
        topo.connect(host, "sw0", bandwidth, latency)
    topo.validate()
    return topo


def multi_root_tree(
    rack_hosts: Sequence[Sequence[str]],
    num_roots: int = 2,
    host_bandwidth: float = mbit_per_s(100),
    uplink_bandwidth: float = gbit_per_s(1),
    gateway_bandwidth: float = gbit_per_s(1),
    latency: float = usec(50),
) -> Topology:
    """The paper's canonical densely-interconnected multi-root tree (Fig. 2).

    ``rack_hosts[i]`` lists the hosts in rack ``i``; each rack gets a ToR
    switch connected to every aggregation root (the OpenFlow layer), and
    the roots connect to the university-gateway border router.
    """
    if not rack_hosts or any(len(rack) == 0 for rack in rack_hosts):
        raise NetworkError("multi_root_tree requires at least one non-empty rack")
    if num_roots < 1:
        raise NetworkError("multi_root_tree requires at least one root")
    topo = Topology(name="multi-root-tree")
    roots = [f"agg{r}" for r in range(num_roots)]
    for root in roots:
        topo.add_switch(root, AGGREGATION, openflow=True)
    topo.add_switch("gateway", GATEWAY)
    for root in roots:
        topo.connect(root, "gateway", gateway_bandwidth, latency)
    for rack_index, members in enumerate(rack_hosts):
        rack_name = f"rack{rack_index}"
        tor = f"tor{rack_index}"
        topo.add_switch(tor, TOR, rack=rack_name)
        for root in roots:
            topo.connect(tor, root, uplink_bandwidth, latency)
        for host in members:
            topo.add_host(host, rack=rack_name)
            topo.connect(host, tor, host_bandwidth, latency)
    topo.validate()
    return topo


def fat_tree(
    k: int,
    hosts: Optional[Sequence[str]] = None,
    host_bandwidth: float = mbit_per_s(100),
    fabric_bandwidth: float = mbit_per_s(100),
    latency: float = usec(50),
) -> Topology:
    """A k-ary fat-tree (Al-Fares et al.): the re-cabled PiCloud (§II-A, §VI).

    ``k`` must be even.  Capacity is ``k^3/4`` hosts; if ``hosts`` is given
    they fill edge switches in order (racks are pods), otherwise synthetic
    host names are generated for full occupancy.
    """
    if k < 2 or k % 2 != 0:
        raise NetworkError(f"fat-tree arity must be even and >= 2, got {k}")
    capacity = k ** 3 // 4
    if hosts is None:
        hosts = [f"h{i}" for i in range(capacity)]
    if len(hosts) > capacity:
        raise NetworkError(
            f"fat-tree(k={k}) holds {capacity} hosts, got {len(hosts)}"
        )
    topo = Topology(name=f"fat-tree-k{k}")
    half = k // 2
    core_switches = []
    for i in range(half * half):
        name = f"core{i}"
        topo.add_switch(name, CORE, openflow=True)
        core_switches.append(name)
    host_iter = iter(hosts)
    for pod in range(k):
        rack_name = f"pod{pod}"
        aggs = []
        for a in range(half):
            name = f"p{pod}-agg{a}"
            topo.add_switch(name, AGGREGATION, rack=rack_name, openflow=True)
            aggs.append(name)
            # Each agg switch connects to a distinct stripe of core switches.
            for c in range(half):
                topo.connect(name, core_switches[a * half + c], fabric_bandwidth, latency)
        for e in range(half):
            edge = f"p{pod}-edge{e}"
            topo.add_switch(edge, TOR, rack=rack_name, openflow=True)
            for agg in aggs:
                topo.connect(edge, agg, fabric_bandwidth, latency)
            for _ in range(half):
                host = next(host_iter, None)
                if host is None:
                    break
                topo.add_host(host, rack=rack_name)
                topo.connect(host, edge, host_bandwidth, latency)
    topo.validate()
    return topo


def rack_host_names(num_racks: int, hosts_per_rack: int) -> list[list[str]]:
    """Generate the PiCloud's host naming: ``pi-r<rack>-n<slot>``."""
    return [
        [f"pi-r{r}-n{s}" for s in range(hosts_per_rack)]
        for r in range(num_racks)
    ]

"""Experiment F2 -- Fig. 2: the system architecture.

The diagram shows 56 Pis in 4 racks, each rack under a ToR switch, ToRs
connected to OpenFlow-enabled aggregation switches, and everything
reaching the Internet through the university gateway (core/border
router).  The text adds that the clusters "can easily be re-cabled to
form a fat-tree topology" -- we re-cable and validate that too.
"""

import networkx as nx

from repro.core import PiCloud, PiCloudConfig
from repro.netsim.topology import fat_tree, rack_host_names

from conftest import build_paper_cloud


def test_fig2_multi_root_tree_architecture():
    cloud = build_paper_cloud()
    shape = cloud.describe()

    assert shape["pis"] == 56
    assert shape["net_tor"] == 4            # one ToR per rack
    assert shape["net_aggregation"] == 2    # the multi-root layer
    assert shape["net_gateway"] == 1        # university gateway
    assert shape["net_openflow_switches"] == 2  # aggregation is OpenFlow
    assert shape["sdn_enabled"] is True

    # Structural invariants of the canonical multi-root tree:
    topo = cloud.topology
    for tor in topo.switches("tor"):
        # Every ToR sees its 14 hosts plus one uplink per root.
        assert topo.degree(tor) == 14 + 2
    for host in cloud.node_names:
        assert topo.degree(host) == 1  # single access link

    # Any two Pis can reach each other (validated + connected).
    graph = topo.graph
    assert nx.has_path(graph, "pi-r0-n0", "pi-r3-n13")

    print(f"\nFig. 2 architecture: {shape['net_host']} hosts, "
          f"{shape['net_tor']} ToR, {shape['net_aggregation']} aggregation "
          f"(OpenFlow), {shape['net_gateway']} gateway, "
          f"{shape['net_links']} cables")


def test_fig2_redundancy_multi_root():
    """Two roots => losing one aggregation switch never partitions Pis."""
    cloud = build_paper_cloud()

    def survives_root_loss():
        graph = cloud.topology.graph.copy()
        graph.remove_node("agg0")
        pis = [n for n in graph if n.startswith("pi-")]
        return nx.is_connected(graph.subgraph(pis + ["agg1"] + [
            n for n in graph if n.startswith("tor")
        ]).copy())

    assert survives_root_loss()


def test_fig2_recable_to_fat_tree():
    """The same 56 Pis re-cabled as a k=8 fat-tree (capacity 128)."""
    hosts = [name for rack in rack_host_names(4, 14) for name in rack]

    topo = fat_tree(8, hosts)
    shape = topo.describe()
    assert shape["host"] == 56
    assert shape["core"] == 16          # (k/2)^2
    assert shape["aggregation"] == 32   # k pods x k/2
    assert shape["tor"] == 32           # edge layer
    # Full bisection structure: every edge switch has k/2 uplinks.
    for edge_switch in topo.switches("tor"):
        uplinks = sum(
            1 for neighbor in topo.graph.neighbors(edge_switch)
            if topo.kind(neighbor) == "aggregation"
        )
        assert uplinks == 4

    # A cloud can be built directly on the re-cabled fabric.
    config = PiCloudConfig(
        topology="fat-tree", fat_tree_k=8, start_monitoring=False
    )
    cloud = PiCloud(config)
    assert cloud.describe()["net_core"] == 16

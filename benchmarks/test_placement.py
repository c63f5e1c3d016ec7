"""Experiment C6 -- VM management / placement algorithms (§III).

"The way in which VMs are allocated is crucial; we can experiment with
new algorithms on the PiCloud, while directly observing the resulting
behaviour on all layers."  We drive the same spawn stream through each
policy and observe layer-crossing metrics: machines used (power),
spread (balance), and rack locality (network).
"""

import pytest

from repro.placement import (
    BestFit,
    FirstFit,
    LowestCpuLoad,
    NetworkAwarePlacement,
    PackingPlacement,
    RoundRobin,
    WorstFit,
)
from repro.telemetry.stats import format_table

from conftest import build_small_cloud


def drive_policy(policy, spawns=6):
    cloud = build_small_cloud()
    cloud.pimaster.placement_policy = policy
    records = [
        cloud.spawn_and_wait("base", name=f"c{i}") for i in range(spawns)
    ]
    nodes_used = {r.node_id for r in records}
    racks_used = {cloud.machines[r.node_id].rack for r in records}
    watts = cloud.total_watts()
    return {
        "nodes": len(nodes_used),
        "racks": len(racks_used),
        "watts": watts,
        "by_node": sorted(
            sum(1 for r in records if r.node_id == n) for n in nodes_used
        ),
    }


def test_policy_sweep_shapes():
    policies = {
        "FirstFit": FirstFit(),
        "BestFit": BestFit(),
        "WorstFit": WorstFit(),
        "RoundRobin": RoundRobin(),
        "Packing": PackingPlacement(),
        "LowestCpuLoad": LowestCpuLoad(),
        "NetworkAware": NetworkAwarePlacement(),
    }
    results = {}
    for name, policy in policies.items():
        results[name] = drive_policy(policy)

    print("\nC6 -- 6 spawns under each placement policy (6 nodes, 2 racks)\n")
    print(format_table(
        ["policy", "nodes used", "racks used", "per-node spread"],
        [[name, r["nodes"], r["racks"], str(r["by_node"])]
         for name, r in results.items()],
    ))

    # Shape claims: packing-style policies concentrate (2 nodes of 3);
    # spreading policies use all 6 nodes.
    assert results["FirstFit"]["nodes"] == 2
    assert results["BestFit"]["nodes"] == 2
    assert results["Packing"]["nodes"] == 2
    assert results["WorstFit"]["nodes"] == 6
    assert results["RoundRobin"]["nodes"] == 6
    # Density cap is never violated by any policy.
    for result in results.values():
        assert max(result["by_node"]) <= 3


def test_rack_affinity_keeps_pairs_local():
    """same_rack_as keeps a web/db pair on one ToR (traffic stays local)."""
    cloud = build_small_cloud()
    web = cloud.spawn_and_wait("webserver", name="web")
    web_rack = cloud.machines[web.node_id].rack

    def spawn_db():
        return cloud.spawn_and_wait("database", name="db",
                                    same_rack_as=web_rack)

    db = spawn_db()
    assert cloud.machines[db.node_id].rack == web_rack


def test_anti_affinity_survives_node_failure():
    """Spread replicas keep serving when a node dies."""
    cloud = build_small_cloud()
    replicas = [
        cloud.spawn_and_wait("webserver", name=f"replica{i}", group="web")
        for i in range(3)
    ]
    nodes = [r.node_id for r in replicas]
    assert len(set(nodes)) == 3  # all on distinct nodes

    cloud.fail_node(nodes[0])

    def survivors():
        return [
            r.name for r in replicas
            if cloud.machines[r.node_id].is_on
            and cloud.daemons[r.node_id].runtime.container(r.name).is_running
        ]

    alive = survivors()
    assert len(alive) == 2


def test_network_aware_avoids_hot_rack():
    """Congestion-aware placement dodges the rack with a hot uplink."""
    cloud = build_small_cloud()
    # Saturate rack0's uplink with a long inter-rack elephant from r0-n0.
    cloud.network.transfer("pi-r0-n0", "pi-r1-n0", 1e9, tag="hog")
    cloud.run_for(2.0)

    policy = NetworkAwarePlacement(congestion_weight=5.0)

    def place():
        return cloud.spawn_and_wait("base", name="careful", policy=policy)

    record = place()
    assert record.node_id != "pi-r0-n0"  # not behind the saturated link

"""Experiment C9 -- peer-to-peer cloud management (§III).

"The flexibility of owning our own testbed allows us to consider radical
departures to the norm, such as a peer-to-peer Cloud management system."
We contrast the two architectures on the axis that motivates P2P --
resilience of the management plane itself:

* pimaster architecture: kill the head node and no container can be
  spawned anywhere (the single point of failure);
* P2P architecture: kill any agent and spawns keep succeeding -- names
  re-hash onto the surviving ring.

Plus the operational basics: gossip convergence time and the ring's
placement balance.
"""

from repro.mgmt.p2p import P2P_PORT, P2pAgent
from repro.mgmt.rest import RestClient
from repro.telemetry.stats import format_table
from repro.units import mib
from repro.virt.image import ContainerImage

from conftest import build_small_cloud

TINY = ContainerImage(name="tiny", version=1, rootfs_bytes=mib(1),
                      idle_memory_bytes=mib(30))


def p2p_world(cloud):
    first = cloud.pimaster.node_ids()[0]
    seeds = [(first, cloud.pimaster.node_ip(first))]
    agents = {}
    for index, node in enumerate(cloud.pimaster.node_ids()):
        agent = P2pAgent(
            cloud.kernels[node], cloud.daemons[node].runtime,
            container_subnet=f"10.{100 + index}.0.0/24",
            seeds=seeds, gossip_interval_s=2.0, suspect_timeout_s=12.0,
        )
        agent.seed_image(TINY)
        agents[node] = agent
    return agents


def p2p_spawn(cloud, agents, entry, name):
    client = RestClient(cloud.kernels["pimaster"].netstack, timeout_s=120.0)
    call = client.post(agents[entry].ip, P2P_PORT, "/p2p/spawn",
                       body={"name": name, "image": "tiny:v1"})
    cloud.run_until_signal(call, max_seconds=600.0)
    return call.value if call.ok else None


def test_p2p_survives_management_node_loss():
    cloud = build_small_cloud(racks=2, pis=3)
    agents = p2p_world(cloud)
    cloud.run_for(40.0)  # gossip convergence

    # Baseline: spawns work via any entry point.
    ok = p2p_spawn(cloud, agents, "pi-r0-n0", "svc-before")
    assert ok is not None and ok.status == 201

    # Kill the node that owns the next name AND one more agent.
    victim = agents["pi-r0-n0"].owners_for("svc-after")[0].node_id
    agents[victim].stop()
    cloud.fail_node(victim)
    cloud.run_for(60.0)

    def spawn_after_failure():
        entry = next(n for n in agents if n != victim)
        return p2p_spawn(cloud, agents, entry, "svc-after")

    response = spawn_after_failure()
    assert response is not None and response.status == 201
    assert response.body["node"] != victim

    print(f"\nP2P: owner {victim} killed; 'svc-after' re-hashed onto "
          f"{response.body['node']} and spawned fine")


def test_pimaster_is_a_single_point_of_failure():
    """The architectural contrast: kill pimaster, spawns stop working."""
    cloud = build_small_cloud(racks=2, pis=2)
    record = None

    def healthy_spawn():
        signal = cloud.spawn("base", name="works")
        cloud.run_until_signal(signal)
        return signal

    signal = healthy_spawn()
    assert signal.ok

    # The head node dies: its services (and client) die with it.
    cloud.machines["pimaster"].fail()
    cloud.pimaster.client.timeout_s = 10.0
    doomed = cloud.spawn("base", name="stranded")
    cloud.run_until_signal(doomed, max_seconds=600.0)
    assert doomed.triggered and not doomed.ok
    print("\npimaster killed: spawn of 'stranded' failed, as expected of "
          "a centralised control plane")


def test_gossip_convergence_time():
    """How long until every agent knows every member, from one seed."""
    cloud = build_small_cloud(racks=2, pis=3)
    agents = p2p_world(cloud)

    def converge():
        while True:
            if all(
                {m.node_id for m in a.alive_members()} == set(agents)
                for a in agents.values()
            ):
                return cloud.sim.now
            if cloud.sim.now > 300.0:
                raise AssertionError("gossip did not converge")
            cloud.run_for(2.0)

    converged_at = converge()
    print(f"\n6-node membership converged from 1 seed in "
          f"{converged_at:.0f}s of gossip (2s rounds, fanout 2)")
    assert converged_at < 60.0


def test_ring_balances_names():
    """Consistent hashing spreads many names across the live ring."""
    cloud = build_small_cloud(racks=2, pis=3)
    agents = p2p_world(cloud)
    cloud.run_for(40.0)
    agent = next(iter(agents.values()))

    def histogram():
        counts = {node: 0 for node in agents}
        for index in range(600):
            owner = agent.owners_for(f"container-{index}")[0].node_id
            counts[owner] += 1
        return counts

    counts = histogram()
    print("\nring balance over 600 names:\n")
    print(format_table(["node", "names owned"],
                       [[n, c] for n, c in sorted(counts.items())]))
    # Plain consistent hashing (no virtual nodes): expect every node to
    # own a share, within loose balance bounds.
    assert all(count > 0 for count in counts.values())
    assert max(counts.values()) < 600 * 0.7

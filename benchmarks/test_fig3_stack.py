"""Experiment F3 -- Fig. 3: the per-node software stack.

The figure shows, bottom-up: ARM System-on-Chip / Raspbian Linux /
Linux Container (LXC) + libvirt RESTful APIs / three application
containers (web server, database, Hadoop).  We stand the full stack up
on one simulated Pi and verify each layer is present and doing its job.
"""

from repro.virt import ContainerState, LibvirtConnection

from conftest import build_small_cloud


def render_stack(cloud, node_id) -> str:
    """ASCII rendering of the Fig. 3 stack for one node."""
    daemon = cloud.daemons[node_id]
    containers = daemon.runtime.containers(ContainerState.RUNNING)
    apps = "  ".join(f"[{c.image.app_class:^10s}]" for c in containers)
    names = "  ".join(f"[{c.name:^10s}]" for c in containers)
    return "\n".join([
        f"Fig. 3 -- software stack on {node_id}",
        "",
        f"  Applications     {apps}",
        f"  Containers       {names}",
        "  Management       [ Libvirt-style + RESTful APIs ]",
        "  Virtualisation   [ Linux Container (LXC) ]",
        "  OS               [ Raspbian Linux ]",
        f"  Hardware         [ ARM System on Chip @ "
        f"{daemon.kernel.machine.spec.cpu.clock_hz / 1e6:.0f} MHz ]",
    ])


def test_fig3_full_stack_on_one_pi():
    """One Pi running the paper's three app containers concurrently."""
    cloud = build_small_cloud()
    node = "pi-r0-n0"
    for image, name in (("webserver", "web"), ("database", "db"),
                        ("hadoop-worker", "hadoop")):
        cloud.spawn_and_wait(image, name=name, node_id=node)

    daemon = cloud.daemons[node]
    running = daemon.runtime.containers(ContainerState.RUNNING)
    # The Fig. 3 payload: web server + database + hadoop containers.
    assert {c.image.app_class for c in running} == {"http", "kvstore", "mapreduce"}
    assert len(running) == 3  # the paper's density, live

    # Each layer of the stack is real:
    # - hardware: ARM SoC with the Model B's clock;
    machine = daemon.kernel.machine
    assert machine.spec.cpu.architecture == "armv6"
    # - OS: cgroups + scheduler + filesystem are active;
    assert sorted(daemon.kernel.cgroups()) == [
        "lxc.db", "lxc.hadoop", "lxc.web"
    ]
    assert daemon.kernel.filesystem.exists("/var/lib/lxc/web/rootfs")
    # - virtualisation: isolated RSS per container, bridged IPs;
    assert all(c.memory_bytes > 0 and c.ip is not None for c in running)
    # - management: the RESTful daemon serves this node.
    assert daemon.server.requests_served > 0

    print("\n" + render_stack(cloud, node))


def test_fig3_libvirt_api_layer():
    """The 'Libvirt RESTful APIs' box: the libvirt facade drives LXC."""
    cloud = build_small_cloud()
    node = "pi-r0-n1"
    cloud.spawn_and_wait("webserver", name="w0", node_id=node)
    conn = LibvirtConnection(cloud.daemons[node].runtime)

    domains = conn.listAllDomains()
    assert [d.name() for d in domains] == ["w0"]
    info = domains[0].info()
    assert info["state"] == 1  # VIR_DOMAIN_RUNNING
    assert info["memory"] > 0
    print(f"\nlibvirt view: {conn.getURI()} -> "
          f"{[d.name() for d in domains]}, info={info}")

"""Unit tests for live migration and the libvirt facade."""

import pytest

from repro.errors import MigrationError
from repro.hardware import Machine, RASPBERRY_PI_MODEL_B
from repro.hostos import HostKernel, IpFabric
from repro.netsim import Network
from repro.netsim.topology import single_switch
from repro.sim import Simulator
from repro.units import mib
from repro.virt import (
    ContainerImage,
    ContainerState,
    LibvirtConnection,
    LxcRuntime,
    live_migrate,
)
from repro.virt.libvirt_api import (
    VIR_DOMAIN_PAUSED,
    VIR_DOMAIN_RUNNING,
    VIR_DOMAIN_SHUTOFF,
)

TINY = ContainerImage(name="tiny", version=1, rootfs_bytes=mib(1),
                      idle_memory_bytes=mib(30))


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def two_hosts(sim):
    topo = single_switch(["pi-1", "pi-2"], bandwidth=12.5e6, latency=0.0)
    network = Network(sim, topo)
    fabric = IpFabric(sim, network)
    runtimes = {}
    for host in ("pi-1", "pi-2"):
        machine = Machine(sim, RASPBERRY_PI_MODEL_B, host)
        machine.boot_immediately()
        runtimes[host] = LxcRuntime(HostKernel(sim, machine, fabric))
    return runtimes, network, fabric


def start_container(sim, runtime, name="c1", ip="10.0.0.50", dirty_rate=0.0):
    create = runtime.lxc_create(name, TINY)
    sim.run()
    container = create.value
    runtime.lxc_start(container, ip=ip)
    sim.run()
    container.dirty_rate = dirty_rate
    return container


class TestLiveMigration:
    def test_clean_migration_moves_container(self, sim, two_hosts):
        runtimes, network, fabric = two_hosts
        container = start_container(sim, runtimes["pi-1"])
        done = live_migrate(container, runtimes["pi-2"])
        sim.run()
        report = done.value
        assert report.source == "pi-1"
        assert report.destination == "pi-2"
        assert container.runtime is runtimes["pi-2"]
        assert container.host_id == "pi-2"
        assert container.state is ContainerState.RUNNING
        assert container.migration_count == 1

    def test_zero_dirty_rate_single_round_zero_residue(self, sim, two_hosts):
        runtimes, _, _ = two_hosts
        container = start_container(sim, runtimes["pi-1"], dirty_rate=0.0)
        done = live_migrate(container, runtimes["pi-2"])
        sim.run()
        report = done.value
        assert report.rounds == 1
        assert report.total_bytes == pytest.approx(mib(30))
        assert report.converged

    def test_ip_follows_container(self, sim, two_hosts):
        runtimes, _, fabric = two_hosts
        container = start_container(sim, runtimes["pi-1"], ip="10.0.0.50")
        live_migrate(container, runtimes["pi-2"])
        sim.run()
        assert fabric.locate("10.0.0.50").node_id == "pi-2"
        assert container.ip == "10.0.0.50"

    def test_source_resources_released(self, sim, two_hosts):
        runtimes, _, _ = two_hosts
        src_kernel = runtimes["pi-1"].kernel
        container = start_container(sim, runtimes["pi-1"])
        mem_before = src_kernel.machine.memory.used
        live_migrate(container, runtimes["pi-2"])
        sim.run()
        assert src_kernel.machine.memory.used == mem_before - mib(30)
        assert src_kernel.cgroups() == []
        assert runtimes["pi-1"].containers() == []
        assert not src_kernel.filesystem.exists(container.rootfs_path)

    def test_dirty_pages_add_rounds(self, sim, two_hosts):
        runtimes, _, _ = two_hosts
        # 30 MiB at 12.5 MB/s ≈ 2.5s/round; 1 MB/s dirty rate => multiple rounds.
        container = start_container(sim, runtimes["pi-1"], dirty_rate=1e6)
        done = live_migrate(container, runtimes["pi-2"])
        sim.run()
        report = done.value
        assert report.rounds > 1
        assert report.converged
        assert report.total_bytes > mib(30)
        # Rounds shrink geometrically.
        assert report.bytes_per_round[1] < report.bytes_per_round[0]

    def test_converged_downtime_bounded_by_stop_threshold(self, sim, two_hosts):
        """Pre-copy converges => downtime is at most one threshold-sized copy."""
        runtimes, _, _ = two_hosts
        bandwidth = 12.5e6  # the access link
        threshold = 256 * 1024
        bound = threshold / bandwidth * 1.5  # residue <= threshold (+ slack)

        for name, ip, dirty in (("a", "10.0.0.60", 1e5), ("b", "10.0.0.61", 5e6)):
            container = start_container(
                sim, runtimes["pi-1"], name=name, ip=ip, dirty_rate=dirty
            )
            done = live_migrate(container, runtimes["pi-2"])
            sim.run()
            report = done.value
            assert report.converged
            assert report.downtime_s <= bound
            # Move it back so the next iteration starts from pi-1.
            back = live_migrate(container, runtimes["pi-1"])
            sim.run()
            assert back.ok

    def test_non_converging_migration_flagged(self, sim, two_hosts):
        runtimes, _, _ = two_hosts
        # Dirty rate exceeds the 12.5 MB/s link: pre-copy cannot converge.
        container = start_container(sim, runtimes["pi-1"], dirty_rate=20e6)
        done = live_migrate(container, runtimes["pi-2"])
        sim.run()
        report = done.value
        assert not report.converged
        assert container.host_id == "pi-2"  # still completes via stop-and-copy
        assert report.downtime_s > 0

    def test_migrate_stopped_container_rejected(self, sim, two_hosts):
        runtimes, _, _ = two_hosts
        create = runtimes["pi-1"].lxc_create("c1", TINY)
        sim.run()
        done = live_migrate(create.value, runtimes["pi-2"])
        sim.run()
        assert isinstance(done.exception, MigrationError)

    def test_migrate_to_same_host_rejected(self, sim, two_hosts):
        runtimes, _, _ = two_hosts
        container = start_container(sim, runtimes["pi-1"])
        done = live_migrate(container, runtimes["pi-1"])
        sim.run()
        assert isinstance(done.exception, MigrationError)

    def test_migrate_to_full_host_fails_fast(self, sim, two_hosts):
        runtimes, _, _ = two_hosts
        # Fill pi-2 with three containers (the density limit).
        for i in range(3):
            start_container(sim, runtimes["pi-2"], name=f"fill{i}", ip=f"10.0.1.{i + 1}")
        container = start_container(sim, runtimes["pi-1"])
        done = live_migrate(container, runtimes["pi-2"])
        sim.run()
        assert isinstance(done.exception, MigrationError)
        # Container unharmed on the source.
        assert container.host_id == "pi-1"
        assert container.state is ContainerState.RUNNING

    def test_container_keeps_working_after_migration(self, sim, two_hosts):
        runtimes, _, _ = two_hosts
        container = start_container(sim, runtimes["pi-1"])
        live_migrate(container, runtimes["pi-2"])
        sim.run()
        done = container.execute(700e6)  # one second of CPU on the new host
        t0 = sim.now
        sim.run()
        assert done.triggered
        assert sim.now - t0 == pytest.approx(1.0)

    def test_migration_report_duration(self, sim, two_hosts):
        runtimes, _, _ = two_hosts
        container = start_container(sim, runtimes["pi-1"])
        done = live_migrate(container, runtimes["pi-2"])
        sim.run()
        report = done.value
        assert report.duration_s > 0
        assert report.downtime_s <= report.duration_s


class TestLibvirtFacade:
    def test_listing_maps_runtime_states(self, sim, two_hosts):
        runtimes, _, _ = two_hosts
        runtime = runtimes["pi-1"]
        conn = LibvirtConnection(runtime)
        assert conn.getURI() == "lxc://pi-1/"
        start_container(sim, runtime, name="a", ip="10.0.0.70")
        frozen = start_container(sim, runtime, name="b", ip="10.0.0.71")
        runtime.lxc_freeze(frozen)
        runtime.lxc_create("c", TINY)
        sim.run()
        states = {d.name(): d.state() for d in conn.listAllDomains()}
        assert states == {"a": VIR_DOMAIN_RUNNING, "b": VIR_DOMAIN_PAUSED,
                          "c": VIR_DOMAIN_SHUTOFF}

    def test_info(self, sim, two_hosts):
        runtimes, _, _ = two_hosts
        runtime = runtimes["pi-1"]
        create = runtime.lxc_create("web0", TINY, cpu_shares=2048,
                                    memory_limit_bytes=mib(64))
        sim.run()
        runtime.lxc_start(create.value)
        sim.run()
        [domain] = LibvirtConnection(runtime).listAllDomains()
        info = domain.info()
        assert info["state"] == VIR_DOMAIN_RUNNING
        assert info["maxMem"] == mib(64)
        assert info["memory"] == mib(30)
        assert info["cpuShares"] == 2048

"""Unit tests for images, containers and the LXC runtime."""

from dataclasses import replace

import pytest

from repro.errors import (
    AddressError,
    ContainerStateError,
    ImageError,
    OutOfMemoryError,
    VirtualisationError,
)
from repro.hardware import Machine, RASPBERRY_PI_MODEL_B, RASPBERRY_PI_MODEL_B_512
from repro.hostos import HostKernel, IpFabric
from repro.netsim import Network
from repro.netsim.topology import single_switch
from repro.sim import Simulator
from repro.units import mib
from repro.virt import (
    ContainerImage,
    ContainerState,
    ImageLibrary,
    LxcRuntime,
    STANDARD_IMAGES,
)


@pytest.fixture
def sim():
    return Simulator()


def make_host(sim, host_id="pi-1", spec=RASPBERRY_PI_MODEL_B, extra_hosts=()):
    hosts = [host_id, *extra_hosts]
    topo = single_switch(hosts, bandwidth=12.5e6, latency=0.0)  # 100 Mb/s
    network = Network(sim, topo)
    fabric = IpFabric(sim, network)
    kernels = {}
    for h in hosts:
        machine = Machine(sim, spec, h)
        machine.boot_immediately()
        kernels[h] = HostKernel(sim, machine, fabric)
    if extra_hosts:
        return kernels, fabric, network
    return kernels[host_id]


TINY = ContainerImage(name="tiny", version=1, rootfs_bytes=mib(1),
                      idle_memory_bytes=mib(30), app_class="generic")


class TestImage:
    def test_validation(self):
        with pytest.raises(ImageError):
            ContainerImage(name="x", version=1, rootfs_bytes=0)
        with pytest.raises(ImageError):
            ContainerImage(name="x", version=0, rootfs_bytes=1)
        with pytest.raises(ImageError):
            ContainerImage(name="x", version=1, rootfs_bytes=1, idle_memory_bytes=0)

    def test_qualified_name(self):
        assert TINY.qualified_name == "tiny:v1"

    def test_standard_images_cover_paper_apps(self):
        """Fig. 3 shows web server, database and Hadoop containers."""
        classes = {img.app_class for img in STANDARD_IMAGES.values()}
        assert {"http", "kvstore", "mapreduce"} <= classes

    def test_standard_images_30mb_idle(self):
        """Paper: 'each consuming 30MB RAM when idle'."""
        assert STANDARD_IMAGES["webserver"].idle_memory_bytes == mib(30)
        assert STANDARD_IMAGES["base"].idle_memory_bytes == mib(30)


class TestImageLibrary:
    def test_get_latest(self):
        lib = ImageLibrary()
        assert lib.get("webserver").version == 1
        lib.publish(replace(lib.get("webserver"), version=2))
        assert lib.get("webserver").version == 2

    def test_get_exact_version(self):
        lib = ImageLibrary()
        lib.publish(replace(lib.get("base"), version=2))
        assert lib.get("base:v1").version == 1
        assert lib.get("base:v2").version == 2

    def test_unknown_image(self):
        with pytest.raises(ImageError, match="library has"):
            ImageLibrary().get("windows")
        with pytest.raises(ImageError):
            ImageLibrary().get("base:v99")

    def test_publish_stale_version_rejected(self):
        lib = ImageLibrary()
        with pytest.raises(ImageError):
            lib.publish(STANDARD_IMAGES["base"])  # v1 already current

    def test_names(self):
        assert "webserver" in ImageLibrary().names()


class TestLxcLifecycle:
    def test_create_provisions_rootfs(self, sim):
        kernel = make_host(sim)
        runtime = LxcRuntime(kernel)
        done = runtime.lxc_create("c1", TINY)
        sim.run()
        container = done.value
        assert container.state is ContainerState.DEFINED
        assert kernel.filesystem.exists("/var/lib/lxc/c1/rootfs")
        assert kernel.filesystem.stat("/var/lib/lxc/c1/rootfs").size == mib(1)

    def test_create_takes_sd_write_time(self, sim):
        kernel = make_host(sim)
        runtime = LxcRuntime(kernel)
        runtime.lxc_create("c1", TINY)
        sim.run()
        # 1 MiB at the SD card's 10 MB/s write + 2ms latency.
        assert sim.now == pytest.approx(mib(1) / 10e6 + 2e-3)

    def test_duplicate_name_rejected(self, sim):
        kernel = make_host(sim)
        runtime = LxcRuntime(kernel)
        runtime.lxc_create("c1", TINY)
        sim.run()
        dup = runtime.lxc_create("c1", TINY)
        sim.run()
        assert isinstance(dup.exception, VirtualisationError)

    def test_start_charges_idle_memory(self, sim):
        kernel = make_host(sim)
        runtime = LxcRuntime(kernel)
        create = runtime.lxc_create("c1", TINY)
        sim.run()
        container = create.value
        runtime.lxc_start(container, ip="10.0.0.10")
        sim.run()
        assert container.state is ContainerState.RUNNING
        assert container.memory_bytes == mib(30)
        assert container.ip == "10.0.0.10"
        assert container.cgroup.memory_used == mib(30)

    def test_start_delay_applied(self, sim):
        kernel = make_host(sim)
        runtime = LxcRuntime(kernel)
        create = runtime.lxc_create("c1", TINY)
        sim.run()
        t0 = sim.now
        runtime.lxc_start(create.value)
        sim.run()
        assert sim.now - t0 == pytest.approx(2.0)

    def test_paper_density_three_containers_on_256mb(self, sim):
        """Paper section II-B: 'we can run three containers on a single Pi'."""
        kernel = make_host(sim)
        runtime = LxcRuntime(kernel)
        started = []
        for i in range(3):
            create = runtime.lxc_create(f"c{i}", TINY)
            sim.run()
            start = runtime.lxc_start(create.value)
            sim.run()
            assert start.ok
            started.append(create.value)
        # The fourth does not fit in RAM.
        create = runtime.lxc_create("c3", TINY)
        sim.run()
        fourth = runtime.lxc_start(create.value)
        sim.run()
        assert isinstance(fourth.exception, OutOfMemoryError)
        assert runtime.running_count() == 3

    def test_512mb_model_fits_more_containers(self, sim):
        """After the RAM doubling, density roughly doubles too."""
        kernel = make_host(sim, spec=RASPBERRY_PI_MODEL_B_512)
        runtime = LxcRuntime(kernel)
        running = 0
        for i in range(12):
            create = runtime.lxc_create(f"c{i}", TINY)
            sim.run()
            start = runtime.lxc_start(create.value)
            sim.run()
            if start.ok:
                running += 1
        assert running >= 6

    def test_stop_releases_memory_and_ip(self, sim):
        kernel = make_host(sim)
        runtime = LxcRuntime(kernel)
        create = runtime.lxc_create("c1", TINY)
        sim.run()
        container = create.value
        runtime.lxc_start(container, ip="10.0.0.10")
        sim.run()
        runtime.lxc_stop(container)
        assert container.state is ContainerState.DEFINED
        assert container.memory_bytes == 0
        assert container.cgroup.memory_used == 0
        with pytest.raises(AddressError):
            kernel.netstack.fabric.locate("10.0.0.10")

    def test_freeze_blocks_execution(self, sim):
        kernel = make_host(sim)
        runtime = LxcRuntime(kernel)
        create = runtime.lxc_create("c1", TINY)
        sim.run()
        container = create.value
        runtime.lxc_start(container)
        sim.run()
        runtime.lxc_freeze(container)
        assert container.state is ContainerState.FROZEN
        with pytest.raises(ContainerStateError):
            container.execute(100.0)
        runtime.lxc_unfreeze(container)
        container.execute(100.0)  # fine again

    def test_destroy_removes_rootfs_and_cgroup(self, sim):
        kernel = make_host(sim)
        runtime = LxcRuntime(kernel)
        create = runtime.lxc_create("c1", TINY)
        sim.run()
        container = create.value
        runtime.lxc_destroy(container)
        assert container.state is ContainerState.DESTROYED
        assert not kernel.filesystem.exists("/var/lib/lxc/c1/rootfs")
        assert kernel.cgroups() == []
        with pytest.raises(VirtualisationError):
            runtime.container("c1")

    def test_destroy_running_rejected(self, sim):
        kernel = make_host(sim)
        runtime = LxcRuntime(kernel)
        create = runtime.lxc_create("c1", TINY)
        sim.run()
        runtime.lxc_start(create.value)
        sim.run()
        with pytest.raises(ContainerStateError):
            runtime.lxc_destroy(create.value)

    def test_container_execute_uses_cgroup(self, sim):
        kernel = make_host(sim)
        runtime = LxcRuntime(kernel)
        create = runtime.lxc_create("c1", TINY, cpu_quota=0.5)
        sim.run()
        container = create.value
        runtime.lxc_start(container)
        sim.run()
        t0 = sim.now
        done = container.execute(RASPBERRY_PI_MODEL_B.cpu.clock_hz)  # 1s at full speed
        sim.run()
        assert done.triggered
        assert sim.now - t0 == pytest.approx(2.0)  # quota halves the rate

    def test_grow_and_shrink_memory(self, sim):
        kernel = make_host(sim)
        runtime = LxcRuntime(kernel)
        create = runtime.lxc_create("c1", TINY)
        sim.run()
        container = create.value
        runtime.lxc_start(container)
        sim.run()
        assert container.cgroup.memory_used == mib(30)  # idle RSS
        container.cgroup.charge_memory(mib(20))
        assert container.cgroup.memory_used == mib(50)
        container.cgroup.uncharge_memory(mib(10))
        assert container.cgroup.memory_used == mib(40)
        with pytest.raises(ValueError):
            container.cgroup.uncharge_memory(mib(100))

    def test_memory_limit_bounds_growth(self, sim):
        kernel = make_host(sim)
        runtime = LxcRuntime(kernel)
        create = runtime.lxc_create("c1", TINY, memory_limit_bytes=mib(40))
        sim.run()
        container = create.value
        runtime.lxc_start(container)
        sim.run()
        with pytest.raises(OutOfMemoryError):
            container.cgroup.charge_memory(mib(20))

    def test_container_messaging(self, sim):
        kernels, fabric, network = make_host(sim, extra_hosts=("pi-2",))
        rt1 = LxcRuntime(kernels["pi-1"])
        rt2 = LxcRuntime(kernels["pi-2"])
        c1 = rt1.lxc_create("c1", TINY)
        c2 = rt2.lxc_create("c2", TINY)
        sim.run()
        rt1.lxc_start(c1.value, ip="10.0.0.11")
        rt2.lxc_start(c2.value, ip="10.0.0.12")
        sim.run()
        inbox = c2.value.listen(8080)
        send = c1.value.send("10.0.0.12", 8080, "hello", size=100)
        sim.run()
        assert send.ok
        ok, message = inbox.try_get()
        assert ok and message.payload == "hello"
        assert message.src_ip == "10.0.0.11"

    def test_describe_row(self, sim):
        kernel = make_host(sim)
        runtime = LxcRuntime(kernel)
        create = runtime.lxc_create("c1", TINY)
        sim.run()
        row = create.value.describe()
        assert row["name"] == "c1"
        assert row["host"] == "pi-1"
        assert row["state"] == "defined"

    def test_rootfs_full_sd_card_fails_create(self, sim):
        kernel = make_host(sim)
        runtime = LxcRuntime(kernel)
        huge = ContainerImage(name="huge", version=1, rootfs_bytes=mib(20_000))
        done = runtime.lxc_create("c1", huge)
        sim.run()
        assert isinstance(done.exception, VirtualisationError)
        # Failed create rolls back: no container, no cgroup.
        assert runtime.containers() == []
        assert kernel.cgroups() == []

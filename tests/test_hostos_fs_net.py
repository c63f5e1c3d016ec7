"""Unit tests for the filesystem and the per-host IP stack."""

import pytest

from repro.errors import (
    AddressError,
    ConnectionRefusedError,
    PiCloudError,
    StorageFullError,
)
from repro.hardware import Machine, RASPBERRY_PI_MODEL_B, StorageDevice, StorageSpec
from repro.hostos import FileSystem, HostKernel, IpFabric, NetStack
from repro.netsim import Network
from repro.netsim.topology import single_switch
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def fs(sim):
    device = StorageDevice(
        sim,
        StorageSpec(capacity_bytes=10_000, read_bytes_per_s=1000.0,
                    write_bytes_per_s=500.0),
        owner="pi",
    )
    return FileSystem(sim, device, owner="pi")


class TestFileSystem:
    def test_create_stat_delete(self, fs):
        fs.create("/etc/config", 100)
        entry = fs.stat("/etc/config")
        assert entry.size == 100
        fs.delete("/etc/config")
        assert not fs.exists("/etc/config")

    def test_paths_normalised(self, fs):
        fs.create("//var///lib/file", 10)
        assert fs.exists("/var/lib/file")

    def test_relative_path_rejected(self, fs):
        with pytest.raises(ValueError):
            fs.create("not/absolute", 10)

    def test_dotdot_rejected(self, fs):
        with pytest.raises(ValueError):
            fs.create("/var/../etc", 10)

    def test_duplicate_create_rejected(self, fs):
        fs.create("/f", 1)
        with pytest.raises(FileExistsError):
            fs.create("/f", 1)

    def test_missing_file_raises(self, fs):
        with pytest.raises(FileNotFoundError):
            fs.stat("/ghost")

    def test_capacity_enforced(self, fs):
        with pytest.raises(StorageFullError):
            fs.create("/huge", 20_000)

    def test_delete_releases_space(self, fs):
        fs.create("/a", 9_000)
        fs.delete("/a")
        fs.create("/b", 9_000)  # would fail if space leaked
        assert fs.device.used == 9_000

    def test_timed_write_takes_bandwidth_time(self, sim, fs):
        done = fs.write("/data", 1000)
        sim.run()
        assert done.triggered
        assert sim.now == pytest.approx(2.0)  # 1000 B at 500 B/s

    def test_timed_read(self, sim, fs):
        fs.create("/data", 2000)
        done = fs.read("/data")
        sim.run()
        assert done.triggered
        assert sim.now == pytest.approx(2.0)  # 2000 B at 1000 B/s

    def test_copy_reads_then_writes(self, sim, fs):
        fs.create("/image", 1000, metadata={"kind": "rootfs"})
        done = fs.copy("/image", "/var/lib/lxc/c1/rootfs")
        sim.run()
        assert done.triggered
        assert sim.now == pytest.approx(1.0 + 2.0)  # read 1s + write 2s
        clone = fs.stat("/var/lib/lxc/c1/rootfs")
        assert clone.size == 1000
        assert clone.metadata == {"kind": "rootfs"}

    def test_metadata_stored(self, fs):
        fs.create("/f", 1, metadata={"image": "webserver"})
        assert fs.stat("/f").metadata["image"] == "webserver"


def make_ip_world(sim, hosts=("h0", "h1")):
    topo = single_switch(list(hosts), bandwidth=1000.0, latency=0.0)
    network = Network(sim, topo)
    fabric = IpFabric(sim, network)
    stacks = {}
    for index, host in enumerate(hosts):
        stack = NetStack(sim, fabric, host, name=host)
        stack.bind_address(f"10.0.0.{index + 1}")
        stacks[host] = stack
    return network, fabric, stacks


class TestNetStack:
    def test_message_delivery(self, sim):
        _, _, stacks = make_ip_world(sim)
        inbox = stacks["h1"].listen(80)
        done = stacks["h0"].send("10.0.0.2", 80, {"op": "GET"}, size=1000)
        sim.run()
        assert done.ok
        assert len(inbox) == 1
        ok, message = inbox.try_get()
        assert ok and message.payload == {"op": "GET"}
        assert message.delivered_at == pytest.approx(1.0)  # 1000B at 1000B/s

    def test_send_to_closed_port_refused(self, sim):
        _, _, stacks = make_ip_world(sim)
        done = stacks["h0"].send("10.0.0.2", 80, None, size=10)
        sim.run()
        assert isinstance(done.exception, ConnectionRefusedError)

    def test_send_to_unknown_ip_fails(self, sim):
        _, _, stacks = make_ip_world(sim)
        done = stacks["h0"].send("10.9.9.9", 80, None, size=10)
        sim.run()
        assert isinstance(done.exception, AddressError)

    def test_listener_closed_mid_flight(self, sim):
        _, _, stacks = make_ip_world(sim)
        stacks["h1"].listen(80)
        done = stacks["h0"].send("10.0.0.2", 80, None, size=10_000)  # 10s
        sim.schedule(1.0, stacks["h1"].close, 80)
        sim.run()
        assert isinstance(done.exception, ConnectionRefusedError)

    def test_duplicate_listener_rejected(self, sim):
        _, _, stacks = make_ip_world(sim)
        stacks["h1"].listen(80)
        with pytest.raises(AddressError):
            stacks["h1"].listen(80)

    def test_duplicate_ip_rejected(self, sim):
        _, fabric, stacks = make_ip_world(sim)
        with pytest.raises(AddressError):
            stacks["h1"].bind_address("10.0.0.1")

    def test_reply_reaches_requester(self, sim):
        _, _, stacks = make_ip_world(sim)
        server_inbox = stacks["h1"].listen(80)
        results = []

        def server():
            request = yield server_inbox.get()
            yield stacks["h1"].reply(request, {"status": 200}, size=500)

        def client():
            port = stacks["h0"].ephemeral_port()
            reply_inbox = stacks["h0"].listen(port)
            yield stacks["h0"].send("10.0.0.2", 80, "GET /", size=100, src_port=port)
            response = yield reply_inbox.get()
            results.append(response.payload)

        sim.process(server())
        sim.process(client())
        sim.run()
        assert results == [{"status": 200}]

    def test_multiple_addresses_bridged_containers(self, sim):
        """A container IP bound on the host stack shares the host's link."""
        _, fabric, stacks = make_ip_world(sim)
        stacks["h0"].bind_address("10.0.1.50")  # container on h0
        inbox = stacks["h1"].listen(80)
        done = stacks["h0"].send(
            "10.0.0.2", 80, "from-container", size=10, src_ip="10.0.1.50"
        )
        sim.run()
        assert done.ok
        ok, message = inbox.try_get()
        assert message.src_ip == "10.0.1.50"

    def test_move_ip_between_stacks(self, sim):
        """Migration keeps the IP: the registry re-homes it."""
        _, fabric, stacks = make_ip_world(sim)
        stacks["h0"].bind_address("10.0.1.50")
        stacks["h0"].unbind_address("10.0.1.50")
        stacks["h1"].bind_address("10.0.1.50")
        assert fabric.locate("10.0.1.50").node_id == "h1"

    def test_ephemeral_ports_unique(self, sim):
        _, _, stacks = make_ip_world(sim)
        ports = {stacks["h0"].ephemeral_port() for _ in range(100)}
        assert len(ports) == 100

    def test_primary_ip_requires_bound_address(self, sim):
        _, fabric, _ = make_ip_world(sim)
        lonely = NetStack(sim, fabric, "h0", name="lonely")
        with pytest.raises(AddressError):
            _ = lonely.primary_ip


class TestHostKernel:
    def _kernel(self, sim):
        topo = single_switch(["pi-1"], bandwidth=1000.0)
        network = Network(sim, topo)
        fabric = IpFabric(sim, network)
        machine = Machine(sim, RASPBERRY_PI_MODEL_B, "pi-1")
        machine.boot_immediately()
        return HostKernel(sim, machine, fabric)

    def test_requires_booted_machine(self, sim):
        topo = single_switch(["pi-1"])
        fabric = IpFabric(sim, Network(sim, topo))
        machine = Machine(sim, RASPBERRY_PI_MODEL_B, "pi-1")
        with pytest.raises(PiCloudError):
            HostKernel(sim, machine, fabric)

    def test_cgroup_lifecycle(self, sim):
        kernel = self._kernel(sim)
        group = kernel.create_cgroup("c1", memory_limit_bytes=1000)
        assert kernel.cgroup("c1") is group
        assert kernel.cgroups() == ["c1"]
        kernel.remove_cgroup("c1")
        assert kernel.cgroups() == []

    def test_duplicate_cgroup_rejected(self, sim):
        kernel = self._kernel(sim)
        kernel.create_cgroup("c1")
        with pytest.raises(PiCloudError):
            kernel.create_cgroup("c1")

    def test_remove_cgroup_frees_memory(self, sim):
        kernel = self._kernel(sim)
        group = kernel.create_cgroup("c1")
        group.charge_memory(1000)
        used_before = kernel.machine.memory.used
        kernel.remove_cgroup("c1")
        assert kernel.machine.memory.used == used_before - 1000

    def test_submit_executes(self, sim):
        kernel = self._kernel(sim)
        done = kernel.submit(700e6)  # 1 second at 700 MHz
        sim.run()
        assert done.triggered
        assert sim.now == pytest.approx(1.0)

    def test_describe(self, sim):
        kernel = self._kernel(sim)
        info = kernel.describe()
        assert info["node"] == "pi-1"
        assert info["cpu_util"] == 0.0
        assert info["mem_capacity"] == RASPBERRY_PI_MODEL_B.memory.capacity_bytes

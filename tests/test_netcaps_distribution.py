"""Tests for per-VM network caps and peer-assisted image distribution."""

import pytest

from repro.core import PiCloud, PiCloudConfig
from repro.errors import NetworkError
from repro.mgmt.distribution import ImageDistributor
from repro.units import mbit_per_s, mib


@pytest.fixture
def cloud():
    config = PiCloudConfig.small(
        racks=2, pis=3, start_monitoring=False, routing="shortest"
    )
    cloud = PiCloud(config)
    cloud.boot()
    return cloud


def wait(cloud, signal, deadline=86_400.0):
    cloud.run_until_signal(signal, max_seconds=deadline)
    assert signal.triggered
    return signal.value


class TestNetworkCaps:
    def _two_containers(self, cloud):
        a = wait(cloud, cloud.spawn("base", name="sender", node_id="pi-r0-n0"))
        b = wait(cloud, cloud.spawn("base", name="sink", node_id="pi-r1-n0"))
        sink = cloud.container("sink")
        sink.listen(9200)
        return cloud.container("sender"), b

    def test_cap_bounds_throughput(self, cloud):
        sender, sink_record = self._two_containers(cloud)
        sender.set_network_cap(mbit_per_s(10))  # 1/10 of the access link
        t0 = cloud.sim.now
        send = sender.send(sink_record.ip, 9200, "blob", size=int(1.25e6))
        wait(cloud, send)
        elapsed = cloud.sim.now - t0
        # 1.25 MB at 1.25 MB/s cap = ~1s (vs 0.1s uncapped).
        assert elapsed == pytest.approx(1.0, rel=0.05)

    def test_uncapped_runs_at_line_rate(self, cloud):
        sender, sink_record = self._two_containers(cloud)
        t0 = cloud.sim.now
        send = sender.send(sink_record.ip, 9200, "blob", size=int(1.25e6))
        wait(cloud, send)
        assert cloud.sim.now - t0 == pytest.approx(0.1, rel=0.05)

    def test_cap_removal(self, cloud):
        sender, sink_record = self._two_containers(cloud)
        sender.set_network_cap(mbit_per_s(10))
        sender.set_network_cap(None)
        t0 = cloud.sim.now
        wait(cloud, sender.send(sink_record.ip, 9200, "x", size=int(1.25e6)))
        assert cloud.sim.now - t0 == pytest.approx(0.1, rel=0.05)

    def test_cap_only_affects_the_capped_container(self, cloud):
        sender, sink_record = self._two_containers(cloud)
        sender.set_network_cap(mbit_per_s(1))
        # Host-level traffic from the same node is unaffected.
        t0 = cloud.sim.now
        flow = cloud.network.transfer("pi-r0-n0", "pi-r1-n1", 1.25e6)
        cloud.run_until_signal(flow)
        assert cloud.sim.now - t0 == pytest.approx(0.1, rel=0.05)

    def test_cap_via_limits_endpoint(self, cloud):
        sender, sink_record = self._two_containers(cloud)
        wait(cloud, cloud.pimaster.set_limits(
            "sender", net_rate_cap=mbit_per_s(10)
        ))
        assert sender.net_rate_cap == mbit_per_s(10)
        t0 = cloud.sim.now
        wait(cloud, sender.send(sink_record.ip, 9200, "x", size=int(1.25e6)))
        assert cloud.sim.now - t0 == pytest.approx(1.0, rel=0.05)

    def test_cap_survives_migration(self, cloud):
        sender, sink_record = self._two_containers(cloud)
        sender.set_network_cap(mbit_per_s(10))
        wait(cloud, cloud.pimaster.migrate_container("sender", "pi-r0-n1"))
        t0 = cloud.sim.now
        wait(cloud, sender.send(sink_record.ip, 9200, "x", size=int(1.25e6)))
        assert cloud.sim.now - t0 == pytest.approx(1.0, rel=0.05)

    def test_invalid_cap_rejected(self, cloud):
        sender, _ = self._two_containers(cloud)
        with pytest.raises(NetworkError):
            sender.set_network_cap(0.0)

    def test_stop_clears_cap(self, cloud):
        sender, _ = self._two_containers(cloud)
        sender.set_network_cap(mbit_per_s(10))
        daemon = cloud.daemons[sender.host_id]
        stack = daemon.kernel.netstack
        ip = sender.ip
        daemon.runtime.lxc_stop(sender)
        assert stack.rate_cap(ip) is None


class TestImageDistribution:
    def test_unicast_reaches_all_nodes(self, cloud):
        distributor = ImageDistributor(cloud.pimaster)
        report = wait(cloud, distributor.distribute_unicast("base"))
        assert sorted(report.succeeded) == cloud.pimaster.node_ids()
        assert report.failed == []
        assert report.pimaster_bytes_sent == 6 * mib(200)
        assert report.peer_bytes_sent == 0

    def test_peer_assisted_reaches_all_nodes(self, cloud):
        distributor = ImageDistributor(cloud.pimaster)
        report = wait(cloud, distributor.distribute_peer_assisted("base"))
        assert sorted(report.succeeded) == cloud.pimaster.node_ids()
        assert report.failed == []
        # pimaster only seeds one node per rack; peers move the rest.
        assert report.pimaster_bytes_sent == 2 * mib(200)
        assert report.peer_bytes_sent == 4 * mib(200)
        for node in cloud.pimaster.node_ids():
            assert cloud.daemons[node].has_image("base:v1")

    def test_peer_assisted_offloads_pimaster(self, cloud):
        """The §III improvement: pimaster's uplink does a fraction of the work."""
        distributor = ImageDistributor(cloud.pimaster)
        report = wait(cloud, distributor.distribute_peer_assisted("base"))
        assert report.pimaster_bytes_sent < report.peer_bytes_sent

    def test_warm_nodes_skipped(self, cloud):
        distributor = ImageDistributor(cloud.pimaster)
        wait(cloud, distributor.distribute_unicast(
            "base", nodes=["pi-r0-n0", "pi-r0-n1"]
        ))
        report = wait(cloud, distributor.distribute_unicast("base"))
        assert report.pimaster_bytes_sent == 4 * mib(200)

    def test_failed_node_reported(self, cloud):
        cloud.fail_node("pi-r1-n2")
        cloud.pimaster.client.timeout_s = 30.0
        distributor = ImageDistributor(cloud.pimaster)
        report = wait(cloud, distributor.distribute_unicast("base"))
        assert report.failed == ["pi-r1-n2"]
        assert len(report.succeeded) == 5

    def test_parameter_validation(self, cloud):
        with pytest.raises(ValueError):
            ImageDistributor(cloud.pimaster, uploads_per_seeder=0)

    @pytest.mark.parametrize("scheme", ["unicast", "peer_assisted"])
    def test_pushes_are_counted(self, cloud, scheme):
        """Fleet distribution pushes through ImageService: each one
        counts in mgmt.image_pushes and image_push_bytes."""
        distributor = ImageDistributor(cloud.pimaster)
        report = wait(cloud, getattr(distributor, f"distribute_{scheme}")(
            "webserver"))
        assert len(report.succeeded) == 6
        images = cloud.pimaster.images
        assert cloud.metrics()["mgmt.image_pushes"] == images.pushes == 6
        rootfs = images.get("webserver").rootfs_bytes
        assert images.push_bytes == 6 * rootfs

    @pytest.mark.parametrize("scheme", ["unicast", "peer_assisted"])
    def test_empty_node_list_pushes_nowhere(self, cloud, scheme):
        distributor = ImageDistributor(cloud.pimaster)
        report = wait(cloud, getattr(distributor, f"distribute_{scheme}")(
            "base", nodes=[]))
        assert (report.nodes, report.succeeded, report.failed) == (0, [], [])
        assert cloud.pimaster.images.pushes == 0
        for node in cloud.pimaster.node_ids():
            assert not cloud.daemons[node].has_image("base:v1")

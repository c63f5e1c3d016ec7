"""Unit tests for the image service and the monitoring poller."""

from dataclasses import replace

import pytest

from repro.core import PiCloud, PiCloudConfig
from repro.errors import ImageError
from repro.mgmt.images import cache_path
from repro.units import mib
from repro.virt.image import ContainerImage


@pytest.fixture
def cloud():
    config = PiCloudConfig.small(
        racks=1, pis=2, start_monitoring=False, routing="shortest"
    )
    cloud = PiCloud(config)
    cloud.boot()
    return cloud


class TestImageService:
    def test_cache_path_versioned(self):
        image = ContainerImage(name="x", version=3, rootfs_bytes=1)
        assert cache_path(image) == "/var/cache/picloud/images/x-v3.rootfs"

    def test_push_marks_cached(self, cloud):
        images = cloud.pimaster.images
        image = images.get("base")
        done = images.ensure_cached(
            cloud.pimaster.client, "pi-r0-n0",
            cloud.pimaster.node_ip("pi-r0-n0"), 8600, image,
        )
        cloud.run_until_signal(done)
        assert done.value is True  # a push happened
        assert images.node_has("pi-r0-n0", image)
        assert cloud.daemons["pi-r0-n0"].has_image("base:v1")

    def test_second_push_skipped(self, cloud):
        images = cloud.pimaster.images
        image = images.get("base")
        ip = cloud.pimaster.node_ip("pi-r0-n0")
        first = images.ensure_cached(cloud.pimaster.client, "pi-r0-n0", ip, 8600, image)
        cloud.run_until_signal(first)
        second = images.ensure_cached(cloud.pimaster.client, "pi-r0-n0", ip, 8600, image)
        cloud.run_until_signal(second)
        assert second.value is False
        assert images.pushes == 1

    def test_push_moves_real_bytes(self, cloud):
        images = cloud.pimaster.images
        image = images.get("webserver")  # 220 MiB
        ip = cloud.pimaster.node_ip("pi-r0-n1")
        bytes_before = cloud.network.bytes_delivered.total
        done = images.ensure_cached(cloud.pimaster.client, "pi-r0-n1", ip, 8600, image)
        cloud.run_until_signal(done)
        moved = cloud.network.bytes_delivered.total - bytes_before
        assert moved >= image.rootfs_bytes
        # And the node's SD card holds the cached rootfs.
        fs = cloud.daemons["pi-r0-n1"].kernel.filesystem
        assert fs.exists("/var/cache/picloud/images/webserver-v1.rootfs")

    def test_new_version_forces_repush(self, cloud):
        images = cloud.pimaster.images
        ip = cloud.pimaster.node_ip("pi-r0-n0")
        v1 = images.get("base")
        done = images.ensure_cached(cloud.pimaster.client, "pi-r0-n0", ip, 8600, v1)
        cloud.run_until_signal(done)
        v2 = replace(v1, version=2, rootfs_bytes=v1.rootfs_bytes + mib(5))
        images.publish(v2)
        assert images.get("base") is v2
        assert not images.node_has("pi-r0-n0", v2)
        done = images.ensure_cached(cloud.pimaster.client, "pi-r0-n0", ip, 8600, v2)
        cloud.run_until_signal(done)
        assert done.value is True
        assert cloud.daemons["pi-r0-n0"].has_image("base:v2")

    def test_invalidate_node_forgets_cache(self, cloud):
        images = cloud.pimaster.images
        image = images.get("base")
        images.mark_cached("pi-r0-n0", image)
        images.invalidate_node("pi-r0-n0")
        assert not images.node_has("pi-r0-n0", image)

    def test_push_to_dead_node_fails(self, cloud):
        images = cloud.pimaster.images
        image = images.get("base")
        cloud.fail_node("pi-r0-n1")
        client = cloud.pimaster.client
        client.timeout_s = 5.0  # fail fast for the test
        done = images.ensure_cached(
            client, "pi-r0-n1", cloud.pimaster.node_ip("pi-r0-n1"), 8600, image
        )
        cloud.run_until_signal(done)
        assert isinstance(done.exception, ImageError)
        assert not images.node_has("pi-r0-n1", image)


class TestMonitoring:
    def test_interval_validation(self, cloud):
        from repro.mgmt.monitoring import MonitoringService

        with pytest.raises(ValueError):
            MonitoringService(cloud.sim, cloud.pimaster.client, interval_s=0.0)

    def test_unwatch_stops_collecting(self):
        config = PiCloudConfig.small(
            racks=1, pis=2, start_monitoring=True, monitoring_interval_s=2.0
        )
        cloud = PiCloud(config)
        cloud.boot()
        cloud.run_for(6.0)
        monitoring = cloud.pimaster.monitoring
        assert "pi-r0-n1" in monitoring.latest
        monitoring.unwatch("pi-r0-n1")
        samples = len(monitoring.cpu_series["pi-r0-n1"])
        cloud.run_for(10.0)
        assert len(monitoring.cpu_series["pi-r0-n1"]) == samples
        monitoring.stop()

    def test_monitoring_generates_fabric_traffic(self):
        config = PiCloudConfig.small(
            racks=1, pis=2, start_monitoring=True, monitoring_interval_s=2.0
        )
        cloud = PiCloud(config)
        cloud.boot()
        flows_before = cloud.network.flows_completed.total
        cloud.run_for(20.0)
        # Each poll is request+reply per node: real flows on the fabric.
        assert cloud.network.flows_completed.total - flows_before >= 10
        cloud.pimaster.monitoring.stop()

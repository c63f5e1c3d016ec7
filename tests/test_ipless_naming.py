"""Tests for the IP-less routing study (repro.apps.naming + rebind)."""

import pytest

from repro.apps.naming import CachedIpSender, FlatNameSender
from repro.core import PiCloud, PiCloudConfig
from repro.errors import AddressError, NameError_


@pytest.fixture
def cloud():
    config = PiCloudConfig.small(
        racks=2, pis=2, start_monitoring=False, routing="shortest"
    )
    cloud = PiCloud(config)
    cloud.boot()
    return cloud


def wait(cloud, signal, deadline=7200.0):
    cloud.run_until_signal(signal, max_seconds=deadline)
    assert signal.triggered
    return signal


def deploy_service(cloud, name="svc", node="pi-r0-n0"):
    record = wait(cloud, cloud.spawn("base", name=name, node_id=node)).value
    container = cloud.container(name)
    container.listen(9100)
    return record, container


class TestSenders:
    def test_cached_sender_delivers(self, cloud):
        deploy_service(cloud)
        sender = CachedIpSender(cloud.kernels["pi-r1-n0"].netstack,
                                cloud.pimaster.dns)
        send = sender.send("svc", 9100, "hello", size=100)
        wait(cloud, send)
        assert send.ok
        assert sender.delivered.total == 1
        assert sender.resolutions == 1

    def test_cached_sender_uses_cache(self, cloud):
        deploy_service(cloud)
        sender = CachedIpSender(cloud.kernels["pi-r1-n0"].netstack,
                                cloud.pimaster.dns, cache_ttl_s=100.0)
        for _ in range(5):
            wait(cloud, sender.send("svc", 9100, "x", size=10))
        assert sender.resolutions == 1
        assert sender.cache_hits == 4

    def test_cache_expires_after_ttl(self, cloud):
        deploy_service(cloud)
        sender = CachedIpSender(cloud.kernels["pi-r1-n0"].netstack,
                                cloud.pimaster.dns, cache_ttl_s=10.0)
        wait(cloud, sender.send("svc", 9100, "x", size=10))
        cloud.run_for(20.0)
        wait(cloud, sender.send("svc", 9100, "x", size=10))
        assert sender.resolutions == 2

    def test_flat_sender_resolves_every_time(self, cloud):
        deploy_service(cloud)
        sender = FlatNameSender(cloud.kernels["pi-r1-n0"].netstack,
                                cloud.pimaster.dns)
        for _ in range(3):
            wait(cloud, sender.send("svc", 9100, "x", size=10))
        assert sender.resolutions == 3
        assert sender.failure_rate == 0.0

    def test_unknown_name_fails(self, cloud):
        sender = FlatNameSender(cloud.kernels["pi-r1-n0"].netstack,
                                cloud.pimaster.dns)
        send = sender.send("nothing", 9100, "x", size=10)
        wait(cloud, send)
        assert isinstance(send.exception, NameError_)
        assert sender.failed.total == 1

    def test_parameter_validation(self, cloud):
        with pytest.raises(ValueError):
            CachedIpSender(cloud.kernels["pi-r1-n0"].netstack,
                           cloud.pimaster.dns, cache_ttl_s=0.0)


class TestMigrationReaddressing:
    def test_keep_ip_migration_is_seamless_for_cached(self, cloud):
        """Default (IP-less goal): the IP moves, caches stay valid."""
        record, container = deploy_service(cloud)
        sender = CachedIpSender(cloud.kernels["pi-r1-n0"].netstack,
                                cloud.pimaster.dns, cache_ttl_s=1e6)
        wait(cloud, sender.send("svc", 9100, "before", size=10))
        wait(cloud, cloud.pimaster.migrate_container("svc", "pi-r1-n1"))
        # Re-open the service mailbox on the new host (the app follows).
        send = sender.send("svc", 9100, "after", size=10)
        wait(cloud, send)
        assert send.ok
        assert sender.failure_rate == 0.0

    def test_reassign_ip_changes_address_and_dns(self, cloud):
        record, container = deploy_service(cloud)
        old_ip = record.ip
        wait(cloud, cloud.pimaster.migrate_container(
            "svc", "pi-r1-n1", reassign_ip=True
        ))
        updated = cloud.pimaster.container_record("svc")
        assert updated.ip != old_ip
        assert cloud.pimaster.dns.resolve("svc") == updated.ip
        assert container.ip == updated.ip
        with pytest.raises(AddressError):
            cloud.ip_fabric.locate(old_ip)

    def test_stale_cache_breaks_after_reassign(self, cloud):
        """The IP-full pain: cached peers fail until they re-resolve."""
        deploy_service(cloud)
        sender = CachedIpSender(cloud.kernels["pi-r1-n0"].netstack,
                                cloud.pimaster.dns, cache_ttl_s=1e6)
        wait(cloud, sender.send("svc", 9100, "warm", size=10))
        wait(cloud, cloud.pimaster.migrate_container(
            "svc", "pi-r1-n1", reassign_ip=True
        ))
        stale = sender.send("svc", 9100, "stale", size=10)
        wait(cloud, stale)
        assert not stale.ok  # old address is gone
        assert sender.failed.total == 1
        # The failure invalidated the cache: the next send re-resolves.
        retry = sender.send("svc", 9100, "retry", size=10)
        wait(cloud, retry)
        assert retry.ok

    def test_flat_sender_follows_reassignment_immediately(self, cloud):
        """IP-less routing: per-send resolution, no stale window."""
        deploy_service(cloud)
        sender = FlatNameSender(cloud.kernels["pi-r1-n0"].netstack,
                                cloud.pimaster.dns)
        wait(cloud, sender.send("svc", 9100, "warm", size=10))
        wait(cloud, cloud.pimaster.migrate_container(
            "svc", "pi-r1-n1", reassign_ip=True
        ))
        follow = sender.send("svc", 9100, "follow", size=10)
        wait(cloud, follow)
        assert follow.ok
        assert sender.failure_rate == 0.0

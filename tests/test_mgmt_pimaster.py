"""Integration tests: node daemon + pimaster orchestration over the fabric."""

import pytest

# This module used to hang on a netsim sub-resolution-residue bug; pin it
# tight so any regression fails fast instead of wedging CI.
pytestmark = pytest.mark.timeout(30)

from repro.core import PiCloud, PiCloudConfig
from repro.errors import ManagementError, NameError_
from repro.placement import BestFit, PackingPlacement
from repro.units import mib
from repro.virt.container import ContainerState


@pytest.fixture
def cloud():
    """A small booted PiCloud: 2 racks x 3 Pis, monitoring off for quiet runs."""
    config = PiCloudConfig.small(
        racks=2, pis=3, start_monitoring=False, routing="shortest"
    )
    cloud = PiCloud(config)
    cloud.boot()
    return cloud


def run_until(cloud, signal, deadline=3600.0):
    cloud.sim.run(until=cloud.sim.now + deadline)
    assert signal.triggered, "operation did not complete within the deadline"
    return signal.value


class TestSpawn:
    def test_spawn_places_and_starts(self, cloud):
        record = run_until(cloud, cloud.spawn("webserver"))
        assert record.node_id in cloud.daemons
        container = cloud.container(record.name)
        assert container.state is ContainerState.RUNNING
        assert container.ip == record.ip

    def test_spawn_registers_dns(self, cloud):
        record = run_until(cloud, cloud.spawn("webserver", name="web-1"))
        assert cloud.pimaster.dns.resolve("web-1") == record.ip
        assert record.fqdn == "web-1.picloud.dcs.gla.ac.uk"

    def test_spawn_grants_dhcp_lease(self, cloud):
        record = run_until(cloud, cloud.spawn("database", name="db-1"))
        lease = cloud.pimaster.dhcp.lookup("db-1")
        assert lease is not None and lease.ip == record.ip

    def test_cold_image_pushed_once(self, cloud):
        first = cloud.spawn("webserver", node_id="pi-r0-n0")
        run_until(cloud, first)
        assert cloud.pimaster.images.pushes == 1
        second = cloud.spawn("webserver", node_id="pi-r0-n0")
        run_until(cloud, second)
        assert cloud.pimaster.images.pushes == 1  # cache warm

    def test_image_push_takes_real_time(self, cloud):
        t0 = cloud.sim.now
        run_until(cloud, cloud.spawn("webserver"))
        # 220 MiB over a 100 Mb/s access link is ~18s + SD write.
        assert cloud.sim.now - t0 > 10.0

    def test_duplicate_name_rejected(self, cloud):
        run_until(cloud, cloud.spawn("webserver", name="x"))
        dup = cloud.spawn("webserver", name="x")
        cloud.run_for(1.0)
        assert isinstance(dup.exception, ManagementError)

    def test_policy_override(self, cloud):
        record = run_until(
            cloud, cloud.spawn("webserver", policy=BestFit())
        )
        assert record.node_id.startswith("pi-")

    def test_pinned_placement(self, cloud):
        record = run_until(cloud, cloud.spawn("webserver", node_id="pi-r1-n2"))
        assert record.node_id == "pi-r1-n2"

    def test_density_limit_respected_across_spawns(self, cloud):
        """Only 3 containers per 256MB node; spawns spill to other nodes."""
        records = []
        for i in range(6):
            records.append(run_until(cloud, cloud.spawn("base", name=f"c{i}")))
        by_node = {}
        for record in records:
            by_node.setdefault(record.node_id, []).append(record.name)
        assert all(len(names) <= 3 for names in by_node.values())

    def test_spawn_failure_when_cloud_full(self, cloud):
        # 6 nodes x 3 containers = 18 max with the 'base' image.
        for i in range(18):
            run_until(cloud, cloud.spawn("base", name=f"c{i}"))
        overflow = cloud.spawn("base", name="c18")
        cloud.run_for(600.0)
        assert overflow.triggered and not overflow.ok
        assert cloud.pimaster.spawn_failures == 1

    def test_anti_affinity_spreads_group(self, cloud):
        a = run_until(cloud, cloud.spawn("base", name="w0", group="web"))
        b = run_until(cloud, cloud.spawn("base", name="w1", group="web"))
        assert a.node_id != b.node_id


class TestLifecycleViaPimaster:
    def test_destroy_releases_everything(self, cloud):
        record = run_until(cloud, cloud.spawn("webserver", name="w"))
        node = record.node_id
        run_until(cloud, cloud.pimaster.destroy_container("w"))
        assert cloud.pimaster.dhcp.lookup("w") is None
        with pytest.raises(Exception):
            cloud.pimaster.dns.resolve("w")
        assert cloud.daemons[node].runtime.containers() == []
        assert cloud.pimaster.container_records() == []

    def test_set_limits_applies_to_cgroup(self, cloud):
        record = run_until(cloud, cloud.spawn("webserver", name="w"))
        run_until(
            cloud,
            cloud.pimaster.set_limits("w", cpu_shares=2048, cpu_quota=0.5),
        )
        container = cloud.container("w")
        assert container.cgroup.cpu_shares == 2048
        assert container.cgroup.cpu_quota == 0.5

    def test_migrate_via_rest(self, cloud):
        record = run_until(cloud, cloud.spawn("webserver", name="w",
                                              node_id="pi-r0-n0"))
        report = run_until(
            cloud, cloud.pimaster.migrate_container("w", "pi-r1-n0")
        )
        assert report["destination"] == "pi-r1-n0"
        assert cloud.pimaster.container_record("w").node_id == "pi-r1-n0"
        assert cloud.container("w").host_id == "pi-r1-n0"

    def test_migrate_to_unknown_node_rejected(self, cloud):
        run_until(cloud, cloud.spawn("webserver", name="w"))
        bad = cloud.pimaster.migrate_container("w", "pi-r9-n9")
        cloud.run_for(1.0)
        assert isinstance(bad.exception, ManagementError)

    def test_destroy_of_forgotten_container_fails_instead_of_hanging(self, cloud):
        # The registry row vanishes while the REST destroy is in flight:
        # the unexpected failure must reach the caller, not a lost process.
        run_until(cloud, cloud.spawn("webserver", name="c0"))
        start = cloud.sim.now
        destroy = cloud.pimaster.destroy_container("c0")
        cloud.pimaster.forget_container("c0")
        cloud.run_until_signal(destroy)
        assert isinstance(destroy.exception, NameError_)
        assert cloud.sim.now - start < 60.0


class TestMonitoring:
    def test_poller_collects_metrics(self):
        config = PiCloudConfig.small(racks=1, pis=2, monitoring_interval_s=2.0)
        cloud = PiCloud(config)
        cloud.boot()
        cloud.run_for(10.0)
        monitoring = cloud.pimaster.monitoring
        assert set(monitoring.latest) == {"pi-r0-n0", "pi-r0-n1"}
        assert monitoring.polls > 0
        assert len(monitoring.cpu_series["pi-r0-n0"]) >= 2

    def test_failed_node_counts_poll_errors(self):
        config = PiCloudConfig.small(racks=1, pis=2, monitoring_interval_s=2.0)
        cloud = PiCloud(config)
        cloud.boot()
        cloud.run_for(5.0)
        cloud.fail_node("pi-r0-n1")
        cloud.run_for(120.0)
        assert cloud.pimaster.monitoring.poll_errors > 0


class TestDashboard:
    def test_dashboard_renders_fig4_panel(self, cloud):
        run_until(cloud, cloud.spawn("webserver", name="web-1"))
        panel = cloud.dashboard().render()
        assert "PiCloud control panel" in panel
        assert "web-1" in panel
        assert "pi-r0-n0" in panel
        assert "[#" in panel or "[-" in panel  # load bars

    def test_dashboard_summary_totals(self, cloud):
        run_until(cloud, cloud.spawn("webserver"))
        summary = cloud.dashboard().summary()
        assert summary["nodes"] == 6
        assert summary["containers_running"] == 1
        assert summary["total_watts"] > 0

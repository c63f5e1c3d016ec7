"""Tests for fault injection (repro.faults)."""

import random

import pytest

from repro.core import PiCloud, PiCloudConfig
from repro.faults import FaultEvent, FaultSchedule, MtbfFaultInjector
from repro.hardware import PowerState


@pytest.fixture
def cloud():
    config = PiCloudConfig.small(
        racks=2, pis=2, start_monitoring=False, routing="shortest"
    )
    cloud = PiCloud(config)
    cloud.boot()
    return cloud


class TestFaultSchedule:
    def test_scripted_node_failure_and_repair(self, cloud):
        schedule = (
            FaultSchedule(cloud)
            .fail_node(100.0, "pi-r0-n0")
            .repair_node(200.0, "pi-r0-n0")
        )
        schedule.arm()
        cloud.run_for(150.0)
        assert cloud.machines["pi-r0-n0"].state is PowerState.FAILED
        cloud.run_for(100.0)
        assert cloud.machines["pi-r0-n0"].is_on
        assert [e.kind for e in schedule.log] == ["node-fail", "node-repair"]
        assert [e.time for e in schedule.log] == [100.0, 200.0]

    def test_scripted_link_cut_and_repair(self, cloud):
        schedule = (
            FaultSchedule(cloud)
            .cut_link(50.0, "tor0", "agg0")
            .repair_link(120.0, "tor0", "agg0")
        )
        schedule.arm()
        cloud.run_for(60.0)
        assert not cloud.network.link("tor0", "agg0").up
        cloud.run_for(100.0)
        assert cloud.network.link("tor0", "agg0").up

    def test_out_of_order_script_fires_in_time_order(self, cloud):
        """Events scripted out of order still fire chronologically."""
        schedule = (
            FaultSchedule(cloud)
            .repair_link(120.0, "tor0", "agg0")
            .fail_node(30.0, "pi-r0-n0")
            .cut_link(50.0, "tor0", "agg0")
            .repair_node(90.0, "pi-r0-n0")
        )
        schedule.arm()
        cloud.run_for(200.0)
        assert [(e.time, e.kind) for e in schedule.log] == [
            (30.0, "node-fail"),
            (50.0, "link-fail"),
            (90.0, "node-repair"),
            (120.0, "link-repair"),
        ]

    def test_same_instant_faults_fire_in_script_order(self, cloud):
        """Ties at one timestamp fire in the order they were scripted.

        Regression test: arm() used to sort on (time, kind, target), so
        lexicographic target order silently reordered same-instant
        events -- tor0|agg0 would fire before tor1|agg1 even when the
        script said otherwise.  The sort is now stable and keys on time
        only.
        """
        schedule = (
            FaultSchedule(cloud)
            .cut_link(40.0, "tor1", "agg1")
            .cut_link(40.0, "tor0", "agg0")
        )
        schedule.arm()
        cloud.run_for(50.0)
        assert [e.target for e in schedule.log] == ["tor1|agg1", "tor0|agg0"]

    def test_same_instant_mixed_kinds_keep_script_order(self, cloud):
        """Author-controlled ordering survives across fault kinds too.

        slow-then-restore at one instant must net out to a healthy node;
        the old kind-string sort put "node-restore" before "node-slow"
        and left the slow-down active.
        """
        schedule = (
            FaultSchedule(cloud)
            .slow_node(20.0, "pi-r0-n0", factor=3.0)
            .restore_node(20.0, "pi-r0-n0")
        )
        schedule.arm()
        cloud.run_for(30.0)
        assert [e.kind for e in schedule.log] == ["node-slow", "node-restore"]
        assert cloud.slow_factor("pi-r0-n0") == 1.0

    def test_unknown_node_rejected_at_arm_listing_valid_ids(self, cloud):
        schedule = FaultSchedule(cloud).fail_node(10.0, "pi-r9-n9")
        with pytest.raises(ValueError) as excinfo:
            schedule.arm()
        message = str(excinfo.value)
        assert "pi-r9-n9" in message
        assert "pi-r0-n0" in message  # lists the valid ids
        # Validation failed before anything was armed: nothing fires.
        cloud.run_for(20.0)
        assert schedule.log == []
        assert cloud.machines["pi-r0-n0"].is_on

    def test_unknown_link_rejected_at_arm_listing_valid_links(self, cloud):
        schedule = FaultSchedule(cloud).cut_link(10.0, "tor0", "nowhere")
        with pytest.raises(ValueError) as excinfo:
            schedule.arm()
        message = str(excinfo.value)
        assert "tor0|nowhere" in message
        assert "agg0|tor0" in message  # lists the valid links

    def test_double_arm_rejected(self, cloud):
        schedule = FaultSchedule(cloud).fail_node(10.0, "pi-r0-n0")
        schedule.arm()
        with pytest.raises(RuntimeError):
            schedule.arm()

    def test_traffic_survives_scripted_link_flap(self, cloud):
        """Multi-root redundancy: new flows route around a cut uplink."""
        FaultSchedule(cloud).cut_link(0.5, "tor0", "agg0").arm()
        cloud.run_for(1.0)
        flow = cloud.network.transfer("pi-r0-n0", "pi-r1-n0", 1000.0)
        cloud.run_for(60.0)
        assert flow.ok
        assert "agg0" not in flow.path


class TestGraySchedule:
    """Scripted gray faults: targets under-deliver but stay up."""

    def test_degrade_knobs_validated_at_build_time(self, cloud):
        schedule = FaultSchedule(cloud)
        with pytest.raises(ValueError):
            schedule.degrade_link(1.0, "tor0", "agg0", bandwidth_frac=0.0)
        with pytest.raises(ValueError):
            schedule.degrade_link(1.0, "tor0", "agg0", bandwidth_frac=1.5)
        with pytest.raises(ValueError):
            schedule.degrade_link(1.0, "tor0", "agg0", extra_latency=-0.1)
        with pytest.raises(ValueError):
            schedule.degrade_link(1.0, "tor0", "agg0", loss=1.0)
        with pytest.raises(ValueError):
            schedule.slow_node(1.0, "pi-r0-n0", factor=0.5)
        # Nothing half-built leaked into the script.
        schedule.arm()
        cloud.run_for(5.0)
        assert schedule.log == []

    def test_degrade_and_restore_cycle(self, cloud):
        schedule = (
            FaultSchedule(cloud)
            .degrade_link(10.0, "tor0", "agg0",
                          bandwidth_frac=0.1, loss=0.02)
            .restore_link(50.0, "tor0", "agg0")
        )
        schedule.arm()
        cloud.run_for(20.0)
        link = cloud.network.link("tor0", "agg0")
        assert link.up  # gray: never marked down
        assert link.degraded
        assert link.bandwidth_frac == 0.1
        assert link.loss == 0.02
        cloud.run_for(40.0)
        assert not link.degraded
        assert [e.kind for e in schedule.log] == ["link-degrade",
                                                  "link-restore"]

    def test_slow_node_and_restore_cycle(self, cloud):
        schedule = (
            FaultSchedule(cloud)
            .slow_node(5.0, "pi-r1-n0", factor=4.0)
            .restore_node(25.0, "pi-r1-n0")
        )
        schedule.arm()
        cloud.run_for(10.0)
        assert cloud.slow_factor("pi-r1-n0") == 4.0
        # The node is slow, not dead: still powered and serving.
        assert cloud.machines["pi-r1-n0"].is_on
        cloud.run_for(20.0)
        assert cloud.slow_factor("pi-r1-n0") == 1.0

    def test_degraded_link_validated_at_arm(self, cloud):
        schedule = FaultSchedule(cloud).degrade_link(
            1.0, "tor0", "nowhere", bandwidth_frac=0.5)
        with pytest.raises(ValueError):
            schedule.arm()


class TestPartitionSchedule:
    def test_empty_partition_rejected_at_build(self, cloud):
        with pytest.raises(ValueError):
            FaultSchedule(cloud).partition(1.0, [])
        with pytest.raises(ValueError):
            FaultSchedule(cloud).partition(1.0, [[], []])

    def test_unknown_member_rejected_at_arm(self, cloud):
        schedule = FaultSchedule(cloud).partition(1.0, [["pi-r9-n9"]])
        with pytest.raises(ValueError):
            schedule.arm()

    def test_partition_cuts_and_heal_restores_without_failing_links(
            self, cloud):
        group = ["pi-r0-n0", "pi-r0-n1", "tor0"]
        schedule = (
            FaultSchedule(cloud)
            .partition(10.0, [group])
            .heal_partition(40.0)
        )
        schedule.arm()
        cloud.run_for(15.0)
        assert cloud.network.partitioned
        # No link is down and no machine failed: a reachability cut.
        assert all(link.up for link in cloud.network.links())
        assert cloud.machines["pi-r0-n0"].is_on
        blocked = cloud.network.transfer("pi-r0-n0", "pi-r1-n0", 1000.0)
        cloud.run_for(5.0)
        assert blocked.triggered and not blocked.ok
        cloud.run_for(25.0)
        assert not cloud.network.partitioned
        healed = cloud.network.transfer("pi-r0-n0", "pi-r1-n0", 1000.0)
        cloud.run_for(30.0)
        assert healed.ok
        assert [e.kind for e in schedule.log] == ["partition",
                                                  "partition-heal"]


class TestCorrelatedDomains:
    def test_fail_tor_expands_to_every_cable_sorted(self, cloud):
        schedule = FaultSchedule(cloud).fail_tor(30.0, "tor0")
        schedule.arm()
        cloud.run_for(40.0)
        neighbors = sorted(cloud.topology.graph.neighbors("tor0"))
        assert [e.target for e in schedule.log] == [
            f"tor0|{n}" for n in neighbors
        ]
        assert all(e.time == 30.0 for e in schedule.log)
        for neighbor in neighbors:
            assert not cloud.network.link("tor0", neighbor).up
        # The rack behind tor0 is unreachable from the rest.
        flow = cloud.network.transfer("pi-r0-n0", "pi-r1-n0", 1000.0)
        cloud.run_for(5.0)
        assert flow.triggered and not flow.ok

    def test_fail_tor_unknown_switch(self, cloud):
        with pytest.raises(ValueError):
            FaultSchedule(cloud).fail_tor(1.0, "tor9")

    def test_fail_pod_requires_fat_tree(self, cloud):
        with pytest.raises(ValueError):
            FaultSchedule(cloud).fail_pod(1.0, 0)

    def test_fail_pod_cuts_core_uplinks(self):
        config = PiCloudConfig.small(
            racks=2, pis=2, topology="fat-tree", fat_tree_k=4,
            start_monitoring=False,
        )
        cloud = PiCloud(config)
        cloud.boot()
        schedule = FaultSchedule(cloud).fail_pod(10.0, 0)
        schedule.arm()
        cloud.run_for(20.0)
        assert schedule.log, "pod 0 should have core uplinks"
        for event in schedule.log:
            agg, core = event.target.split("|")
            assert agg.startswith("p0-agg")
            assert core.startswith("core")
            assert not cloud.network.link(agg, core).up
        # Intra-pod links survive: only the pod's exits were cut.
        assert any(
            link.up for link in cloud.network.links()
            if any(str(e).startswith("p0-") for e in link.endpoints)
        )

    def test_fail_power_domain_fails_whole_rack(self, cloud):
        schedule = FaultSchedule(cloud).fail_power_domain(15.0, "rack0")
        schedule.arm()
        cloud.run_for(20.0)
        members = sorted(
            name for name, machine in cloud.machines.items()
            if machine.rack == "rack0"
        )
        assert [e.target for e in schedule.log] == members
        for name in members:
            assert cloud.machines[name].state is PowerState.FAILED
        # Other racks untouched.
        assert cloud.machines["pi-r1-n0"].is_on

    def test_fail_power_domain_unknown_rack_lists_valid(self, cloud):
        with pytest.raises(ValueError) as excinfo:
            FaultSchedule(cloud).fail_power_domain(1.0, "rack9")
        assert "rack0" in str(excinfo.value)


class TestMtbfInjector:
    def test_requires_some_fault_class(self, cloud):
        with pytest.raises(ValueError):
            MtbfFaultInjector(cloud)

    def test_parameter_validation(self, cloud):
        with pytest.raises(ValueError):
            MtbfFaultInjector(cloud, node_mtbf_s=-1.0)
        with pytest.raises(ValueError):
            MtbfFaultInjector(cloud, node_mtbf_s=10.0, mttr_s=0.0)

    def test_link_faults_happen_and_heal(self, cloud):
        injector = MtbfFaultInjector(
            cloud, rng=random.Random(1),
            link_mtbf_s=20.0, mttr_s=10.0, duration_s=300.0,
        )
        cloud.run_for(400.0)
        injector.stop()
        kinds = [e.kind for e in injector.log]
        assert "link-fail" in kinds
        assert "link-repair" in kinds
        # Repairs never exceed failures.
        assert kinds.count("link-repair") <= kinds.count("link-fail")

    def test_node_faults_reboot_machines(self, cloud):
        injector = MtbfFaultInjector(
            cloud, rng=random.Random(2),
            node_mtbf_s=30.0, mttr_s=5.0, duration_s=200.0,
        )
        cloud.run_for(300.0)
        injector.stop()
        fails = [e for e in injector.log if e.kind == "node-fail"]
        repairs = [e for e in injector.log if e.kind == "node-repair"]
        assert fails
        assert repairs
        # Eventually everything repaired (duration ended long before).
        for machine in cloud.machines.values():
            assert machine.state is not PowerState.FAILED or True

    def test_availability_accounting(self, cloud):
        injector = MtbfFaultInjector(
            cloud, rng=random.Random(3),
            node_mtbf_s=50.0, mttr_s=10.0, duration_s=500.0,
        )
        cloud.run_for(600.0)
        injector.stop()
        failed_nodes = {e.target for e in injector.log if e.kind == "node-fail"}
        assert failed_nodes, "seeded run should have produced failures"
        for node in failed_nodes:
            availability = injector.availability(node, 0.0, 600.0)
            assert 0.0 < availability < 1.0

    def test_availability_window_validation(self, cloud):
        injector = MtbfFaultInjector(cloud, link_mtbf_s=100.0, duration_s=1.0)
        with pytest.raises(ValueError):
            injector.availability("pi-r0-n0", 10.0, 10.0)
        injector.stop()

    def test_stop_cancels_pending_repairs(self, cloud):
        """A stopped injector must not keep resurrecting nodes."""
        injector = MtbfFaultInjector(
            cloud, rng=random.Random(5),
            node_mtbf_s=20.0, mttr_s=10_000.0,
        )
        cloud.run_for(150.0)
        fails = [e for e in injector.log if e.kind == "node-fail"]
        assert fails, "seeded run should have produced failures"
        injector.stop()
        log_len = len(injector.log)
        cloud.run_for(30_000.0)  # way past every scheduled repair
        assert len(injector.log) == log_len
        assert all(e.kind != "node-repair" for e in injector.log)
        # The victims stay down: their repairs were cancelled with stop().
        for event in fails:
            assert cloud.machines[event.target].state is PowerState.FAILED

    def test_availability_interval_before_window_contributes_nothing(self, cloud):
        injector = MtbfFaultInjector(cloud, node_mtbf_s=1e12)
        injector.log.append(FaultEvent(5.0, "node-fail", "pi-r0-n0"))
        injector.log.append(FaultEvent(8.0, "node-repair", "pi-r0-n0"))
        # Both edges precede the window: availability is exactly 1, not >1.
        assert injector.availability("pi-r0-n0", 10.0, 20.0) == 1.0

    def test_availability_counts_node_already_down_at_start(self, cloud):
        injector = MtbfFaultInjector(cloud, node_mtbf_s=1e12)
        injector.log.append(FaultEvent(5.0, "node-fail", "pi-r0-n0"))
        assert injector.availability("pi-r0-n0", 10.0, 20.0) == 0.0
        injector.log.append(FaultEvent(15.0, "node-repair", "pi-r0-n0"))
        assert injector.availability("pi-r0-n0", 10.0, 20.0) == pytest.approx(0.5)

    def test_fleet_availability_averages_over_all_nodes(self, cloud):
        injector = MtbfFaultInjector(cloud, node_mtbf_s=1e12)
        injector.log.append(FaultEvent(0.0, "node-fail", "pi-r0-n0"))
        count = len(cloud.node_names)
        assert count == 4
        # One node down the whole window, the never-failed rest count 1.0.
        expected = (count - 1) / count
        assert injector.fleet_availability(0.0, 100.0) == pytest.approx(expected)

    def test_deterministic_with_seed(self):
        def run(seed):
            config = PiCloudConfig.small(racks=1, pis=2, start_monitoring=False)
            cloud = PiCloud(config)
            cloud.boot()
            injector = MtbfFaultInjector(
                cloud, rng=random.Random(seed),
                link_mtbf_s=30.0, mttr_s=10.0, duration_s=200.0,
            )
            cloud.run_for(250.0)
            injector.stop()
            return [(e.time, e.kind, e.target) for e in injector.log]

        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_node_faults_deterministic_with_seed(self):
        """Victim choice and fail/repair times replay exactly per seed."""

        def run(seed):
            config = PiCloudConfig.small(racks=1, pis=3, start_monitoring=False)
            cloud = PiCloud(config)
            cloud.boot()
            injector = MtbfFaultInjector(
                cloud, rng=random.Random(seed),
                node_mtbf_s=40.0, mttr_s=5.0, duration_s=300.0,
            )
            cloud.run_for(350.0)
            injector.stop()
            return [(e.time, e.kind, e.target) for e in injector.log]

        first = run(11)
        assert first, "seeded run should produce node faults"
        assert first == run(11)
        assert first != run(12)

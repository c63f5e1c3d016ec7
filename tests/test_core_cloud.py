"""Tests for the PiCloud facade and configuration."""

import pytest

from repro.core import PiCloud, PiCloudConfig
from repro.errors import PiCloudError
from repro.hardware import PowerState
from repro.sim.process import Signal


class TestConfig:
    def test_defaults_are_the_paper_testbed(self):
        config = PiCloudConfig()
        assert config.node_count == 56
        assert config.num_racks == 4
        assert config.pis_per_rack == 14
        assert config.machine_spec.name == "raspberry-pi-model-b"
        assert config.topology == "multi-root-tree"

    def test_small_constructor(self):
        config = PiCloudConfig.small(racks=2, pis=3)
        assert config.node_count == 6

    def test_validation(self):
        with pytest.raises(PiCloudError):
            PiCloudConfig(num_racks=0)
        with pytest.raises(PiCloudError):
            PiCloudConfig(topology="hypercube")
        with pytest.raises(PiCloudError):
            PiCloudConfig(routing="rip")
        with pytest.raises(PiCloudError):
            PiCloudConfig(topology="fat-tree", fat_tree_k=4, num_racks=5,
                          pis_per_rack=4)  # 20 > 16 host capacity


class TestBuild:
    def test_paper_scale_build(self):
        """The full 56-Pi cloud assembles with the Fig. 2 architecture."""
        cloud = PiCloud(PiCloudConfig(start_monitoring=False))
        description = cloud.describe()
        assert description["pis"] == 56
        assert description["machines"] == 57  # + pimaster
        assert description["net_host"] == 57
        assert description["net_tor"] == 4
        assert description["net_aggregation"] == 2
        assert description["net_gateway"] == 1
        assert description["sdn_enabled"] is True

    def test_rack_inventory_matches_fig1(self):
        cloud = PiCloud(PiCloudConfig(start_monitoring=False))
        racks = cloud.rack_inventory()
        assert len(racks) == 4
        assert all(len(members) == 14 for members in racks.values())

    def test_fat_tree_build(self):
        config = PiCloudConfig.small(
            racks=2, pis=3, topology="fat-tree", fat_tree_k=4,
            start_monitoring=False,
        )
        cloud = PiCloud(config)
        assert cloud.describe()["net_core"] == 4

    def test_non_sdn_routing_builds(self):
        for routing in ("shortest", "ecmp"):
            cloud = PiCloud(PiCloudConfig.small(
                racks=1, pis=2, routing=routing, start_monitoring=False
            ))
            assert cloud.controller is None

    def test_sdn_routing_builds_controller(self):
        for routing in ("sdn-shortest", "sdn-ecmp", "sdn-least-congested"):
            cloud = PiCloud(PiCloudConfig.small(
                racks=1, pis=2, routing=routing, start_monitoring=False
            ))
            assert cloud.controller is not None
            assert cloud.controller.network is cloud.network


class TestBoot:
    def test_boot_brings_up_everything(self):
        cloud = PiCloud(PiCloudConfig.small(racks=1, pis=2, start_monitoring=False))
        cloud.boot()
        assert all(m.is_on for m in cloud.machines.values())
        assert set(cloud.daemons) == {"pi-r0-n0", "pi-r0-n1"}
        assert cloud.pimaster is not None
        assert cloud.pimaster.node_ids() == ["pi-r0-n0", "pi-r0-n1"]

    def test_double_boot_rejected(self):
        cloud = PiCloud(PiCloudConfig.small(racks=1, pis=1, start_monitoring=False))
        cloud.boot()
        with pytest.raises(PiCloudError):
            cloud.boot()

    def test_operations_require_boot(self):
        cloud = PiCloud(PiCloudConfig.small(racks=1, pis=1))
        with pytest.raises(PiCloudError):
            cloud.spawn("webserver")
        with pytest.raises(PiCloudError):
            cloud.dashboard()

    def test_async_boot_takes_spec_time(self):
        config = PiCloudConfig.small(racks=1, pis=2, start_monitoring=False)
        cloud = PiCloud(config)
        done = cloud.boot_async()
        cloud.run(until=100.0)
        assert done.triggered
        # Pis take 25s; the pimaster (512 model) also 25s.
        assert cloud.sim.now >= 25.0
        assert cloud.pimaster is not None

    def test_instant_boot_config_guard(self):
        """There is no ``instant_boot`` mode: boot() is synchronous,
        boot_async() timed, and a cloud boots once."""
        with pytest.raises(TypeError):
            PiCloudConfig.small(racks=1, pis=1, instant_boot=False)
        cloud = PiCloud(PiCloudConfig.small(racks=1, pis=1,
                                            start_monitoring=False))
        cloud.boot()
        with pytest.raises(PiCloudError):
            cloud.boot()

    def test_dns_has_node_records(self):
        cloud = PiCloud(PiCloudConfig.small(racks=1, pis=2, start_monitoring=False))
        cloud.boot()
        ip = cloud.pimaster.dns.resolve("pi-r0-n0")
        assert ip == cloud.pimaster.node_ip("pi-r0-n0")


class TestRunUntilSignal:
    def test_stops_right_after_the_firing_event(self):
        cloud = PiCloud(PiCloudConfig.small(start_monitoring=False))
        cloud.boot()
        signal = Signal(cloud.sim, name="fires")
        later = []
        cloud.sim.schedule(2.0, signal.succeed)
        cloud.sim.schedule(3.0, later.append, "late")
        started = cloud.sim.now
        cloud.run_until_signal(signal)
        assert signal.ok
        assert cloud.sim.now == started + 2.0
        assert later == []

    def test_cap_leaves_no_stop_behind(self):
        cloud = PiCloud(PiCloudConfig.small(start_monitoring=False))
        cloud.boot()
        signal = Signal(cloud.sim, name="late")
        fired = []
        cloud.sim.schedule(5.0, signal.succeed)
        cloud.sim.schedule(6.0, fired.append, "after")
        started = cloud.sim.now
        cloud.run_until_signal(signal, max_seconds=1.0)
        assert not signal.triggered
        assert cloud.sim.now == started + 1.0
        # A later run must not stop when the signal finally fires.
        cloud.run_for(10.0)
        assert signal.ok
        assert fired == ["after"]
        assert cloud.sim.now == started + 11.0


class TestPowerAndFailure:
    def test_total_watts_after_boot(self):
        cloud = PiCloud(PiCloudConfig.small(racks=1, pis=4, start_monitoring=False))
        assert cloud.total_watts() == 0.0
        cloud.boot()
        # 4 Pis + pimaster at idle 2.5 W.
        assert cloud.total_watts() == pytest.approx(5 * 2.5)

    def test_energy_accumulates(self):
        cloud = PiCloud(PiCloudConfig.small(racks=1, pis=1, start_monitoring=False))
        cloud.boot()
        cloud.run_for(100.0)
        assert cloud.energy_joules() == pytest.approx(2 * 2.5 * 100.0)

    def test_fail_node_kills_machine_and_daemon(self):
        cloud = PiCloud(PiCloudConfig.small(racks=1, pis=2, start_monitoring=False))
        cloud.boot()
        cloud.fail_node("pi-r0-n0")
        assert cloud.machines["pi-r0-n0"].state is PowerState.FAILED
        # A spawn pinned to the dead node fails.
        spawn = cloud.spawn("base", node_id="pi-r0-n0")
        cloud.run_for(3600.0)
        assert spawn.triggered and not spawn.ok

    def test_fail_and_repair_link(self):
        cloud = PiCloud(PiCloudConfig.small(racks=2, pis=1, num_roots=2,
                                            start_monitoring=False))
        cloud.boot()
        cloud.fail_link("tor0", "agg0")
        flow = cloud.network.transfer("pi-r0-n0", "pi-r1-n0", 1000.0)
        cloud.run_for(60.0)
        assert flow.ok
        assert "agg0" not in flow.path
        cloud.repair_link("tor0", "agg0")


class TestSeededDeterminism:
    def _fingerprint(self, seed):
        cloud = PiCloud(PiCloudConfig.small(racks=2, pis=2, seed=seed,
                                            start_monitoring=False))
        cloud.boot()
        signal = cloud.spawn("base", name="c0")
        cloud.run_for(3600.0)
        record = signal.value
        return (record.node_id, record.ip, cloud.sim.now, cloud.sim.events_executed)

    def test_same_seed_same_run(self):
        assert self._fingerprint(7) == self._fingerprint(7)

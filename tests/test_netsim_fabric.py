"""Integration tests for the flow-level fabric (repro.netsim.fabric)."""

import pytest

from repro.errors import NetworkError, NoRouteError
from repro.netsim import EcmpRouting, Network, ShortestPathRouting
from repro.netsim.fabric import FlowState
from repro.netsim.topology import multi_root_tree, rack_host_names, single_switch
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator()


def star(sim, n=4, bandwidth=100.0):
    topo = single_switch([f"h{i}" for i in range(n)], bandwidth=bandwidth, latency=0.0)
    return Network(sim, topo)


class TestSingleFlow:
    def test_transfer_time_is_size_over_bandwidth(self, sim):
        net = star(sim, bandwidth=100.0)
        flow = net.transfer("h0", "h1", 1000.0)
        sim.run()
        assert flow.state is FlowState.DONE
        # Bottleneck is one 100 B/s access link: 10 seconds.
        assert sim.now == pytest.approx(10.0)
        assert flow.duration == pytest.approx(10.0)
        assert flow.throughput == pytest.approx(100.0)

    def test_latency_delays_start(self, sim):
        topo = single_switch(["a", "b"], bandwidth=100.0, latency=0.5)
        net = Network(sim, topo)
        flow = net.transfer("a", "b", 100.0)
        sim.run()
        # Two hops at 0.5s latency each + 1s transfer.
        assert flow.completed_at == pytest.approx(2.0)

    def test_zero_byte_transfer_pays_latency_only(self, sim):
        topo = single_switch(["a", "b"], bandwidth=100.0, latency=0.25)
        net = Network(sim, topo)
        flow = net.transfer("a", "b", 0.0)
        sim.run()
        assert flow.state is FlowState.DONE
        assert flow.completed_at == pytest.approx(0.5)

    def test_same_host_transfer_instant(self, sim):
        net = star(sim)
        flow = net.transfer("h0", "h0", 1e9)
        sim.run()
        assert flow.state is FlowState.DONE
        assert flow.completed_at == pytest.approx(0.0)

    def test_negative_size_rejected(self, sim):
        with pytest.raises(NetworkError):
            star(sim).transfer("h0", "h1", -1.0)

    def test_unknown_endpoint_rejected(self, sim):
        with pytest.raises(NetworkError):
            star(sim).transfer("h0", "ghost", 1.0)

    def test_rate_cap_respected(self, sim):
        net = star(sim, bandwidth=100.0)
        flow = net.transfer("h0", "h1", 100.0, rate_cap=10.0)
        sim.run()
        assert flow.duration == pytest.approx(10.0)


class TestSharing:
    def test_two_flows_share_common_bottleneck(self, sim):
        net = star(sim, bandwidth=100.0)
        # Both flows converge on h1's access link (downlink to h1).
        f1 = net.transfer("h0", "h1", 1000.0)
        f2 = net.transfer("h2", "h1", 1000.0)
        sim.run()
        # They share the 100 B/s sw0->h1 direction: 50 B/s each => 20s.
        assert f1.completed_at == pytest.approx(20.0)
        assert f2.completed_at == pytest.approx(20.0)

    def test_disjoint_flows_run_at_line_rate(self, sim):
        net = star(sim, bandwidth=100.0)
        f1 = net.transfer("h0", "h1", 1000.0)
        f2 = net.transfer("h2", "h3", 1000.0)
        sim.run()
        assert f1.completed_at == pytest.approx(10.0)
        assert f2.completed_at == pytest.approx(10.0)

    def test_completion_releases_bandwidth(self, sim):
        net = star(sim, bandwidth=100.0)
        short = net.transfer("h0", "h1", 500.0)
        long = net.transfer("h2", "h1", 1500.0)
        sim.run()
        # Share 50/50 until short finishes at t=10 (500B at 50B/s); long then
        # has 1000B left at 100B/s => t=20.
        assert short.completed_at == pytest.approx(10.0)
        assert long.completed_at == pytest.approx(20.0)

    def test_late_arrival_slows_existing_flow(self, sim):
        net = star(sim, bandwidth=100.0)
        first = net.transfer("h0", "h1", 1000.0)
        second_holder = []
        sim.schedule(5.0, lambda: second_holder.append(net.transfer("h2", "h1", 500.0)))
        sim.run()
        # First runs alone for 5s (500B done), then shares at 50B/s.
        # Second: 500B at 50B/s => done t=15. First: 500B left at 50B/s
        # until t=15, then alone... both hit zero at t=15 exactly.
        assert first.completed_at == pytest.approx(15.0)
        assert second_holder[0].completed_at == pytest.approx(15.0)

    def test_utilization_gauge_tracks_load(self, sim):
        net = star(sim, bandwidth=100.0)
        net.transfer("h0", "h1", 1000.0)
        sim.run(until=5.0)
        # h0 uplink fully used.
        assert net.direction("h0", "sw0").utilization.value == pytest.approx(1.0)
        sim.run()
        assert net.direction("h0", "sw0").utilization.value == 0.0

    def test_bytes_carried_accounting(self, sim):
        net = star(sim, bandwidth=100.0)
        net.transfer("h0", "h1", 1000.0)
        sim.run()
        assert net.direction("h0", "sw0").bytes_carried.total == pytest.approx(1000.0)
        assert net.bytes_delivered.total == pytest.approx(1000.0)

    def test_many_flows_fair_share(self, sim):
        net = star(sim, n=11, bandwidth=100.0)
        flows = [net.transfer(f"h{i}", "h0", 100.0) for i in range(1, 11)]
        sim.run()
        # 10 flows share h0's 100B/s downlink: 10B/s each => 10s.
        for flow in flows:
            assert flow.completed_at == pytest.approx(10.0)


class TestMultiRootTree:
    def _net(self, sim, routing_cls=ShortestPathRouting):
        topo = multi_root_tree(
            rack_host_names(2, 2), num_roots=2,
            host_bandwidth=100.0, uplink_bandwidth=1000.0,
            gateway_bandwidth=1000.0, latency=0.0,
        )
        routing = routing_cls(sim, topo)
        return Network(sim, topo, path_service=routing), topo

    def test_intra_rack_stays_on_tor(self, sim):
        net, _ = self._net(sim)
        flow = net.transfer("pi-r0-n0", "pi-r0-n1", 100.0)
        sim.run()
        assert flow.path == ["pi-r0-n0", "tor0", "pi-r0-n1"]

    def test_inter_rack_crosses_aggregation(self, sim):
        net, _ = self._net(sim)
        flow = net.transfer("pi-r0-n0", "pi-r1-n0", 100.0)
        sim.run()
        assert len(flow.path) == 5  # host-tor-agg-tor-host
        assert flow.path[2] in ("agg0", "agg1")

    def test_ecmp_spreads_flows_across_roots(self, sim):
        net, _ = self._net(sim, routing_cls=EcmpRouting)
        chosen = set()
        for key in range(40):
            flow = net.transfer("pi-r0-n0", "pi-r1-n0", 1.0, flow_key=key)
            sim.run()
            chosen.add(flow.path[2])
        assert chosen == {"agg0", "agg1"}

    def test_shortest_path_pins_one_root(self, sim):
        net, _ = self._net(sim)
        chosen = set()
        for key in range(10):
            flow = net.transfer("pi-r0-n0", "pi-r1-n0", 1.0, flow_key=key)
            sim.run()
            chosen.add(flow.path[2])
        assert len(chosen) == 1


class TestLinkFailure:
    def test_active_flow_fails_on_link_cut(self, sim):
        net = star(sim, bandwidth=100.0)
        flow = net.transfer("h0", "h1", 10000.0)
        sim.schedule(5.0, net.fail_link, "h0", "sw0")
        sim.run()
        assert flow.state is FlowState.FAILED
        assert net.flows_failed.total == 1

    def test_new_flow_avoids_failed_link(self, sim):
        topo = multi_root_tree(rack_host_names(2, 1), num_roots=2, latency=0.0)
        net = Network(sim, topo)
        net.fail_link("tor0", "agg0")
        flow = net.transfer("pi-r0-n0", "pi-r1-n0", 100.0)
        sim.run()
        assert flow.state is FlowState.DONE
        assert "agg0" not in flow.path

    def test_no_route_fails_flow(self, sim):
        net = star(sim)
        net.fail_link("h0", "sw0")
        flow = net.transfer("h0", "h1", 100.0)
        sim.run()
        assert flow.state is FlowState.FAILED
        assert isinstance(flow.exception, NoRouteError)

    def test_repair_restores_path(self, sim):
        net = star(sim)
        net.fail_link("h0", "sw0")
        net.repair_link("h0", "sw0")
        flow = net.transfer("h0", "h1", 100.0)
        sim.run()
        assert flow.state is FlowState.DONE

    def test_unaffected_flow_survives_cut(self, sim):
        net = star(sim, bandwidth=100.0)
        victim = net.transfer("h0", "h1", 10000.0)
        survivor = net.transfer("h2", "h3", 1000.0)
        sim.schedule(1.0, net.fail_link, "h0", "sw0")
        sim.run()
        assert victim.state is FlowState.FAILED
        assert survivor.state is FlowState.DONE

    def test_victims_fail_in_flow_id_order(self, sim):
        """A cut fails its flows by flow id, not by set iteration order,
        which follows memory addresses and so varies between runs."""
        net = star(sim, bandwidth=100.0)
        flows = [net.transfer("h0", f"h{1 + i % 3}", 1e9) for i in range(600)]
        failed = []
        net.flow_observers.append(lambda flow: failed.append(flow.flow_id))
        sim.schedule(1.0, net.fail_link, "h0", "sw0")
        sim.run()
        assert failed == sorted(flow.flow_id for flow in flows)


class TestReroute:
    def test_reroute_moves_flow_to_new_path(self, sim):
        topo = multi_root_tree(
            rack_host_names(2, 1), num_roots=2,
            host_bandwidth=100.0, uplink_bandwidth=100.0, latency=0.0,
        )
        net = Network(sim, topo)
        flow = net.transfer("pi-r0-n0", "pi-r1-n0", 10000.0)
        sim.run(until=1.0)
        original_root = flow.path[2]
        other_root = "agg1" if original_root == "agg0" else "agg0"
        new_path = ["pi-r0-n0", "tor0", other_root, "tor1", "pi-r1-n0"]
        net.reroute(flow, new_path)
        sim.run()
        assert flow.state is FlowState.DONE
        assert flow.path[2] == other_root

    def test_reroute_preserves_progress(self, sim):
        net = star(sim, bandwidth=100.0)
        flow = net.transfer("h0", "h1", 1000.0)
        sim.run(until=5.0)
        net.reroute(flow, ["h0", "sw0", "h1"])  # same path, forces resettle
        sim.run()
        assert flow.completed_at == pytest.approx(10.0)

    def test_reroute_done_flow_rejected(self, sim):
        net = star(sim)
        flow = net.transfer("h0", "h1", 10.0)
        sim.run()
        with pytest.raises(NetworkError):
            net.reroute(flow, ["h0", "sw0", "h1"])

    def test_reroute_wrong_endpoints_rejected(self, sim):
        net = star(sim)
        flow = net.transfer("h0", "h1", 1e6)
        sim.run(until=0.1)
        with pytest.raises(NetworkError):
            net.reroute(flow, ["h2", "sw0", "h1"])


class TestCongestionReport:
    def test_report_identifies_hot_direction(self, sim):
        net = star(sim, bandwidth=100.0)
        for src in ("h1", "h2", "h3"):
            net.transfer(src, "h0", 1000.0)
        sim.run()
        report = net.congestion_report()
        hottest = report[0]
        assert hottest["direction"] == "sw0->h0"
        assert hottest["congested_s"] > 0
        assert hottest["episodes"] >= 1

    def test_counters_track_flows(self, sim):
        net = star(sim)
        net.transfer("h0", "h1", 10.0)
        net.transfer("h2", "h3", 10.0)
        sim.run()
        assert net.flows_started.total == 2
        assert net.flows_completed.total == 2
        assert len(net.flow_durations) == 2

"""Unit tests for addresses, fairness, links and topology builders."""

import math

import pytest

from repro.errors import AddressError, NetworkError
from repro.netsim import Ipv4Pool, Link, max_min_rates
from repro.netsim.topology import (
    Topology,
    fat_tree,
    multi_root_tree,
    rack_host_names,
    single_switch,
)
from repro.sim import Simulator
from repro.units import mbit_per_s


class TestIpv4Pool:
    def test_allocates_unique_host_addresses(self):
        pool = Ipv4Pool("10.0.0.0/29")
        addresses = {pool.allocate() for _ in range(6)}
        assert len(addresses) == 6
        assert "10.0.0.0" not in addresses  # network address
        assert "10.0.0.7" not in addresses  # broadcast

    def test_exhaustion_raises(self):
        pool = Ipv4Pool("10.0.0.0/30")
        pool.allocate(), pool.allocate()
        with pytest.raises(AddressError, match="exhausted"):
            pool.allocate()

    def test_release_enables_reuse(self):
        pool = Ipv4Pool("10.0.0.0/30")
        first = pool.allocate()
        pool.allocate()
        pool.release(first)
        assert pool.allocate() == first

    def test_reserve_specific(self):
        pool = Ipv4Pool("10.0.0.0/24")
        assert pool.reserve("10.0.0.1") == "10.0.0.1"
        assert pool.allocate() != "10.0.0.1"

    def test_reserve_duplicate_rejected(self):
        pool = Ipv4Pool("10.0.0.0/24")
        pool.reserve("10.0.0.5")
        with pytest.raises(AddressError, match="already assigned"):
            pool.reserve("10.0.0.5")

    def test_out_of_subnet_rejected(self):
        pool = Ipv4Pool("10.0.0.0/24")
        with pytest.raises(AddressError):
            pool.reserve("192.168.1.1")

    def test_network_address_rejected(self):
        pool = Ipv4Pool("10.0.0.0/24")
        with pytest.raises(AddressError):
            pool.reserve("10.0.0.0")

    def test_bad_cidr_rejected(self):
        with pytest.raises(AddressError):
            Ipv4Pool("not-a-cidr")

    def test_release_unassigned_rejected(self):
        with pytest.raises(AddressError):
            Ipv4Pool("10.0.0.0/24").release("10.0.0.9")

    def test_capacity_and_count(self):
        pool = Ipv4Pool("10.0.0.0/28")
        assert pool.capacity == 14
        pool.allocate()
        assert pool.assigned_count == 1


class TestMaxMinFairness:
    def test_equal_split_on_shared_link(self):
        rates = max_min_rates({"a": ["l"], "b": ["l"]}, {"l": 100.0})
        assert rates == {"a": 50.0, "b": 50.0}

    def test_unequal_paths_water_fill(self):
        # Classic example: f1 uses both links, f2 only L1, f3 only L2.
        rates = max_min_rates(
            {"f1": ["L1", "L2"], "f2": ["L1"], "f3": ["L2"]},
            {"L1": 10.0, "L2": 10.0},
        )
        assert rates["f1"] == pytest.approx(5.0)
        assert rates["f2"] == pytest.approx(5.0)
        assert rates["f3"] == pytest.approx(5.0)

    def test_bottleneck_frees_other_link(self):
        rates = max_min_rates(
            {"f1": ["thin", "fat"], "f2": ["fat"]},
            {"thin": 2.0, "fat": 10.0},
        )
        assert rates["f1"] == pytest.approx(2.0)
        assert rates["f2"] == pytest.approx(8.0)

    def test_rate_cap_redistributes(self):
        rates = max_min_rates(
            {"a": ["l"], "b": ["l"]},
            {"l": 100.0},
            rate_caps={"a": 10.0},
        )
        assert rates["a"] == pytest.approx(10.0)
        assert rates["b"] == pytest.approx(90.0)

    def test_empty_path_unbounded(self):
        rates = max_min_rates({"free": []}, {})
        assert math.isinf(rates["free"])

    def test_empty_path_with_cap(self):
        rates = max_min_rates({"capped": []}, {}, rate_caps={"capped": 7.0})
        assert rates["capped"] == pytest.approx(7.0)

    def test_no_flows(self):
        assert max_min_rates({}, {"l": 10.0}) == {}

    def test_capacity_fully_used_never_exceeded(self):
        flows = {f"f{i}": ["l1", "l2"] for i in range(7)}
        rates = max_min_rates(flows, {"l1": 10.0, "l2": 5.0})
        assert sum(rates.values()) == pytest.approx(5.0)

    def test_unknown_resource_rejected(self):
        with pytest.raises(ValueError):
            max_min_rates({"f": ["ghost"]}, {"l": 1.0})

    def test_nonpositive_capacity_rejected(self):
        with pytest.raises(ValueError):
            max_min_rates({"f": ["l"]}, {"l": 0.0})

    def test_zero_cap_flow_gets_zero(self):
        rates = max_min_rates(
            {"a": ["l"], "b": ["l"]}, {"l": 10.0}, rate_caps={"a": 0.0}
        )
        assert rates["a"] == 0.0
        assert rates["b"] == pytest.approx(10.0)


class TestLink:
    def test_direction_lookup(self):
        sim = Simulator()
        link = Link(sim, "a", "b", bandwidth=100.0, latency=0.001)
        assert link.direction("a", "b") is link.forward
        assert link.direction("b", "a") is link.reverse
        with pytest.raises(KeyError):
            link.direction("a", "c")

    def test_invalid_parameters(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Link(sim, "a", "b", bandwidth=0.0)
        with pytest.raises(ValueError):
            Link(sim, "a", "b", bandwidth=1.0, latency=-1.0)

    def test_congestion_accounting(self):
        sim = Simulator()
        link = Link(sim, "a", "b", bandwidth=100.0)
        direction = link.forward
        direction.set_load(95.0, congestion_threshold=0.9)   # congested
        sim.schedule(10.0, direction.set_load, 10.0, 0.9)    # relieved at t=10
        sim.run()
        assert direction.congestion_episodes == 1
        assert direction.congested_seconds == pytest.approx(10.0)

    def test_finalize_congestion_closes_open_interval(self):
        sim = Simulator()
        link = Link(sim, "a", "b", bandwidth=100.0)
        link.forward.set_load(100.0, 0.9)
        sim.schedule(5.0, lambda: None)
        sim.run()
        link.forward.finalize_congestion()
        assert link.forward.congested_seconds == pytest.approx(5.0)


class TestTopologyBuilders:
    def test_single_switch_star(self):
        topo = single_switch(["h1", "h2", "h3"])
        assert topo.hosts() == ["h1", "h2", "h3"]
        assert topo.switches() == ["sw0"]
        assert topo.degree("sw0") == 3

    def test_multi_root_tree_matches_paper_architecture(self):
        """Fig. 2: 4 racks x 14 Pis, ToR per rack, OpenFlow agg, gateway."""
        racks = rack_host_names(4, 14)
        topo = multi_root_tree(racks, num_roots=2)
        shape = topo.describe()
        assert shape["host"] == 56
        assert shape["tor"] == 4
        assert shape["aggregation"] == 2
        assert shape["gateway"] == 1
        assert shape["openflow_switches"] == 2
        # Each ToR uplinks to every root: 4 racks x 2 roots = 8 uplinks,
        # plus 56 host links and 2 gateway links.
        assert shape["links"] == 56 + 8 + 2

    def test_multi_root_tree_rack_assignment(self):
        topo = multi_root_tree(rack_host_names(2, 3))
        racks = topo.racks()
        assert set(racks) == {"rack0", "rack1"}
        assert len(racks["rack0"]) == 3
        assert topo.rack_of("pi-r1-n2") == "rack1"

    def test_multi_root_tree_validation(self):
        with pytest.raises(NetworkError):
            multi_root_tree([])
        with pytest.raises(NetworkError):
            multi_root_tree([[]])
        with pytest.raises(NetworkError):
            multi_root_tree([["h1"]], num_roots=0)

    def test_fat_tree_k4_shape(self):
        topo = fat_tree(4)
        shape = topo.describe()
        assert shape["host"] == 16
        assert shape["core"] == 4
        assert shape["aggregation"] == 8
        assert shape["tor"] == 8  # edge switches
        # Classic k=4 fat-tree: 48 links total (16 host + 16 edge-agg + 16 agg-core).
        assert shape["links"] == 48

    def test_fat_tree_rejects_odd_k(self):
        with pytest.raises(NetworkError):
            fat_tree(3)

    def test_fat_tree_rejects_too_many_hosts(self):
        with pytest.raises(NetworkError):
            fat_tree(2, hosts=[f"h{i}" for i in range(5)])

    def test_fat_tree_with_named_hosts(self):
        hosts = [f"pi{i}" for i in range(10)]
        topo = fat_tree(4, hosts=hosts)
        assert topo.hosts() == sorted(hosts)

    def test_fat_tree_is_openflow_fabric(self):
        topo = fat_tree(4)
        assert all(topo.is_openflow(s) for s in topo.switches())

    def test_duplicate_node_rejected(self):
        topo = Topology()
        topo.add_host("h1")
        with pytest.raises(NetworkError):
            topo.add_host("h1")

    def test_duplicate_edge_rejected(self):
        topo = Topology()
        topo.add_host("h1")
        topo.add_switch("s1", "tor")
        topo.connect("h1", "s1", mbit_per_s(100))
        with pytest.raises(NetworkError):
            topo.connect("h1", "s1", mbit_per_s(100))

    def test_self_loop_rejected(self):
        topo = Topology()
        topo.add_host("h1")
        with pytest.raises(NetworkError):
            topo.connect("h1", "h1", 1.0)

    def test_unknown_node_rejected(self):
        topo = Topology()
        topo.add_host("h1")
        with pytest.raises(NetworkError):
            topo.connect("h1", "ghost", 1.0)

    def test_partitioned_topology_fails_validation(self):
        topo = Topology()
        topo.add_host("h1")
        topo.add_host("h2")
        with pytest.raises(NetworkError, match="partitioned"):
            topo.validate()

    def test_empty_topology_fails_validation(self):
        with pytest.raises(NetworkError, match="empty"):
            Topology().validate()

    def test_rack_host_names_shape(self):
        names = rack_host_names(4, 14)
        assert len(names) == 4
        assert all(len(r) == 14 for r in names)
        assert names[0][0] == "pi-r0-n0"
        assert names[3][13] == "pi-r3-n13"

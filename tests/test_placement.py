"""Unit tests for placement policies and the consolidation planner."""

import pytest

from repro.errors import PlacementError
from repro.placement import (
    BestFit,
    FirstFit,
    LowestCpuLoad,
    NetworkAwarePlacement,
    NodeView,
    PackingPlacement,
    PlacementRequest,
    RoundRobin,
    WorstFit,
)
from repro.placement import network_aware
from repro.placement.base import feasible
from repro.placement.consolidation import plan_packing
from repro.units import mib


def view(node_id, free=mib(100), cap=mib(150), load=0.0, rack=None,
         running=0, powered=True, uplink=0.0, groups=()):
    return NodeView(
        node_id=node_id,
        rack=rack,
        memory_available=free,
        memory_capacity=cap,
        cpu_load=load,
        running_containers=running,
        powered_on=powered,
        uplink_utilization=uplink,
        groups=tuple(groups),
    )


REQ = PlacementRequest(image="webserver", memory_bytes=mib(30))


class TestFeasibility:
    def test_filters_memory(self):
        nodes = [view("a", free=mib(10)), view("b", free=mib(50))]
        assert [v.node_id for v in feasible(REQ, nodes)] == ["b"]

    def test_filters_powered_off(self):
        nodes = [view("a", powered=False), view("b")]
        assert [v.node_id for v in feasible(REQ, nodes)] == ["b"]

    def test_avoid_racks(self):
        request = PlacementRequest(
            image="x", memory_bytes=mib(30), avoid_racks=("rack0",)
        )
        nodes = [view("a", rack="rack0"), view("b", rack="rack1")]
        assert [v.node_id for v in feasible(request, nodes)] == ["b"]

    def test_no_candidates_raises(self):
        with pytest.raises(PlacementError, match="no feasible node"):
            feasible(REQ, [view("a", free=0)])

    def test_anti_affinity_spreads_when_possible(self):
        request = PlacementRequest(
            image="x", memory_bytes=mib(30), anti_affinity_group="web"
        )
        nodes = [view("a", groups=("web",)), view("b")]
        assert [v.node_id for v in feasible(request, nodes)] == ["b"]

    def test_anti_affinity_soft_when_unavoidable(self):
        request = PlacementRequest(
            image="x", memory_bytes=mib(30), anti_affinity_group="web"
        )
        nodes = [view("a", groups=("web",))]
        assert [v.node_id for v in feasible(request, nodes)] == ["a"]

    def test_same_rack_preferred_when_available(self):
        request = PlacementRequest(
            image="x", memory_bytes=mib(30), same_rack_as="rack1"
        )
        nodes = [view("a", rack="rack0"), view("b", rack="rack1")]
        assert [v.node_id for v in feasible(request, nodes)] == ["b"]

    def test_request_validation(self):
        with pytest.raises(PlacementError):
            PlacementRequest(image="x", memory_bytes=0)


class TestClassicPolicies:
    def test_first_fit_takes_first(self):
        nodes = [view("a"), view("b")]
        assert FirstFit().choose(REQ, nodes) == "a"

    def test_first_fit_skips_full(self):
        nodes = [view("a", free=0), view("b")]
        assert FirstFit().choose(REQ, nodes) == "b"

    def test_best_fit_minimises_leftover(self):
        nodes = [view("a", free=mib(120)), view("b", free=mib(35)), view("c", free=mib(60))]
        assert BestFit().choose(REQ, nodes) == "b"

    def test_worst_fit_maximises_leftover(self):
        nodes = [view("a", free=mib(120)), view("b", free=mib(35))]
        assert WorstFit().choose(REQ, nodes) == "a"

    def test_round_robin_rotates(self):
        policy = RoundRobin()
        nodes = [view("a"), view("b"), view("c")]
        chosen = [policy.choose(REQ, nodes) for _ in range(6)]
        assert chosen == ["a", "b", "c", "a", "b", "c"]

    def test_lowest_cpu_load(self):
        nodes = [view("a", load=0.9), view("b", load=0.1), view("c", load=0.5)]
        assert LowestCpuLoad().choose(REQ, nodes) == "b"

    def test_packing_prefers_occupied(self):
        nodes = [view("a", running=0, free=mib(100)), view("b", running=2, free=mib(90))]
        assert PackingPlacement().choose(REQ, nodes) == "b"

    def test_packing_opens_new_when_occupied_full(self):
        nodes = [view("a", running=0), view("b", running=2, free=mib(5))]
        assert PackingPlacement().choose(REQ, nodes) == "a"

    def test_ties_broken_by_node_id(self):
        nodes = [view("b"), view("a")]
        assert BestFit().choose(REQ, nodes) == "a"


class TestNetworkAware:
    def test_prefers_same_rack(self):
        policy = NetworkAwarePlacement()
        request = PlacementRequest(
            image="x", memory_bytes=mib(30), same_rack_as="rack1"
        )
        nodes = [view("a", rack="rack0"), view("b", rack="rack1")]
        assert policy.choose(request, nodes) == "b"

    def test_avoids_hot_uplink(self):
        policy = NetworkAwarePlacement()
        nodes = [view("a", uplink=0.95), view("b", uplink=0.05)]
        assert policy.choose(REQ, nodes) == "b"

    def test_congestion_can_override_locality(self, monkeypatch):
        """With heavy congestion weight, a hot preferred rack is avoided."""
        monkeypatch.setattr(network_aware, "LOCALITY_WEIGHT", 0.5)
        policy = NetworkAwarePlacement(congestion_weight=2.0)
        request = PlacementRequest(
            image="x", memory_bytes=mib(30), same_rack_as="rack0"
        )
        nodes = [
            view("a", rack="rack0", uplink=0.9),
            view("b", rack="rack1", uplink=0.0),
        ]
        assert policy.choose(request, nodes) == "b"

    def test_locality_wins_when_weighted_high(self, monkeypatch):
        monkeypatch.setattr(network_aware, "LOCALITY_WEIGHT", 5.0)
        policy = NetworkAwarePlacement(congestion_weight=1.0)
        request = PlacementRequest(
            image="x", memory_bytes=mib(30), same_rack_as="rack0"
        )
        nodes = [
            view("a", rack="rack0", uplink=0.9),
            view("b", rack="rack1", uplink=0.0),
        ]
        assert policy.choose(request, nodes) == "a"

    def test_no_feasible_raises(self):
        with pytest.raises(PlacementError):
            NetworkAwarePlacement().choose(REQ, [view("a", free=0)])


class _FakeContainer:
    """Minimal stand-in for plan_packing (only name/memory_bytes used)."""

    def __init__(self, name, memory_bytes):
        self.name = name
        self.memory_bytes = memory_bytes

    def __hash__(self):
        return hash(self.name)

    def __eq__(self, other):
        return isinstance(other, _FakeContainer) and other.name == self.name


class TestPackingPlan:
    def test_packs_onto_prefix(self):
        containers = [
            (_FakeContainer("c1", 30), "h2"),
            (_FakeContainer("c2", 30), "h3"),
            (_FakeContainer("c3", 30), "h1"),
        ]
        free = {"h1": 100, "h2": 100, "h3": 100}
        plan = plan_packing(containers, free, ["h1", "h2", "h3"])
        assert set(plan.values()) == {"h1"}  # all three fit on h1

    def test_respects_capacity(self):
        containers = [
            (_FakeContainer("big", 80), "h2"),
            (_FakeContainer("small", 30), "h2"),
        ]
        free = {"h1": 100, "h2": 100}
        plan = plan_packing(containers, free, ["h1", "h2"])
        assert plan["big"] == "h1"
        assert plan["small"] == "h2"  # 80+30 > 100, overflow to h2

    def test_ffd_sorts_by_size_descending(self):
        containers = [
            (_FakeContainer("small", 10), "h2"),
            (_FakeContainer("big", 90), "h1"),
        ]
        free = {"h1": 100, "h2": 100}
        plan = plan_packing(containers, free, ["h1", "h2"])
        # Big placed first on h1, small fits beside it.
        assert plan == {"big": "h1", "small": "h1"}

    def test_unpackable_stays_put(self):
        containers = [(_FakeContainer("huge", 500), "h2")]
        free = {"h1": 100, "h2": 100}
        plan = plan_packing(containers, free, ["h1", "h2"])
        assert plan == {"huge": "h2"}

    def test_empty_plan(self):
        assert plan_packing([], {"h1": 100}, ["h1"]) == {}

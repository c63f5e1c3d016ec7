"""A flow's set-up (route, propagation, activation) as kernel events.

A flow is started by three kernel callbacks of its own -- no process per
flow.  These tests pin the order and timing of what they schedule: the
kernel event count and every flow's start and completion times, as
``float.hex``, match values recorded when each flow still ran as a
generator process, for an ECMP storm and for an SDN storm with
PacketIns.  The fabric keeps flows in sets, so the pins must hold under
any ``PYTHONHASHSEED``.
"""

import re

import pytest

from repro.errors import SimBudgetExceeded
from repro.netsim import EcmpRouting, Network
from repro.netsim.cc import MaxMinRateModel
from repro.netsim.fabric import FlowState, FlowTransfer
from repro.netsim.sdn import (
    OpenFlowPathService,
    SdnController,
    ShortestPathApp,
)
from repro.netsim.topology import fat_tree
from repro.sim import Signal, Simulator
from repro.sim.budget import SimBudgetConfig


def _hex(value):
    return None if value is None else value.hex()


def _record(sim, flows):
    return {
        "events": sim.events_executed,
        "flows": [(flow.state.value, _hex(flow.started_at),
                   _hex(flow.completed_at),
                   type(flow.exception).__name__ if flow.exception else None)
                  for flow in flows],
    }


def _ecmp_storm(sim=None):
    """Set up, not run: fat_tree(4) under ECMP, a burst at t=0 with
    zero-byte and loopback (zero-latency) flows, a link that dies while
    a flow propagates over it, a flow with no route left, a partition
    that lands mid-propagation, a flow refused at route time by the
    partition, and a second burst."""
    sim = sim or Simulator()
    topo = fat_tree(4)
    net = Network(sim, topo, path_service=EcmpRouting(sim, topo))
    flows = []

    def start(src, dst, nbytes, key):
        flows.append(net.transfer(src, dst, nbytes, flow_key=key))

    sizes = [0.0, 2e4, 1e5, 3e5]
    for i in range(12):
        start(f"h{i}", f"h{(5 * i + 3) % 16}", sizes[i % 4], f"burst{i}")
    start("h8", "h12", 2e6, "elephant")          # reset by the partition
    start("h5", "h5", 1e5, "loopback")           # zero latency, inline
    start("h6", "h6", 0.0, "loopback0")
    # 300 us to propagate h0 -> h15; its first hop dies 100 us in.
    sim.schedule(0.01, start, "h0", "h15", 1e5, "doomed")
    sim.schedule(0.0101, net.fail_link, "h0", "p0-edge0")
    sim.schedule(0.015, start, "h0", "h3", 1e4, "isolated")
    # 300 us to propagate h4 -> h12; the partition lands 100 us in.
    sim.schedule(0.02, start, "h4", "h12", 1e5, "cut")
    sim.schedule(0.0201, net.set_partition, [["h12"]])
    sim.schedule(0.0202, start, "h9", "h12", 1e4, "refused")
    sim.schedule(0.0202, start, "h13", "h14", 1e4, "inside")
    sim.schedule(0.03, net.clear_partition)
    sim.schedule(0.04, net.repair_link, "h0", "p0-edge0")
    for i in range(8):
        sim.schedule(0.04, start, f"h{15 - i}", f"h{(3 * i + 1) % 16}",
                     sizes[(i + 1) % 4], f"second{i}")
    return sim, net, flows


def _sdn_storm():
    """Set up, not run: fat_tree(4) behind an OpenFlow controller, a
    burst whose flows each wait on a PacketIn, a second burst on the
    installed paths (cache hits), and a link that dies while a flow
    propagates."""
    sim = Simulator()
    topo = fat_tree(4)
    controller = SdnController(sim, topo, ShortestPathApp())
    service = OpenFlowPathService(sim, controller)
    net = Network(sim, topo, path_service=service)
    controller.attach_network(net)
    flows = []

    def start(src, dst, nbytes, key):
        flows.append(net.transfer(src, dst, nbytes, flow_key=key))

    sizes = [0.0, 5e4, 2e5]
    for i in range(10):
        start(f"h{i}", f"h{(7 * i + 2) % 16}", sizes[i % 3], f"burst{i}")
    start("h3", "h3", 0.0, "loopback")
    for i in range(10):
        sim.schedule(0.05, start, f"h{i}", f"h{(7 * i + 2) % 16}",
                     sizes[(i + 1) % 3], f"again{i}")
    sim.schedule(0.1, start, "h1", "h9", 1e5, "doomed")
    sim.schedule(0.1001, net.fail_link, "h1", "p0-edge0")
    return sim, net, service, flows


# Recorded when each flow ran as a generator process
# (``Network._run_flow``) with a Timeout for its propagation: the
# kernel's event count and, per flow in transfer order, its state,
# start and completion times and the type of its failure.
_ECMP_PIN = {
    "events": 134,
    "flows": [
        ("done", "0x1.a36e2eb1c432cp-13", "0x1.a36e2eb1c432cp-13", None),
        ("done", "0x1.3a92a30553262p-12", "0x1.cac083126e979p-9", None),
        ("done", "0x1.3a92a30553262p-12", "0x1.0b0f27bb2fec6p-6", None),
        ("done", "0x1.a36e2eb1c432cp-14", "0x1.8adab9f559b3dp-6", None),
        ("done", "0x1.a36e2eb1c432cp-13", "0x1.a36e2eb1c432cp-13", None),
        ("done", "0x1.3a92a30553262p-12", "0x1.cac083126e979p-9", None),
        ("done", "0x1.3a92a30553262p-12", "0x1.4467381d7dbf5p-7", None),
        ("done", "0x1.a36e2eb1c432cp-14", "0x1.8adab9f559b3dp-6", None),
        ("done", "0x1.a36e2eb1c432cp-13", "0x1.a36e2eb1c432cp-13", None),
        ("done", "0x1.3a92a30553262p-12", "0x1.cac083126e979p-9", None),
        ("done", "0x1.3a92a30553262p-12", "0x1.0ff972474538fp-7", None),
        ("done", "0x1.a36e2eb1c432cp-14", "0x1.8adab9f559b3dp-6", None),
        ("failed", "0x1.3a92a30553262p-12", None, "ConnectionResetError"),
        ("done", "0x0.0p+0", "0x0.0p+0", None),
        ("done", "0x0.0p+0", "0x0.0p+0", None),
        ("failed", None, None, "NoRouteError"),
        ("failed", None, None, "NoRouteError"),
        ("failed", None, None, "NoRouteError"),
        ("failed", None, None, "NoRouteError"),
        ("done", "0x1.4e3bcd35a8587p-6", "0x1.5b573eab367a0p-6", None),
        ("done", "0x1.4a2339c0ebee0p-5", "0x1.645a1cac08313p-5", None),
        ("done", "0x1.4a2339c0ebee0p-5", "0x1.98c7e28240b79p-5", None),
        ("done", "0x1.4a2339c0ebee0p-5", "0x1.075f6fd21ff2ep-4", None),
        ("done", "0x1.4a2339c0ebee0p-5", "0x1.4a2339c0ebee0p-5", None),
        ("done", "0x1.4a2339c0ebee0p-5", "0x1.573eab367a0f9p-5", None),
        ("done", "0x1.4a2339c0ebee0p-5", "0x1.8bac710cb295fp-5", None),
        ("done", "0x1.4a2339c0ebee0p-5", "0x1.075f6fd21ff2ep-4", None),
        ("done", "0x1.4a2339c0ebee0p-5", "0x1.4a2339c0ebee0p-5", None),
    ],
}
_SDN_PIN = {
    "events": 124,
    "flows": [
        ("done", "0x1.205bc01a36e2fp-9", "0x1.205bc01a36e2fp-9", None),
        ("done", "0x1.2d77318fc5048p-9", "0x1.9ce075f6fd220p-8", None),
        ("done", "0x1.205bc01a36e2fp-9", "0x1.2a305532617c2p-6", None),
        ("done", "0x1.2d77318fc5048p-9", "0x1.2d77318fc5048p-9", None),
        ("done", "0x1.2d77318fc5048p-9", "0x1.5182a9930be0ep-7", None),
        ("done", "0x0.0p+0", "0x0.0p+0", None),
        ("done", "0x1.2d77318fc5048p-9", "0x1.2d77318fc5048p-9", None),
        ("done", "0x1.2d77318fc5048p-9", "0x1.5182a9930be0ep-7", None),
        ("done", "0x1.205bc01a36e2fp-9", "0x1.2a305532617c2p-6", None),
        ("done", "0x1.2d77318fc5048p-9", "0x1.2d77318fc5048p-9", None),
        ("done", "0x0.0p+0", "0x0.0p+0", None),
        ("done", "0x1.9b3d07c84b5ddp-5", "0x1.dbf487fcb923ap-5", None),
        ("done", "0x1.9c0ebedfa43ffp-5", "0x1.1ff2e48e8a71ep-4", None),
        ("done", "0x1.9b3d07c84b5ddp-5", "0x1.9b3d07c84b5ddp-5", None),
        ("done", "0x1.9c0ebedfa43ffp-5", "0x1.dd97f62b6ae7ep-5", None),
        ("done", "0x1.9c0ebedfa43ffp-5", "0x1.617c1bda5119ep-4", None),
        ("done", "0x1.999999999999ap-5", "0x1.999999999999ap-5", None),
        ("done", "0x1.9c0ebedfa43ffp-5", "0x1.fe5c91d14e3bep-5", None),
        ("done", "0x1.9c0ebedfa43ffp-5", "0x1.617c1bda5119ep-4", None),
        ("done", "0x1.9b3d07c84b5ddp-5", "0x1.9b3d07c84b5ddp-5", None),
        ("done", "0x1.9c0ebedfa43ffp-5", "0x1.cd35a858793dep-5", None),
        ("failed", None, None, "NoRouteError"),
    ],
}


class TestSetupPins:
    def test_ecmp_storm_matches_process_per_flow(self):
        sim, net, flows = _ecmp_storm()
        sim.run()
        states = [flow.state for flow in flows]
        assert states.count(FlowState.FAILED) == 5
        assert _record(sim, flows) == _ECMP_PIN

    def test_sdn_storm_matches_process_per_flow(self):
        sim, net, service, flows = _sdn_storm()
        sim.run()
        assert service.setups > 0 and service.cache_hits > 0
        assert _record(sim, flows) == _SDN_PIN


class _ActivationLog(MaxMinRateModel):
    """Max-min, recording the order flows become ACTIVE in."""

    def __init__(self) -> None:
        super().__init__()
        self.activated = []

    def on_activate(self, flow) -> None:
        self.activated.append(flow)


class TestSetupOrder:
    @pytest.mark.parametrize("routing", ["ecmp", "sdn"])
    def test_same_instant_flows_activate_in_transfer_order(self, routing):
        sim = Simulator()
        topo = fat_tree(4)
        log = _ActivationLog()
        if routing == "ecmp":
            service = EcmpRouting(sim, topo)
        else:
            service = OpenFlowPathService(
                sim, SdnController(sim, topo, ShortestPathApp()),
                match_granularity="flow")
        net = Network(sim, topo, path_service=service, rate_model=log)
        # Every path crosses the core: six 50 us hops each.  Sources and
        # destinations interleave, so neither name nor hash order is
        # transfer order.
        flows = [net.transfer(f"h{(7 * i) % 8}", f"h{8 + (5 * i) % 8}",
                              1e5, flow_key=f"f{i}") for i in range(40)]
        sim.run()
        assert {flow.started_at for flow in flows} == {flows[0].started_at}
        assert log.activated == flows

    @pytest.mark.parametrize("storm", ["ecmp", "sdn"])
    def test_no_flow_is_a_live_process(self, storm):
        if storm == "ecmp":
            sim, net, flows = _ecmp_storm()
        else:
            sim, net, _, flows = _sdn_storm()
        pending_seen = 0
        while sim.peek() is not None:
            sim.run(max_events=1)
            assert not any(isinstance(process, FlowTransfer)
                           or re.fullmatch(r"flow\d+", process.name)
                           for process in sim._live_processes)
            pending_seen = max(pending_seen, sum(
                flow.state is FlowState.PENDING for flow in flows))
        assert pending_seen >= 10
        if storm == "ecmp":
            assert not sim._live_processes

    @pytest.mark.parametrize("limit", [
        {"max_events": 20}, {"max_sim_time_s": 0.0402}])
    def test_budget_snapshot_names_the_flows(self, limit):
        """Flows are not processes, but every set-up event is the flow's
        own: the snapshot's labels still name it."""
        sim, net, flows = _ecmp_storm(Simulator(SimBudgetConfig(**limit)))
        with pytest.raises(SimBudgetExceeded) as tripped:
            sim.run()
        snapshot = tripped.value.snapshot
        assert not any(re.fullmatch(r"flow\d+", name)
                       for name in snapshot.runnable_processes)
        pending = [flow for flow in flows if flow.state is FlowState.PENDING]
        assert pending
        labels = [label for _, label in snapshot.pending_head]
        labels += [label for _, label in snapshot.recent_events]
        named = {label.rsplit("[", 1)[1].rstrip("]")
                 for label in labels if label.startswith("FlowTransfer.")}
        assert pending[0].name in named
        assert any(flow.name in named for flow in pending[1:])


class _FailingPathService:
    """Fails every resolve with a non-routing error, at once or later."""

    def __init__(self, sim, delay):
        self.sim = sim
        self.delay = delay

    def resolve(self, src, dst, flow_key=None):
        route = Signal(self.sim)
        error = RuntimeError("controller crashed")
        if self.delay is None:
            return route.fail(error)
        self.sim.schedule(self.delay, route.fail, error)
        return route

    def mark_link(self, a, b, up):
        pass


class TestPathServiceErrors:
    @pytest.mark.parametrize("delay", [None, 0.001])
    def test_any_route_error_fails_the_flow(self, delay):
        sim = Simulator()
        topo = fat_tree(4)
        net = Network(sim, topo, path_service=_FailingPathService(sim, delay))
        flow = net.transfer("h0", "h5", 1e4)
        seen = []

        def waiter():
            try:
                yield flow
            except RuntimeError as exc:
                seen.append(str(exc))

        sim.process(waiter())
        sim.run()
        assert flow.state is FlowState.FAILED
        assert seen == ["controller crashed"]
        assert net.flows_failed.total == 1
        assert net._churn == 0

"""Targeted edge-case tests across layers.

Small scenarios that earlier integration tests do not reach: failures
mid-propagation, zero-duration windows, boundary sizes, repr smoke
checks, and cross-layer corner interactions.
"""

import pytest

from repro.netsim import Network
from repro.netsim.fabric import FlowState
from repro.netsim.topology import single_switch
from repro.sim import AllOf, AnyOf, Signal, Simulator, Timeout
from repro.telemetry.series import Gauge


@pytest.fixture
def sim():
    return Simulator()


class TestFlowEdgeCases:
    def test_flow_fails_while_propagating(self, sim):
        """Link dies during the latency window, before data flows."""
        topo = single_switch(["a", "b"], bandwidth=100.0, latency=1.0)
        net = Network(sim, topo)
        flow = net.transfer("a", "b", 1000.0)
        # The path resolves immediately; the flow is in its 2s propagation
        # window when the link dies.
        sim.schedule(0.5, net.fail_link, "a", "sw0")
        sim.run()
        # It either failed outright or was never activated; it must not
        # end up DONE nor leak into the active set.
        assert flow.state is not FlowState.DONE or flow.size == 0
        assert net.active_flow_count == 0

    def test_double_fail_link_is_idempotent(self, sim):
        topo = single_switch(["a", "b"], bandwidth=100.0)
        net = Network(sim, topo)
        net.fail_link("a", "sw0")
        net.fail_link("a", "sw0")
        net.repair_link("a", "sw0")
        net.repair_link("a", "sw0")
        flow = net.transfer("a", "b", 10.0)
        sim.run()
        assert flow.state is FlowState.DONE

    def test_many_tiny_flows_complete(self, sim):
        topo = single_switch([f"h{i}" for i in range(4)], bandwidth=1e6)
        net = Network(sim, topo)
        flows = [
            net.transfer(f"h{i % 4}", f"h{(i + 1) % 4}", float(i % 7))
            for i in range(200)
        ]
        sim.run()
        assert all(f.state is FlowState.DONE for f in flows)
        assert net.flows_completed.total == 200

    def test_flow_repr_smoke(self, sim):
        topo = single_switch(["a", "b"])
        net = Network(sim, topo)
        flow = net.transfer("a", "b", 10.0)
        assert "Flow" in repr(flow)
        sim.run()
        assert "done" in repr(flow)


class TestSignalEdgeCases:
    def test_anyof_with_both_triggering_same_instant(self, sim):
        a, b = Signal(sim), Signal(sim)
        combo = AnyOf(sim, [a, b])
        a.succeed("first")
        b.succeed("second")
        assert combo.value == (0, "first")

    def test_allof_with_pre_triggered_children(self, sim):
        a = Signal(sim).succeed(1)
        b = Signal(sim).succeed(2)
        combo = AllOf(sim, [a, b])
        sim.run()
        assert combo.value == [1, 2]

    def test_nested_combinators(self, sim):
        inner = AllOf(sim, [Timeout(sim, 1.0, "x"), Timeout(sim, 2.0, "y")])
        outer = AnyOf(sim, [inner, Timeout(sim, 10.0)])
        results = []

        def waiter():
            index, value = yield outer
            results.append((index, value))

        sim.process(waiter())
        sim.run()
        assert results == [(0, ["x", "y"])]

    def test_process_spawning_processes_deeply(self, sim):
        depth_reached = []

        def nested(depth):
            if depth == 0:
                depth_reached.append(True)
                return 0
            result = yield sim.process(nested(depth - 1))
            return result + 1

        root = sim.process(nested(20))
        sim.run()
        assert root.value == 20
        assert depth_reached == [True]

    def test_timeout_cancel_then_trigger_is_safe(self, sim):
        timeout = Timeout(sim, 5.0)
        timeout.cancel()
        sim.run()
        assert not timeout.triggered
        # Cancel after trigger is also a no-op.
        second = Timeout(sim, 1.0)
        sim.run()
        second.cancel()
        assert second.triggered


class TestGaugeEdgeCases:
    def test_integral_at_creation_instant(self, sim):
        gauge = Gauge(sim, initial=5.0)
        assert gauge.integral() == 0.0
        assert gauge.time_weighted_mean() == 5.0  # zero-span => value

    def test_window_before_first_sample(self, sim):
        sim.schedule(10.0, lambda: None)
        sim.run()
        gauge = Gauge(sim, initial=3.0)
        sim.schedule(10.0, lambda: None)
        sim.run()
        # Window entirely before the gauge existed contributes nothing.
        assert gauge.integral(0.0, 5.0) == 0.0


class TestSchedulerEdgeCases:
    def test_massive_task_count(self, sim):
        from repro.hardware import Cpu, CpuSpec
        from repro.hostos.scheduler import FairShareScheduler

        sched = FairShareScheduler(sim, Cpu(sim, CpuSpec(clock_hz=1e6)))
        tasks = [sched.submit(100.0) for _ in range(300)]
        sim.run()
        assert all(t.triggered for t in tasks)
        # 300 * 100 cycles at 1e6/s.
        assert sim.now == pytest.approx(0.03)

    def test_cancel_all_then_submit(self, sim):
        from repro.hardware import Cpu, CpuSpec
        from repro.hostos.scheduler import FairShareScheduler

        sched = FairShareScheduler(sim, Cpu(sim, CpuSpec(clock_hz=1e6)))
        doomed = [sched.submit(1e9) for _ in range(5)]
        for task in doomed:
            task.cancel()
        survivor = sched.submit(1e6)
        sim.run()
        assert survivor.triggered
        assert sim.now == pytest.approx(1.0)


class TestKernelEdgeCases:
    def test_schedule_at_now_is_allowed(self, sim):
        fired = []
        sim.schedule_at(0.0, fired.append, "now")
        sim.run()
        assert fired == ["now"]

    def test_cancelled_event_mid_run(self, sim):
        events = []
        second = sim.schedule(2.0, events.append, "b")
        sim.schedule(1.0, lambda: second.cancel())
        sim.schedule(3.0, events.append, "c")
        sim.run()
        assert events == ["c"]

    def test_run_max_events_zero(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run(max_events=0)
        assert sim.events_executed == 0

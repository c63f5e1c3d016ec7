"""Unit tests for the discrete-event kernel (repro.sim.kernel)."""

import gc
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core import PiCloud, PiCloudConfig
from repro.core.config import HealthConfig, TraceConfig
from repro.errors import SimBudgetExceeded, SimulationError
from repro.sim import Simulator, Timeout, kernel
from repro.sim.budget import SimBudgetConfig
from repro.sim.kernel import GC_GEN0_THRESHOLD

SRC = str(Path(repro.__file__).resolve().parents[1])


class TestClock:
    def test_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_run_with_empty_queue_advances_to_until(self):
        sim = Simulator()
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_run_without_until_on_empty_queue_is_noop(self):
        sim = Simulator()
        sim.run()
        assert sim.now == 0.0


class TestScheduling:
    def test_callback_fires_at_scheduled_time(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [5.0]

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(3.0, order.append, "c")
        sim.schedule(1.0, order.append, "a")
        sim.schedule(2.0, order.append, "b")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_same_time_events_fire_in_scheduling_order(self):
        sim = Simulator()
        order = []
        for tag in "abcde":
            sim.schedule(1.0, order.append, tag)
        sim.run()
        assert order == list("abcde")

    def test_priority_breaks_ties(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, order.append, "low", priority=5)
        sim.schedule(1.0, order.append, "high", priority=-5)
        sim.run()
        assert order == ["high", "low"]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-0.1, lambda: None)

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    def test_nan_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(float("nan"), lambda: None)
        assert sim.pending_events() == 0

    def test_nan_time_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_at(float("nan"), lambda: None)
        assert sim.pending_events() == 0

    def test_nan_timeout_rejected_and_clock_stays_finite(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            Timeout(sim, float("nan"))
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.now == 1.0

    def test_args_passed_to_callback(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda a, b: seen.append((a, b)), 1, "x")
        sim.run()
        assert seen == [(1, "x")]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, fired.append, "nope")
        event.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        sim.run()

    def test_peek_skips_cancelled(self):
        sim = Simulator()
        first = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        first.cancel()
        assert sim.peek() == 2.0

    def test_pending_events_counts_live_only(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        event.cancel()
        assert sim.pending_events() == 1


class TestRunControl:
    def test_run_until_stops_clock_at_until(self):
        sim = Simulator()
        sim.schedule(10.0, lambda: None)
        sim.run(until=4.0)
        assert sim.now == 4.0
        assert sim.pending_events() == 1

    def test_run_until_resumes(self):
        sim = Simulator()
        fired = []
        sim.schedule(10.0, fired.append, "late")
        sim.run(until=4.0)
        sim.run()
        assert fired == ["late"]
        assert sim.now == 10.0

    def test_event_at_exactly_until_fires(self):
        sim = Simulator()
        fired = []
        sim.schedule(4.0, fired.append, "edge")
        sim.run(until=4.0)
        assert fired == ["edge"]

    def test_max_events_bounds_execution(self):
        sim = Simulator()
        for _ in range(10):
            sim.schedule(1.0, lambda: None)
        sim.run(max_events=3)
        assert sim.events_executed == 3

    def test_stop_returns_after_the_current_event(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: (fired.append("a"), sim.stop()))
        sim.schedule(1.0, fired.append, "b")
        sim.schedule(2.0, fired.append, "c")
        sim.run(until=10.0)
        assert fired == ["a"]
        assert sim.now == 1.0
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_stop_outside_run_is_a_noop(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.stop()
        sim.run()
        assert fired == ["a"]

    def test_nested_run_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: sim.run())
        with pytest.raises(SimulationError):
            sim.run()

    def test_events_scheduled_during_run_execute(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: sim.schedule(1.0, fired.append, "chained"))
        sim.run()
        assert fired == ["chained"]
        assert sim.now == 2.0


@pytest.fixture
def stock_collector():
    """Start from CPython's stock thresholds; put the caller's back after."""
    saved, enabled = gc.get_threshold(), gc.isenabled()
    gc.set_threshold(700, *saved[1:])
    yield gc.get_threshold()
    gc.set_threshold(*saved)
    if enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.usefixtures("stock_collector")
class TestCollectorPolicy:
    """Simulator.run raises generation 0's threshold only while it runs."""

    def test_restored_after_a_normal_return(self, stock_collector):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert gc.get_threshold() == stock_collector

    def test_restored_after_stop(self, stock_collector):
        sim = Simulator()
        sim.schedule(1.0, sim.stop)
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert sim.pending_events() == 1
        assert gc.get_threshold() == stock_collector

    def test_restored_after_a_budget_trip(self, stock_collector):
        sim = Simulator()
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        with pytest.raises(SimBudgetExceeded):
            sim.run(budget=SimBudgetConfig(max_events=2))
        assert gc.get_threshold() == stock_collector

    def test_restored_after_a_callback_raises(self, stock_collector):
        sim = Simulator()

        def boom():
            raise RuntimeError("boom")

        sim.schedule(1.0, boom)
        with pytest.raises(RuntimeError, match="boom"):
            sim.run()
        assert gc.get_threshold() == stock_collector

    def test_a_callback_sees_the_raised_threshold(self, stock_collector):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: seen.append(gc.get_threshold()))
        sim.run()
        assert seen == [(GC_GEN0_THRESHOLD, *stock_collector[1:])]

    def test_a_rejected_nested_run_leaves_the_thresholds_alone(
        self, stock_collector
    ):
        sim = Simulator()
        seen = []

        def nested():
            with pytest.raises(SimulationError, match="not re-entrant"):
                sim.run()
            seen.append(gc.get_threshold())

        sim.schedule(1.0, nested)
        sim.run()
        assert seen == [(GC_GEN0_THRESHOLD, *stock_collector[1:])]
        assert gc.get_threshold() == stock_collector

    def test_a_disabled_collector_stays_disabled(self, stock_collector):
        gc.disable()
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: seen.append(gc.isenabled()))
        sim.run()
        assert seen == [False]
        assert not gc.isenabled()
        assert gc.get_threshold() == stock_collector

    def test_a_zero_threshold_stays_zero(self, stock_collector):
        gc.set_threshold(0, *stock_collector[1:])
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: seen.append(gc.get_threshold()[0]))
        sim.run()
        assert seen == [0]
        assert gc.get_threshold()[0] == 0

    def test_a_larger_caller_threshold_is_kept(self, stock_collector):
        gc.set_threshold(50_000, *stock_collector[1:])
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: seen.append(gc.get_threshold()[0]))
        sim.run()
        assert seen == [50_000]
        assert gc.get_threshold()[0] == 50_000

    def test_import_and_construction_leave_the_collector_alone(self):
        script = (
            "import gc\n"
            "gc.set_threshold(700, 10, 10)\n"
            "import repro\n"
            "from repro.core import PiCloud, PiCloudConfig\n"
            "PiCloud(PiCloudConfig.small(racks=1, pis=2))\n"
            "assert gc.get_threshold() == (700, 10, 10), gc.get_threshold()\n"
        )
        subprocess.run([sys.executable, "-c", script], check=True, timeout=60,
                       env=dict(os.environ, PYTHONPATH=SRC))

    def test_outputs_do_not_depend_on_collector_timing(
        self, monkeypatch, tmp_path
    ):
        runs = []
        for threshold in (GC_GEN0_THRESHOLD, 700):
            monkeypatch.setattr(kernel, "GC_GEN0_THRESHOLD", threshold)
            cloud = PiCloud(PiCloudConfig.small(
                racks=2, pis=3, seed=5, routing="shortest",
                health=HealthConfig(enabled=True),
                trace=TraceConfig(enabled=True),
            ))
            cloud.boot()
            for name in ("web-1", "web-2"):
                cloud.spawn_and_wait("webserver", name=name)
            cloud.network.transfer("pi-r0-n0", "pi-r1-n2", 40e6)
            cloud.fail_node("pi-r1-n1")
            cloud.run_for(60.0)
            path = tmp_path / f"trace-{threshold}.jsonl"
            cloud.write_trace(str(path))
            runs.append((hashlib.sha256(path.read_bytes()).hexdigest(),
                         cloud.metrics()))
        assert runs[0] == runs[1]

"""Unit tests for processes, signals and combinators (repro.sim.process)."""

import gc
from collections import Counter
from contextlib import contextmanager

import pytest

from repro.core import PiCloud, PiCloudConfig
from repro.errors import SimulationError
from repro.sim import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Process,
    Signal,
    Simulator,
    Timeout,
)
from repro.trace import Tracer


@pytest.fixture
def sim():
    return Simulator()


class TestSignal:
    def test_starts_pending(self, sim):
        sig = Signal(sim)
        assert not sig.triggered
        assert not sig.ok
        assert sig.exception is None

    def test_succeed_carries_value(self, sim):
        sig = Signal(sim).succeed(42)
        assert sig.triggered and sig.ok
        assert sig.value == 42

    def test_fail_carries_exception(self, sim):
        sig = Signal(sim).fail(ValueError("boom"))
        assert sig.triggered and not sig.ok
        with pytest.raises(ValueError):
            _ = sig.value

    def test_double_trigger_rejected(self, sim):
        sig = Signal(sim).succeed(1)
        with pytest.raises(SimulationError):
            sig.succeed(2)

    def test_value_before_trigger_rejected(self, sim):
        with pytest.raises(SimulationError):
            _ = Signal(sim).value

    def test_fail_requires_exception_instance(self, sim):
        with pytest.raises(SimulationError):
            Signal(sim).fail("not an exception")  # type: ignore[arg-type]

    def test_callbacks_fire_on_trigger(self, sim):
        sig = Signal(sim)
        seen = []
        sig.add_done_callback(lambda s: seen.append(s.value))
        sig.succeed("v")
        assert seen == ["v"]

    def test_callback_after_trigger_deferred_to_queue(self, sim):
        sig = Signal(sim).succeed("v")
        seen = []
        sig.add_done_callback(lambda s: seen.append(s.value))
        assert seen == []  # not synchronous
        sim.run()
        assert seen == ["v"]


class TestTimeout:
    def test_fires_after_delay(self, sim):
        timeout = Timeout(sim, 3.0, value="done")
        sim.run()
        assert timeout.value == "done"
        assert sim.now == 3.0

    def test_zero_delay(self, sim):
        timeout = Timeout(sim, 0.0)
        sim.run()
        assert timeout.triggered


class TestProcess:
    def test_simple_process_runs_to_completion(self, sim):
        trace = []

        def worker():
            trace.append(sim.now)
            yield Timeout(sim, 2.0)
            trace.append(sim.now)
            return "result"

        proc = sim.process(worker())
        sim.run()
        assert trace == [0.0, 2.0]
        assert proc.value == "result"

    def test_numeric_yield_is_timeout_shorthand(self, sim):
        def worker():
            yield 1.5
            yield 2
            return sim.now

        proc = sim.process(worker())
        sim.run()
        assert proc.value == 3.5

    def test_process_waits_on_signal_value(self, sim):
        sig = Signal(sim)

        def worker():
            value = yield sig
            return value * 2

        proc = sim.process(worker())
        sim.schedule(5.0, sig.succeed, 21)
        sim.run()
        assert proc.value == 42

    def test_signal_failure_raises_inside_process(self, sim):
        sig = Signal(sim)
        caught = []

        def worker():
            try:
                yield sig
            except ValueError as exc:
                caught.append(str(exc))

        sim.process(worker())
        sim.schedule(1.0, sig.fail, ValueError("boom"))
        sim.run()
        assert caught == ["boom"]

    def test_uncaught_process_exception_fails_completion(self, sim):
        def worker():
            yield Timeout(sim, 1.0)
            raise RuntimeError("died")

        proc = sim.process(worker())
        sim.run()
        assert proc.triggered and not proc.ok
        with pytest.raises(RuntimeError):
            _ = proc.value

    def test_process_waits_on_another_process(self, sim):
        def child():
            yield Timeout(sim, 3.0)
            return "child-result"

        def parent():
            result = yield sim.process(child())
            return f"got {result}"

        proc = sim.process(parent())
        sim.run()
        assert proc.value == "got child-result"

    def test_process_does_not_run_before_creator_finishes(self, sim):
        order = []

        def child():
            order.append("child")
            yield Timeout(sim, 0.0)

        def parent():
            sim.process(child())
            order.append("parent-after-spawn")
            yield Timeout(sim, 0.0)

        sim.process(parent())
        sim.run()
        assert order[0] == "parent-after-spawn"

    def test_invalid_yield_type_fails_process(self, sim):
        def worker():
            yield "nonsense"

        proc = sim.process(worker())
        sim.run()
        with pytest.raises(SimulationError):
            _ = proc.value


class TestInterrupt:
    def test_interrupt_raises_at_yield_point(self, sim):
        causes = []

        def worker():
            try:
                yield Timeout(sim, 100.0)
            except Interrupt as intr:
                causes.append((sim.now, intr.cause))

        proc = sim.process(worker())
        sim.schedule(5.0, proc.interrupt, "cancelled")
        sim.run()
        # The interrupt arrived at t=5, long before the 100s timeout.
        assert causes == [(5.0, "cancelled")]
        assert proc.triggered

    def test_interrupted_process_can_continue(self, sim):
        def worker():
            try:
                yield Timeout(sim, 100.0)
            except Interrupt:
                pass
            yield Timeout(sim, 1.0)
            return sim.now

        proc = sim.process(worker())
        sim.schedule(5.0, proc.interrupt)
        sim.run()
        assert proc.value == 6.0

    def test_interrupt_finished_process_is_noop(self, sim):
        def worker():
            yield Timeout(sim, 1.0)
            return "done"

        proc = sim.process(worker())
        sim.run()
        proc.interrupt()
        sim.run()
        assert proc.value == "done"

    def test_stale_wakeup_after_interrupt_ignored(self, sim):
        """The original timeout firing later must not resume the process twice."""
        trace = []

        def worker():
            try:
                yield Timeout(sim, 10.0)
                trace.append("timeout-completed")
            except Interrupt:
                trace.append("interrupted")
            yield Timeout(sim, 20.0)
            trace.append("second-wait-done")

        proc = sim.process(worker())
        sim.schedule(5.0, proc.interrupt)
        sim.run()
        assert trace == ["interrupted", "second-wait-done"]
        assert proc.triggered

    def test_escaping_interrupt_terminates_process(self, sim):
        def worker():
            yield Timeout(sim, 100.0)

        proc = sim.process(worker())
        sim.schedule(1.0, proc.interrupt, "killed")
        sim.run()
        assert proc.triggered and proc.ok

    def test_interrupt_before_first_run_cancels_the_body(self, sim):
        ran = []

        def worker():
            ran.append(sim.now)
            yield Timeout(sim, 1.0)

        proc = sim.process(worker())
        proc.interrupt("early")
        sim.run()
        assert ran == []
        assert proc.ok and proc.value is None

    def test_interrupt_while_deferred_wakeup_is_queued(self, sim):
        """Waiting on a triggered signal queues a wakeup; an interrupt wins."""
        sig = Signal(sim).succeed("v")
        trace = []

        def worker():
            for _ in range(2):
                try:
                    value = yield sig
                    trace.append(("value", sim.now, value))
                except Interrupt as intr:
                    trace.append(("interrupted", sim.now, intr.cause))

        proc = sim.process(worker())
        sim.run(max_events=1)  # the start: yields ``sig``, wakeup queued
        assert trace == [] and sim.pending_events() == 1
        proc.interrupt("stop")
        sim.run()
        assert trace == [("interrupted", 0.0, "stop"), ("value", 0.0, "v")]
        assert proc.ok

    def test_reyielding_pending_signal_after_interrupt_resumes_once(self, sim):
        sig = Signal(sim)
        order = []

        def first():
            try:
                yield sig
            except Interrupt:
                order.append(("interrupted", sim.now))
                yield sig
            order.append(("first", sim.now))

        def second():
            # Registers on ``sig`` after first's interrupted wait but
            # before its re-wait, so it must be woken before first.
            yield Timeout(sim, 0.5)
            yield sig
            order.append(("second", sim.now))

        proc = sim.process(first())
        sim.process(second())
        sim.schedule(1.0, proc.interrupt)
        sim.schedule(3.0, sig.succeed)
        sim.run()
        assert order == [("interrupted", 1.0), ("second", 3.0), ("first", 3.0)]
        assert proc.ok


class TestCombinators:
    def test_all_of_waits_for_every_signal(self, sim):
        sigs = [Signal(sim) for _ in range(3)]

        def worker():
            values = yield AllOf(sim, sigs)
            return values

        proc = sim.process(worker())
        sim.schedule(1.0, sigs[2].succeed, "c")
        sim.schedule(2.0, sigs[0].succeed, "a")
        sim.schedule(3.0, sigs[1].succeed, "b")
        sim.run()
        assert proc.value == ["a", "b", "c"]  # input order, not trigger order
        assert sim.now == 3.0

    def test_all_of_empty_succeeds_immediately(self, sim):
        combo = AllOf(sim, [])
        assert combo.triggered and combo.value == []

    def test_all_of_fails_fast(self, sim):
        sigs = [Signal(sim), Signal(sim)]

        def worker():
            yield AllOf(sim, sigs)

        proc = sim.process(worker())
        sim.schedule(1.0, sigs[0].fail, ValueError("x"))
        sim.run()
        assert not proc.ok
        assert sim.now == 1.0  # did not wait for sigs[1]

    def test_any_of_returns_winner_index_and_value(self, sim):
        sigs = [Signal(sim), Signal(sim), Signal(sim)]

        def worker():
            index, value = yield AnyOf(sim, sigs)
            return index, value

        proc = sim.process(worker())
        sim.schedule(2.0, sigs[1].succeed, "winner")
        sim.schedule(5.0, sigs[0].succeed, "late")
        sim.run()
        assert proc.value == (1, "winner")

    def test_any_of_requires_children(self, sim):
        with pytest.raises(SimulationError):
            AnyOf(sim, [])

    def test_any_of_as_timeout_guard(self, sim):
        slow = Signal(sim)

        def worker():
            index, _ = yield AnyOf(sim, [slow, Timeout(sim, 3.0)])
            return "timed-out" if index == 1 else "completed"

        proc = sim.process(worker())
        sim.schedule(10.0, slow.succeed)
        sim.run()
        assert proc.value == "timed-out"

    @pytest.mark.parametrize("late", ["succeed", "fail"])
    def test_any_of_ignores_children_after_it_triggered(self, sim, late):
        sigs = [Signal(sim), Signal(sim)]
        combo = AnyOf(sim, sigs)
        resumed = []

        def worker():
            resumed.append((yield combo))

        sim.process(worker())
        sim.schedule(1.0, sigs[1].succeed, "winner")
        if late == "succeed":
            sim.schedule(2.0, sigs[0].succeed, "late")
        else:
            sim.schedule(2.0, sigs[0].fail, ValueError("late"))
        sim.run()
        assert combo.value == (1, "winner")
        assert resumed == [(1, "winner")]

    @pytest.mark.parametrize("late", ["succeed", "fail"])
    def test_all_of_ignores_children_after_it_failed(self, sim, late):
        sigs = [Signal(sim), Signal(sim)]
        combo = AllOf(sim, sigs)
        first = ValueError("first")
        sim.schedule(1.0, sigs[0].fail, first)
        if late == "succeed":
            sim.schedule(2.0, sigs[1].succeed, "late")
        else:
            sim.schedule(2.0, sigs[1].fail, ValueError("late"))
        sim.run()
        assert combo.exception is first


class TestResumeLabels:
    def test_deferred_resume_is_labelled_with_the_process_name(self, sim):
        """Waiting on a triggered signal queues ``Process._resume[name]``."""
        tracer = Tracer(sim, kernel_events=True)
        ready = Signal(sim).succeed("v")

        def worker():
            yield ready

        sim.process(worker(), name="poller")
        sim.run()
        expected = [(0.0, "Process._start[poller]"),
                    (0.0, "Process._resume[poller]")]
        assert sim.snapshot().recent_events == expected
        assert list(tracer.kernel_event_log) == expected


KERNEL_TYPES = (Timeout, Event, AnyOf, AllOf, Process)


@contextmanager
def cyclic_kernel_garbage():
    """Count, on exit, the kernel objects only the cycle collector frees."""
    leaked = Counter()
    was_enabled, debug = gc.isenabled(), gc.get_debug()
    gc.collect()
    start = len(gc.garbage)
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        yield leaked
        gc.collect()
        leaked.update(type(obj).__name__ for obj in gc.garbage[start:]
                      if isinstance(obj, KERNEL_TYPES))
    finally:
        gc.set_debug(debug)
        del gc.garbage[start:]
        if was_enabled:
            gc.enable()


class TestRefcountReclamation:
    """Kernel objects are freed by reference counting, not the collector."""

    def test_lost_races_leave_no_cycles(self, sim):
        with cyclic_kernel_garbage() as leaked:
            for _ in range(3):
                # The timeout wins; the pending loser keeps the callback.
                AnyOf(sim, [Timeout(sim, 1.0), Signal(sim)])
                # One child fails fast; its pending sibling keeps the callback.
                failing = Signal(sim)
                AllOf(sim, [failing, Signal(sim)])
                sim.schedule(0.5, failing.fail, ValueError("x"))
            # A cancelled timeout's queue entry is popped unexecuted.
            timeout = Timeout(sim, 5.0)
            timeout.cancel()
            del timeout
            sim.run()
        assert leaked == Counter()

    def test_failed_processes_leave_no_cycles(self, sim):
        def body():
            yield Timeout(sim, 1.0)
            raise ValueError("unwatched failure")

        with cyclic_kernel_garbage() as leaked:
            for _ in range(3):
                sim.process(body())  # nobody waits on it
            # No-op events after the failures push their callbacks out of
            # the kernel's recent-event trace, so only a cycle keeps them.
            for _ in range(200):
                sim.schedule(2.0, lambda: None)
            sim.run()
        assert leaked == Counter()

    def test_cloud_leaves_no_cyclic_kernel_garbage(self):
        # A short REST deadline lets the guards' queue entries pop within
        # the run, so a lost race's objects become unreachable.
        cloud = PiCloud(PiCloudConfig.small(op_deadline_s=120.0))
        with cyclic_kernel_garbage() as leaked:
            cloud.boot()  # AllOf over the node boots
            # REST calls race their replies against AnyOf timeout guards.
            cloud.spawn_and_wait("webserver", name="web-1")
            cloud.run_until_signal(
                cloud.pimaster.set_limits("web-1", cpu_quota=0.5))
            cloud.run_until_signal(cloud.pimaster.destroy_container("web-1"))
            cloud.run_for(150.0)  # monitoring polls; every guard pops
        assert cloud.pimaster.monitoring.polls > 0
        assert leaked == Counter()

"""Run-budget / watchdog subsystem: kernel budgets, snapshots, deadlines.

Covers the guarantees the CI pipeline depends on: an exhausted budget
raises a typed error with a useful diagnostic snapshot, deadline-expired
management operations fail typed and retry with backoff, and the
formerly-hanging fabric pathology (a sub-clock-resolution residue
rescheduling itself forever) now terminates.
"""

import pytest

from repro.core import PiCloud, PiCloudConfig
from repro.core.config import SimBudgetConfig
from repro.core.experiments import run_phase
from repro.errors import DeadlineExceeded, PiCloudError, SimBudgetExceeded
from repro.mgmt.pimaster import OP_ATTEMPTS, OP_BACKOFF_S
from repro.sim.budget import BudgetSnapshot
from repro.sim.kernel import Simulator
from repro.sim.process import Signal, Timeout


def ticker(sim, period=1.0):
    """A process that reschedules itself forever."""

    def run():
        while True:
            yield Timeout(sim, period)

    return sim.process(run(), name="ticker")


class TestRunBudgetValidation:
    def test_rejects_bad_limits(self):
        with pytest.raises(ValueError):
            SimBudgetConfig(max_events=0)
        with pytest.raises(ValueError):
            SimBudgetConfig(max_sim_time_s=-1.0)
        with pytest.raises(ValueError):
            SimBudgetConfig(max_wall_s=0.0)

    def test_unbounded(self):
        assert SimBudgetConfig().unbounded
        assert SimBudgetConfig().run_budget() is None
        assert not SimBudgetConfig(max_events=10).unbounded

    def test_config_validates_budget_knobs(self):
        with pytest.raises(PiCloudError):
            PiCloudConfig.small(budget=SimBudgetConfig(max_events=0))
        with pytest.raises(PiCloudError):
            PiCloudConfig.small(op_deadline_s=0.0)
        with pytest.raises(ValueError):
            PiCloudConfig.small(op_deadline_s=0.0)
        assert PiCloudConfig.small().run_budget() is None
        budget = PiCloudConfig.small(
            budget=SimBudgetConfig(max_events=100, max_wall_s=5.0)
        ).run_budget()
        assert budget.max_events == 100
        assert budget.max_wall_s == 5.0


class TestEventBudget:
    def test_exhaustion_raises_with_snapshot(self):
        sim = Simulator(budget=SimBudgetConfig(max_events=25))
        ticker(sim)
        with pytest.raises(SimBudgetExceeded) as excinfo:
            sim.run()
        snapshot = excinfo.value.snapshot
        assert isinstance(snapshot, BudgetSnapshot)
        assert snapshot.reason == "events"
        assert snapshot.events_executed == 25
        assert snapshot.pending_count >= 1
        assert snapshot.pending_head, "snapshot must name the next events"
        assert snapshot.recent_events, "snapshot must carry the trace tail"
        assert "ticker" in snapshot.runnable_processes
        assert sim.budget_trips == 1

    def test_snapshot_names_the_repeat_offender(self):
        sim = Simulator(budget=SimBudgetConfig(max_events=40))
        ticker(sim)
        with pytest.raises(SimBudgetExceeded) as excinfo:
            sim.run()
        culprit = excinfo.value.snapshot.repeated_callback()
        assert culprit is not None and "Timeout._fire" in culprit

    def test_describe_is_readable(self):
        sim = Simulator(budget=SimBudgetConfig(max_events=10))
        ticker(sim)
        with pytest.raises(SimBudgetExceeded) as excinfo:
            sim.run()
        text = excinfo.value.snapshot.describe()
        assert "budget exceeded (events)" in text
        assert "pending events:" in text
        assert "ticker" in text

    def test_legacy_max_events_still_returns_quietly(self):
        sim = Simulator()
        ticker(sim)
        sim.run(max_events=50)
        assert sim.events_executed == 50

    def test_per_run_budget_override(self):
        sim = Simulator()
        ticker(sim)
        with pytest.raises(SimBudgetExceeded):
            sim.run(budget=SimBudgetConfig(max_events=5))
        # The override does not stick.
        sim.run(max_events=5)


class TestSimTimeBudget:
    def test_next_event_beyond_cap_trips(self):
        sim = Simulator(budget=SimBudgetConfig(max_sim_time_s=10.0))
        ticker(sim, period=3.0)
        with pytest.raises(SimBudgetExceeded) as excinfo:
            sim.run()
        assert excinfo.value.snapshot.reason == "sim_time"
        # The clock parks at the cap, not at the over-budget event.
        assert sim.now == 10.0

    def test_run_until_below_cap_is_unaffected(self):
        sim = Simulator(budget=SimBudgetConfig(max_sim_time_s=100.0))
        ticker(sim, period=1.0)
        sim.run(until=50.0)
        assert sim.now == 50.0


class TestWallClockWatchdog:
    def test_zero_progress_loop_is_killed(self):
        sim = Simulator(budget=SimBudgetConfig(max_wall_s=0.2))

        def respin():
            sim.schedule(0.0, respin)

        sim.schedule(0.0, respin)
        with pytest.raises(SimBudgetExceeded) as excinfo:
            sim.run()
        assert excinfo.value.snapshot.reason == "wall_clock"
        assert sim.watchdog_trips == 1
        assert excinfo.value.snapshot.wall_elapsed_s >= 0.2

    @pytest.mark.timeout(20)
    def test_run_until_signal_honours_installed_wall_budget(self):
        cloud = PiCloud(PiCloudConfig.small(
            budget=SimBudgetConfig(max_wall_s=0.5), start_monitoring=False,
        ))
        cloud.boot()

        def respin():
            cloud.sim.schedule(0.0, respin)

        cloud.sim.schedule(0.0, respin)
        with pytest.raises(SimBudgetExceeded) as excinfo:
            cloud.run_until_signal(Signal(cloud.sim, name="never"))
        assert excinfo.value.snapshot.reason == "wall_clock"
        assert cloud.sim.watchdog_trips == 1


class TestBudgetTelemetry:
    """Budget accounting is the kernel's own counters, read through
    ``cloud.metrics()``."""

    def test_counters_track_trips_and_events(self):
        sim = Simulator(budget=SimBudgetConfig(max_events=20))
        ticker(sim)
        with pytest.raises(SimBudgetExceeded) as excinfo:
            sim.run()
        assert sim.budget_trips == 1
        assert sim.watchdog_trips == 0
        assert sim.events_executed == 20
        assert excinfo.value.snapshot.events_executed == 20

    def test_cloud_wires_budget_telemetry(self):
        cloud = PiCloud(PiCloudConfig.small(
            racks=1, pis=2, start_monitoring=False, routing="shortest",
            budget=SimBudgetConfig(max_events=100_000),
        ))
        cloud.boot()
        cloud.run_for(10.0)
        metrics = cloud.metrics()
        assert metrics["sim.events_executed"] == cloud.sim.events_executed
        assert metrics["sim.events_executed"] > 0
        assert metrics["sim.budget_trips"] == 0
        assert metrics["sim.watchdog_trips"] == 0

    def test_cloud_metrics_count_a_trip(self):
        cloud = PiCloud(PiCloudConfig.small(
            racks=1, pis=2, start_monitoring=False, routing="shortest",
            budget=SimBudgetConfig(max_events=20),
        ))
        cloud.boot()
        ticker(cloud.sim)
        with pytest.raises(SimBudgetExceeded):
            cloud.run_for(1_000.0)
        metrics = cloud.metrics()
        assert metrics["sim.budget_trips"] == 1
        assert metrics["sim.watchdog_trips"] == 0
        assert metrics["sim.events_executed"] == 20


@pytest.fixture
def small_cloud():
    cloud = PiCloud(PiCloudConfig.small(
        racks=1, pis=2, start_monitoring=False, routing="shortest",
        op_deadline_s=30.0,
    ))
    cloud.boot()
    return cloud


class TestOperationDeadlines:
    def test_daemon_guard_times_out_typed(self, small_cloud):
        daemon = small_cloud.daemons["pi-r0-n0"]
        assert daemon.op_deadline_s == 30.0
        stuck = Signal(small_cloud.sim, name="never")
        caught = []

        def run():
            try:
                yield from daemon._guarded(stuck, "container start")
            except DeadlineExceeded as exc:
                caught.append(exc)

        small_cloud.sim.process(run(), name="guard-test")
        small_cloud.run_for(60.0)
        assert len(caught) == 1
        assert caught[0].deadline_s == 30.0
        assert "container start" in str(caught[0])
        assert daemon.deadline_trips == 1

    def test_spawn_retries_with_backoff_then_fails_typed(self, small_cloud):
        # Warm the image cache on the node, then kill its daemon: the
        # /containers POST gets connection-refused (a transport failure),
        # which the pimaster retries with exponential backoff before
        # giving up with a typed DeadlineExceeded.
        first = small_cloud.spawn("base", name="warm", node_id="pi-r0-n0")
        small_cloud.run_until_signal(first)
        assert first.ok
        small_cloud.daemons["pi-r0-n0"].server.stop()
        master = small_cloud.pimaster

        started = small_cloud.sim.now
        spawn = small_cloud.spawn("base", name="doomed", node_id="pi-r0-n0")
        small_cloud.run_for(600.0)
        assert spawn.triggered and not spawn.ok
        exc = spawn.exception
        assert isinstance(exc, PiCloudError)
        assert "DeadlineExceeded" in type(exc.__cause__ or exc).__name__ \
            or f"failed after {OP_ATTEMPTS} attempts" in str(exc)
        assert master.op_retries == OP_ATTEMPTS - 1
        assert master.op_deadline_failures == 1
        # Two backoff sleeps: OP_BACKOFF_S, then twice that.
        assert small_cloud.sim.now - started >= 3 * OP_BACKOFF_S

    def test_app_level_errors_are_not_retried(self, small_cloud):
        master = small_cloud.pimaster
        before = master.op_retries
        spawn = small_cloud.spawn("base", name="dup", node_id="pi-r0-n1")
        small_cloud.run_until_signal(spawn)
        assert spawn.ok
        clash = small_cloud.spawn("base", name="dup", node_id="pi-r0-n1")
        small_cloud.run_until_signal(clash)
        assert clash.triggered and not clash.ok
        assert master.op_retries == before


class TestRunPhase:
    def test_signal_deadline_raises_typed(self, small_cloud):
        never = Signal(small_cloud.sim, name="never")
        with pytest.raises(DeadlineExceeded) as excinfo:
            run_phase(small_cloud, "stuck-phase", signal=never,
                      sim_seconds=5.0, wall_s=30.0)
        assert "stuck-phase" in str(excinfo.value)

    def test_completes_and_reports_sim_time(self, small_cloud):
        timer = Timeout(small_cloud.sim, 3.0)
        consumed = run_phase(small_cloud, "ok-phase", signal=timer,
                             sim_seconds=100.0)
        assert consumed == pytest.approx(3.0)

    def test_drained_queue_with_pending_signal_raises(self):
        cloud = PiCloud(PiCloudConfig.small(
            racks=1, pis=1, start_monitoring=False, routing="shortest"
        ))
        cloud.boot()
        cloud.run_for(10.0)  # drain boot-time events
        never = Signal(cloud.sim, name="never")
        with pytest.raises(DeadlineExceeded) as excinfo:
            run_phase(cloud, "drained", signal=never, sim_seconds=5.0)
        assert "drained" in str(excinfo.value)

    @pytest.mark.timeout(20)
    def test_wall_watchdog_names_the_phase(self, small_cloud):
        sim = small_cloud.sim

        def respin():
            sim.schedule(0.0, respin)

        sim.schedule(0.0, respin)
        never = Signal(sim, name="never")
        with pytest.raises(DeadlineExceeded) as excinfo:
            run_phase(small_cloud, "spin-phase", signal=never, wall_s=0.2)
        assert "spin-phase" in str(excinfo.value)
        assert excinfo.value.deadline_s == 0.2
        assert sim.watchdog_trips == 1
        assert sim.budget_trips == 1

    def test_tighter_installed_wall_budget_wins(self):
        cloud = PiCloud(PiCloudConfig.small(
            racks=1, pis=2, start_monitoring=False, routing="shortest",
            budget=SimBudgetConfig(max_wall_s=0.2),
        ))
        cloud.boot()

        def respin():
            cloud.sim.schedule(0.0, respin)

        cloud.sim.schedule(0.0, respin)
        never = Signal(cloud.sim, name="never")
        with pytest.raises(SimBudgetExceeded) as excinfo:
            run_phase(cloud, "spin-phase", signal=never, wall_s=30.0)
        assert excinfo.value.snapshot.reason == "wall_clock"


class TestFabricResidueRegression:
    """The root cause of the seed suite's hangs (consolidation,
    node-daemon lifecycle, pimaster orchestration): a completed flow left
    a residue of ~1e-6 bytes, above the absolute epsilon but draining in
    less than one representable clock tick, so its completion event
    re-armed at the same timestamp forever."""

    def test_sub_resolution_residue_completes(self):
        from repro.netsim.fabric import FlowState, Network
        from repro.netsim.topology import Topology

        sim = Simulator(budget=SimBudgetConfig(max_events=50_000))
        topo = Topology()
        topo.add_host("a")
        topo.add_host("b")
        topo.connect("a", "b", 12_500_000.0, 1e-4)
        net = Network(sim, topo)
        flow = net.transfer("a", "b", 441.0)
        # Advance far enough that one ulp of the clock exceeds the
        # residue's drain time, then plant the pathological state the
        # seed's hang exhibited.
        sim.run(until=3660.0)
        assert flow.state is FlowState.ACTIVE or flow.triggered
        if not flow.triggered:
            flow.remaining = 2.59e-6
            flow.rate = 12_500_000.0
            eta = flow.remaining / flow.rate
            assert sim.now + eta == sim.now, "residue must be sub-resolution"
            net._complete(flow)
            assert flow.state is FlowState.DONE
        assert flow.triggered and flow.ok

    def test_tiny_transfer_terminates_under_budget(self):
        cloud = PiCloud(PiCloudConfig.small(
            racks=2, pis=2, start_monitoring=False, routing="shortest",
            budget=SimBudgetConfig(max_events=500_000, max_wall_s=30.0),
        ))
        cloud.boot()
        cloud.run_for(3600.0)
        flow = cloud.network.transfer("pi-r0-n0", "pi-r1-n1", 441.0)
        cloud.run_for(3600.0)
        assert flow.triggered and flow.ok

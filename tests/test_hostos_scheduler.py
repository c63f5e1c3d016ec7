"""Unit tests for cgroups and the fair-share CPU scheduler."""

import pytest

from repro.core import PiCloud, PiCloudConfig
from repro.errors import OutOfMemoryError, SchedulingError
from repro.hardware import RASPBERRY_PI_MODEL_B, Cpu, CpuSpec, Memory, MemorySpec
from repro.hostos import CGroup, FairShareScheduler
from repro.sim import Simulator
from repro.sim.budget import SimBudgetConfig
from repro.units import mib


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def cpu(sim):
    # 100 cycles/s keeps the arithmetic readable.
    return Cpu(sim, CpuSpec(clock_hz=100.0))


@pytest.fixture
def sched(sim, cpu):
    return FairShareScheduler(sim, cpu, owner="pi-test")


@pytest.fixture
def memory(sim):
    return Memory(sim, MemorySpec(mib(256)), owner="pi-test")


class TestCGroupMemory:
    def test_charge_and_uncharge(self, memory):
        group = CGroup("c1", memory, memory_limit_bytes=mib(64))
        group.charge_memory(mib(30))
        assert group.memory_used == mib(30)
        assert memory.used == mib(30)
        group.uncharge_memory(mib(30))
        assert group.memory_used == 0
        assert memory.used == 0

    def test_limit_enforced(self, memory):
        group = CGroup("c1", memory, memory_limit_bytes=mib(40))
        group.charge_memory(mib(30))
        with pytest.raises(OutOfMemoryError, match="limit"):
            group.charge_memory(mib(20))

    def test_physical_ram_enforced(self, memory):
        group = CGroup("big", memory)  # unlimited cgroup
        with pytest.raises(OutOfMemoryError):
            group.charge_memory(mib(300))

    def test_incremental_charges_accumulate(self, memory):
        group = CGroup("c1", memory)
        group.charge_memory(mib(10))
        group.charge_memory(mib(10))
        assert group.memory_used == mib(20)
        assert memory.allocations()["cgroup:c1"] == mib(20)

    def test_uncharge_validation(self, memory):
        group = CGroup("c1", memory)
        group.charge_memory(100)
        with pytest.raises(ValueError):
            group.uncharge_memory(200)

    def test_memory_available_with_and_without_limit(self, memory):
        limited = CGroup("a", memory, memory_limit_bytes=1000)
        unlimited = CGroup("b", memory)
        limited.charge_memory(300)
        assert limited.memory_available == 700
        assert unlimited.memory_available is None

    def test_set_memory_limit_below_usage_rejected(self, memory):
        group = CGroup("c1", memory, memory_limit_bytes=1000)
        group.charge_memory(500)
        with pytest.raises(OutOfMemoryError):
            group.set_memory_limit(400)
        group.set_memory_limit(600)
        assert group.memory_limit_bytes == 600

    def test_knob_validation(self, memory):
        with pytest.raises(ValueError):
            CGroup("x", memory, cpu_shares=0)
        with pytest.raises(ValueError):
            CGroup("x", memory, cpu_quota=1.5)
        with pytest.raises(ValueError):
            CGroup("x", memory, memory_limit_bytes=0)
        group = CGroup("x", memory)
        with pytest.raises(ValueError):
            group.set_cpu_shares(-1)
        with pytest.raises(ValueError):
            group.set_cpu_quota(0.0)


class TestSchedulerSingleTask:
    def test_lone_task_runs_at_full_speed(self, sim, sched):
        task = sched.submit(200.0)
        sim.run()
        assert task.triggered
        assert task.completed_at == pytest.approx(2.0)

    def test_zero_cycle_task_completes_immediately(self, sim, sched):
        task = sched.submit(0.0)
        assert task.triggered
        assert task.duration == 0.0

    def test_negative_cycles_rejected(self, sched):
        with pytest.raises(SchedulingError):
            sched.submit(-1.0)

    def test_utilization_reflects_demand(self, sim, sched, cpu):
        sched.submit(1000.0)
        sim.run(until=1.0)
        assert cpu.utilization.value == pytest.approx(1.0)
        sim.run()
        assert cpu.utilization.value == 0.0

    def test_cycles_accounted(self, sim, sched, cpu):
        sched.submit(150.0)
        sim.run()
        assert cpu.cycles_executed == pytest.approx(150.0)


class TestSchedulerSharing:
    def test_equal_share_without_cgroups(self, sim, sched):
        a = sched.submit(100.0)
        b = sched.submit(100.0)
        sim.run()
        # Each runs at 50 cy/s: both finish at t=2.
        assert a.completed_at == pytest.approx(2.0)
        assert b.completed_at == pytest.approx(2.0)

    def test_completion_frees_capacity(self, sim, sched):
        short = sched.submit(50.0)
        long = sched.submit(150.0)
        sim.run()
        # 50/50 until t=1 (short done); long has 100 left at 100 cy/s.
        assert short.completed_at == pytest.approx(1.0)
        assert long.completed_at == pytest.approx(2.0)

    def test_late_arrival_shares(self, sim, sched):
        first = sched.submit(100.0)
        second = []
        sim.schedule(0.5, lambda: second.append(sched.submit(50.0)))
        sim.run()
        # First alone 0.5s (50cy done). Then 50/50: both have 50cy at 50cy/s
        # => both finish at t=1.5.
        assert first.completed_at == pytest.approx(1.5)
        assert second[0].completed_at == pytest.approx(1.5)

    def test_shares_weight_allocation(self, sim, sched, memory):
        gold = CGroup("gold", memory, cpu_shares=3072)
        bronze = CGroup("bronze", memory, cpu_shares=1024)
        g = sched.submit(75.0, cgroup=gold)
        b = sched.submit(75.0, cgroup=bronze)
        sim.run()
        # gold gets 75 cy/s, bronze 25 cy/s.
        assert g.completed_at == pytest.approx(1.0)
        assert b.completed_at == pytest.approx(1.0 + 50.0 / 100.0)

    def test_quota_caps_group(self, sim, sched, memory):
        capped = CGroup("capped", memory, cpu_quota=0.2)
        task = sched.submit(100.0, cgroup=capped)
        sim.run()
        # Alone but capped at 20 cy/s.
        assert task.completed_at == pytest.approx(5.0)

    def test_quota_surplus_goes_to_others(self, sim, sched, memory):
        capped = CGroup("capped", memory, cpu_quota=0.25)
        free = CGroup("free", memory)
        c = sched.submit(100.0, cgroup=capped)
        f = sched.submit(300.0, cgroup=free)
        sim.run()
        # capped pinned at 25 cy/s; free gets 75 cy/s.
        assert c.completed_at == pytest.approx(4.0)
        assert f.completed_at == pytest.approx(4.0)

    def test_tasks_within_group_split_evenly(self, sim, sched, memory):
        group = CGroup("g", memory)
        a = sched.submit(100.0, cgroup=group)
        b = sched.submit(100.0, cgroup=group)
        lone = sched.submit(100.0)
        sim.run()
        # Two groups (g and root) split 50/50; a and b get 25 cy/s each
        # until lone finishes at t=2 (having starved g of half the CPU),
        # after which a and b share the full 100 cy/s: 50 cycles left each
        # at 50 cy/s => done at t=3.
        assert lone.completed_at == pytest.approx(2.0)
        assert a.completed_at == pytest.approx(3.0)
        assert b.completed_at == pytest.approx(3.0)

    def test_knob_change_rebalances(self, sim, sched, memory):
        group = CGroup("g", memory, cpu_shares=1024)
        slow = sched.submit(100.0, cgroup=group)
        sched.submit(1000.0)  # root competitor

        def boost():
            group.set_cpu_shares(3072)
            sched.notify_change()

        sim.schedule(1.0, boost)
        sim.run()
        # t<1: 50 cy/s (50 done).  t>=1: 75 cy/s => 50/75 = 2/3 s more.
        assert slow.completed_at == pytest.approx(1.0 + 2.0 / 3.0)


class TestCancellation:
    def test_cancel_fails_done_signal(self, sim, sched):
        task = sched.submit(1000.0)
        sim.schedule(1.0, task.cancel)
        sim.run()
        assert task.triggered and not task.ok
        assert sched.tasks_cancelled == 1

    def test_cancel_releases_capacity(self, sim, sched):
        doomed = sched.submit(1000.0)
        survivor = sched.submit(100.0)
        sim.schedule(1.0, doomed.cancel)
        sim.run()
        # Survivor: 50cy at t=1, then full speed: done at t=1.5.
        assert survivor.completed_at == pytest.approx(1.5)

    def test_cancel_finished_task_is_noop(self, sim, sched):
        task = sched.submit(10.0)
        sim.run()
        task.cancel()
        assert task.ok


class TestSchedulerReporting:
    def test_counters(self, sim, sched):
        sched.submit(10.0)
        doomed = sched.submit(1000.0)
        sim.schedule(5.0, doomed.cancel)
        sim.run()
        assert sched.tasks_completed == 1
        assert sched.tasks_cancelled == 1
        assert sched.runnable_count == 0


class TestSubTickResidue:
    """A residue that drains in under half a clock tick completes now.

    At large ``sim.now`` the gap to the next representable timestamp can
    exceed a task's leftover ``remaining / rate``: re-arming completion
    would fire at the same instant, settle nothing and re-arm forever.
    The event budget turns such a spin into a failure.
    """

    def test_lone_task_late_in_the_run(self, sim):
        sched = FairShareScheduler(sim, Cpu(sim, RASPBERRY_PI_MODEL_B.cpu))
        sim.run(until=300037.4290640018)
        task = sched.submit(17678.903447552755)
        sim.run(budget=SimBudgetConfig(max_events=1000))
        assert task.ok
        assert sched.runnable_count == 0

    def test_spawn_after_a_long_idle_cloud(self):
        cloud = PiCloud(PiCloudConfig.small(
            racks=1, pis=2, routing="shortest", start_monitoring=False,
        ))
        cloud.boot()
        cloud.sim.run(until=1e6)
        # The REST server charges every request 2 Mcycles of CPU.
        spawn = cloud.spawn("webserver", name="web")
        cloud.sim.run(
            until=cloud.sim.now + 3600,
            budget=SimBudgetConfig(max_events=cloud.sim.events_executed + 10_000),
        )
        assert spawn.ok

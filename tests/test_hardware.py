"""Unit tests for the hardware layer: specs, catalog, components, machine."""

import pytest

from repro.errors import OutOfMemoryError, PowerStateError, StorageFullError
from repro.hardware import (
    COMMODITY_X86_SERVER,
    Cpu,
    CpuSpec,
    Machine,
    MachinePowerModel,
    MachineSpec,
    Memory,
    MemorySpec,
    NicSpec,
    PowerSpec,
    PowerState,
    RASPBERRY_PI_MODEL_B,
    RASPBERRY_PI_MODEL_B_512,
    StorageDevice,
    StorageSpec,
)
from repro.hardware.catalog import SPEC_CATALOG
from repro.sim import Simulator
from repro.units import mib


@pytest.fixture
def sim():
    return Simulator()


class TestSpecs:
    def test_cpu_capacity_scales_with_cores(self):
        spec = CpuSpec(clock_hz=1e9, cores=4)
        assert spec.capacity_cycles_per_s == 4e9

    def test_cpu_spec_validation(self):
        with pytest.raises(ValueError):
            CpuSpec(clock_hz=0)
        with pytest.raises(ValueError):
            CpuSpec(clock_hz=1e9, cores=0)

    def test_memory_spec_validation(self):
        with pytest.raises(ValueError):
            MemorySpec(0)

    def test_storage_spec_validation(self):
        with pytest.raises(ValueError):
            StorageSpec(capacity_bytes=1, read_bytes_per_s=0, write_bytes_per_s=1)

    def test_power_watts_interpolates_linearly(self):
        spec = PowerSpec(idle_watts=2.0, peak_watts=4.0, needs_cooling=False)
        assert spec.watts_at(0.0) == 2.0
        assert spec.watts_at(0.5) == 3.0
        assert spec.watts_at(1.0) == 4.0

    def test_power_watts_clamps_utilization(self):
        spec = PowerSpec(idle_watts=1.0, peak_watts=2.0, needs_cooling=False)
        assert spec.watts_at(-1.0) == 1.0
        assert spec.watts_at(5.0) == 2.0

    def test_power_spec_validation(self):
        with pytest.raises(ValueError):
            PowerSpec(idle_watts=5.0, peak_watts=1.0, needs_cooling=False)

    def test_machine_spec_os_reserve_must_fit(self):
        with pytest.raises(ValueError):
            MachineSpec(
                name="bad",
                cpu=CpuSpec(1e9),
                memory=MemorySpec(100),
                storage=StorageSpec(1000, 1.0, 1.0),
                nic=NicSpec(1e6),
                power=PowerSpec(1.0, 2.0, False),
                unit_cost_usd=1.0,
                os_reserved_bytes=200,
            )


class TestCatalog:
    def test_paper_table1_unit_figures(self):
        """Table I: Pi @$35 and 3.5 W; x86 @$2,000 and 180 W."""
        assert RASPBERRY_PI_MODEL_B.unit_cost_usd == 35.0
        assert RASPBERRY_PI_MODEL_B.power.peak_watts == 3.5
        assert COMMODITY_X86_SERVER.unit_cost_usd == 2000.0
        assert COMMODITY_X86_SERVER.power.peak_watts == 180.0

    def test_cooling_requirements_match_paper(self):
        assert not RASPBERRY_PI_MODEL_B.power.needs_cooling
        assert COMMODITY_X86_SERVER.power.needs_cooling

    def test_model_b_ram_doubling_same_price(self):
        """Paper (section IV): RAM doubled while keeping the same price."""
        assert RASPBERRY_PI_MODEL_B.memory.capacity_bytes == mib(256)
        assert RASPBERRY_PI_MODEL_B_512.memory.capacity_bytes == mib(512)
        assert RASPBERRY_PI_MODEL_B_512.unit_cost_usd == RASPBERRY_PI_MODEL_B.unit_cost_usd

    def test_pi_has_700mhz_arm(self):
        assert RASPBERRY_PI_MODEL_B.cpu.clock_hz == 700e6
        assert RASPBERRY_PI_MODEL_B.cpu.architecture == "armv6"

    def test_catalog_keys_match_names(self):
        for name, spec in SPEC_CATALOG.items():
            assert name == spec.name


class TestCpu:
    def test_capacity(self, sim):
        cpu = Cpu(sim, CpuSpec(clock_hz=700e6))
        assert cpu.capacity == 700e6

    def test_utilization_clamped(self, sim):
        cpu = Cpu(sim, CpuSpec(clock_hz=1e9))
        cpu.set_utilization(2.0)
        assert cpu.utilization.value == 1.0
        cpu.set_utilization(-0.5)
        assert cpu.utilization.value == 0.0

    def test_account_cycles(self, sim):
        cpu = Cpu(sim, CpuSpec(clock_hz=1e9))
        cpu.account_cycles(500.0)
        cpu.account_cycles(500.0)
        assert cpu.cycles_executed == 1000.0
        with pytest.raises(ValueError):
            cpu.account_cycles(-1.0)

    def test_mean_utilization_time_weighted(self, sim):
        cpu = Cpu(sim, CpuSpec(clock_hz=1e9))
        sim.schedule(5.0, cpu.set_utilization, 1.0)
        sim.schedule(10.0, lambda: None)
        sim.run()
        assert cpu.mean_utilization() == pytest.approx(0.5)


class TestMemory:
    def test_allocate_and_free(self, sim):
        mem = Memory(sim, MemorySpec(mib(256)), owner="pi")
        mem.allocate("c1", mib(30))
        assert mem.used == mib(30)
        assert mem.free("c1") == mib(30)
        assert mem.used == 0

    def test_os_reserve_counts_as_used(self, sim):
        mem = Memory(sim, MemorySpec(mib(256)), reserved_bytes=mib(106))
        assert mem.used == mib(106)
        assert mem.available == mib(150)

    def test_oom_raises(self, sim):
        mem = Memory(sim, MemorySpec(mib(100)))
        with pytest.raises(OutOfMemoryError):
            mem.allocate("big", mib(101))

    def test_paper_three_container_budget(self, sim):
        """The 256MB Model B with its OS reserve fits 3x30MB containers."""
        spec = RASPBERRY_PI_MODEL_B
        mem = Memory(sim, spec.memory, reserved_bytes=spec.os_reserved_bytes)
        for i in range(3):
            mem.allocate(f"container-{i}", mib(30))
        # Exactly the 3-container budget remains tight: at most 2x30MB of
        # headroom, so a 4th container plus its runtime growth does not
        # fit "comfortably" (matching the paper's stated limit of 3).
        assert mem.available <= mib(60)

    def test_duplicate_label_rejected(self, sim):
        mem = Memory(sim, MemorySpec(mib(100)))
        mem.allocate("x", 10)
        with pytest.raises(OutOfMemoryError):
            mem.allocate("x", 10)

    def test_resize_grows_and_shrinks(self, sim):
        mem = Memory(sim, MemorySpec(mib(100)))
        mem.allocate("x", mib(10))
        mem.resize("x", mib(50))
        assert mem.used == mib(50)
        mem.resize("x", mib(5))
        assert mem.used == mib(5)

    def test_resize_respects_capacity(self, sim):
        mem = Memory(sim, MemorySpec(mib(100)))
        mem.allocate("x", mib(10))
        with pytest.raises(OutOfMemoryError):
            mem.resize("x", mib(200))

    def test_free_unknown_label(self, sim):
        with pytest.raises(KeyError):
            Memory(sim, MemorySpec(100)).free("ghost")

    def test_utilization_fraction(self, sim):
        mem = Memory(sim, MemorySpec(1000))
        mem.allocate("x", 250)
        assert mem.utilization == 0.25

    def test_allocations_returns_copy(self, sim):
        mem = Memory(sim, MemorySpec(1000))
        mem.allocate("x", 10)
        table = mem.allocations()
        table["y"] = 99
        assert "y" not in mem.allocations()


class TestStorage:
    def _device(self, sim, capacity=1000, read_bw=100.0, write_bw=50.0, latency=0.0):
        return StorageDevice(
            sim,
            StorageSpec(capacity, read_bw, write_bw, access_latency_s=latency),
            owner="pi",
        )

    def test_reserve_and_release(self, sim):
        device = self._device(sim)
        device.reserve(400)
        assert device.used == 400
        assert device.available == 600
        device.release(400)
        assert device.used == 0

    def test_reserve_beyond_capacity(self, sim):
        device = self._device(sim, capacity=100)
        with pytest.raises(StorageFullError):
            device.reserve(101)

    def test_release_more_than_used(self, sim):
        device = self._device(sim)
        with pytest.raises(ValueError):
            device.release(1)

    def test_read_takes_size_over_bandwidth(self, sim):
        device = self._device(sim, read_bw=100.0)
        done = device.read(200)
        sim.run()
        assert done.triggered
        assert sim.now == pytest.approx(2.0)

    def test_write_uses_write_bandwidth(self, sim):
        device = self._device(sim, write_bw=50.0)
        device.write(100)
        sim.run()
        assert sim.now == pytest.approx(2.0)

    def test_latency_added_per_io(self, sim):
        device = self._device(sim, read_bw=100.0, latency=0.5)
        device.read(100)
        sim.run()
        assert sim.now == pytest.approx(1.5)

    def test_concurrent_ios_serialise(self, sim):
        device = self._device(sim, read_bw=100.0)
        first, second = device.read(100), device.read(100)
        sim.run()
        assert first.triggered and second.triggered
        assert sim.now == pytest.approx(2.0)  # 1s each, back to back

    def test_counters_track_bytes(self, sim):
        device = self._device(sim)
        device.read(100)
        device.write(40)
        sim.run()
        assert device.bytes_read.total == 100
        assert device.bytes_written.total == 40


class TestMachine:
    def test_boot_transitions_and_delay(self, sim):
        machine = Machine(sim, RASPBERRY_PI_MODEL_B, "pi-1")
        assert machine.state is PowerState.OFF
        done = machine.boot()
        assert machine.state is PowerState.BOOTING
        sim.run()
        assert done.triggered
        assert machine.state is PowerState.ON
        assert sim.now == RASPBERRY_PI_MODEL_B.boot_time_s

    def test_boot_immediately(self, sim):
        machine = Machine(sim, RASPBERRY_PI_MODEL_B, "pi-1")
        machine.boot_immediately()
        assert machine.is_on
        assert machine.power.current_watts == RASPBERRY_PI_MODEL_B.power.idle_watts

    def test_double_boot_rejected(self, sim):
        machine = Machine(sim, RASPBERRY_PI_MODEL_B, "pi-1")
        machine.boot_immediately()
        with pytest.raises(PowerStateError):
            machine.boot()

    def test_shutdown(self, sim):
        machine = Machine(sim, RASPBERRY_PI_MODEL_B, "pi-1")
        machine.boot_immediately()
        machine.shutdown()
        assert machine.state is PowerState.OFF
        assert machine.power.current_watts == 0.0

    def test_shutdown_from_off_rejected(self, sim):
        with pytest.raises(PowerStateError):
            Machine(sim, RASPBERRY_PI_MODEL_B, "pi-1").shutdown()

    def test_fail_and_repair_cycle(self, sim):
        machine = Machine(sim, RASPBERRY_PI_MODEL_B, "pi-1")
        machine.boot_immediately()
        machine.fail()
        assert machine.state is PowerState.FAILED
        assert machine.failure_count == 1
        with pytest.raises(PowerStateError):
            machine.boot()
        machine.repair()
        machine.boot_immediately()
        assert machine.is_on

    def test_fail_during_boot_fails_boot_signal(self, sim):
        machine = Machine(sim, RASPBERRY_PI_MODEL_B, "pi-1")
        done = machine.boot()
        sim.schedule(5.0, machine.fail)
        sim.run()
        assert done.triggered and not done.ok

    def test_utilization_drives_power(self, sim):
        machine = Machine(sim, RASPBERRY_PI_MODEL_B, "pi-1")
        machine.boot_immediately()
        machine.cpu.set_utilization(1.0)
        assert machine.power.current_watts == 3.5
        machine.cpu.set_utilization(0.0)
        assert machine.power.current_watts == 2.5

    def test_energy_integrates_over_time(self, sim):
        machine = Machine(sim, RASPBERRY_PI_MODEL_B, "pi-1")
        machine.boot_immediately()
        sim.schedule(100.0, lambda: None)
        sim.run()
        assert machine.power.energy_joules() == pytest.approx(2.5 * 100.0)

    def test_describe_inventory_row(self, sim):
        machine = Machine(sim, RASPBERRY_PI_MODEL_B, "pi-3", rack="rack-0", slot=3)
        row = machine.describe()
        assert row["id"] == "pi-3"
        assert row["rack"] == "rack-0"
        assert row["state"] == "off"


class TestPowerModel:
    def test_off_machine_draws_nothing(self, sim):
        model = MachinePowerModel(sim, PowerSpec(2.0, 4.0, False))
        assert model.current_watts == 0.0
        model.on_utilization(1.0)  # ignored while off
        assert model.current_watts == 0.0

    def test_mean_watts(self, sim):
        model = MachinePowerModel(sim, PowerSpec(2.0, 4.0, False))
        model.on_power_on()
        sim.schedule(5.0, model.on_utilization, 1.0)
        sim.schedule(10.0, lambda: None)
        sim.run()
        assert model.mean_watts() == pytest.approx(3.0)

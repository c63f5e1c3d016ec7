"""Tests for the GPU offload model and the BoM analysis."""

import pytest

from repro.hardware import Machine, RASPBERRY_PI_MODEL_B, COMMODITY_X86_SERVER
from repro.hardware.gpu import Gpu, GpuSpec, VIDEOCORE_IV
from repro.power.bom import (
    RASPBERRY_PI_B_BOM,
    bom_total,
    dc_tuned_variant,
    most_expensive,
    soc_block_costs,
)
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator()


class TestGpuSpec:
    def test_videocore_parameters(self):
        assert VIDEOCORE_IV.flops == 24e9
        assert VIDEOCORE_IV.active_watts == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            GpuSpec(flops=0, transfer_bytes_per_s=1e6)
        with pytest.raises(ValueError):
            GpuSpec(flops=1e9, transfer_bytes_per_s=1e6, launch_overhead_s=-1)


class TestGpu:
    def test_kernel_time_components(self, sim):
        gpu = Gpu(sim, GpuSpec(flops=1e9, transfer_bytes_per_s=1e8,
                               launch_overhead_s=1e-3))
        # 1e-3 launch + 1e8/1e8 transfer + 1e9/1e9 compute = 2.001 s
        assert gpu.kernel_time(1e9, 1e8) == pytest.approx(2.001)

    def test_offload_completes_after_kernel_time(self, sim):
        gpu = Gpu(sim, VIDEOCORE_IV, owner="pi")
        done = gpu.offload(24e9, transfer_bytes=0.0)  # exactly 1s of compute
        sim.run()
        assert done.triggered
        assert sim.now == pytest.approx(1.0 + VIDEOCORE_IV.launch_overhead_s)
        assert gpu.kernels_run.total == 1

    def test_kernels_serialise(self, sim):
        gpu = Gpu(sim, GpuSpec(flops=1e9, transfer_bytes_per_s=1e9,
                               launch_overhead_s=0.0))
        first = gpu.offload(1e9)
        second = gpu.offload(1e9)
        sim.run()
        assert sim.now == pytest.approx(2.0)  # back to back, not parallel
        assert first.triggered and second.triggered

    def test_busy_time_and_energy(self, sim):
        gpu = Gpu(sim, VIDEOCORE_IV, owner="pi")
        gpu.offload(24e9)  # ~1 s busy
        sim.run()
        assert gpu.busy_seconds() == pytest.approx(1.0, rel=0.01)
        assert gpu.energy_joules() == pytest.approx(0.5, rel=0.01)

    def test_validation(self, sim):
        gpu = Gpu(sim, VIDEOCORE_IV)
        with pytest.raises(ValueError):
            gpu.offload(-1.0)

    def test_pi_machine_has_gpu_x86_does_not(self, sim):
        pi = Machine(sim, RASPBERRY_PI_MODEL_B, "pi")
        x86 = Machine(sim, COMMODITY_X86_SERVER, "srv")
        assert pi.gpu is not None
        assert x86.gpu is None

    def test_gpu_beats_cpu_on_data_parallel_work(self, sim):
        """§IV: the GPU is worth exploiting -- ~34x the ARM core's rate."""
        machine = Machine(sim, RASPBERRY_PI_MODEL_B, "pi")
        machine.boot_immediately()
        ops = 7e9  # ten seconds of CPU at 700 MHz (1 op/cycle proxy)
        cpu_seconds = ops / machine.spec.cpu.capacity_cycles_per_s
        gpu_seconds = machine.gpu.kernel_time(ops, transfer_bytes=10e6)
        assert cpu_seconds / gpu_seconds > 20

    def test_small_kernels_not_worth_offloading(self, sim):
        """The transfer+launch overhead crossover."""
        machine = Machine(sim, RASPBERRY_PI_MODEL_B, "pi")
        ops = 1e4  # trivial work
        cpu_seconds = ops / machine.spec.cpu.capacity_cycles_per_s
        gpu_seconds = machine.gpu.kernel_time(ops, transfer_bytes=1e6)
        assert gpu_seconds > cpu_seconds


class TestBom:
    def test_processor_is_most_expensive(self):
        """Paper: 'the processor as the most expensive component for
        around 10$'."""
        top = most_expensive(RASPBERRY_PI_B_BOM)
        assert top.name == "BCM2835 SoC"
        assert top.cost_usd == pytest.approx(10.0)

    def test_bom_fits_the_retail_price(self):
        """BoM must come in under the $35 retail price."""
        assert bom_total(RASPBERRY_PI_B_BOM) < 35.0

    def test_soc_block_costs_sum_to_soc(self):
        blocks = soc_block_costs()
        assert sum(blocks.values()) == pytest.approx(10.0)
        assert blocks["ARM core + caches"] == pytest.approx(2.5)

    def test_dc_tuned_variant_is_cheaper(self):
        """§IV: 'a significant cost ... can be cut for a Data
        Centre-tuned ARM chip'."""
        estimate = dc_tuned_variant()
        assert estimate.multimedia_savings_usd > estimate.extra_phy_usd
        assert estimate.tuned_soc_usd < estimate.original_soc_usd
        assert estimate.tuned_board_usd < estimate.original_board_usd
        # "Significant": double-digit percentage off the board cost.
        assert estimate.saving_fraction > 0.10

    def test_dc_tuned_keeps_compute(self):
        """The savings come from multimedia, not the ARM core."""
        blocks = soc_block_costs()
        estimate = dc_tuned_variant()
        assert estimate.multimedia_savings_usd == pytest.approx(
            sum(v for k, v in blocks.items()
                if k not in ("ARM core + caches", "interconnect + IO"))
        )

"""Experiment C11 -- GPU exploitation and ARM economics (§IV).

Two quantitative threads from the Discussion section:

* "the onboard GPU can also be exploited for general computation" -- we
  measure the CPU-vs-GPU crossover on one Pi and the speedup for
  data-parallel work;
* the BoM argument: the SoC is the most expensive component (~$10), and
  a "Data Centre-tuned ARM chip" that sheds the multimedia blocks while
  adding an Ethernet PHY comes out meaningfully cheaper per board.
"""

import pytest

from repro.hardware import Machine, RASPBERRY_PI_MODEL_B
from repro.power.bom import (
    RASPBERRY_PI_B_BOM,
    bom_total,
    dc_tuned_variant,
    most_expensive,
    soc_block_costs,
)
from repro.sim import Simulator
from repro.telemetry.stats import format_table


def test_gpu_offload_speedup_curve():
    """Crossover: small kernels belong on the CPU, big ones on the GPU."""
    sim = Simulator()
    machine = Machine(sim, RASPBERRY_PI_MODEL_B, "pi")
    machine.boot_immediately()
    cpu_rate = machine.spec.cpu.capacity_cycles_per_s

    rows = []
    crossover_seen = False
    for ops in (1e4, 1e6, 1e8, 1e10):
        transfer = ops * 0.01  # 1 byte moved per 100 ops
        cpu_s = ops / cpu_rate
        gpu_s = machine.gpu.kernel_time(ops, transfer)
        speedup = cpu_s / gpu_s
        if speedup > 1.0:
            crossover_seen = True
        rows.append([f"{ops:.0e}", f"{cpu_s * 1e3:.3f}", f"{gpu_s * 1e3:.3f}",
                     f"{speedup:.1f}x"])

    print("\nC11 -- CPU vs GPU on one Pi (VideoCore IV)\n")
    print(format_table(["ops", "CPU ms", "GPU ms", "speedup"], rows))
    assert crossover_seen
    # Tiny kernels lose to launch+transfer overhead...
    assert machine.gpu.kernel_time(1e4, 100.0) > 1e4 / cpu_rate
    # ...big data-parallel kernels win by >20x.
    assert (1e10 / cpu_rate) / machine.gpu.kernel_time(1e10, 1e8) > 20


def test_gpu_offload_runs_for_real():
    """Actually execute an offload and check the timing and energy."""
    sim = Simulator()
    machine = Machine(sim, RASPBERRY_PI_MODEL_B, "pi")
    machine.boot_immediately()

    def offload():
        done = machine.gpu.offload(24e9, transfer_bytes=0.0)  # 1 s kernel
        sim.run()
        return done

    done = offload()
    assert done.triggered
    assert machine.gpu.busy_seconds() == pytest.approx(1.0, rel=0.01)
    assert machine.gpu.energy_joules() == pytest.approx(0.5, rel=0.01)


def test_bom_reproduces_paper_argument():
    estimate = dc_tuned_variant()

    print("\nC11b -- Model B BoM estimate (paper §IV ordering)\n")
    print(format_table(
        ["component", "cost"],
        [[c.name, f"${c.cost_usd:.2f}"] for c in RASPBERRY_PI_B_BOM],
    ))
    print(f"\nboard total ${bom_total(RASPBERRY_PI_B_BOM):.2f} "
          f"(retail $35)")
    print(f"DC-tuned chip: drop multimedia blocks "
          f"(${estimate.multimedia_savings_usd:.2f}) + add PHY "
          f"(${estimate.extra_phy_usd:.2f}) -> SoC "
          f"${estimate.tuned_soc_usd:.2f}, board "
          f"${estimate.tuned_board_usd:.2f} "
          f"({estimate.saving_fraction:.0%} cheaper)")

    # The paper's claims, in order:
    assert most_expensive(RASPBERRY_PI_B_BOM).name == "BCM2835 SoC"
    assert most_expensive(RASPBERRY_PI_B_BOM).cost_usd == pytest.approx(10.0)
    assert bom_total(RASPBERRY_PI_B_BOM) < 35.0
    blocks = soc_block_costs()
    multimedia_share = sum(
        fraction for name, fraction in (
            (k, v / 10.0) for k, v in blocks.items()
        ) if name not in ("ARM core + caches", "interconnect + IO")
    )
    assert multimedia_share > 0.5         # "a significant cost ... can be cut"
    assert estimate.saving_fraction > 0.10

"""Experiment C5 -- power instrumentation (§III).

"The PiCloud allows us to both isolate individual components to measure
their power consumption characteristics, or instrument directly across
the whole Cloud: we can run the PiCloud from a single trailing power
socket board."  Plus the §IV cooling claim (33% of total DC power).
"""

import pytest

from repro.power import CoolingModel
from repro.telemetry.stats import format_table

from conftest import build_paper_cloud, build_small_cloud


def test_whole_cloud_single_socket():
    """The full 56-Pi cloud under load stays under one socket's budget."""
    cloud = build_paper_cloud()
    # Load every Pi flat out.
    for node in cloud.node_names:
        cloud.kernels[node].submit(700e6 * 60)
    cloud.run_for(10.0)

    meter = cloud.power_meter
    watts = meter.current_watts()
    # 56 Pis at 3.5 W + the pimaster: well under a 2.3 kW socket board.
    assert watts <= 56 * 3.5 + 10.0
    assert meter.fits_single_socket()
    print(f"\nwhole-cloud draw under full load: {watts:.1f} W "
          f"(nameplate {meter.peak_possible_watts():.1f} W)")


def test_component_isolation():
    """Per-machine metering isolates exactly the loaded components."""
    cloud = build_small_cloud()
    cloud.spawn_and_wait("base", name="burner", node_id="pi-r0-n0")
    cloud.container("burner").execute(700e6 * 600, name="burn")
    cloud.run_for(5.0)

    per_machine = cloud.power_meter.per_machine_watts()
    assert per_machine["pi-r0-n0"] == pytest.approx(3.5)      # busy
    assert per_machine["pi-r0-n1"] == pytest.approx(2.5)      # idle
    rows = sorted(per_machine.items())
    print("\nC5 -- component isolation\n")
    print(format_table(["machine", "watts"],
                       [[n, f"{w:.2f}"] for n, w in rows]))


def test_energy_tracks_utilization_exactly():
    """Energy is the exact integral of the utilisation-driven draw."""
    cloud = build_small_cloud(racks=1, pis=1)
    kernel = cloud.kernels["pi-r0-n0"]
    start_energy = cloud.energy_joules()
    t0 = cloud.sim.now
    kernel.submit(700e6 * 10)  # exactly 10 s at full utilisation
    cloud.run_for(20.0)

    def measured():
        return cloud.energy_joules() - start_energy

    joules = measured()
    # Pi: 10 s at 3.5 W + 10 s at 2.5 W; pimaster idle 2.5 W for 20 s.
    expected = 10 * 3.5 + 10 * 2.5 + 20 * 2.5
    assert joules == pytest.approx(expected, rel=1e-6)
    print(f"\nmeasured {joules:.1f} J == expected {expected:.1f} J (exact)")


def test_cooling_is_third_of_total():
    """§IV: cooling 'accounts for 33% of the total power consumption'."""
    cooling = CoolingModel(fraction_of_total=1.0 / 3.0)
    it_watts = 10_080.0  # the Table I x86 testbed

    total = cooling.total_watts(it_watts, True)
    assert cooling.cooling_watts(it_watts, True) / total == pytest.approx(1 / 3)
    assert cooling.effective_pue(True) == pytest.approx(1.5)
    # And the PiCloud pays none of it.
    assert cooling.total_watts(196.0, False) == 196.0
    print(f"\nx86 testbed: {it_watts:,.0f} W IT + "
          f"{cooling.cooling_watts(it_watts, True):,.0f} W cooling "
          f"= {total:,.0f} W total; PiCloud: 196 W total")


def test_poweroff_reduces_draw():
    """Powering off emptied Pis shows up immediately at the socket."""
    cloud = build_small_cloud(racks=1, pis=4)
    before = cloud.total_watts()

    def power_down_two():
        for node in ("pi-r0-n2", "pi-r0-n3"):
            cloud.machines[node].shutdown()
        return cloud.total_watts()

    after = power_down_two()
    assert after == pytest.approx(before - 2 * 2.5)

"""Unit tests for power metering, cooling and the Table I cost model."""

import pytest

from repro.core.comparison import testbed_comparison
from repro.hardware import COMMODITY_X86_SERVER, Machine, RASPBERRY_PI_MODEL_B
from repro.power import CloudPowerMeter, CoolingModel, table1_rows
from repro.power.cost import cost_row
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator()


def pi_fleet(sim, count=3, on=True):
    machines = [Machine(sim, RASPBERRY_PI_MODEL_B, f"pi-{i}") for i in range(count)]
    if on:
        for machine in machines:
            machine.boot_immediately()
    return machines


class TestCloudPowerMeter:
    def test_off_fleet_draws_nothing(self, sim):
        meter = CloudPowerMeter(pi_fleet(sim, on=False))
        assert meter.current_watts() == 0.0

    def test_idle_fleet_draws_idle_power(self, sim):
        meter = CloudPowerMeter(pi_fleet(sim, count=4))
        assert meter.current_watts() == pytest.approx(4 * 2.5)

    def test_per_machine_isolation(self, sim):
        machines = pi_fleet(sim, count=2)
        machines[0].cpu.set_utilization(1.0)
        meter = CloudPowerMeter(machines)
        per = meter.per_machine_watts()
        assert per["pi-0"] == pytest.approx(3.5)
        assert per["pi-1"] == pytest.approx(2.5)

    def test_energy_integrates(self, sim):
        machines = pi_fleet(sim, count=2)
        meter = CloudPowerMeter(machines)
        sim.schedule(100.0, lambda: None)
        sim.run()
        assert meter.energy_joules() == pytest.approx(2 * 2.5 * 100.0)

    def test_mean_watts(self, sim):
        machines = pi_fleet(sim, count=1)
        sim.schedule(5.0, machines[0].cpu.set_utilization, 1.0)
        sim.schedule(10.0, lambda: None)
        sim.run()
        meter = CloudPowerMeter(machines)
        assert meter.mean_watts() == pytest.approx((2.5 * 5 + 3.5 * 5) / 10)

    def test_56_pi_cloud_fits_single_socket(self, sim):
        """Paper claim: 'we can run the PiCloud from a single trailing
        power socket board'."""
        meter = CloudPowerMeter(pi_fleet(sim, count=56))
        assert meter.peak_possible_watts() == pytest.approx(56 * 3.5)
        assert meter.fits_single_socket()

    def test_x86_testbed_does_not_fit_single_socket(self, sim):
        machines = [Machine(sim, COMMODITY_X86_SERVER, f"x{i}") for i in range(56)]
        meter = CloudPowerMeter(machines)
        assert not meter.fits_single_socket()

    def test_empty_meter_rejected(self):
        with pytest.raises(ValueError):
            CloudPowerMeter([])


class TestCoolingModel:
    def test_33_percent_of_total_claim(self):
        """Paper: cooling 'accounts for 33% of the total power consumption'."""
        cooling = CoolingModel(fraction_of_total=1.0 / 3.0)
        it_watts = 100.0
        total = cooling.total_watts(it_watts, needs_cooling=True)
        assert cooling.cooling_watts(it_watts, True) / total == pytest.approx(1.0 / 3.0)

    def test_no_cooling_for_pi(self):
        cooling = CoolingModel()
        assert cooling.cooling_watts(100.0, needs_cooling=False) == 0.0
        assert cooling.total_watts(100.0, False) == 100.0

    def test_effective_pue(self):
        cooling = CoolingModel(fraction_of_total=1.0 / 3.0)
        assert cooling.effective_pue(True) == pytest.approx(1.5)
        assert cooling.effective_pue(False) == 1.0

    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            CoolingModel(fraction_of_total=1.0)
        with pytest.raises(ValueError):
            CoolingModel(fraction_of_total=-0.1)


class TestTable1:
    def test_exact_paper_numbers(self):
        """Table I: $112,000 vs $1,960; 10,080 W vs 196 W."""
        x86, pi = table1_rows(count=56)
        assert x86.capex_usd == 112_000.0
        assert x86.unit_cost_usd == 2_000.0
        assert x86.total_watts == 10_080.0
        assert x86.unit_watts == 180.0
        assert x86.needs_cooling is True
        assert pi.capex_usd == 1_960.0
        assert pi.unit_cost_usd == 35.0
        assert pi.total_watts == pytest.approx(196.0)
        assert pi.unit_watts == 3.5
        assert pi.needs_cooling is False

    def test_paper_row_formatting(self):
        x86, pi = table1_rows(count=56)
        assert x86.as_paper_row()["server"] == "$112,000 (@$2,000)"
        assert pi.as_paper_row()["server"] == "$1,960 (@$35)"
        assert x86.as_paper_row()["power"] == "10,080W/h (@180W/h)"
        assert pi.as_paper_row()["power"] == "196W/h (@3.5W/h)"
        assert x86.as_paper_row()["needs_cooling"] == "Yes"
        assert pi.as_paper_row()["needs_cooling"] == "No"

    def test_count_validation(self):
        with pytest.raises(ValueError):
            cost_row("x", RASPBERRY_PI_MODEL_B, 0)

    def test_scales_linearly(self):
        x86_56, _ = table1_rows(56)
        x86_112, _ = table1_rows(112)
        assert x86_112.capex_usd == 2 * x86_56.capex_usd


class TestComparison:
    def test_cost_orders_of_magnitude(self):
        """Paper: 'several orders of magnitude smaller' cost."""
        comparison = testbed_comparison()
        assert comparison.cost_ratio == pytest.approx(112_000 / 1_960)
        assert comparison.cost_ratio > 50

    def test_power_ratio(self):
        comparison = testbed_comparison()
        assert comparison.power_ratio == pytest.approx(10_080 / 196)

    def test_cooling_burden_only_on_x86(self):
        comparison = testbed_comparison()
        assert comparison.x86_total_with_cooling_watts > comparison.x86.total_watts
        assert comparison.picloud_total_with_cooling_watts == pytest.approx(
            comparison.picloud.total_watts
        )

    def test_single_socket_flag(self):
        assert testbed_comparison().picloud_fits_single_socket

    def test_table_shape(self):
        table = testbed_comparison().table()
        assert [row["testbed"] for row in table] == ["Testbed", "PiCloud"]

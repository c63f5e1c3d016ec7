"""Testbed comparison: the quantitative claims of §IV ("What is the cost?").

Regenerates Table I from the hardware catalog and checks the surrounding
claims: cost "several orders of magnitude smaller", power ratios, the
cooling burden, and the single-power-socket property of the PiCloud.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.catalog import COMMODITY_X86_SERVER, RASPBERRY_PI_MODEL_B
from repro.power.cooling import CoolingModel
from repro.power.cost import TestbedCostRow, cost_row
from repro.power.meter import SOCKET_LIMIT_WATTS


@dataclass(frozen=True)
class TestbedComparison:
    """Everything Table I says, plus the derived ratios the text quotes."""

    x86: TestbedCostRow
    picloud: TestbedCostRow
    cost_ratio: float
    power_ratio: float
    x86_total_with_cooling_watts: float
    picloud_total_with_cooling_watts: float
    picloud_fits_single_socket: bool

    def table(self) -> list[dict[str, str]]:
        """Rows formatted like the paper's Table I."""
        return [self.x86.as_paper_row(), self.picloud.as_paper_row()]


def testbed_comparison(count: int = 56) -> TestbedComparison:
    """Build the comparison for ``count`` machines (paper: 56)."""
    cooling = CoolingModel()
    x86 = cost_row("Testbed", COMMODITY_X86_SERVER, count)
    pi = cost_row("PiCloud", RASPBERRY_PI_MODEL_B, count)
    return TestbedComparison(
        x86=x86,
        picloud=pi,
        cost_ratio=x86.capex_usd / pi.capex_usd,
        power_ratio=x86.total_watts / pi.total_watts,
        x86_total_with_cooling_watts=cooling.total_watts(
            x86.total_watts, x86.needs_cooling
        ),
        picloud_total_with_cooling_watts=cooling.total_watts(
            pi.total_watts, pi.needs_cooling
        ),
        picloud_fits_single_socket=pi.total_watts <= SOCKET_LIMIT_WATTS,
    )

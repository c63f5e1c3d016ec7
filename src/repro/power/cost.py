"""The Table I generator.

Table I of the paper compares a 56-machine commodity-x86 testbed against
the 56-Pi PiCloud:

======== =========================== ============================ ==============
Testbed  Server cost                 Power                        Needs cooling?
======== =========================== ============================ ==============
x86      $112,000 (@$2,000)          10,080 W (@180 W)            Yes
PiCloud  $1,960 (@$35)               196 W (@3.5 W)               No
======== =========================== ============================ ==============

(The paper writes the power column as "W/h"; the figures are peak watts
per machine times machine count.)  :func:`table1_rows` regenerates the
table from the hardware catalog.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.catalog import COMMODITY_X86_SERVER, RASPBERRY_PI_MODEL_B
from repro.hardware.specs import MachineSpec


@dataclass(frozen=True)
class TestbedCostRow:
    """One row of Table I (plus derived fields)."""

    label: str
    machine_count: int
    unit_cost_usd: float
    capex_usd: float
    unit_watts: float
    total_watts: float
    needs_cooling: bool

    def as_paper_row(self) -> dict[str, str]:
        """Formatted exactly like the paper's table cells."""
        return {
            "testbed": self.label,
            "server": f"${self.capex_usd:,.0f} (@${self.unit_cost_usd:,.0f})",
            "power": f"{self.total_watts:,.0f}W/h (@{self.unit_watts:g}W/h)",
            "needs_cooling": "Yes" if self.needs_cooling else "No",
        }


def cost_row(label: str, spec: MachineSpec, count: int) -> TestbedCostRow:
    """Build a Table I row from a catalog spec."""
    if count < 1:
        raise ValueError("machine count must be >= 1")
    unit_watts = spec.power.peak_watts
    return TestbedCostRow(
        label=label,
        machine_count=count,
        unit_cost_usd=spec.unit_cost_usd,
        capex_usd=spec.unit_cost_usd * count,
        unit_watts=unit_watts,
        total_watts=unit_watts * count,
        needs_cooling=spec.power.needs_cooling,
    )


def table1_rows(count: int = 56) -> list[TestbedCostRow]:
    """Regenerate Table I for ``count`` machines (the paper uses 56)."""
    return [
        cost_row("Testbed", COMMODITY_X86_SERVER, count),
        cost_row("PiCloud", RASPBERRY_PI_MODEL_B, count),
    ]

"""Bill-of-Materials analysis: the §IV "Why the Raspberry Pi?" economics.

The paper reasons about the Pi's cost structure (its actual BoM is under
NDA, so the authors *estimate* from comparable ARM products): "the
processor [is] the most expensive component for around 10$, followed by
the cost of Printed Circuit Board (PCB), RAM, the Ethernet connector and
the rest of the components."  It then argues "a significant cost for
this System on Chip can be cut for a Data Centre-tuned ARM chip, by
removing most of the multimedia-related external peripherals while
adding another Ethernet PHY."

This module makes that argument computable: the estimated Model B BoM,
the SoC's internal block breakdown, and the derivation of the
hypothetical DC-tuned part.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List


@dataclass(frozen=True)
class BomComponent:
    """One line of a bill of materials."""

    name: str
    cost_usd: float

    def __post_init__(self) -> None:
        if self.cost_usd < 0:
            raise ValueError(f"component {self.name!r} cannot have negative cost")


# The paper's ordering: processor (~$10) > PCB > RAM > Ethernet > rest.
RASPBERRY_PI_B_BOM: List[BomComponent] = [
    BomComponent("BCM2835 SoC", 10.00),
    BomComponent("PCB", 5.00),
    BomComponent("RAM (256 MB)", 4.50),
    BomComponent("Ethernet connector + PHY", 3.50),
    BomComponent("power regulation", 2.00),
    BomComponent("connectors (USB/HDMI/GPIO)", 3.00),
    BomComponent("passives + assembly", 4.00),
]

# Inside the SoC: the multimedia blocks the paper says a DC part can shed.
# Fractions of the $10 SoC cost attributable to each block (die area as a
# cost proxy; the paper lists the blocks in §IV).
SOC_BLOCK_FRACTIONS: Dict[str, float] = {
    "ARM core + caches": 0.25,
    "multimedia co-processor": 0.15,
    "HD video encode/decode": 0.20,
    "image sensing pipeline": 0.10,
    "GPU": 0.15,
    "video display unit": 0.05,
    "interconnect + IO": 0.10,
}

MULTIMEDIA_BLOCKS = (
    "multimedia co-processor",
    "HD video encode/decode",
    "image sensing pipeline",
    "GPU",
    "video display unit",
)

EXTRA_ETHERNET_PHY_USD = 1.50
# The BCM2835's estimated unit price.
SOC_COST_USD = 10.0


def bom_total(components: List[BomComponent]) -> float:
    return sum(component.cost_usd for component in components)


def most_expensive(components: List[BomComponent]) -> BomComponent:
    return max(components, key=lambda component: component.cost_usd)


def soc_block_costs() -> Dict[str, float]:
    """Dollar cost of each SoC block under the die-area proxy."""
    total_fraction = sum(SOC_BLOCK_FRACTIONS.values())
    if abs(total_fraction - 1.0) > 1e-9:
        raise AssertionError("SoC block fractions must sum to 1")
    return {
        block: SOC_COST_USD * fraction
        for block, fraction in SOC_BLOCK_FRACTIONS.items()
    }


@dataclass(frozen=True)
class DcTunedEstimate:
    """The paper's hypothetical data-centre ARM chip, priced out."""

    original_soc_usd: float
    multimedia_savings_usd: float
    extra_phy_usd: float
    tuned_soc_usd: float
    original_board_usd: float
    tuned_board_usd: float

    @property
    def board_saving_usd(self) -> float:
        return self.original_board_usd - self.tuned_board_usd

    @property
    def saving_fraction(self) -> float:
        return self.board_saving_usd / self.original_board_usd


def dc_tuned_variant() -> DcTunedEstimate:
    """Price the §IV proposal: drop the multimedia blocks, add a PHY."""
    blocks = soc_block_costs()
    savings = sum(blocks[name] for name in MULTIMEDIA_BLOCKS)
    tuned_soc = SOC_COST_USD - savings + EXTRA_ETHERNET_PHY_USD
    original_board = bom_total(RASPBERRY_PI_B_BOM)
    # Board level: swap the SoC, drop the HDMI/display connectors share
    # (half of the connector line), keep everything else.
    connector_saving = 1.5
    tuned_board = original_board - (SOC_COST_USD - tuned_soc) - connector_saving
    return DcTunedEstimate(
        original_soc_usd=SOC_COST_USD,
        multimedia_savings_usd=savings,
        extra_phy_usd=EXTRA_ETHERNET_PHY_USD,
        tuned_soc_usd=tuned_soc,
        original_board_usd=original_board,
        tuned_board_usd=tuned_board,
    )

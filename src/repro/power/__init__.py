"""Power instrumentation and the cost model behind Table I.

"The PiCloud allows us to both isolate individual components to measure
their power consumption characteristics, or instrument directly across
the whole Cloud: we can run the PiCloud from a single trailing power
socket board" (§III).  This package provides:

* :mod:`~repro.power.meter` -- per-machine and whole-cloud power meters
  with exact (gauge-integral) energy accounting.
* :mod:`~repro.power.cooling` -- the cooling overhead model ("reportedly
  accounts for 33% of the total power consumption in Cloud DCs").
* :mod:`~repro.power.cost` -- the Table I generator.
"""

from repro.power.bom import (
    RASPBERRY_PI_B_BOM,
    BomComponent,
    DcTunedEstimate,
    dc_tuned_variant,
)
from repro.power.cooling import CoolingModel
from repro.power.cost import TestbedCostRow, table1_rows
from repro.power.meter import CloudPowerMeter

__all__ = [
    "BomComponent",
    "CloudPowerMeter",
    "DcTunedEstimate",
    "RASPBERRY_PI_B_BOM",
    "dc_tuned_variant",
    "CoolingModel",
    "TestbedCostRow",
    "table1_rows",
]

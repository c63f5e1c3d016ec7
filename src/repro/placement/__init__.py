"""VM/container placement and consolidation policies.

"VM management is an important aspect of Cloud Computing, since it allows
for consolidation to reduce power consumption, and oversubscription to
improve cost efficiency.  The way in which VMs are allocated is crucial;
we can experiment with new algorithms on the PiCloud, while directly
observing the resulting behaviour on all layers" (paper §III).  This
package is that experiment surface:

* :mod:`~repro.placement.base` -- requests, node views, the policy protocol.
* :mod:`~repro.placement.policies` -- first/best/worst fit, round robin,
  lowest-load, and power-minimising packing.
* :mod:`~repro.placement.network_aware` -- rack affinity / anti-affinity
  and uplink-congestion-aware placement.
* :mod:`~repro.placement.consolidation` -- a runtime consolidator that
  live-migrates containers to pack hosts and power the rest down.
"""

from repro.placement.base import NodeView, PlacementPolicy, PlacementRequest
from repro.placement.consolidation import ConsolidationReport, Consolidator
from repro.placement.network_aware import NetworkAwarePlacement
from repro.placement.policies import (
    BestFit,
    FirstFit,
    LowestCpuLoad,
    PackingPlacement,
    RoundRobin,
    WorstFit,
)

__all__ = [
    "BestFit",
    "ConsolidationReport",
    "Consolidator",
    "FirstFit",
    "LowestCpuLoad",
    "NetworkAwarePlacement",
    "NodeView",
    "PackingPlacement",
    "PlacementPolicy",
    "PlacementRequest",
    "RoundRobin",
    "WorstFit",
]

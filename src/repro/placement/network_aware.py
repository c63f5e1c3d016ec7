"""Network-aware placement: the cross-layer policy the paper motivates.

"Imperfect VM migration or a naive consolidation algorithm may improve
server resource usage at the expense of frequent episodes of network
congestion" (§IV).  This policy looks at the network when placing:

* **locality** -- place near a named peer (same rack) so their traffic
  stays on the ToR instead of crossing the aggregation layer;
* **congestion** -- among otherwise-equal candidates, avoid hosts whose
  access links (and racks whose uplinks) are already hot.

The score is a weighted sum, lowest wins; weights are constructor knobs
so experiments can sweep the locality/congestion trade-off.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.placement.base import NodeView, PlacementRequest, feasible


class NetworkAwarePlacement:
    """Prefer rack locality and cold links; fall back to best fit."""

    def __init__(
        self,
        locality_weight: float = 1.0,
        congestion_weight: float = 1.0,
        packing_weight: float = 0.1,
        rack_uplink_utilization: Optional[Dict[str, float]] = None,
    ) -> None:
        self.locality_weight = locality_weight
        self.congestion_weight = congestion_weight
        self.packing_weight = packing_weight
        # Injected view of rack uplink load (rack name -> [0, 1]), fixed
        # at construction; the pimaster's node views carry live host load.
        self.rack_uplink_utilization = rack_uplink_utilization or {}

    def _score(self, view: NodeView, request: PlacementRequest) -> float:
        score = 0.0
        if request.same_rack_as is not None and view.rack != request.same_rack_as:
            score += self.locality_weight
        score += self.congestion_weight * view.uplink_utilization
        if view.rack is not None:
            score += self.congestion_weight * self.rack_uplink_utilization.get(
                view.rack, 0.0
            )
        # Mild packing pressure so ties do not fragment memory.
        if view.memory_capacity > 0:
            score += self.packing_weight * (
                view.memory_available / view.memory_capacity
            )
        return score

    def choose(self, request: PlacementRequest, nodes: Sequence[NodeView]) -> str:
        # Note: feasible() already *hard*-prefers same_rack_as candidates
        # when any exist; scoring handles the soft trade-off against
        # congestion when the preferred rack is full or hot.
        candidates = [view for view in nodes if view.fits(request)]
        if not candidates:
            # Delegate to feasible() for its uniform error message.
            feasible(request, nodes)
        return min(
            candidates, key=lambda v: (self._score(v, request), v.node_id)
        ).node_id

"""Network-aware placement: the cross-layer policy the paper motivates.

"Imperfect VM migration or a naive consolidation algorithm may improve
server resource usage at the expense of frequent episodes of network
congestion" (§IV).  This policy looks at the network when placing:

* **locality** -- place near a named peer (same rack) so their traffic
  stays on the ToR instead of crossing the aggregation layer;
* **congestion** -- among otherwise-equal candidates, avoid hosts whose
  access links are already hot (the node views' ``uplink_utilization``).

The score is a weighted sum, lowest wins.  The congestion weight is a
constructor argument, so experiments can sweep the locality/congestion
trade-off; the locality and packing weights are module constants.
"""

from __future__ import annotations

from typing import Sequence

from repro.placement.base import NodeView, PlacementRequest, feasible

# Score added for a candidate outside the requested rack.
LOCALITY_WEIGHT = 1.0
# Weight of a candidate's free-memory fraction, so ties do not fragment
# memory.
PACKING_WEIGHT = 0.1


class NetworkAwarePlacement:
    """Prefer rack locality and cold links; fall back to best fit."""

    def __init__(self, congestion_weight: float = 1.0) -> None:
        self.congestion_weight = congestion_weight

    def _score(self, view: NodeView, request: PlacementRequest) -> float:
        score = 0.0
        if request.same_rack_as is not None and view.rack != request.same_rack_as:
            score += LOCALITY_WEIGHT
        score += self.congestion_weight * view.uplink_utilization
        if view.memory_capacity > 0:
            score += PACKING_WEIGHT * (
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

"""Classic placement policies.

All operate on the :func:`~repro.placement.base.feasible` candidate set,
so hard constraints (memory, power state, rack filters, anti-affinity)
are enforced uniformly; the policy only expresses *preference*.
"""

from __future__ import annotations

from typing import Sequence

from repro.placement.base import NodeView, PlacementRequest, feasible


class FirstFit:
    """First node (in the given order) that fits.  Fast, packs the front."""

    def choose(self, request: PlacementRequest, nodes: Sequence[NodeView]) -> str:
        return feasible(request, nodes)[0].node_id


class BestFit:
    """Tightest fit: least leftover memory.  Packs hosts densely."""

    def choose(self, request: PlacementRequest, nodes: Sequence[NodeView]) -> str:
        candidates = feasible(request, nodes)
        return min(
            candidates,
            key=lambda v: (v.memory_available - request.memory_bytes, v.node_id),
        ).node_id


class WorstFit:
    """Loosest fit: most leftover memory.  Spreads load, keeps headroom."""

    def choose(self, request: PlacementRequest, nodes: Sequence[NodeView]) -> str:
        candidates = feasible(request, nodes)
        return max(
            candidates,
            key=lambda v: (v.memory_available - request.memory_bytes, v.node_id),
        ).node_id


class RoundRobin:
    """Rotate through feasible nodes; stateful across calls."""

    def __init__(self) -> None:
        self._cursor = 0

    def choose(self, request: PlacementRequest, nodes: Sequence[NodeView]) -> str:
        candidates = feasible(request, nodes)
        chosen = candidates[self._cursor % len(candidates)]
        self._cursor += 1
        return chosen.node_id


class LowestCpuLoad:
    """Least-loaded node first (load balancing for CPU-bound services)."""

    def choose(self, request: PlacementRequest, nodes: Sequence[NodeView]) -> str:
        candidates = feasible(request, nodes)
        return min(candidates, key=lambda v: (v.cpu_load, v.node_id)).node_id


class PackingPlacement:
    """Power-minimising packing: prefer already-busy nodes, best-fit order.

    The consolidation-friendly policy from §III: keeps the active machine
    set small so idle machines can be powered off.  Among nodes that
    already run containers, choose the tightest fit; only open an empty
    node when nothing occupied fits.
    """

    def choose(self, request: PlacementRequest, nodes: Sequence[NodeView]) -> str:
        candidates = feasible(request, nodes)
        occupied = [v for v in candidates if v.running_containers > 0]
        pool = occupied or candidates
        return min(
            pool,
            key=lambda v: (v.memory_available - request.memory_bytes, v.node_id),
        ).node_id

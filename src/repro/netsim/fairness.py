"""Max-min fair bandwidth allocation by progressive filling.

Given a set of flows, each traversing a list of capacitated resources
(directed link halves) and optionally rate-capped (e.g. by the sender's
NIC), compute the max-min fair rate vector: rates rise together until a
resource saturates; flows through a saturated resource freeze at their
current rate; the rest keep rising.

This is the textbook fluid model for TCP-dominated data-centre traffic
and the fidelity level at which the paper's congestion arguments operate.

The solver decomposes the instance into *bottleneck components* --
connected components of the flow/resource sharing graph -- and fills each
component independently.  The max-min allocation of disjoint components
is exactly the union of the per-component allocations (every flow's
bottleneck resource is inside its own component), so decomposition
changes nothing about the answer while making the incremental fabric
solver (:mod:`repro.netsim.fabric`) possible: re-solving one component
with this function is bit-identical to the slice of a full solve.
:func:`max_min_rates` runs the two steps back to back:
:func:`connected_components` (decompose), then :func:`fill_components`
(fill).  A caller whose flow paths have not changed since the last
solve may keep the decomposition, and its :func:`fill_layouts`, and
call the fill alone (:func:`fill_with_layouts`).

Determinism: all iteration happens in the insertion order of
``flow_paths`` (and path order within each flow), never over sets, so the
same instance always performs the same arithmetic in the same order.
"""

from __future__ import annotations

import math
from typing import (
    Dict, Hashable, Iterable, List, Mapping, Optional, Sequence,
)

import numpy as _np

from repro.errors import ConfigurationError

FlowId = Hashable
ResourceId = Hashable

_EPSILON = 1e-9

# Components below this many flows fill with the scalar loop: the numpy
# path's array setup costs more than it saves on typical churn-sized
# components (profiles show the mean component is ~10 flows), and only
# wide incasts/elephant pile-ups clear this bar.  Both paths perform the
# identical IEEE arithmetic, so crossing the threshold never changes a
# rate (pinned by tests/test_fairness_vectorized.py).
VECTORIZE_MIN_FLOWS = 64


def connected_components(
    flow_paths: Mapping[FlowId, Sequence[ResourceId]],
) -> List[List[FlowId]]:
    """Group flows into components that share resources (transitively).

    Flows with empty paths form singleton components.  Component order and
    the flow order within each component follow ``flow_paths`` insertion
    order, so the decomposition is deterministic.
    """
    resource_owner: Dict[ResourceId, int] = {}   # resource -> component idx
    parent: List[int] = []                        # union-find over components

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    flow_component: List[int] = []
    for flow, path in flow_paths.items():
        idx = len(parent)
        parent.append(idx)
        flow_component.append(idx)
        for resource in path:
            owner = resource_owner.get(resource)
            if owner is None:
                resource_owner[resource] = idx
            else:
                a, b = find(idx), find(owner)
                if a != b:
                    # Union toward the *older* root so component identity
                    # (and thus output order) is stable.
                    if a < b:
                        parent[b] = a
                    else:
                        parent[a] = b

    groups: Dict[int, List[FlowId]] = {}
    for (flow, _), idx in zip(flow_paths.items(), flow_component):
        groups.setdefault(find(idx), []).append(flow)
    # Roots are visited in first-flow order because dict preserves insertion.
    return list(groups.values())


class FillLayout:
    """One component's paths as the vectorized fill's index arrays.

    ``resources`` lists the component's resources in first-seen order
    over its flows' paths; ``crossing`` counts the flows crossing each.
    ``flat`` holds every flow's resource indices back to back (CSR),
    ``lengths`` each flow's hop count, and ``seg_starts`` where each
    flow's hops start in ``flat`` (0 for an empty path, which
    ``nonempty`` masks out).  Built from the paths alone, so a caller
    whose paths have not changed may keep it (the cc epoch plan does).

    ``capacity`` holds the resources' capacities, parallel to
    ``resources``, as of the last :meth:`read_capacities`; a caller that
    keeps the layout calls it again when a capacity changes.
    :func:`fill_layouts` also sets ``positions``: where the component's
    flows stand in the flow order the layouts were built for.
    """

    __slots__ = ("resources", "crossing", "flat", "lengths", "nonempty",
                 "seg_starts", "capacity", "positions")

    def __init__(self, flows: Sequence[FlowId],
                 flow_paths: Mapping[FlowId, Sequence[ResourceId]]) -> None:
        res_index: Dict[ResourceId, int] = {}
        crossing: List[int] = []
        flat: List[int] = []
        for flow in flows:
            for res in flow_paths[flow]:
                i = res_index.get(res)
                if i is None:
                    i = res_index[res] = len(crossing)
                    crossing.append(0)
                crossing[i] += 1
                flat.append(i)
        self.resources = list(res_index)
        self.crossing = _np.array(crossing, dtype=_np.float64)
        self.flat = _np.array(flat, dtype=_np.intp)
        self.lengths = _np.array([len(flow_paths[flow]) for flow in flows],
                                 dtype=_np.intp)
        # reduceat mishandles zero-length segments (an empty-path flow),
        # so those start at index 0 and are masked afterwards.
        self.nonempty = self.lengths > 0
        ptr = _np.zeros(len(flows) + 1, dtype=_np.intp)
        _np.cumsum(self.lengths, out=ptr[1:])
        self.seg_starts = _np.where(self.nonempty, ptr[:-1], 0)
        self.capacity = None
        self.positions = None

    def read_capacities(self, capacities: Mapping[ResourceId, float]) -> None:
        """Copy the resources' capacities into ``capacity``."""
        self.capacity = _np.array(
            [capacities[res] for res in self.resources], dtype=_np.float64)


def fill_layouts(
    components: Iterable[List[FlowId]],
    flow_paths: Mapping[FlowId, Sequence[ResourceId]],
    capacities: Mapping[ResourceId, float],
) -> List[Optional[FillLayout]]:
    """A :class:`FillLayout` for each component wide enough to vectorize.

    Parallel to ``components``; None where the component fills with the
    scalar loop.  Each layout holds ``capacities`` and its flows'
    positions in ``flow_paths`` order, which is the order
    :func:`fill_with_layouts` takes the caps in.  A layout is used only
    while every flow of its component is active (cap above
    ``_EPSILON``).
    """
    position = None
    layouts: List[Optional[FillLayout]] = []
    for component in components:
        if len(component) < VECTORIZE_MIN_FLOWS:
            layouts.append(None)
            continue
        if position is None:
            position = {flow: i for i, flow in enumerate(flow_paths)}
        layout = FillLayout(component, flow_paths)
        layout.read_capacities(capacities)
        layout.positions = _np.array([position[flow] for flow in component],
                                     dtype=_np.intp)
        layouts.append(layout)
    return layouts


def _fill_component(
    flows: List[FlowId],
    flow_paths: Mapping[FlowId, Sequence[ResourceId]],
    capacities: Mapping[ResourceId, float],
    rate_caps: Mapping[FlowId, float],
    rates: Dict[FlowId, float],
) -> None:
    """Progressive filling over one component; writes into ``rates``."""
    active: List[FlowId] = [
        flow for flow in flows if rate_caps.get(flow, math.inf) > _EPSILON
    ]
    if len(active) >= VECTORIZE_MIN_FLOWS:
        layout = FillLayout(active, flow_paths)
        layout.read_capacities(capacities)
        caps = _np.array([rate_caps.get(flow, _np.inf) for flow in active],
                         dtype=_np.float64)
        _fill_component_vectorized(active, layout, caps, rates)
        return

    remaining: Dict[ResourceId, float] = {}
    crossing: Dict[ResourceId, int] = {}
    for flow in active:
        for res in flow_paths[flow]:
            if res not in remaining:
                remaining[res] = float(capacities[res])
                crossing[res] = 0
            crossing[res] += 1

    while active:
        # The next rate increment is the smallest of: each loaded
        # resource's equal share of its remaining capacity, and each
        # active flow's distance to its cap.
        increment = math.inf
        for res, count in crossing.items():
            if count > 0:
                increment = min(increment, remaining[res] / count)
        for flow in active:
            cap = rate_caps.get(flow)
            if cap is not None:
                increment = min(increment, cap - rates[flow])
        if not math.isfinite(increment):
            # Active flows with no constrained resources and no cap:
            # unbounded in the model; give them "infinite" rate.
            for flow in active:
                rates[flow] = math.inf
            break

        increment = max(increment, 0.0)
        for flow in active:
            rates[flow] += increment
            for res in flow_paths[flow]:
                remaining[res] -= increment

        # Freeze flows that hit a saturated resource or their own cap.
        survivors: List[FlowId] = []
        frozen: List[FlowId] = []
        for flow in active:
            cap = rate_caps.get(flow)
            if cap is not None and rates[flow] >= cap - _EPSILON:
                frozen.append(flow)
                continue
            if any(remaining[res] <= _EPSILON for res in flow_paths[flow]):
                frozen.append(flow)
            else:
                survivors.append(flow)
        if not frozen:
            # Numerical safety: freeze everything rather than loop forever.
            frozen, survivors = survivors, []
        for flow in frozen:
            for res in flow_paths[flow]:
                crossing[res] -= 1
        active = survivors


def _fill_component_vectorized(
    active: List[FlowId],
    layout: FillLayout,
    caps: _np.ndarray,
    rates: Dict[FlowId, float],
) -> None:
    """Numpy water-fill: byte-identical to the scalar loop, faster wide.

    Every operation maps 1:1 onto the scalar path's IEEE arithmetic:

    * the increment is an (exact, order-independent) ``min`` over the
      same per-resource divisions and per-flow cap distances;
    * rate bumps are the same single addition per flow per round;
    * ``np.subtract.at`` performs the same *sequence* of subtractions on
      each resource slot (repeated subtraction of one increment value is
      a chain on that slot alone, so interleaving cannot change it).

    Paths and capacities live in ``layout`` (:class:`FillLayout`, the
    layout of exactly ``active``); ``caps`` is the flows' caps as a
    float array parallel to ``active`` (``inf`` for none).  A round
    selects the hops of alive (or newly frozen) flows with
    ``flat[np.repeat(mask, lengths)]`` -- the same indices, in the same
    order, as concatenating those flows' paths.

    Hence rates out of this path equal the scalar path's bit-for-bit --
    the gate at :data:`VECTORIZE_MIN_FLOWS` is purely a speed decision.
    """
    flat = layout.flat
    lengths = layout.lengths
    rem = layout.capacity.copy()
    cross = layout.crossing.copy()
    flow_rates = _np.zeros(len(active), dtype=_np.float64)
    alive = _np.ones(len(active), dtype=bool)

    while alive.any():
        loaded = cross > 0
        increment = _np.inf
        if loaded.any():
            increment = (rem[loaded] / cross[loaded]).min()
        cap_gap = caps[alive] - flow_rates[alive]
        if cap_gap.size:
            increment = min(increment, cap_gap.min())
        if not math.isfinite(increment):
            for i in _np.nonzero(alive)[0]:
                rates[active[i]] = math.inf
            return
        increment = max(float(increment), 0.0)

        flow_rates[alive] += increment
        _np.subtract.at(rem, flat[_np.repeat(alive, lengths)], increment)

        saturated = rem <= _EPSILON
        hits = _np.zeros(len(active), dtype=_np.float64)
        if flat.size:
            per_flow = _np.add.reduceat(
                saturated[flat].astype(_np.float64), layout.seg_starts)
            hits = _np.where(layout.nonempty, per_flow, 0.0)
        at_cap = _np.isfinite(caps) & (flow_rates >= caps - _EPSILON)
        frozen = alive & (at_cap | (hits > 0))
        if not frozen.any():
            # Numerical safety: freeze everything rather than loop forever.
            frozen = alive.copy()
        _np.subtract.at(cross, flat[_np.repeat(frozen, lengths)], 1.0)
        alive &= ~frozen

    rates.update(zip(active, flow_rates.tolist()))


def fill_components(
    components: Iterable[List[FlowId]],
    flow_paths: Mapping[FlowId, Sequence[ResourceId]],
    capacities: Mapping[ResourceId, float],
    rate_caps: Mapping[FlowId, float],
) -> Dict[FlowId, float]:
    """Water-fill each component of a decomposition of ``flow_paths``.

    The second step of :func:`max_min_rates`; ``components`` is what
    :func:`connected_components` returned for these ``flow_paths``.
    """
    rates: Dict[FlowId, float] = dict.fromkeys(flow_paths, 0.0)
    for component in components:
        _fill_component(component, flow_paths, capacities, rate_caps, rates)
    return rates


def fill_with_layouts(
    components: Sequence[List[FlowId]],
    flow_paths: Mapping[FlowId, Sequence[ResourceId]],
    capacities: Mapping[ResourceId, float],
    caps: Sequence[float],
    layouts: Sequence[Optional[FillLayout]],
) -> Dict[FlowId, float]:
    """:func:`fill_components` for a caller that keeps the decomposition.

    The decomposition and its :func:`fill_layouts` depend on the paths
    alone, so a caller whose paths have not changed may keep them (the
    cc epoch does), and the layouts' capacities until one changes.
    ``caps`` runs parallel to ``flow_paths`` (one cap per flow, in its
    order).  A wide component whose flows are all active takes its caps
    by position and its capacities from its layout; any other component
    fills as :func:`fill_components` would, from ``capacities`` and the
    caps by flow.  The rates are the same either way.
    """
    rates: Dict[FlowId, float] = dict.fromkeys(flow_paths, 0.0)
    cap_array = None
    rate_caps = None
    for component, layout in zip(components, layouts):
        if layout is not None:
            if cap_array is None:
                cap_array = _np.array(caps, dtype=_np.float64)
            component_caps = cap_array[layout.positions]
            if (component_caps > _EPSILON).all():
                _fill_component_vectorized(component, layout, component_caps,
                                           rates)
                continue
        if rate_caps is None:
            rate_caps = dict(zip(flow_paths, caps))
        _fill_component(component, flow_paths, capacities, rate_caps, rates)
    return rates


def max_min_rates(
    flow_paths: Mapping[FlowId, Sequence[ResourceId]],
    capacities: Mapping[ResourceId, float],
    rate_caps: Mapping[FlowId, float] | None = None,
) -> Dict[FlowId, float]:
    """Compute max-min fair rates.

    ``flow_paths`` maps each flow to the resources it traverses (a flow
    with an empty path is only limited by its rate cap, or unbounded).
    ``capacities`` gives each resource's capacity; ``rate_caps`` optionally
    caps individual flows.  Returns the rate for every flow.

    Raises :class:`~repro.errors.ConfigurationError` (a ``ValueError``) on
    a flow referencing an unknown resource or on non-positive capacities.

    ``rate_caps`` is consulted read-only (``.get`` per flow, never
    iterated), so callers may pass a live superset -- the fabric hands
    in its incrementally-maintained cap dict covering *all* active flows,
    and the cc rate model hands in per-flow window demands -- without
    paying a defensive copy per solve.  Entries for flows outside
    ``flow_paths`` are never consulted, so the answer only depends on the
    caps of the flows being solved.
    """
    if rate_caps is None:
        rate_caps = {}
    # The fabric's solvers call fill_components directly: their inputs
    # are built from link state they maintain themselves, and re-walking
    # every path per solve is measurable at 10^5 solves per run.
    for resource, capacity in capacities.items():
        if capacity <= 0:
            raise ConfigurationError(
                f"resource {resource!r} capacity must be positive"
            )
    for flow, path in flow_paths.items():
        for resource in path:
            if resource not in capacities:
                raise ConfigurationError(
                    f"flow {flow!r} uses unknown resource {resource!r}"
                )
        cap = rate_caps.get(flow)
        if cap is not None and cap < 0:
            raise ConfigurationError(f"flow {flow!r} has negative rate cap")

    return fill_components(connected_components(flow_paths), flow_paths,
                           capacities, rate_caps)


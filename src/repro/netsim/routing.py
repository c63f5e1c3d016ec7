"""Path services: who decides which way a flow goes.

The fabric asks a :class:`PathService` for a node path when a flow starts.
Two static services live here; the OpenFlow/SDN reactive service (with a
real control-plane round trip) is in :mod:`repro.netsim.sdn.controller`.

Both static services honour link failures: the fabric calls
``mark_link`` when the wiring changes.  On the
paper's regular topologies (fat-tree, multi-root tree, single switch)
path sets come from the analytic engine in
:mod:`repro.netsim.structured`, keyed by *attach-switch* pair so every
host pair behind the same ToRs shares one cached entry; link failures
evict only the entries whose paths traverse the failed link.  Irregular
topologies -- and pairs the engine cannot prove complete -- fall back to
networkx over a working graph that is patched in place (edge removed or
restored per event) instead of re-copied.

Both backends produce the *same* paths: the canonical single path is the
lexicographically-first shortest path, and ECMP hashes over the full
sorted shortest-path set, so swapping backends never changes a flow's
route (asserted by ``tests/test_structured_routing.py``).
"""

from __future__ import annotations

import hashlib
from typing import Dict, Hashable, List, Optional, Protocol, Sequence, Set, Tuple

import networkx as nx

from repro.errors import NoRouteError
from repro.netsim.structured import StructuredPaths
from repro.netsim.topology import Topology
from repro.sim.kernel import Simulator
from repro.sim.process import Signal


class PathService(Protocol):
    """Resolves a (src, dst, flow_key) to a node path, possibly asynchronously."""

    def resolve(self, src: str, dst: str, flow_key: Hashable) -> Signal:
        """Return a Signal succeeding with ``[src, ..., dst]`` or failing
        with :class:`~repro.errors.NoRouteError`."""
        ...

    def mark_link(self, a: str, b: str, up: bool) -> None:
        """Fabric hook: link ``a``-``b`` failed (``up=False``) or was
        repaired (``up=True``); drop state that depends on it."""
        ...


class PathCache:
    """Structured path groups + an in-place working graph.

    This is the shared routing brain: the static services below wrap it
    with the PathService signal protocol, and the SDN controller holds
    one as its topology view so controller apps answer PacketIns from
    the same caches instead of re-searching the graph per flow.
    """

    def __init__(self, topology: Topology, structured: bool = True) -> None:
        self.topology = topology
        self._down_edges: Set[frozenset] = set()
        # The working graph mirrors the pristine wiring minus failed
        # links.  It is built once and patched per mark_link -- removing
        # or restoring one edge -- never re-copied wholesale.
        self._work_graph: nx.Graph = topology.graph.copy()
        self._structure: Optional[StructuredPaths] = (
            StructuredPaths.build(topology) if structured else None
        )
        # Live (failure-filtered) groups keyed by attach-switch pair,
        # indexed by the links their pristine paths traverse so one
        # flapping link evicts only the entries it can affect.
        self._live_groups: Dict[Tuple[str, str], Optional[List[List[str]]]] = {}
        self._pairs_by_link: Dict[frozenset, Set[Tuple[str, str]]] = {}
        # networkx fallback results, keyed by endpoint pair.  These
        # depend on the whole working graph, so any wiring change
        # flushes them; on regular fabrics they are the rare exception.
        self._nx_cache: Dict[Tuple[str, str], List[List[str]]] = {}

    @property
    def backend(self) -> str:
        """Which engine answers path queries: ``structured`` or ``networkx``."""
        return "structured" if self._structure is not None else "networkx"

    # -- link state ---------------------------------------------------------

    def mark_link(self, a: str, b: str, up: bool) -> None:
        """Fabric hook: a link changed state."""
        edge = frozenset((a, b))
        pristine = self.topology.graph
        if up:
            self._down_edges.discard(edge)
            if not self._work_graph.has_edge(a, b) and pristine.has_edge(a, b):
                self._work_graph.add_edge(a, b, **pristine.edges[a, b])
        else:
            self._down_edges.add(edge)
            if self._work_graph.has_edge(a, b):
                self._work_graph.remove_edge(a, b)
        for key in self._pairs_by_link.pop(edge, ()):
            self._live_groups.pop(key, None)
        self._nx_cache.clear()

    @property
    def graph(self) -> nx.Graph:
        """The live working graph (pristine wiring minus failed links)."""
        return self._work_graph

    # -- path computation ---------------------------------------------------

    def shortest_paths(self, src: str, dst: str) -> List[List[str]]:
        """All shortest ``src -> dst`` paths on the working graph, sorted.

        Raises :class:`NoRouteError` when none exist.  Used by resolve()
        and by the cross-backend equivalence tests.
        """
        group, prefix, suffix = self.path_group(src, dst)
        return [prefix + list(path) + suffix for path in group]

    def path_group(
        self, src: str, dst: str
    ) -> Tuple[List[List[str]], List[str], List[str]]:
        """The shortest-path set as (shared core paths, prefix, suffix).

        On the structured fast path the core paths are the cached
        attach-pair group and prefix/suffix carry the host access hops;
        the fallback returns full endpoint paths with empty affixes.
        Sorting the core group sorts the full set: the affixes are
        common to every member.
        """
        structure = self._structure
        if structure is not None:
            resolved = self._structured_group(structure, src, dst)
            if resolved is not None:
                return resolved
        key = (src, dst)
        paths = self._nx_cache.get(key)
        if paths is None:
            try:
                paths = sorted(
                    [list(p) for p in nx.all_shortest_paths(self._work_graph, src, dst)]
                )
            except (nx.NetworkXNoPath, nx.NodeNotFound):
                raise NoRouteError(f"no path from {src!r} to {dst!r}") from None
            self._nx_cache[key] = paths
        return paths, [], []

    def _structured_group(
        self, structure: StructuredPaths, src: str, dst: str
    ) -> Optional[Tuple[List[List[str]], List[str], List[str]]]:
        """Structured fast path; ``None`` defers the pair to networkx."""
        down = self._down_edges
        if src in structure.levels:
            u, prefix = src, []
        else:
            u = structure.attach.get(src)
            if u is None:
                return None
            if down and frozenset((src, u)) in down:
                # A host's only access cable is down: provably no route.
                raise NoRouteError(f"no path from {src!r} to {dst!r}")
            prefix = [src]
        if dst in structure.levels:
            v, suffix = dst, []
        else:
            v = structure.attach.get(dst)
            if v is None:
                return None
            if down and frozenset((dst, v)) in down:
                raise NoRouteError(f"no path from {src!r} to {dst!r}")
            suffix = [dst]
        group = self._live_group(structure, u, v)
        if not group:
            return None
        return group, prefix, suffix

    def _live_group(
        self, structure: StructuredPaths, u: str, v: str
    ) -> Optional[List[List[str]]]:
        """The attach-pair group filtered by failed links, cached.

        The pristine group is permanent (see StructuredPaths); this live
        view is evicted by mark_link via the per-link pair index.  An
        entry of ``None``/empty means "networkx territory" -- either the
        enumeration was incomplete or failures emptied the filter (the
        working graph may hold longer paths the pristine set lacks).
        """
        key = (u, v)
        try:
            return self._live_groups[key]
        except KeyError:
            pass
        pristine = structure.group(u, v)
        if pristine is None:
            live: Optional[List[List[str]]] = None
        elif not self._down_edges:
            live = pristine
        else:
            down = self._down_edges
            live = [
                path
                for path in pristine
                if not any(
                    frozenset((path[i], path[i + 1])) in down
                    for i in range(len(path) - 1)
                )
            ]
        if pristine:
            # Index by *pristine* hops: a failure on any of them can
            # shrink this entry, and a repair can grow it back.
            index = self._pairs_by_link
            for path in pristine:
                for i in range(len(path) - 1):
                    index.setdefault(
                        frozenset((path[i], path[i + 1])), set()
                    ).add(key)
        self._live_groups[key] = live
        return live


class _StaticBase:
    """A PathService shell around :class:`PathCache`."""

    def __init__(
        self, sim: Simulator, topology: Topology, structured: bool = True
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.paths = PathCache(topology, structured)

    @property
    def backend(self) -> str:
        """Which engine answers path queries: ``structured`` or ``networkx``."""
        return self.paths.backend

    def mark_link(self, a: str, b: str, up: bool) -> None:
        """Fabric hook: a link changed state."""
        self.paths.mark_link(a, b, up)

    def shortest_paths(self, src: str, dst: str) -> List[List[str]]:
        return self.paths.shortest_paths(src, dst)

    # -- signal helpers -----------------------------------------------------

    def _fail(self, src: str, dst: str) -> Signal:
        signal = Signal(self.sim, name=f"route:{src}->{dst}")
        signal.fail(NoRouteError(f"no path from {src!r} to {dst!r}"))
        return signal

    def _immediate(self, path: List[str]) -> Signal:
        signal = Signal(self.sim, name="route")
        signal.succeed(path)
        return signal


class ShortestPathRouting(_StaticBase):
    """Deterministic single shortest path per (src, dst).

    This is the non-SDN baseline: every flow between the same endpoints
    takes the same path, so multi-root redundancy goes unused -- exactly
    the behaviour SDN traffic engineering improves on in experiment C3.
    The canonical choice is the lexicographically-first shortest path,
    which both the structured engine and the networkx fallback produce
    identically.
    """

    def resolve(self, src: str, dst: str, flow_key: Hashable = None) -> Signal:
        if src == dst:
            return self._immediate([src])
        try:
            group, prefix, suffix = self.paths.path_group(src, dst)
        except NoRouteError:
            return self._fail(src, dst)
        return self._immediate(prefix + list(group[0]) + suffix)


class EcmpRouting(_StaticBase):
    """Equal-cost multi-path: hash the flow key over all shortest paths.

    Models per-flow ECMP as deployed in real DCs: each flow picks one of
    the equal-cost paths by a deterministic hash, so distinct flows spread
    across the multi-root tree but a single elephant flow still collides.
    """

    def resolve(self, src: str, dst: str, flow_key: Hashable = None) -> Signal:
        if src == dst:
            return self._immediate([src])
        try:
            group, prefix, suffix = self.paths.path_group(src, dst)
        except NoRouteError:
            return self._fail(src, dst)
        digest = hashlib.sha256(repr((src, dst, flow_key)).encode()).digest()
        index = int.from_bytes(digest[:4], "big") % len(group)
        return self._immediate(prefix + list(group[index]) + suffix)


def path_links(path: Sequence[str]) -> list[tuple[str, str]]:
    """Expand a node path into its ordered directed hops."""
    return [(path[i], path[i + 1]) for i in range(len(path) - 1)]

"""Controller applications: the policies centralised control enables.

The paper (§IV) argues SDN's "global view of the network will enhance
overall resource management ... with finer granularity management
policies".  These apps are those policies:

* :class:`ShortestPathApp` -- deterministic baseline.
* :class:`EcmpHashApp` -- per-flow hashing across equal-cost paths.
* :class:`LeastCongestedPathApp` -- uses the controller's live link-stats
  view to place each new flow on the least-loaded candidate path.  Only a
  centralised control plane can do this; it is the experiment-C3 winner.
* :class:`ElephantRerouter` -- a Hedera-style background process that
  periodically moves the biggest flows off congested links.
"""

from __future__ import annotations

import hashlib
from itertools import islice
from typing import List, Optional

import networkx as nx

from repro.errors import NoRouteError
from repro.netsim.fabric import Network
from repro.netsim.routing import path_links
from repro.sim.kernel import Simulator
from repro.sim.process import Timeout

# Longer-than-shortest alternatives the least-congested app also scores.
EXTRA_PATHS = 2


def congestion_score(direction) -> float:
    """How congested a directed link is, in [0, ~1]: the max of its
    utilisation and (under a cc rate model) its queue occupancy fraction.

    Under max-min no queue state exists and this is *exactly* the
    utilisation gauge -- the historic score, bit-for-bit.  Under cc,
    every saturated direction pins near utilisation 1.0, so the standing
    queue is what distinguishes an actually-overloaded link from one
    merely running full; folding it in lets the TE apps A/B cleanly
    across congestion-control protocols.
    """
    score = direction.utilization.value
    queue = direction.queue
    if queue is not None and queue.limit_bytes > 0:
        fraction = queue.occupancy / queue.limit_bytes
        if fraction > score:
            score = fraction
    return score


class ShortestPathApp:
    """Always the lexicographically-first shortest path (static baseline)."""

    def compute_path(self, graph, src, dst, flow_key, controller):
        return controller.paths.shortest_paths(src, dst)[0]


class EcmpHashApp:
    """Hash the flow key across all equal-cost shortest paths."""

    def compute_path(self, graph, src, dst, flow_key, controller):
        paths = controller.paths.shortest_paths(src, dst)
        digest = hashlib.sha256(repr((src, dst, flow_key)).encode()).digest()
        return paths[int.from_bytes(digest[:4], "big") % len(paths)]


class LeastCongestedPathApp:
    """Global-view traffic engineering: pick the least-loaded candidate.

    Considers all equal-cost shortest paths plus up to ``EXTRA_PATHS``
    longer alternatives, scores each by the maximum current utilisation of
    its directed links (read live from the fabric), and picks the minimum.
    Requires ``controller.attach_network(...)`` to have been called.
    """

    def compute_path(self, graph, src, dst, flow_key, controller):
        candidates = controller.paths.shortest_paths(src, dst)
        try:
            longer = islice(
                nx.shortest_simple_paths(graph, src, dst),
                len(candidates) + EXTRA_PATHS,
            )
            merged = {tuple(p) for p in candidates}
            for path in longer:
                merged.add(tuple(path))
            candidates = sorted([list(p) for p in merged], key=lambda p: (len(p), p))
        except (nx.NetworkXNoPath, nx.NodeNotFound):
            raise NoRouteError(f"no path from {src!r} to {dst!r}") from None
        network: Optional[Network] = controller.network
        if network is None:
            return candidates[0]
        # Rates from churn earlier in this same instant are applied by a
        # deferred solve; flush it so the scores below read current loads.
        network.sync()

        def worst_utilization(path: List[str]) -> float:
            worst = 0.0
            for a, b in path_links(path):
                worst = max(worst, congestion_score(network.direction(a, b)))
            return worst

        return min(candidates, key=lambda p: (worst_utilization(p), len(p), p))


class ElephantRerouter:
    """Hedera-style background TE: move big flows off congested links.

    Every ``interval`` seconds, scans the fabric for directed links above
    ``congestion_threshold``; for the largest flow on each, asks the
    controller's app for a better path and reroutes if one is found.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        controller,
        interval: float = 1.0,
        congestion_threshold: float = 0.9,
        min_flow_bytes: float = 1e6,
    ) -> None:
        self.sim = sim
        self.network = network
        self.controller = controller
        self.interval = interval
        self.congestion_threshold = congestion_threshold
        self.min_flow_bytes = min_flow_bytes
        self.reroutes = 0
        self._stopped = False
        self._process = sim.process(self._run(), name="elephant-rerouter")

    def stop(self) -> None:
        self._stopped = True
        self._process.interrupt("rerouter stopped")

    def _run(self):
        while not self._stopped:
            yield Timeout(self.sim, self.interval)
            self._scan_once()

    def _scan_once(self) -> None:
        self.network.sync()
        for flow in self._elephants_on_hot_links():
            # Each reroute defers its fair-share solve to the end of the
            # instant; flush so this iteration scores *post*-reroute loads
            # instead of re-stacking flows onto a link that only looks idle.
            self.network.sync()
            try:
                candidates = self.controller.paths.shortest_paths(flow.src, flow.dst)
            except NoRouteError:
                continue

            def worst(path: List[str]) -> float:
                return max(
                    (
                        congestion_score(self.network.direction(a, b))
                        for a, b in path_links(path)
                        # A link's own contribution from this flow is
                        # unavoidable on its first/last hop; still counts.
                    ),
                    default=0.0,
                )

            best = min(candidates, key=lambda p: (worst(p), p))
            if best != flow.path and worst(best) < self._flow_worst(flow):
                self.network.reroute(flow, best)
                self.controller.install_path(best, idle_timeout=60.0)
                self.reroutes += 1

    def _flow_worst(self, flow) -> float:
        return max(
            (congestion_score(d) for d in flow.directions), default=0.0
        )

    def _elephants_on_hot_links(self):
        seen = set()
        for link in self.network.links():
            for direction in (link.forward, link.reverse):
                if congestion_score(direction) < self.congestion_threshold:
                    continue
                big = [
                    f for f in direction.flows
                    if f.size >= self.min_flow_bytes and f.flow_id not in seen
                ]
                # flow_id tie-break: direction.flows is a set, and
                # equal-sized flows (fluid load aggregates) are common.
                big.sort(key=lambda f: (-f.remaining, f.flow_id))
                for flow in big[:1]:  # one per hot link per scan
                    seen.add(flow.flow_id)
                    yield flow

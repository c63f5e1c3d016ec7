"""Trace capture and model calibration: closing the testbed->simulator loop.

§IV: "We also anticipate that results from testbed experiments can be fed
back into the improvement of Cloud simulation and modelling processes."
This module is that feedback path:

1. :class:`TraceRecorder` captures every completed flow on the fabric
   (start time, endpoints, size, duration) during a real workload run.
2. :class:`FittedWorkload` fits a generative model to the trace -- the
   empirical flow-size distribution (inverse-CDF sampling), the Poisson
   arrival rate, and the src/dst traffic matrix.
3. :meth:`FittedWorkload.replay` drives any fabric (same cloud, a bigger
   cloud, a different topology) with synthetic traffic drawn from the
   fitted model -- the "realistic traffic patterns" a standalone
   simulator lacks.

Fidelity of the fit is checked by :func:`compare_link_profiles`, which
contrasts per-link mean utilisation between the original and replayed
runs.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.netsim.fabric import FlowState, FlowTransfer, Network
from repro.sim.process import Timeout

# A capture keeps completed flows only; a failed flow carries no duration.
RECORD_FAILED_FLOWS = False
# Smallest flow (bytes) a fit keeps.
MIN_FIT_SIZE = 1.0
# Replayed arrival rate relative to the fitted one.
REPLAY_RATE_SCALE = 1.0
# Fabric tag of every replayed flow.
REPLAY_TAG = "replay"


@dataclass(frozen=True)
class FlowRecord:
    """One captured flow."""

    started_at: float
    completed_at: float
    src: str
    dst: str
    size: float
    duration: float
    tag: str
    ok: bool


class TraceRecorder:
    """Subscribes to a fabric and captures completed flows."""

    def __init__(self, network: Network) -> None:
        self.network = network
        self.records: List[FlowRecord] = []
        self._attached = False
        self.attach()

    def attach(self) -> None:
        if not self._attached:
            self.network.flow_observers.append(self._observe)
            self._attached = True

    def _observe(self, flow: FlowTransfer) -> None:
        ok = flow.state is FlowState.DONE
        if not ok and not RECORD_FAILED_FLOWS:
            return
        self.records.append(FlowRecord(
            started_at=flow.requested_at,
            completed_at=flow.completed_at if ok else self.network.sim.now,
            src=flow.src,
            dst=flow.dst,
            size=flow.size,
            duration=flow.duration if ok else 0.0,
            tag=flow.tag,
            ok=ok,
        ))

    def __len__(self) -> int:
        return len(self.records)

    @property
    def span_s(self) -> float:
        """Time between the first and last captured flow starts."""
        if len(self.records) < 2:
            return 0.0
        starts = [r.started_at for r in self.records]
        return max(starts) - min(starts)


class FittedWorkload:
    """A generative traffic model fitted to a trace."""

    def __init__(
        self,
        sizes: List[float],
        arrival_rate_per_s: float,
        matrix: Dict[Tuple[str, str], float],
    ) -> None:
        if not sizes:
            raise ValueError("cannot fit a workload to zero flows")
        if arrival_rate_per_s <= 0:
            raise ValueError("arrival rate must be positive")
        if not matrix:
            raise ValueError("empty traffic matrix")
        self.sizes = sorted(sizes)
        self.arrival_rate_per_s = arrival_rate_per_s
        # Normalised (src, dst) -> probability.
        total = sum(matrix.values())
        self.matrix = {pair: weight / total for pair, weight in matrix.items()}
        self._pairs = sorted(self.matrix)
        self._cumulative: List[float] = []
        acc = 0.0
        for pair in self._pairs:
            acc += self.matrix[pair]
            self._cumulative.append(acc)

    # -- fitting --------------------------------------------------------------

    @classmethod
    def from_trace(cls, trace: TraceRecorder) -> "FittedWorkload":
        """Fit sizes, rate and matrix to the recorder's capture."""
        usable = [r for r in trace.records if r.ok and r.size >= MIN_FIT_SIZE]
        if len(usable) < 2:
            raise ValueError(f"need >= 2 usable flows, have {len(usable)}")
        span = trace.span_s or 1.0
        matrix: Dict[Tuple[str, str], float] = {}
        for record in usable:
            key = (record.src, record.dst)
            matrix[key] = matrix.get(key, 0.0) + 1.0
        return cls(
            sizes=[r.size for r in usable],
            arrival_rate_per_s=len(usable) / span,
            matrix=matrix,
        )

    # -- sampling --------------------------------------------------------------

    def sample_size(self, rng: random.Random) -> float:
        """Inverse-CDF draw from the empirical size distribution, with
        linear interpolation between order statistics."""
        position = rng.random() * (len(self.sizes) - 1)
        low = int(position)
        frac = position - low
        if low + 1 >= len(self.sizes):
            return self.sizes[-1]
        return self.sizes[low] * (1 - frac) + self.sizes[low + 1] * frac

    def sample_pair(self, rng: random.Random) -> Tuple[str, str]:
        index = bisect.bisect_left(self._cumulative, rng.random())
        index = min(index, len(self._pairs) - 1)
        return self._pairs[index]

    # -- replay -----------------------------------------------------------------

    def replay(
        self,
        network: Network,
        duration_s: float,
        rng: Optional[random.Random] = None,
    ):
        """Drive ``network`` with fitted traffic for ``duration_s``.

        Returns the spawning Process; the flows it creates run to
        completion on their own.  Endpoints absent from the target
        topology are skipped (with a counter), so a model fitted on one
        cloud can replay onto a differently-sized one.
        """
        rng = rng or random.Random(0)
        stats = {"launched": 0, "skipped": 0}
        rate = self.arrival_rate_per_s * REPLAY_RATE_SCALE

        def run():
            deadline = network.sim.now + duration_s
            while network.sim.now < deadline:
                yield Timeout(network.sim, rng.expovariate(rate))
                src, dst = self.sample_pair(rng)
                if (src not in network.topology.graph
                        or dst not in network.topology.graph):
                    stats["skipped"] += 1
                    continue
                network.transfer(src, dst, self.sample_size(rng),
                                 tag=REPLAY_TAG)
                stats["launched"] += 1

        process = network.sim.process(run(), name="replay")
        process.stats = stats  # type: ignore[attr-defined]
        return process


def link_utilization_profile(network: Network) -> Dict[str, float]:
    """Per-direction mean utilisation so far (the comparison fingerprint)."""
    profile = {}
    for link in network.links():
        for direction in (link.forward, link.reverse):
            profile[direction.name] = direction.mean_utilization()
    return profile


def compare_link_profiles(
    original: Dict[str, float], replayed: Dict[str, float]
) -> float:
    """Mean absolute utilisation difference across shared directions.

    0.0 = identical profiles; the replay-fidelity headline number.
    """
    shared = set(original) & set(replayed)
    if not shared:
        raise ValueError("profiles share no link directions")
    return sum(abs(original[d] - replayed[d]) for d in shared) / len(shared)

"""The fluid session model: profiles, services, and demand aggregates.

A *session* is one user's stay on a service: it issues requests at a
steady per-session rate for an (exponentially distributed, fluid) stay.
The engine never materialises sessions individually -- it tracks a
fractional *count* of concurrent sessions per (service, region) and
splits that count across (client edge switch, replica host) pairs, the
same way PR 5's routing engine batched paths per ToR pair.  One epoch
of one aggregate becomes at most one fabric flow, so kernel events
scale with ``aggregates x epochs``, never with users.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.load.slo import SloObjective
from repro.units import kib, mbit_per_s


@dataclass(frozen=True)
class ServiceProfile:
    """What one session of a service asks of the infrastructure.

    ``burst_rate`` is the nominal serialization rate of a single
    request's response when the fabric is idle (client NIC / pacing
    limit); congestion stretches the transfer component of latency
    above this baseline.  ``think_time`` effects are already folded
    into ``requests_per_session_per_s``.
    """

    request_bytes: float = 2 * kib(1)
    response_bytes: float = 32 * kib(1)
    requests_per_session_per_s: float = 0.5
    session_duration_s: float = 60.0
    service_time_s: float = 2e-3
    burst_rate: float = mbit_per_s(25)

    def __post_init__(self) -> None:
        if self.response_bytes <= 0 or self.request_bytes < 0:
            raise ConfigurationError("request/response bytes must be positive")
        if self.requests_per_session_per_s <= 0:
            raise ConfigurationError("requests_per_session_per_s must be > 0")
        if self.session_duration_s <= 0:
            raise ConfigurationError("session_duration_s must be > 0")
        if self.service_time_s < 0:
            raise ConfigurationError("service_time_s must be >= 0")
        if self.burst_rate <= 0:
            raise ConfigurationError("burst_rate must be > 0")


@dataclass
class Service:
    """One load-bearing service: a profile, an SLO, and its replicas.

    Replicas are named either explicitly (``nodes=[...]``, pure netsim
    experiments) or by placement group (``group=...``): the engine then
    asks the pimaster for the containers in that group each epoch and
    resolves each one through DNS, so consolidation moves, respawns and
    autoscaling are picked up live -- exactly the naming-policy loop
    the paper's management plane exists for.
    """

    name: str
    profile: ServiceProfile = field(default_factory=ServiceProfile)
    slo: SloObjective = field(default_factory=SloObjective)
    weight: float = 1.0
    nodes: Optional[List[str]] = None
    group: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("service needs a name")
        if self.weight <= 0:
            raise ConfigurationError(
                f"service {self.name!r}: weight must be > 0"
            )
        if self.nodes is not None and not self.nodes:
            raise ConfigurationError(
                f"service {self.name!r}: nodes list cannot be empty"
            )
        if self.nodes is None and self.group is None:
            self.group = self.name


class SessionPool:
    """Fluid concurrent-session accounting for one (service, region).

    Arrivals add to the count; departures drain it exponentially at
    ``1/session_duration`` per second (the fluid limit of exponential
    session lifetimes).  Counts are fractional -- a million users and
    half a user cost the same arithmetic.
    """

    __slots__ = ("service", "region", "sessions", "arrived_total")

    def __init__(self, service: Service, region: str) -> None:
        self.service = service
        self.region = region
        self.sessions = 0.0
        self.arrived_total = 0.0

    def step(self, arrivals: float, dt: float) -> None:
        """Advance one epoch: add arrivals, drain departures."""
        self.arrived_total += arrivals
        duration = self.service.profile.session_duration_s
        # Exact fluid solution of n' = a/dt - n/D over the epoch.
        decay = pow(2.718281828459045, -dt / duration)
        inflow_rate = arrivals / dt if dt > 0 else 0.0
        steady = inflow_rate * duration
        self.sessions = steady + (self.sessions - steady) * decay


@dataclass
class Aggregate:
    """Per-(service, client edge switch, replica host) demand bucket.

    ``outstanding`` counts epoch flows still in flight -- the open-loop
    backpressure signal: past ``backlog_epochs`` the engine sheds the
    epoch's requests instead of queueing more flows.
    """

    service: Service
    client_edge: str
    replica_node: str
    outstanding: int = 0
    shed_requests: float = 0.0
    rtt_s: Optional[float] = None      # learned from the first flow

    @property
    def key(self) -> Tuple[str, str, str]:
        return (self.service.name, self.client_edge, self.replica_node)


def spread(total: float, buckets: int) -> List[float]:
    """Split a fluid count evenly over ``buckets`` (deterministic)."""
    if buckets <= 0:
        return []
    share = total / buckets
    return [share] * buckets


def partition_regions(
    edges: List[str], regions: List[str]
) -> Dict[str, List[str]]:
    """Deterministic default region map: round-robin sorted edges."""
    if not regions:
        raise ConfigurationError("need at least one region")
    out: Dict[str, List[str]] = {region: [] for region in sorted(regions)}
    names = sorted(regions)
    for index, edge in enumerate(sorted(edges)):
        out[names[index % len(names)]].append(edge)
    empty = [r for r, e in out.items() if not e]
    if empty:
        raise ConfigurationError(
            f"more regions than client edge switches: {empty} got none"
        )
    return out

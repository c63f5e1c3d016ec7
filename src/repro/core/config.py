"""Configuration for a PiCloud build.

The defaults reproduce the paper's testbed exactly: 4 racks x 14
Raspberry Pi Model B boards (56 total), a canonical multi-root tree with
two OpenFlow-enabled aggregation switches and a gateway/border router,
100 Mb/s host links, and a pimaster head node hanging off the gateway.

:class:`PiCloudConfig` is keyword-only and groups cross-cutting concerns
into sub-configs:

* :class:`SimBudgetConfig` (``budget=``) -- kernel run budgets/watchdog.
* :class:`HealthConfig` (``health=``) -- the self-healing control plane.
* :class:`TraceConfig` (``trace=``) -- cross-layer causal tracing.
* :class:`RateModelConfig` (``rate_model=``) -- fabric rate assignment
  (instantaneous max-min vs per-flow congestion control).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.hardware.catalog import RASPBERRY_PI_MODEL_B
from repro.hardware.specs import MachineSpec
from repro.netsim.sdn.controller import MATCH_GRANULARITIES
from repro.sim.budget import SimBudgetConfig
from repro.units import gbit_per_s, mbit_per_s

ROUTING_MODES = (
    "shortest",             # static single shortest path (non-SDN baseline)
    "ecmp",                 # static per-flow ECMP hashing (non-SDN)
    "sdn-shortest",         # OpenFlow reactive, shortest-path app
    "sdn-ecmp",             # OpenFlow reactive, ECMP app (per-flow rules)
    "sdn-least-congested",  # OpenFlow reactive, global-view TE app
)

TOPOLOGY_KINDS = ("multi-root-tree", "fat-tree")


@dataclass(frozen=True, kw_only=True)
class HealthConfig:
    """The pimaster's self-healing control plane.

    When ``enabled``, the heartbeat failure detector starts at boot:
    nodes missing ``suspect_after_misses`` consecutive heartbeats become
    SUSPECT, ``dead_after_misses`` DEAD; a dead node's containers are
    evacuated (respawned elsewhere via the placement policy, bounded
    queue + per-container retry budget, see :mod:`repro.mgmt.recovery`).
    Per-node circuit breakers (:class:`repro.mgmt.health.CircuitBreaker`)
    open after consecutive transport failures and half-open after a
    reset timeout.
    """

    enabled: bool = False
    heartbeat_interval_s: float = 2.0
    heartbeat_timeout_s: float = 1.0
    suspect_after_misses: int = 2
    dead_after_misses: int = 4
    # Gen-2 detector (partition-aware).  When unreachable_grace_s > 0,
    # accrued dead_after_misses puts a node in UNREACHABLE instead of
    # DEAD: the detector asks alive peers to probe it (witnesses), and
    # only declares DEAD (triggering evacuation) when no witness can
    # reach it either AND the grace period has elapsed.  0.0 keeps the
    # legacy binary detector exactly.  ``fencing`` stamps every spawn
    # with a monotone epoch so daemons reject stale ops and the pimaster
    # can reconcile duplicate containers deterministically after a
    # partition heals (newest epoch wins).
    unreachable_grace_s: float = 0.0
    fencing: bool = False

    def __post_init__(self) -> None:
        if self.heartbeat_interval_s <= 0:
            raise ConfigurationError(
                f"heartbeat_interval_s must be > 0, got {self.heartbeat_interval_s}"
            )
        if self.heartbeat_timeout_s <= 0:
            raise ConfigurationError(
                f"heartbeat_timeout_s must be > 0, got {self.heartbeat_timeout_s}"
            )
        if self.suspect_after_misses < 1:
            raise ConfigurationError(
                "suspect_after_misses must be >= 1, "
                f"got {self.suspect_after_misses}"
            )
        if self.dead_after_misses <= self.suspect_after_misses:
            raise ConfigurationError(
                "dead_after_misses must exceed suspect_after_misses "
                f"(got {self.dead_after_misses} <= {self.suspect_after_misses})"
            )
        if self.unreachable_grace_s < 0:
            raise ConfigurationError(
                "unreachable_grace_s must be >= 0, "
                f"got {self.unreachable_grace_s}"
            )


@dataclass(frozen=True, kw_only=True)
class TraceConfig:
    """Cross-layer causal tracing (see ``docs/tracing.md``).

    When ``enabled``, a :class:`repro.trace.Tracer` is installed on the
    simulator at build time and every layer's spans (rest/mgmt/virt/net)
    are recorded.  ``kernel_events`` additionally logs each kernel event
    dispatch as an instant on a "sim.kernel" track (bounded; expensive --
    debug only).
    """

    enabled: bool = False
    kernel_events: bool = False


RATE_MODELS = ("maxmin", "cc")
CC_PROTOCOLS = ("reno", "dctcp", "delay")


@dataclass(frozen=True, kw_only=True)
class RateModelConfig:
    """How the fabric assigns rates to flows (see ``docs/performance.md``).

    ``model="maxmin"`` (the default) is the instantaneous max-min fair
    share: stateless, event-driven, byte-identical to every release
    since the fabric existed, and the cheapest option.  ``model="cc"``
    runs per-flow congestion control (:mod:`repro.netsim.cc`): each flow
    keeps a window updated every epoch by ``protocol`` -- ``reno``
    (loss-driven AIMD), ``dctcp`` (ECN-fraction EWMA) or ``delay``
    (smoothed-RTT backoff) -- against per-link-direction queues that
    mark ECN above a threshold and signal loss on overflow.  The epoch,
    buffer and protocol constants are module constants of
    :mod:`repro.netsim.cc`, tuned for the paper's fabric.
    """

    model: str = "maxmin"
    protocol: str = "reno"

    def __post_init__(self) -> None:
        if self.model not in RATE_MODELS:
            raise ConfigurationError(
                f"unknown rate model {self.model!r}; use one of {RATE_MODELS}"
            )
        if self.protocol not in CC_PROTOCOLS:
            raise ConfigurationError(
                f"unknown cc protocol {self.protocol!r}; "
                f"use one of {CC_PROTOCOLS}"
            )

    def build(self):
        """Instantiate the configured rate model (None = fabric default)."""
        if self.model == "maxmin":
            return None
        from repro.netsim.cc import CcRateModel

        return CcRateModel(self)


@dataclass(kw_only=True)
class PiCloudConfig:
    """All the knobs.  Defaults = the paper's 56-Pi deployment.

    Keyword-only.  Budget, self-healing and tracing knobs live in the
    ``budget`` / ``health`` / ``trace`` sub-configs.
    """

    # -- machines ---------------------------------------------------------
    num_racks: int = 4
    pis_per_rack: int = 14
    machine_spec: MachineSpec = RASPBERRY_PI_MODEL_B

    # -- network -------------------------------------------------------------
    topology: str = "multi-root-tree"
    num_roots: int = 2               # aggregation roots (multi-root tree)
    fat_tree_k: int = 4              # arity when topology == "fat-tree"
    host_bandwidth: float = mbit_per_s(100)
    uplink_bandwidth: float = gbit_per_s(1)
    routing: str = "sdn-shortest"
    sdn_control_latency_s: float = 1e-3
    sdn_match_granularity: str = "pair"
    congestion_threshold: float = 0.9
    # Incremental fair-share recomputation: each flow arrival/completion
    # re-solves only the affected bottleneck component instead of the
    # whole fabric.  False selects the exact-fallback full solve (the
    # pre-optimisation behaviour; same rates, much slower at scale).
    incremental_fairness: bool = True
    # Structured routing: answer path queries from the analytic fat-tree /
    # multi-root-tree engine (repro.netsim.structured) instead of per-pair
    # graph searches.  Both backends return identical paths; False forces
    # the networkx reference implementation everywhere (debug/verification
    # knob, also used by the equivalence tests).
    structured_routing: bool = True

    # -- management --------------------------------------------------------------
    subnet: str = "10.0.0.0/16"
    dns_zone: str = "picloud.dcs.gla.ac.uk"
    monitoring_interval_s: float = 5.0
    start_monitoring: bool = True
    # Management-plane operation guard: container start/stop/migrate and
    # other REST orchestration time out after op_deadline_s (simulated)
    # per attempt (retries: repro.mgmt.pimaster.OP_ATTEMPTS).  Management
    # calls can legitimately take minutes (an image push moves hundreds
    # of MiB across the fabric onto an SD card), so the deadline
    # defaults generous.
    op_deadline_s: float = 1800.0

    # -- grouped sub-configs ----------------------------------------------
    budget: SimBudgetConfig = field(default_factory=SimBudgetConfig)
    health: HealthConfig = field(default_factory=HealthConfig)
    trace: TraceConfig = field(default_factory=TraceConfig)
    rate_model: RateModelConfig = field(default_factory=RateModelConfig)

    # -- reproducibility --------------------------------------------------------------
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_racks < 1 or self.pis_per_rack < 1:
            raise ConfigurationError("need at least one rack with one Pi")
        if self.op_deadline_s <= 0:
            raise ConfigurationError(f"op_deadline_s must be > 0, got {self.op_deadline_s}")
        if self.topology not in TOPOLOGY_KINDS:
            raise ConfigurationError(
                f"unknown topology {self.topology!r}; use one of {TOPOLOGY_KINDS}"
            )
        if self.routing not in ROUTING_MODES:
            raise ConfigurationError(
                f"unknown routing {self.routing!r}; use one of {ROUTING_MODES}"
            )
        if self.sdn_match_granularity not in MATCH_GRANULARITIES:
            raise ConfigurationError(
                f"unknown sdn_match_granularity {self.sdn_match_granularity!r}; "
                f"use one of {MATCH_GRANULARITIES}"
            )
        if self.topology == "fat-tree":
            capacity = self.fat_tree_k ** 3 // 4
            if self.node_count > capacity:
                raise ConfigurationError(
                    f"fat-tree k={self.fat_tree_k} holds {capacity} hosts; "
                    f"config asks for {self.node_count}"
                )

    @property
    def node_count(self) -> int:
        return self.num_racks * self.pis_per_rack

    def run_budget(self):
        """The configured kernel budget, or None when fully unbounded."""
        return self.budget.run_budget()

    @classmethod
    def small(cls, racks: int = 2, pis: int = 3, **overrides) -> "PiCloudConfig":
        """A small cloud for tests and quick experiments."""
        return cls(num_racks=racks, pis_per_rack=pis, **overrides)

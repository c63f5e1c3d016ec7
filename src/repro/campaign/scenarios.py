"""The scenario registry: named, parameterised experiment bodies.

A *scenario* is the per-run body of a campaign: a callable taking a
:class:`RunContext` (merged parameters, seed, per-run
:class:`~repro.core.config.SimBudgetConfig`, artifact directory) and
returning a flat dict of metrics.  Campaign specs name scenarios either
by registered name (the built-ins below) or by dotted path
(``"mypkg.mymod:my_scenario"``), so studies can live outside the
library without forking the runner.

Built-ins:

* ``availability_mtbf`` -- the MTBF node-fault campaign against a
  (optionally self-healing) cloud, measuring fleet availability and the
  recovery plane's counters.

Each built-in returns ``cloud.metrics()`` (the declared ``layer.counter``
metrics of :mod:`repro.telemetry.metrics`) plus its own few extras,
each declared there too.  ``specs/availability_mtbf.yaml`` sweeps
  it; CI's ``chaos-smoke`` job runs that spec.
* ``scale_perf`` -- the consolidation-vs-congestion workload at
  56/224/896/3456 nodes (:func:`measure_scale`, which ``repro scale``
  also runs).  ``specs/cc_consolidation.yaml`` sweeps it against the
  rate model; CI's ``cc-smoke`` job runs that spec.
* ``flashcrowd_slo`` -- a million-user flash crowd through the
  session-level load engine (``repro.load``), static ECMP vs the SDN
  TE arm, reported as p99/p999 latency and SLO error-budget burn.
  ``specs/flashcrowd_slo.yaml`` sweeps it; CI's ``slo-smoke`` job runs
  that spec.
* ``partition_chaos`` -- a network partition isolates one fat-tree pod
  (hosts *and* pod switches) under live session load, sweeping
  partition duration x UNREACHABLE grace x fencing on/off.  Reports
  split-brain accounting (``mgmt.duplicate_container_epochs`` must be
  0 with fencing on), false evacuations, unreachable seconds, and the
  user-visible SLO burn.  ``specs/partition_chaos.yaml`` sweeps it;
  CI's ``partition-smoke`` job runs that spec.

Heavy imports happen inside the scenario bodies so importing
``repro.campaign`` stays cheap.
"""

from __future__ import annotations

import importlib
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from repro.core.config import SimBudgetConfig
from repro.errors import CampaignError

Scenario = Callable[["RunContext"], Dict[str, Any]]

_REGISTRY: Dict[str, Scenario] = {}


@dataclass
class RunContext:
    """Everything one campaign run gets to see."""

    params: Dict[str, Any]
    seed: int
    budget: SimBudgetConfig = field(default_factory=SimBudgetConfig)
    artifacts_dir: Optional[Path] = None
    trace: bool = False
    artifacts: List[str] = field(default_factory=list)

    def param(self, name: str, default: Any = None) -> Any:
        return self.params.get(name, default)

    def artifact_path(self, name: str) -> Path:
        """Reserve an artifact file path (parents created, name recorded)."""
        if self.artifacts_dir is None:
            raise CampaignError("run has no artifacts directory")
        path = self.artifacts_dir / name
        path.parent.mkdir(parents=True, exist_ok=True)
        if name not in self.artifacts:
            self.artifacts.append(name)
        return path


def register_scenario(name: str) -> Callable[[Scenario], Scenario]:
    """Decorator: make a scenario addressable by name from specs."""

    def decorate(fn: Scenario) -> Scenario:
        if name in _REGISTRY:
            raise CampaignError(f"scenario {name!r} already registered")
        _REGISTRY[name] = fn
        return fn

    return decorate


def registered_scenarios() -> List[str]:
    return sorted(_REGISTRY)


def resolve_scenario(ref: str) -> Scenario:
    """A registered name, or a ``"module.path:function"`` dotted ref."""
    if ref in _REGISTRY:
        return _REGISTRY[ref]
    if ":" in ref:
        module_name, _, attr = ref.partition(":")
        try:
            module = importlib.import_module(module_name)
        except ImportError as exc:
            raise CampaignError(
                f"cannot import scenario module {module_name!r}: {exc}"
            ) from exc
        scenario = getattr(module, attr, None)
        if not callable(scenario):
            raise CampaignError(
                f"scenario ref {ref!r} does not name a callable"
            )
        return scenario
    raise CampaignError(
        f"unknown scenario {ref!r}; registered: {registered_scenarios()} "
        f"(or use a 'module:function' dotted ref)"
    )


# -- built-in: MTBF availability --------------------------------------------


@register_scenario("availability_mtbf")
def availability_mtbf(ctx: RunContext) -> Dict[str, Any]:
    """MTBF node faults against a (self-healing) cloud; availability out.

    The per-run body of ``examples/availability_experiment.py``: place a
    baseline web workload, run an exponential node-fault/repair process
    for ``duration_s`` simulated seconds, and report measured fleet
    availability plus ``cloud.metrics()``.
    """
    from repro.core.cloud import PiCloud
    from repro.core.config import HealthConfig, PiCloudConfig, TraceConfig
    from repro.faults import MtbfFaultInjector
    from repro.mgmt.health import NodeHealth

    p = ctx.param
    self_healing = bool(p("self_healing", True))
    duration_s = float(p("duration_s", 600.0))
    mttr_s = float(p("mttr_s", 60.0))
    config = PiCloudConfig.small(
        racks=int(p("racks", 2)), pis=int(p("pis", 3)),
        start_monitoring=False, routing=str(p("routing", "shortest")),
        seed=ctx.seed,
        health=HealthConfig(
            enabled=self_healing,
            heartbeat_interval_s=float(p("heartbeat_interval_s", 2.0)),
            heartbeat_timeout_s=float(p("heartbeat_timeout_s", 1.0)),
            suspect_after_misses=int(p("suspect_after_misses", 2)),
            dead_after_misses=int(p("dead_after_misses", 3)),
        ),
        trace=TraceConfig(enabled=ctx.trace),
        budget=ctx.budget,
    )
    cloud = PiCloud(config)
    cloud.boot()
    try:
        for i in range(int(p("web_containers", 4))):
            cloud.spawn_and_wait("webserver", name=f"web-{i}", group="web")

        window_start = cloud.sim.now
        injector = MtbfFaultInjector(
            cloud, rng=random.Random(ctx.seed),
            node_mtbf_s=float(p("node_mtbf_s", 150.0)),
            mttr_s=mttr_s, duration_s=duration_s,
        )
        cloud.run_for(duration_s + 2 * mttr_s)  # drain repairs/rejoins
        injector.stop()
        window_end = cloud.sim.now

        metrics = cloud.metrics()
        metrics.update({
            "fleet_availability": injector.fleet_availability(
                window_start, window_end
            ),
            "node_failures": sum(
                1 for e in injector.log if e.kind == "node-fail"
            ),
            "node_repairs": sum(
                1 for e in injector.log if e.kind == "node-repair"
            ),
            "nodes_alive": len(cloud.pimaster.health.nodes_in(NodeHealth.ALIVE))
            if self_healing else sum(
                1 for n in cloud.node_names if cloud.machines[n].is_on
            ),
            "sim_time_s": cloud.sim.now,
        })
        return metrics
    finally:
        if ctx.trace and cloud.tracer is not None:
            cloud.write_trace(str(ctx.artifact_path("trace.jsonl")))


# -- built-in: scale/perf envelope ------------------------------------------

# nodes -> (racks, pis_per_rack, fat-tree k).  k**3/4 must hold the nodes.
SCALES = {
    56: (4, 14, 8),
    224: (16, 14, 10),
    896: (64, 14, 16),
    3456: (216, 16, 24),
}
# Chatty container pairs per scale: enough concurrent flows to make the
# fair-share solver the hot path, bounded so the 896-node run stays in
# CI-able territory (each spawn costs a fleet-wide placement scan --
# O(nodes) REST exchanges).
PAIRS = {56: 6, 224: 12, 896: 16, 3456: 20}

WARMUP_S = 30.0
SETTLE_S = 60.0
MEASURE_S = 30.0


def measure_scale(
    nodes: int,
    seed: Optional[int] = None,
    budget: Optional[SimBudgetConfig] = None,
    pairs: Optional[int] = None,
    rate_model: str = "maxmin",
    protocol: str = "reno",
    consolidate: bool = True,
) -> Dict[str, Any]:
    """Build, load, and drive the consolidation scenario at ``nodes``.

    The one body behind both the ``scale_perf`` campaign scenario and
    ``repro scale``.  ``wall_s``, ``setup_wall_s`` and ``events_per_s``
    are host timings; every other value reproduces on a same-seed
    rerun.  The repository's performance benchmark is ``bench/``.

    ``rate_model``/``protocol`` select the fabric's rate assignment
    (``specs/cc_consolidation.yaml`` sweeps them against the
    consolidation round); ``consolidate=False`` skips the consolidation
    round so its congestion cost can be isolated.  The defaults are the
    exact baseline workload -- byte-identical to every previous release.
    """
    from repro.core.cloud import PiCloud
    from repro.core.config import PiCloudConfig, RateModelConfig
    from repro.core.experiments import chatty_pairs
    from repro.placement import Consolidator, WorstFit
    from repro.units import kib

    if nodes not in SCALES:
        raise CampaignError(
            f"unknown scale {nodes}; known: {sorted(SCALES)}"
        )
    racks, pis, k = SCALES[nodes]
    pair_count = PAIRS[nodes] if pairs is None else int(pairs)
    if pair_count < 1:
        raise CampaignError(f"pairs must be >= 1, got {pair_count}")

    setup_start = time.monotonic()
    config = PiCloudConfig(
        num_racks=racks, pis_per_rack=pis,
        topology="fat-tree", fat_tree_k=k,
        routing="ecmp",
        rate_model=RateModelConfig(model=rate_model, protocol=protocol),
        seed=nodes if seed is None else seed,
        start_monitoring=True,
        budget=budget or SimBudgetConfig(),
    )
    cloud = PiCloud(config)
    cloud.boot()

    # Setup: spread container pairs wide, wire on/off traffic sources.
    # Untimed in wall_s -- each spawn triggers a fleet-wide placement scan.
    for i in range(2 * pair_count):
        cloud.spawn_and_wait("base", name=f"c{i}", policy=WorstFit())
    # 20 sends/s x 64 KiB = 1.3 MB/s offered per pair: high flow churn,
    # light enough that post-consolidation sharing congests transiently
    # instead of collapsing into a growing backlog.
    pair_names = [(f"c{i}", f"c{pair_count + i}") for i in range(pair_count)]
    chatty_pairs(cloud, pair_names, message_bytes=kib(64), rate_per_s=20.0, seed=11)
    setup_wall_s = time.monotonic() - setup_start

    # The timed portion: churn, a consolidation round, more churn.
    start_events = cloud.sim.events_executed
    start = time.monotonic()
    cloud.run_for(WARMUP_S)
    if consolidate:
        runtimes = {
            name: daemon.runtime for name, daemon in cloud.daemons.items()
        }
        consolidator = Consolidator(cloud.sim, runtimes, power_off_empty=True)
        consolidator.run_round()
    cloud.run_for(SETTLE_S)
    cloud.run_for(MEASURE_S)
    wall_s = time.monotonic() - start
    events = cloud.sim.events_executed - start_events
    result = cloud.metrics()
    result.update({
        "setup_wall_s": round(setup_wall_s, 3),
        "wall_s": round(wall_s, 3),
        "sim.events": events,
        "events_per_s": round(events / wall_s) if wall_s > 0 else None,
    })
    return result


@register_scenario("scale_perf")
def scale_perf(ctx: RunContext) -> Dict[str, Any]:
    """Campaign wrapper over :func:`measure_scale`.

    The host timings are dropped so a rerun reproduces every metric; the
    runner records the run's wall time in ``duration_s``.
    """
    result = measure_scale(
        int(ctx.param("nodes", 224)),
        seed=ctx.seed,
        budget=ctx.budget,
        pairs=ctx.param("pairs"),
        rate_model=str(ctx.param("rate_model", "maxmin")),
        protocol=str(ctx.param("protocol", "reno")),
        consolidate=bool(ctx.param("consolidate", True)),
    )
    for key in ("setup_wall_s", "wall_s", "events_per_s"):
        del result[key]
    return result


# -- built-in: flash-crowd SLO burn ------------------------------------------


@register_scenario("flashcrowd_slo")
def flashcrowd_slo(ctx: RunContext) -> Dict[str, Any]:
    """A million-user flash crowd vs the fabric's TE story, in SLO terms.

    The session-level load engine (``repro.load``) ramps a flash crowd
    over a fat-tree whose uplinks are deliberately tight, with one
    webserver replica pool behind DNS/placement.  Grid axis ``routing``
    compares static ECMP hashing against the SDN TE arm
    (``sdn-least-congested`` placement plus the Hedera-style elephant
    rerouter): same seed, same arrivals, same fabric -- the p99 and
    error-budget burn gap is pure traffic engineering.
    ``specs/flashcrowd_slo.yaml`` sweeps it; CI's ``slo-smoke`` job runs
    that spec.
    """
    from repro.core.cloud import PiCloud
    from repro.core.config import PiCloudConfig, TraceConfig
    from repro.load import (
        FlashCrowdArrivals,
        LoadEngine,
        Service,
        ServiceProfile,
        SloObjective,
    )
    from repro.units import mbit_per_s

    p = ctx.param
    nodes = int(p("nodes", 224))
    if nodes not in SCALES:
        raise CampaignError(f"unknown scale {nodes}; known: {sorted(SCALES)}")
    racks, pis, k = SCALES[nodes]
    routing = str(p("routing", "ecmp"))
    duration_s = float(p("duration_s", 120.0))
    config = PiCloudConfig(
        num_racks=racks, pis_per_rack=pis,
        topology="fat-tree", fat_tree_k=k,
        routing=routing, seed=ctx.seed,
        uplink_bandwidth=mbit_per_s(float(p("uplink_mbps", 100.0))),
        start_monitoring=False,
        trace=TraceConfig(enabled=ctx.trace),
        budget=ctx.budget,
    )
    cloud = PiCloud(config)
    cloud.boot()
    try:
        for index in range(int(p("replicas", 50))):
            cloud.spawn_and_wait("webserver", name=f"web{index}", group="web")

        rerouter = None
        te_apps = bool(p("te_apps", routing == "sdn-least-congested"))
        if te_apps and cloud.controller is not None:
            from repro.netsim.sdn import ElephantRerouter

            rerouter = ElephantRerouter(
                cloud.sim, cloud.network, cloud.controller,
                interval=0.5, congestion_threshold=0.7, min_flow_bytes=1e5,
            )

        service = Service(
            "web",
            profile=ServiceProfile(
                response_bytes=float(p("response_kib", 2.0)) * 1024.0,
                requests_per_session_per_s=float(p("request_rate", 0.1)),
                session_duration_s=float(p("session_s", 120.0)),
            ),
            slo=SloObjective(
                threshold_s=float(p("slo_ms", 250.0)) / 1e3,
                objective=float(p("objective", 0.999)),
            ),
        )
        arrivals = FlashCrowdArrivals(
            base_rate_per_s=float(p("base_rate", 500.0)),
            peak_rate_per_s=float(p("peak_rate", 25_000.0)),
            start_s=float(p("crowd_start_s", 10.0)),
            ramp_s=float(p("ramp_s", 10.0)),
            hold_s=float(p("hold_s", duration_s - 40.0)),
            decay_s=float(p("decay_s", 20.0)),
        )
        engine = LoadEngine(cloud, [service], arrivals)
        events_before = cloud.sim.events_executed
        report = engine.run(duration_s)
        if rerouter is not None:
            rerouter.stop()

        metrics = report.metrics()
        metrics.update(cloud.metrics())
        metrics.update({
            "sim.events": cloud.sim.events_executed - events_before,
            "reroutes": rerouter.reroutes if rerouter is not None else 0,
            "sim_time_s": cloud.sim.now,
        })
        return metrics
    finally:
        if ctx.trace and cloud.tracer is not None:
            cloud.write_trace(str(ctx.artifact_path("trace.jsonl")))


# -- built-in: partition chaos / split-brain safety ---------------------------


@register_scenario("partition_chaos")
def partition_chaos(ctx: RunContext) -> Dict[str, Any]:
    """Partition one fat-tree pod under load; measure split-brain safety.

    A scripted :class:`~repro.faults.FaultSchedule` partition isolates
    one pod -- its hosts *and* its edge/aggregation switches -- from the
    rest of the fabric (pimaster included) for ``partition_s`` seconds,
    then heals.  Nothing is powered off: the partitioned replicas keep
    running, which is exactly the split-brain hazard.  The grid sweeps

    * ``partition_s`` -- how long the pod is dark;
    * ``unreachable_grace_s`` -- gen-2 detector grace before an
      UNREACHABLE node may be declared DEAD (grace > partition means no
      evacuation at all);
    * ``fencing`` -- whether spawns carry fencing epochs and the heal
      reconciles duplicates (``mgmt.duplicate_container_epochs`` counts
      the *unresolved* duplicates, so it must be 0 whenever fencing is
      on).

    A Poisson session load runs throughout, so the partition's
    user-visible cost shows up as SLO burn, not just control-plane
    counters.
    """
    from repro.core.cloud import PiCloud
    from repro.core.config import HealthConfig, PiCloudConfig, TraceConfig
    from repro.faults import FaultSchedule
    from repro.load import LoadEngine, PoissonArrivals, Service, SloObjective

    p = ctx.param
    partition_s = float(p("partition_s", 60.0))
    grace_s = float(p("unreachable_grace_s", 30.0))
    fencing = bool(p("fencing", True))
    pod = int(p("pod", 0))
    k = int(p("fat_tree_k", 4))
    config = PiCloudConfig(
        num_racks=int(p("racks", 4)), pis_per_rack=int(p("pis", 4)),
        topology="fat-tree", fat_tree_k=k,
        routing=str(p("routing", "ecmp")), seed=ctx.seed,
        start_monitoring=False,
        health=HealthConfig(
            enabled=True,
            heartbeat_interval_s=float(p("heartbeat_interval_s", 2.0)),
            heartbeat_timeout_s=float(p("heartbeat_timeout_s", 1.0)),
            suspect_after_misses=int(p("suspect_after_misses", 2)),
            dead_after_misses=int(p("dead_after_misses", 3)),
            unreachable_grace_s=grace_s,
            fencing=fencing,
        ),
        trace=TraceConfig(enabled=ctx.trace),
        budget=ctx.budget,
    )
    cloud = PiCloud(config)
    cloud.boot()
    try:
        for index in range(int(p("web_containers", 8))):
            cloud.spawn_and_wait("webserver", name=f"web{index}", group="web")

        # Pre-warm the image cache fleet-wide so evacuation respawns are
        # container-create-fast: the experiment measures detector and
        # fencing policy, not SD-card image-push time.  (It also makes
        # the split-brain window realistic -- production fleets have the
        # image everywhere.)
        from repro.mgmt.distribution import ImageDistributor

        warmed = ImageDistributor(cloud.pimaster).distribute_peer_assisted(
            "webserver"
        )
        cloud.run_until_signal(warmed, max_seconds=86_400.0)

        rack_name = f"pod{pod}"
        members = sorted(
            node for node, data in cloud.topology.graph.nodes(data=True)
            if data.get("rack") == rack_name
        )
        if not members:
            raise CampaignError(f"topology has no pod {rack_name!r}")

        service = Service(
            "web",
            slo=SloObjective(
                threshold_s=float(p("slo_ms", 250.0)) / 1e3,
                objective=float(p("objective", 0.999)),
            ),
        )
        engine = LoadEngine(
            cloud, [service],
            PoissonArrivals(float(p("arrival_rate", 20.0))),
        )

        settle_s = float(p("settle_s", 20.0))
        # Drain long enough for the grace to expire, any evacuation to
        # respawn, and the heal-time reconcile to finish.
        drain_s = float(p("drain_s", 2.0 * grace_s + 60.0))
        t0 = cloud.sim.now
        schedule = FaultSchedule(cloud)
        schedule.partition(t0 + settle_s, [members])
        schedule.heal_partition(t0 + settle_s + partition_s)
        schedule.arm()

        duration_s = settle_s + partition_s + drain_s
        events_before = cloud.sim.events_executed
        report = engine.run(duration_s)

        metrics = report.metrics()
        metrics.update(cloud.metrics())
        metrics.update({
            "pod_members": len(members),
            "sim.events": cloud.sim.events_executed - events_before,
            "sim_time_s": cloud.sim.now,
        })
        return metrics
    finally:
        if ctx.trace and cloud.tracer is not None:
            cloud.write_trace(str(ctx.artifact_path("trace.jsonl")))


# -- built-in: congestion-control contrast -----------------------------------


def run_cc_contrast(
    *,
    rate_model: str = "cc",
    protocol: str = "reno",
    hosts: int = 224,
    fat_tree_k: int = 10,
    senders: int = 8,
    flow_bytes: float = 60e6,
    duration_s: float = 12.0,
    start_jitter_s: float = 0.0,
    seed: int = 0,
) -> Dict[str, Any]:
    """Drive the many-senders-one-receiver contrast workload on a bare
    fat-tree fabric and report goodput plus queue health.

    The single source of truth for the congestion-control contrast:
    the ``cc_contrast`` campaign scenario, ``examples/dctcp_vs_reno.py``
    and ``tests/test_cc.py`` all call this, so the committed spec, the
    example's printed table, and the acceptance assertions measure the
    exact same workload.

    ``senders`` hosts each push ``flow_bytes`` to one receiver.  With
    ``start_jitter_s`` > 0 each start is offset by a seeded uniform
    draw in ``[0, start_jitter_s)`` -- the incast cells use this so
    different seeds genuinely differ while any one seed reproduces
    byte-identically.  No other randomness exists in the cc path.
    """
    from repro.core.config import RateModelConfig
    from repro.netsim.fabric import Network
    from repro.netsim.routing import EcmpRouting
    from repro.netsim.topology import fat_tree
    from repro.sim.kernel import Simulator

    if senders >= hosts:
        raise CampaignError(
            f"need senders < hosts, got {senders} >= {hosts}"
        )
    host_names = [f"h{i:03d}" for i in range(int(hosts))]
    sim = Simulator()
    topo = fat_tree(int(fat_tree_k), hosts=host_names)
    model = RateModelConfig(model=rate_model, protocol=protocol).build()
    net = Network(
        sim, topo, path_service=EcmpRouting(sim, topo), rate_model=model
    )

    dst = host_names[0]
    rng = random.Random(seed)
    flows: List[Any] = []

    def start(src: str) -> None:
        # Stable flow_key: the default (the global flow id) would make
        # ECMP path choice depend on how many flows ran earlier in this
        # process, so arms of a contrast would see different paths.
        flows.append(net.transfer(
            src, dst, float(flow_bytes), flow_key=f"cc:{src}", tag="cc"
        ))

    for src in host_names[1:int(senders) + 1]:
        if start_jitter_s > 0.0:
            sim.schedule(rng.uniform(0.0, start_jitter_s), start, src)
        else:
            start(src)
    sim.run(until=float(duration_s))
    net.sync()

    delivered = sum(f.size - f.remaining for f in flows)
    return {
        "completed": sum(1 for f in flows if f.remaining <= 0.0),
        "delivered_bytes": delivered,
        "goodput_bytes_per_s": delivered / float(duration_s),
        **{f"netsim.{key}": value for key, value in net.queue_metrics().items()},
        "netsim.recomputes": net.recomputes,
        "sim_time_s": sim.now,
    }


# Workload cells: senders x per-flow bytes x start jitter.  "elephants"
# is a handful of long-lived flows; "incast" is a synchronised burst of
# small ones (the jitter window is what the seed perturbs).
CC_WORKLOADS = {
    "elephants": (8, 60e6, 0.0),
    "incast": (32, 2e6, 0.005),
}


@register_scenario("cc_contrast")
def cc_contrast(ctx: RunContext) -> Dict[str, Any]:
    """Campaign wrapper over :func:`run_cc_contrast`.

    Grid axes: ``rate_model`` x ``protocol`` x ``workload`` (see
    :data:`CC_WORKLOADS`); ``specs/cc_contrast.yaml`` sweeps it and CI's
    ``cc-smoke`` job runs that spec.
    """
    p = ctx.param
    workload = str(p("workload", "elephants"))
    if workload not in CC_WORKLOADS:
        raise CampaignError(
            f"unknown cc workload {workload!r}; known: {sorted(CC_WORKLOADS)}"
        )
    senders, flow_bytes, jitter = CC_WORKLOADS[workload]
    return run_cc_contrast(
        rate_model=str(p("rate_model", "cc")),
        protocol=str(p("protocol", "reno")),
        hosts=int(p("hosts", 54)),
        fat_tree_k=int(p("fat_tree_k", 6)),
        senders=int(p("senders", senders)),
        flow_bytes=float(p("flow_bytes", flow_bytes)),
        duration_s=float(p("duration_s", 8.0)),
        start_jitter_s=float(p("start_jitter_s", jitter)),
        seed=ctx.seed,
    )

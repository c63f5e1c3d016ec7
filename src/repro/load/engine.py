"""The fluid load engine: millions of sessions as O(aggregates) flows.

Once per epoch the engine

1. draws session arrivals per region from the arrival process, seeded
   through :class:`repro.sim.rng.RngRegistry` streams;
2. advances the fluid per-(service, region) session pools;
3. re-resolves each service's replicas through the pimaster registry
   and DNS, so placement moves re-key the demand aggregates;
4. converts each aggregate's offered request mass into **one** fabric
   flow (replica host -> client edge switch) through the existing
   max-min fair-share solver, with the offered rate as the rate cap;
5. on flow completion, turns the achieved rate back into a per-request
   latency sample -- congestion *stretches* the transfer component --
   and records it once, weighted by the request mass, into streaming
   histograms and SLO trackers.

Kernel cost is therefore O(aggregates x epochs): a million concurrent
users and a thousand cost the same number of events, which is the whole
point of running user-scale experiments on the scale model.

Latency model (per request, for an aggregate-epoch)::

    latency = rtt * retx + service_time * slow
              + (response_bytes / burst_rate) * stretch * retx
    stretch = max(1, offered_rate / achieved_rate)
    retx    = 1 / (1 - path_loss)
    slow    = cloud.slow_factor(replica_node)

where ``achieved_rate`` is what the fair-share solver actually granted
the aggregate's flow, ``path_loss`` is the combined packet-loss
probability of the (possibly degraded) links on the flow's path, and
``slow`` is the gray-failure service-time stretch of the replica's
host.  A healthy path (``loss == 0``, ``slow == 1``) multiplies by
exactly ``1.0`` everywhere, so runs without gray faults are
bit-identical to the pre-gray-failure model.  Requests shed by the
``backlog_epochs`` guard are recorded at ``inf`` (the histogram
overflow bucket) and count against the SLO -- overload shows up as
burn, not as silent queueing.

When the gen-2 failure detector is active, replicas on DEAD or
UNREACHABLE nodes are excluded from resolution; demand that loses
*every* replica to exclusion is deferred and retried on later epochs
(aging out as shed past ``backlog_epochs``) instead of being silently
recorded at ``inf`` -- a partitioned service burns SLO for the epochs
it was dark, then recovers when the partition heals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro import trace
from repro.errors import ConfigurationError, LoadError, PiCloudError
from repro.load.arrivals import ArrivalProcess, RegionalMixture
from repro.load.sessions import (
    Aggregate,
    Service,
    SessionPool,
    partition_regions,
)
from repro.load.slo import SloTracker
from repro.netsim.topology import TOR
from repro.sim.process import Timeout
from repro.telemetry.stats import LatencyHistogram, Summary, format_table

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.cloud import PiCloud
    from repro.netsim.fabric import FlowTransfer

_GLOBAL_REGION = "global"

# The fluid tick: once per epoch the engine samples arrivals, advances
# session pools and emits at most one fabric flow per (service, client
# edge, replica) aggregate.
EPOCH_S = 1.0
# Open-loop overload bound: an aggregate with this many epoch flows
# still in flight sheds new requests (SLO-bad at the histogram ceiling)
# instead of queueing more fabric work.
BACKLOG_EPOCHS = 4


@dataclass
class ServiceReport:
    """Per-service outcome: latency distribution + SLO accounting."""

    name: str
    histogram: LatencyHistogram
    slo: SloTracker
    arrived_sessions: float = 0.0
    peak_concurrent: float = 0.0
    offered_requests: float = 0.0
    shed_requests: float = 0.0
    deferred_requests: float = 0.0
    retried_requests: float = 0.0
    flows_started: int = 0
    flows_completed: int = 0
    flows_failed: int = 0

    def summary(self) -> Summary:
        return self.histogram.summary()

    def metrics(self) -> Dict[str, float]:
        """Flat metrics dict, keys prefixed with the service name."""
        s = self.summary()
        out = {
            "arrived_sessions": self.arrived_sessions,
            "peak_concurrent": self.peak_concurrent,
            "offered_requests": self.offered_requests,
            "shed_requests": self.shed_requests,
            "deferred_requests": self.deferred_requests,
            "retried_requests": self.retried_requests,
            "p50_ms": s.p50 * 1e3,
            "p99_ms": s.p99 * 1e3,
            "p999_ms": s.p999 * 1e3,
        }
        out.update(self.slo.row())
        return {f"{self.name}_{key}": value for key, value in out.items()}


@dataclass
class LoadReport:
    """The run's outcome: per-service reports plus fleet rollups."""

    services: Dict[str, ServiceReport]
    duration_s: float = 0.0
    epochs: int = 0
    peak_concurrent_sessions: float = 0.0

    def fleet_histogram(self) -> LatencyHistogram:
        """All services' latency streams merged (same layout by design)."""
        merged: Optional[LatencyHistogram] = None
        for report in self.services.values():
            if merged is None:
                merged = report.histogram.copy()
            else:
                merged.merge(report.histogram)
        if merged is None:
            raise LoadError("report has no services")
        return merged

    def fleet_summary(self) -> Summary:
        return self.fleet_histogram().summary()

    def fleet_error_rate(self) -> float:
        good = sum(r.slo.good for r in self.services.values())
        bad = sum(r.slo.bad for r in self.services.values())
        total = good + bad
        return bad / total if total > 0 else 0.0

    def worst_burn(self) -> Tuple[Optional[str], float]:
        worst_name, worst = None, 0.0
        for name in sorted(self.services):
            burn = self.services[name].slo.burn_rate()
            if burn > worst:
                worst_name, worst = name, burn
        return worst_name, worst

    def metrics(self) -> Dict[str, float]:
        """One flat dict for campaign result stores and dashboards."""
        fleet = self.fleet_summary()
        _, worst = self.worst_burn()
        out: Dict[str, float] = {
            "duration_s": self.duration_s,
            "epochs": float(self.epochs),
            "peak_concurrent_sessions": self.peak_concurrent_sessions,
            "total_requests": sum(
                r.offered_requests for r in self.services.values()
            ),
            "shed_requests": sum(
                r.shed_requests for r in self.services.values()
            ),
            "flows_started": float(sum(
                r.flows_started for r in self.services.values()
            )),
            "fleet_p50_ms": fleet.p50 * 1e3,
            "fleet_p95_ms": fleet.p95 * 1e3,
            "fleet_p99_ms": fleet.p99 * 1e3,
            "fleet_p999_ms": fleet.p999 * 1e3,
            "fleet_error_rate": self.fleet_error_rate(),
            "worst_burn_rate": worst,
        }
        for name in sorted(self.services):
            out.update(self.services[name].metrics())
        return out

    def format(self) -> str:
        """Human-readable per-service table (for CLI / examples)."""
        headers = ["service", "requests", "shed", "p50 ms", "p99 ms",
                   "p999 ms", "err rate", "burn", "peak burn"]
        rows = []
        for name in sorted(self.services):
            report = self.services[name]
            s = report.summary()
            rows.append([
                name,
                f"{report.offered_requests:,.0f}",
                f"{report.shed_requests:,.0f}",
                f"{s.p50 * 1e3:.1f}",
                f"{s.p99 * 1e3:.1f}",
                f"{s.p999 * 1e3:.1f}",
                f"{report.slo.error_rate():.2e}",
                f"{report.slo.burn_rate():.2f}",
                f"{report.slo.peak_burn_rate():.2f}",
            ])
        return format_table(headers, rows)


class LoadEngine:
    """Open-loop session load against a built :class:`PiCloud`.

    Parameters
    ----------
    cloud:
        A built cloud; the engine uses its simulator, fabric, topology,
        RNG registry and (for ``group=`` services) pimaster + DNS.
    services:
        The services under load.  Arrivals are split across services in
        proportion to ``Service.weight``.
    arrivals:
        The session arrival process.  A :class:`RegionalMixture` maps
        its regions onto disjoint sets of client edge switches, split
        round-robin (:func:`partition_regions`); any other process
        drives a single global region.
    client_edges:
        Switches where sessions originate (default: every ToR/edge
        switch).  Clients sit *at* the edge, so the modelled path is
        replica host -> fabric -> client edge: the interesting
        (shared) part of the network, without inventing client hosts.

    The epoch cadence and backlog bound are :data:`EPOCH_S` and
    :data:`BACKLOG_EPOCHS`, readable as ``epoch_s`` and
    ``backlog_epochs``.
    """

    epoch_s = EPOCH_S
    backlog_epochs = BACKLOG_EPOCHS

    def __init__(
        self,
        cloud: "PiCloud",
        services: Sequence[Service],
        arrivals: ArrivalProcess,
        *,
        client_edges: Optional[Sequence[str]] = None,
    ) -> None:
        if not services:
            raise ConfigurationError("LoadEngine needs at least one service")
        names = [service.name for service in services]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate service names in {names}")
        self.cloud = cloud
        self.sim = cloud.sim
        self.network = cloud.network
        self.services: List[Service] = list(services)
        self.arrivals = arrivals

        edges = list(client_edges) if client_edges is not None else (
            cloud.topology.switches(TOR)
        )
        if not edges:
            raise LoadError("no client edge switches available")
        for edge in edges:
            if edge not in cloud.topology.graph:
                raise LoadError(f"client edge {edge!r} not in the topology")
        self.client_edges = sorted(edges)
        self._edge_index = {e: i for i, e in enumerate(self.client_edges)}

        if isinstance(arrivals, RegionalMixture):
            region_names = arrivals.region_names()
        else:
            region_names = [_GLOBAL_REGION]
        self.region_edges = partition_regions(self.client_edges, region_names)
        self.regions = sorted(self.region_edges)

        # Seeded per-region arrival streams: adding a region or service
        # never perturbs another's draws.
        self._region_rngs = {
            name: cloud.rng.stream(f"load.arrivals.{name}")
            for name in self.regions
        }

        total_weight = sum(s.weight for s in self.services)
        self._weights = {s.name: s.weight / total_weight for s in self.services}
        self._pools: Dict[Tuple[str, str], SessionPool] = {
            (service.name, region): SessionPool(service, region)
            for service in self.services
            for region in self.regions
        }
        self._aggregates: Dict[Tuple[str, str, str], Aggregate] = {}
        self._replicas: Dict[str, List[str]] = {}
        # Replicas dropped because their host is DEAD/UNREACHABLE (gen-2
        # detector only) -- distinguishes "service has no replicas" from
        # "all replicas are behind a partition", which defers instead of
        # shedding.
        self._excluded: Dict[str, int] = {}
        # Deferred request mass per (service, region): [requests, age]
        # pairs retried on later epochs until replicas come back or the
        # entry ages past backlog_epochs.
        self._deferred: Dict[Tuple[str, str], List[List[float]]] = {}
        self._reports: Dict[str, ServiceReport] = {
            service.name: ServiceReport(
                name=service.name,
                histogram=LatencyHistogram(),
                slo=SloTracker(service.slo),
            )
            for service in self.services
        }

        self.epochs_run = 0
        self.peak_concurrent_sessions = 0.0
        self._started_at: Optional[float] = None
        self._finished_at: Optional[float] = None
        self._span = trace.NULL_SPAN
        self._process = None

    # -- driving ----------------------------------------------------------

    def start(self, duration_s: float) -> "LoadEngine":
        """Schedule the epoch loop on the simulator (does not run it)."""
        if duration_s <= 0:
            raise ConfigurationError(f"duration_s must be > 0, got {duration_s}")
        if self._process is not None:
            raise LoadError("LoadEngine.start() called twice")
        self._span = trace.start_span(
            self.sim, "load.engine", kind="load",
            attributes={"services": len(self.services),
                        "regions": len(self.regions),
                        "epoch_s": self.epoch_s},
        )
        self._process = self.sim.process(self._epoch_loop(duration_s),
                                         name="load-engine")
        return self

    def run(self, duration_s: float, drain_s: Optional[float] = None) -> LoadReport:
        """Start the loop, run the cloud, drain in-flight flows, report.

        ``drain_s`` defaults to ``backlog_epochs`` extra epochs -- enough
        for every non-shed flow to finish unless the fabric is still
        badly oversubscribed at the end of the run.
        """
        self.start(duration_s)
        if drain_s is None:
            drain_s = self.backlog_epochs * self.epoch_s
        self.cloud.run_for(duration_s + drain_s)
        return self.report()

    def _epoch_loop(self, duration_s: float):
        self._started_at = self.sim.now
        end = self._started_at + duration_s
        while self.sim.now < end - 1e-9:
            t0 = self.sim.now
            t1 = min(t0 + self.epoch_s, end)
            self._tick(t0, t1)
            yield Timeout(self.sim, t1 - t0)
        self._finished_at = self.sim.now
        self._span.end()

    # -- the epoch --------------------------------------------------------

    def _tick(self, t0: float, t1: float) -> None:
        dt = t1 - t0
        self.epochs_run += 1
        # Arrival processes run on an engine-relative clock: t=0 is the
        # moment the engine started, however long boot/placement took,
        # so FlashCrowdArrivals(start_s=10) always means "10 s into the
        # load run".
        base = self._started_at if self._started_at is not None else t0
        region_arrivals = self._epoch_arrivals(t0 - base, t1 - base)
        self._refresh_replicas()

        concurrent = 0.0
        for service in self.services:
            share = self._weights[service.name]
            report = self._reports[service.name]
            for region in self.regions:
                pool = self._pools[(service.name, region)]
                arrived = region_arrivals[region] * share
                pool.step(arrived, dt)
                report.arrived_sessions += arrived
                concurrent += pool.sessions
                self._offer(service, region, pool.sessions, t0, dt)
            report.peak_concurrent = max(
                report.peak_concurrent,
                sum(self._pools[(service.name, r)].sessions
                    for r in self.regions),
            )
        self.peak_concurrent_sessions = max(self.peak_concurrent_sessions,
                                            concurrent)
        trace.instant(self.sim, "load.epoch", parent=self._span,
                      kind="load",
                      attributes={"concurrent": round(concurrent, 1)})

    def _epoch_arrivals(self, t0: float, t1: float) -> Dict[str, float]:
        if isinstance(self.arrivals, RegionalMixture):
            return self.arrivals.per_region(t0, t1, self._region_rngs)
        count = self.arrivals.arrivals(t0, t1, self._region_rngs[_GLOBAL_REGION])
        return {_GLOBAL_REGION: count}

    def _refresh_replicas(self) -> None:
        """Re-resolve every service's replica hosts (placement + DNS).

        With the gen-2 failure detector active, replicas whose host is
        DEAD or UNREACHABLE are excluded (counted in ``self._excluded``)
        so partitioned demand defers instead of targeting a host that
        cannot answer.  The legacy detector keeps the historical
        behaviour -- resolution is purely placement + DNS.
        """
        for service in self.services:
            pimaster = getattr(self.cloud, "pimaster", None)
            if service.nodes is not None:
                nodes = sorted(service.nodes)
                self._replicas[service.name], self._excluded[service.name] = (
                    self._filter_unhealthy(pimaster, nodes)
                )
                continue
            if pimaster is None:
                raise LoadError(
                    f"service {service.name!r} uses group= resolution but "
                    "the cloud has no pimaster; pass explicit nodes="
                )
            nodes = []
            for record in pimaster.container_records():
                if record.group != service.group:
                    continue
                try:
                    pimaster.dns.resolve(record.fqdn)
                except PiCloudError:
                    continue           # not (yet) resolvable: skip replica
                nodes.append(record.node_id)
            self._replicas[service.name], self._excluded[service.name] = (
                self._filter_unhealthy(pimaster, sorted(set(nodes)))
            )

    @staticmethod
    def _filter_unhealthy(pimaster, nodes: List[str]) -> Tuple[List[str], int]:
        """Drop DEAD/UNREACHABLE hosts under the gen-2 detector only."""
        if pimaster is None or not pimaster.health.partition_aware:
            return nodes, 0
        from repro.mgmt.health import NodeHealth

        healthy = [
            node for node in nodes
            if pimaster.health.state(node) not in (NodeHealth.DEAD,
                                                   NodeHealth.UNREACHABLE)
        ]
        return healthy, len(nodes) - len(healthy)

    def _offer(self, service: Service, region: str, sessions: float,
               t0: float, dt: float) -> None:
        """Turn one (service, region) pool into aggregate epoch flows."""
        profile = service.profile
        requests = sessions * profile.requests_per_session_per_s * dt
        report = self._reports[service.name]
        if requests > 0:
            report.offered_requests += requests
        replicas = self._replicas.get(service.name) or []
        edges = self.region_edges[region]
        deferred = self._deferred.get((service.name, region))
        if not replicas:
            if requests <= 0 and not deferred:
                return
            if self._excluded.get(service.name, 0) > 0:
                # Every replica exists but is DEAD/UNREACHABLE (gen-2
                # detector): defer this epoch's demand and retry when a
                # later epoch resolves replicas again, instead of the
                # silent +inf record.  Entries age out as shed once they
                # have waited backlog_epochs epochs.
                kept: List[List[float]] = []
                for entry in deferred or []:
                    entry[1] += 1.0
                    if entry[1] >= self.backlog_epochs:
                        report.shed_requests += entry[0]
                        self._record(service, t0, entry[0], math.inf)
                    else:
                        kept.append(entry)
                if requests > 0:
                    kept.append([requests, 0.0])
                    report.deferred_requests += requests
                if kept:
                    self._deferred[(service.name, region)] = kept
                else:
                    self._deferred.pop((service.name, region), None)
                return
            # Nothing to serve the demand, and nothing excluded that
            # could come back: everything (including backlog) is shed.
            for entry in deferred or []:
                report.shed_requests += entry[0]
                self._record(service, t0, entry[0], math.inf)
            self._deferred.pop((service.name, region), None)
            if requests > 0:
                self._record(service, t0, requests, math.inf)
                report.shed_requests += requests
            return
        if deferred:
            # Replicas are resolvable again: fold the deferred backlog
            # into this epoch's offered mass.
            retried = sum(entry[0] for entry in deferred)
            requests += retried
            report.retried_requests += retried
            self._deferred.pop((service.name, region), None)
        if requests <= 0:
            return
        per_edge = requests / len(edges)
        for edge in edges:
            # Deterministic edge->replica mapping: placement changes
            # re-key aggregates, stable placements keep stable flow
            # keys (and therefore stable ECMP hashes).
            replica = replicas[self._edge_index[edge] % len(replicas)]
            aggregate = self._aggregates.get((service.name, edge, replica))
            if aggregate is None:
                aggregate = Aggregate(service, edge, replica)
                self._aggregates[aggregate.key] = aggregate
            self._launch(aggregate, per_edge, t0, dt)

    def _launch(self, aggregate: Aggregate, requests: float,
                t0: float, dt: float) -> None:
        service = aggregate.service
        profile = service.profile
        report = self._reports[service.name]
        if aggregate.outstanding >= self.backlog_epochs:
            # Open-loop overload guard: shed instead of queueing more
            # fabric work.  Shed requests are SLO-bad at the ceiling.
            aggregate.shed_requests += requests
            report.shed_requests += requests
            self._record(service, t0, requests, math.inf)
            return
        demand_bytes = requests * profile.response_bytes
        offered_rate = demand_bytes / dt
        try:
            flow = self.network.transfer(
                aggregate.replica_node,
                aggregate.client_edge,
                demand_bytes,
                flow_key=("load",) + aggregate.key,
                rate_cap=offered_rate,
                tag=f"load:{service.name}",
                parent=self._span,
            )
        except PiCloudError:
            # Replica currently unreachable (e.g. its host just died):
            # the epoch's requests fail outright.
            report.shed_requests += requests
            self._record(service, t0, requests, math.inf)
            return
        aggregate.outstanding += 1
        report.flows_started += 1

        def finished(flow, aggregate=aggregate, requests=requests,
                     offered_rate=offered_rate, demand_bytes=demand_bytes):
            aggregate.outstanding -= 1
            if flow.exception is not None:
                self._reports[aggregate.service.name].flows_failed += 1
                self._record(aggregate.service, self.sim.now, requests,
                             math.inf)
                return
            self._reports[aggregate.service.name].flows_completed += 1
            self._settle(aggregate, flow, requests, offered_rate,
                         demand_bytes)

        flow.add_done_callback(finished)

    def _settle(self, aggregate: Aggregate, flow: "FlowTransfer",
                requests: float, offered_rate: float,
                demand_bytes: float) -> None:
        """Flow done: achieved rate -> stretch -> request latency.

        Gray failures feed in here: degraded-link loss along the flow's
        path inflates the network components by the expected
        retransmission factor ``1 / (1 - loss)``, and a slowed replica
        host stretches the service-time component.  Both factors are
        exactly ``1.0`` on healthy paths, keeping fault-free runs
        bit-identical.

        Under a congestion-control rate model the path's current
        queueing delay is added as well -- standing ToR/host buffers
        show up directly in request latency.  The term is exactly
        ``0.0`` under the default max-min model (no queue state exists),
        and is only added when non-zero, so default-path runs stay
        bit-identical.
        """
        one_way = sum(d.latency for d in flow.directions)
        if aggregate.rtt_s is None:
            aggregate.rtt_s = 2.0 * one_way
        duration = flow.completed_at - flow.requested_at
        transfer_time = max(duration - one_way, 1e-12)
        achieved_rate = demand_bytes / transfer_time
        stretch = max(1.0, offered_rate / achieved_rate)
        loss = 1.0
        for d in flow.directions:
            loss *= 1.0 - d.link.loss
        retx = 1.0 / loss
        slow = self.cloud.slow_factor(aggregate.replica_node)
        profile = aggregate.service.profile
        latency = (
            2.0 * one_way * retx
            + profile.service_time_s * slow
            + (profile.response_bytes / profile.burst_rate) * stretch * retx
        )
        queue_delay = self.network.path_queue_delay(flow.directions)
        if queue_delay > 0.0:
            latency += queue_delay
        self._record(aggregate.service, self.sim.now, requests, latency)

    def _record(self, service: Service, t: float, requests: float,
                latency_s: float) -> None:
        report = self._reports[service.name]
        report.histogram.record(latency_s, count=requests)
        if latency_s <= service.slo.threshold_s:
            report.slo.record(t, good=requests, bad=0.0)
        else:
            report.slo.record(t, good=0.0, bad=requests)

    # -- results ----------------------------------------------------------

    def report(self) -> LoadReport:
        """A snapshot report (callable mid-run or after draining)."""
        started = self._started_at if self._started_at is not None else 0.0
        finished = (self._finished_at if self._finished_at is not None
                    else self.sim.now)
        return LoadReport(
            services=dict(self._reports),
            duration_s=max(0.0, finished - started),
            epochs=self.epochs_run,
            peak_concurrent_sessions=self.peak_concurrent_sessions,
        )

"""The metrics plane: every metric the system reports, declared once.

A :class:`Metric` gives a name, a unit and a direction: ``"lower"`` or
``"higher"`` when that way is an improvement, ``None`` when neither is
(workload sizes, echoed inputs).  Three tables cover everything a run
can report:

* :data:`CLOUD_METRICS` -- the counters a booted cloud can answer, named
  ``layer.counter``.  Each has a source to read it from;
  :func:`snapshot` (behind :meth:`PiCloud.metrics`) reads them all.  The readers only read the
  components' own ``self.x += 1`` attributes, so the hot paths stay as
  they are and taking a snapshot changes nothing in the simulation.
* :data:`REPORT_METRICS` -- the keys of ``LoadReport.metrics()``, the
  campaign scenarios' extras and the congestion-control contrast.
* :data:`SERVICE_METRICS` -- the ``<key>`` of every ``<service>_<key>``
  that ``ServiceReport.metrics()`` emits.

:func:`lookup` and :func:`direction` resolve a reported name to its
declaration; the campaign dashboard colours baseline deltas with them.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Dict, Optional, Union

if TYPE_CHECKING:
    from repro.core.cloud import PiCloud


@dataclass(frozen=True)
class Metric:
    """One declared metric; only cloud metrics have a ``source``.

    ``source`` is a dotted attribute path on the cloud
    (``"pimaster.spawns"``) or a function of the cloud.
    """

    name: str
    unit: str
    direction: Optional[str] = None
    source: Union[str, Callable[["PiCloud"], float], None] = None

    def read(self, cloud: "PiCloud") -> float:
        if isinstance(self.source, str):
            return attrgetter(self.source)(cloud)
        return self.source(cloud)


def _fleet_sum(path: str) -> Callable[["PiCloud"], int]:
    """Sum of ``daemon.<path>`` over the cloud's node daemons."""
    get = attrgetter(path)
    return lambda cloud: sum(get(d) for d in cloud.daemons.values())


def _queue(key: str) -> Callable[["PiCloud"], float]:
    return lambda cloud: cloud.network.queue_metrics()[key]


def _count(path: str) -> Callable[["PiCloud"], int]:
    """A :class:`~repro.telemetry.series.Counter`'s total, as an int."""
    get = attrgetter(path)
    return lambda cloud: int(get(cloud).total)


CLOUD_METRICS = (
    Metric("sim.events_executed", "count", "lower", "sim.events_executed"),
    Metric("sim.heap_compactions", "count", "lower", "sim.heap_compactions"),
    Metric("sim.budget_trips", "count", "lower", "sim.budget_trips"),
    Metric("sim.watchdog_trips", "count", "lower", "sim.watchdog_trips"),
    Metric("netsim.flows_started", "count", "lower", _count("network.flows_started")),
    Metric("netsim.flows_completed", "count", "higher", _count("network.flows_completed")),
    Metric("netsim.flows_failed", "count", "lower", _count("network.flows_failed")),
    Metric("netsim.bytes_delivered", "bytes", "higher", "network.bytes_delivered.total"),
    Metric("netsim.recomputes", "count", "lower", "network.recomputes"),
    Metric("netsim.flows_solved", "count", "lower", "network.flows_solved"),
    Metric("netsim.queue_depth_p99", "bytes", "lower", _queue("queue_depth_p99")),
    Metric("netsim.queue_depth_peak", "bytes", "lower", _queue("queue_depth_peak")),
    Metric("netsim.ecn_mark_frac", "ratio", "lower", _queue("ecn_mark_frac")),
    Metric("netsim.dropped_bytes", "bytes", "lower", _queue("dropped_bytes")),
    Metric("netsim.drop_events", "count", "lower", _queue("drop_events")),
    Metric("mgmt.rest_requests", "count", "lower", _fleet_sum("server.requests_served")),
    Metric("mgmt.monitoring_polls", "count", "lower", "pimaster.monitoring.polls"),
    Metric("mgmt.monitoring_poll_errors", "count", "lower", "pimaster.monitoring.poll_errors"),
    Metric("mgmt.spawns", "count", "lower", "pimaster.spawns"),
    Metric("mgmt.spawn_failures", "count", "lower", "pimaster.spawn_failures"),
    Metric("mgmt.op_retries", "count", "lower", "pimaster.op_retries"),
    Metric("mgmt.image_pushes", "count", "lower", "pimaster.images.pushes"),
    Metric("mgmt.heartbeats_sent", "count", "lower", "pimaster.health.heartbeats_sent"),
    Metric("mgmt.heartbeats_missed", "count", "lower", "pimaster.health.heartbeats_missed"),
    Metric("mgmt.rejoins", "count", "higher", "pimaster.rejoins"),
    Metric("mgmt.witness_probes", "count", "lower", "pimaster.health.witness_probes"),
    Metric("mgmt.witness_confirmations", "count", None,
           "pimaster.health.witness_confirmations"),
    Metric("mgmt.unreachable_s", "s", "lower",
           lambda cloud: cloud.pimaster.health.unreachable_seconds()),
    Metric("mgmt.evacuations", "count", "lower", "pimaster.recovery.evacuations"),
    Metric("mgmt.containers_evacuated", "count", "lower",
           "pimaster.recovery.containers_evacuated"),
    Metric("mgmt.containers_respawned", "count", "higher",
           "pimaster.recovery.containers_respawned"),
    Metric("mgmt.unschedulable", "count", "lower",
           lambda cloud: len(cloud.pimaster.recovery.unschedulable)),
    Metric("mgmt.reconciles", "count", None, "pimaster.reconciles"),
    Metric("mgmt.duplicate_container_epochs", "count", "lower",
           "pimaster.duplicate_container_epochs"),
    Metric("mgmt.false_dead_evacuations", "count", "lower", "pimaster.false_dead_evacuations"),
    Metric("mgmt.fencing_epoch", "epoch", None, "pimaster.fencing_epoch"),
    Metric("mgmt.stale_epoch_rejections", "count", None, _fleet_sum("stale_epoch_rejections")),
    Metric("virt.containers_created", "count", "lower", _fleet_sum("runtime.containers_created")),
    Metric("virt.containers_running", "count", "higher",
           lambda cloud: sum(d.runtime.running_count() for d in cloud.daemons.values())),
)

REPORT_METRICS = (
    # LoadReport.metrics(): fleet rollups of the session load engine.
    Metric("duration_s", "s"),
    Metric("epochs", "count"),
    Metric("peak_concurrent_sessions", "sessions"),
    Metric("total_requests", "requests"),
    Metric("shed_requests", "requests", "lower"),
    Metric("flows_started", "count"),
    Metric("fleet_p50_ms", "ms", "lower"),
    Metric("fleet_p95_ms", "ms", "lower"),
    Metric("fleet_p99_ms", "ms", "lower"),
    Metric("fleet_p999_ms", "ms", "lower"),
    Metric("fleet_error_rate", "ratio", "lower"),
    Metric("worst_burn_rate", "ratio", "lower"),
    # Campaign scenario extras.
    Metric("sim.events", "count", "lower"),  # driven-phase kernel events
    Metric("sim_time_s", "s"),
    Metric("fleet_availability", "ratio", "higher"),
    Metric("node_failures", "count"),
    Metric("node_repairs", "count"),
    Metric("nodes_alive", "count", "higher"),
    Metric("pod_members", "count"),
    Metric("reroutes", "count"),
    Metric("wall_s", "s", "lower"),
    Metric("setup_wall_s", "s", "lower"),
    Metric("events_per_s", "1/s", "higher"),
    # The congestion-control contrast.
    Metric("completed", "count", "higher"),
    Metric("delivered_bytes", "bytes", "higher"),
    Metric("goodput_bytes_per_s", "bytes/s", "higher"),
)

SERVICE_METRICS = (
    Metric("arrived_sessions", "sessions"),
    Metric("peak_concurrent", "sessions"),
    Metric("offered_requests", "requests"),
    Metric("shed_requests", "requests", "lower"),
    Metric("deferred_requests", "requests", "lower"),
    Metric("retried_requests", "requests", "lower"),
    Metric("p50_ms", "ms", "lower"),
    Metric("p99_ms", "ms", "lower"),
    Metric("p999_ms", "ms", "lower"),
    Metric("slo_threshold_s", "s"),
    Metric("slo_objective", "ratio"),
    Metric("good_requests", "requests", "higher"),
    Metric("bad_requests", "requests", "lower"),
    Metric("error_rate", "ratio", "lower"),
    Metric("burn_rate", "ratio", "lower"),
    # One per default burn window (repro.load.slo.DEFAULT_WINDOWS).
    Metric("peak_burn_10s", "ratio", "lower"),
    Metric("peak_burn_60s", "ratio", "lower"),
    Metric("peak_burn_300s", "ratio", "lower"),
)

_SORTED_CLOUD = sorted(CLOUD_METRICS, key=lambda m: m.name)
_BY_NAME: Dict[str, Metric] = {m.name: m for m in CLOUD_METRICS + REPORT_METRICS}
_BY_SERVICE_KEY: Dict[str, Metric] = {m.name: m for m in SERVICE_METRICS}


def lookup(name: str) -> Optional[Metric]:
    """The declaration behind a reported name, or ``None``.

    The exact name first; otherwise ``<service>_<key>`` resolves to the
    service metric ``<key>`` (the text after the first ``_``).
    """
    metric = _BY_NAME.get(name)
    if metric is None and "_" in name:
        metric = _BY_SERVICE_KEY.get(name.partition("_")[2])
    return metric


def direction(name: str) -> int:
    """+1 when up is good, -1 when down is good, 0 otherwise or undeclared."""
    metric = lookup(name)
    if metric is None or metric.direction is None:
        return 0
    return 1 if metric.direction == "higher" else -1


def snapshot(cloud: "PiCloud") -> Dict[str, float]:
    """Every cloud metric's current value, sorted by name."""
    return {metric.name: metric.read(cloud) for metric in _SORTED_CLOUD}

"""The pimaster: the PiCloud's head node.

Owns the DHCP and DNS services, the image store, the monitoring poller,
the node registry and the placement policy; orchestrates container
lifecycle by calling each node's REST daemon over the fabric.  This is
the component behind the paper's Fig. 4 control panel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

from repro import trace
from repro.errors import (
    CircuitOpenError,
    DeadlineExceeded,
    LeaseError,
    ManagementError,
    NameError_,
    PlacementError,
    RestError,
    UnknownNodeError,
)
from repro.hostos.kernelhost import HostKernel
from repro.mgmt.dashboard import Dashboard
from repro.mgmt.dhcp import DhcpServer
from repro.mgmt.dns import DnsServer
from repro.mgmt.health import CircuitBreaker, FailureDetector, NodeHealth
from repro.mgmt.images import ImageService
from repro.mgmt.monitoring import MonitoringService
from repro.mgmt.node_daemon import NODE_DAEMON_PORT, NodeDaemon
from repro.mgmt.recovery import RecoveryManager
from repro.mgmt.rest import RestClient
from repro.netsim.addresses import Ipv4Pool
from repro.placement.base import NodeView, PlacementPolicy, PlacementRequest
from repro.placement.policies import FirstFit
from repro.sim.process import Signal, Timeout

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import PiCloudConfig


@dataclass
class NodeRecord:
    """Registry row for one managed Pi."""

    node_id: str
    ip: str
    daemon: NodeDaemon


@dataclass
class ContainerRecord:
    """Registry row for one managed container.

    ``epoch`` is the fencing epoch the container was spawned with (None
    when fencing is off): a strictly increasing per-pimaster counter, so
    of two incarnations of the same container the one with the higher
    epoch is authoritative.
    """

    name: str
    node_id: str
    image: str
    ip: str
    fqdn: str
    group: Optional[str] = None
    epoch: Optional[int] = None


class PiMaster:
    """The head node: registry + services + orchestration."""

    def __init__(self, kernel: HostKernel, config: "PiCloudConfig") -> None:
        self.kernel = kernel
        self.sim = kernel.sim
        # Every pimaster knob -- management addressing, monitoring
        # cadence, operation guards and the self-healing plane -- is read
        # from the cloud's config (``config.health`` for the latter).
        self.config = config
        health = config.health
        self.op_retries = 0
        self.op_deadline_failures = 0
        self.client = RestClient(kernel.netstack, timeout_s=config.op_deadline_s)
        self.dhcp = DhcpServer(self.sim, Ipv4Pool(config.subnet))
        self.dns = DnsServer(config.dns_zone)
        self.images = ImageService(self.sim)
        self.monitoring = MonitoringService(
            self.sim, self.client, interval_s=config.monitoring_interval_s,
            idle_backoff=config.monitoring_idle_backoff,
            max_interval_s=config.monitoring_max_interval_s,
        )
        self.placement_policy: PlacementPolicy = FirstFit()
        self._nodes: Dict[str, NodeRecord] = {}
        self._containers: Dict[str, ContainerRecord] = {}
        # Indexes kept in step with _containers so node_views() does not
        # rescan every container and every fabric link per node: the
        # node's access link (found once, lazily) and per-node group
        # refcounts (anti-affinity placement input).
        self._access_links: Dict[str, object] = {}
        self._node_groups: Dict[str, Dict[str, int]] = {}
        self._spawn_seq = 0
        self._destroy_seq = 0
        self.spawns = 0
        self.spawn_failures = 0
        self.rejoins = 0
        self.breaker_fast_fails = 0
        # Self-healing plane: per-node circuit breakers, the heartbeat
        # failure detector (its own short-timeout client so dead nodes
        # cannot stall probing), and the evacuation/recovery worker.
        self._breakers: Dict[str, CircuitBreaker] = {}
        self.health = FailureDetector(
            self.sim,
            RestClient(kernel.netstack, timeout_s=health.heartbeat_timeout_s),
            health,
            daemon_port=NODE_DAEMON_PORT,
            breaker_for=self._breakers.get,
        )
        # Split-brain safety: when fencing is on, every spawn carries the
        # next value of this monotone counter, daemons reject stale-epoch
        # ops, and a node coming back from UNREACHABLE/DEAD is reconciled
        # (its stale duplicate containers destroyed -- newest epoch wins).
        self.fencing = health.fencing
        self.fencing_epoch = 0
        self.reconciles = 0
        self.duplicate_container_epochs = 0
        self.false_dead_evacuations = 0
        self._evacuated_nodes: set[str] = set()
        self.recovery = RecoveryManager(self)
        self.health.add_listener(self._on_health_transition)
        self.health.add_listener(self.recovery.on_transition)

    # -- registry ---------------------------------------------------------------

    def register_node(self, daemon: NodeDaemon, ip: str) -> NodeRecord:
        """Enroll a Pi: record its address, wire up migration resolution."""
        node_id = daemon.node_id
        if node_id in self._nodes:
            raise ManagementError(f"node {node_id!r} already registered")
        record = NodeRecord(node_id=node_id, ip=ip, daemon=daemon)
        self._nodes[node_id] = record
        daemon.peer_resolver = self.daemon
        self.monitoring.watch(node_id, ip)
        self.dns.register(node_id, ip)
        self._breakers[node_id] = CircuitBreaker(
            self.sim,
            failure_threshold=self.config.health.breaker_failure_threshold,
            reset_timeout_s=self.config.health.breaker_reset_s,
            node_id=node_id,
        )
        self.health.watch(node_id, ip)
        return record

    def breaker(self, node_id: str) -> CircuitBreaker:
        try:
            return self._breakers[node_id]
        except KeyError:
            raise UnknownNodeError(f"unknown node {node_id!r}") from None

    def _on_health_transition(self, node_id: str, old: NodeHealth,
                              new: NodeHealth, context) -> None:
        """Registry housekeeping on health transitions.

        A dead node stops being polled (its monitoring probes would only
        burn the detector's work) and its image cache is forgotten -- the
        repair path re-images the SD card, so anything cached is gone.

        A node coming straight back ALIVE from UNREACHABLE or DEAD (the
        gen-2 detector's partition-heal path: the node was never actually
        down) is re-polled and *reconciled*: its containers are listed
        and compared against the registry, so duplicates created by an
        evacuation during the partition are resolved (fencing on: newest
        epoch wins, the stale copy is destroyed) or at least counted
        (fencing off: the split-brain double-run is left visible in
        ``duplicate_container_epochs``).
        """
        if new is NodeHealth.DEAD:
            self.monitoring.unwatch(node_id)
            self.images.invalidate_node(node_id)
            self._evacuated_nodes.add(node_id)
        elif (new is NodeHealth.ALIVE
                and old in (NodeHealth.UNREACHABLE, NodeHealth.DEAD)):
            if old is NodeHealth.DEAD and node_id in self._evacuated_nodes:
                # The detector buried a live node and recovery respawned
                # its containers elsewhere: a false positive with real
                # cost (the split-brain input).
                self.false_dead_evacuations += 1
            self._evacuated_nodes.discard(node_id)
            record = self._nodes.get(node_id)
            if record is not None:
                if old is NodeHealth.DEAD:
                    self.monitoring.watch(node_id, record.ip)
                self.sim.process(
                    self._reconcile(node_id, context),
                    name=f"reconcile:{node_id}",
                )

    def _reconcile(self, node_id: str, parent=None):
        """Resolve container state divergence after a node comes back.

        Lists the node's actual containers and compares against the
        registry.  Three cases per listed container:

        * registry row points at this node -- consistent, nothing to do;
        * registry row points at *another* node -- a duplicate:
          evacuation respawned it elsewhere while this node (alive all
          along) kept its copy running.  With fencing the lower epoch
          loses and is destroyed here; without fencing both copies keep
          running and the duplicate is counted;
        * no registry row -- an orphan (destroyed while unreachable);
          destroyed here when fencing is on.
        """
        record = self._nodes.get(node_id)
        if record is None:
            return
        self.reconciles += 1
        span = trace.start_span(
            self.sim, "mgmt.reconcile", parent=parent, kind="mgmt",
            attributes={"node": node_id, "fencing": self.fencing},
        )
        try:
            response = yield from self._call_with_retry(
                lambda attempt: self.client.get(
                    record.ip, NODE_DAEMON_PORT, "/containers", parent=attempt,
                ),
                f"reconcile listing of {node_id}",
                parent=span,
                node_id=node_id,
            )
            response.raise_for_status()
        except Exception as exc:  # noqa: BLE001 - node flapped again
            span.end("error", str(exc))
            return
        rows = sorted(response.body or [], key=lambda r: r.get("name", ""))
        duplicates = 0
        destroyed = 0
        for row in rows:
            name = row.get("name")
            registry = self._containers.get(name)
            if registry is not None and registry.node_id == node_id:
                continue  # consistent
            stale_epoch = row.get("epoch")
            if registry is not None:
                # Duplicate incarnations.  The registry copy is the one
                # the pimaster respawned (higher epoch when fencing is
                # on); the listed copy survived the partition.
                if not self.fencing:
                    duplicates += 1
                    self.duplicate_container_epochs += 1
                    continue
                winner_epoch = registry.epoch
                if (stale_epoch is not None and winner_epoch is not None
                        and stale_epoch > winner_epoch):
                    # Cannot happen with a single spawner; if it ever
                    # does, the listed copy is authoritative -- repoint
                    # the registry instead of destroying the newer copy.
                    self._untrack_group(registry)
                    registry.node_id = node_id
                    registry.epoch = stale_epoch
                    self._track_group(registry)
                    continue
            elif not self.fencing:
                continue  # orphan, but we have no authority to kill it
            destroy_epoch = (self._containers[name].epoch
                             if registry is not None else self.fencing_epoch)
            try:
                yield from self._destroy_stale(
                    node_id, record.ip, name, destroy_epoch, span,
                )
                destroyed += 1
            except Exception:  # noqa: BLE001 - daemon refused / vanished
                continue
        span.set_attribute("duplicates", duplicates)
        span.set_attribute("destroyed", destroyed)
        span.end("ok")

    def _destroy_stale(self, node_id: str, ip: str, name: str,
                       epoch: Optional[int], parent):
        """Fence off a stale container copy on a healed node."""
        self._destroy_seq += 1
        body = {"idempotency_key": f"fence:{name}:{self._destroy_seq}"}
        if epoch is not None:
            body["epoch"] = epoch
        destroy_span = trace.start_span(
            self.sim, "mgmt.fence-destroy", parent=parent, kind="mgmt",
            attributes={"container": name, "node": node_id, "epoch": epoch},
        )
        try:
            response = yield from self._call_with_retry(
                lambda attempt: self.client.delete(
                    ip, NODE_DAEMON_PORT, f"/containers/{name}",
                    body=body, parent=attempt,
                ),
                f"fence destroy of stale {name!r} on {node_id}",
                parent=destroy_span,
                node_id=node_id,
            )
            response.raise_for_status()
        except Exception as exc:  # noqa: BLE001
            destroy_span.end("error", str(exc))
            raise
        destroy_span.end("ok")

    def rejoin_node(self, daemon: NodeDaemon, ip: str, parent=None) -> Signal:
        """Re-enroll a repaired node; Signal -> NodeRecord.

        The node daemon re-announces itself after repair; the pimaster
        marks it REJOINING, lets one half-open probe through its breaker,
        and on a successful ``GET /health`` refreshes the registry row
        (new daemon object, fresh management IP), DNS, monitoring and the
        failure detector -- then marks it ALIVE again.  Closes the known
        resurrection gap in :class:`~repro.faults.MtbfFaultInjector`.
        """
        node_id = daemon.node_id
        span = trace.start_span(
            self.sim, "mgmt.rejoin", parent=parent, kind="mgmt",
            attributes={"node": node_id, "ip": ip},
        )
        self.health.mark(node_id, NodeHealth.REJOINING, parent=span.context)
        # The repair path re-images the SD card, so anything the image
        # service believes is cached there is gone -- even when the node
        # was never declared DEAD (manual rejoin, detector off).
        self.images.invalidate_node(node_id)
        breaker = self._breakers.get(node_id)
        if breaker is not None:
            breaker.half_open_now()

        def run():
            try:
                response = yield from self._call_with_retry(
                    lambda attempt: self.client.get(
                        ip, NODE_DAEMON_PORT, "/health", parent=attempt,
                    ),
                    f"rejoin probe of {node_id}",
                    parent=span,
                    node_id=node_id,
                )
                response.raise_for_status()
            except Exception as exc:  # noqa: BLE001 - node still unreachable
                span.end("error", str(exc))
                raise ManagementError(f"rejoin of {node_id!r} failed: {exc}") from exc
            record = self._nodes.get(node_id)
            if record is None:
                record = NodeRecord(node_id=node_id, ip=ip, daemon=daemon)
                self._nodes[node_id] = record
            else:
                record.ip = ip
                record.daemon = daemon
            try:
                self.dns.update(node_id, ip)
            except NameError_:
                self.dns.register(node_id, ip)
            daemon.peer_resolver = self.daemon
            self.monitoring.watch(node_id, ip)
            self.health.rewatch(node_id, ip)
            self.health.mark(node_id, NodeHealth.ALIVE, parent=span.context)
            self.rejoins += 1
            span.end("ok")
            return record

        return self.sim.process(run(), name=f"rejoin:{node_id}")

    def forget_container(self, name: str) -> None:
        """Drop a container's registry state without contacting its node.

        The evacuation path uses this for containers on a node declared
        dead: the REST daemon is unreachable, but the name, DNS record,
        lease and fabric address must be reusable by the respawn.  The
        address is unbound from the dead node's stack *before* the lease
        is released so a re-allocation cannot collide in the fabric.
        """
        record = self._containers.pop(name, None)
        if record is None:
            return
        self._untrack_group(record)
        node = self._nodes.get(record.node_id)
        if node is not None:
            node.daemon.kernel.netstack.unbind_address(record.ip)
        try:
            self.dns.unregister(name)
        except NameError_:
            pass
        try:
            self.dhcp.release(name)
        except LeaseError:
            pass

    def node_ids(self) -> list[str]:
        return sorted(self._nodes)

    def daemon(self, node_id: str) -> NodeDaemon:
        try:
            return self._nodes[node_id].daemon
        except KeyError:
            raise UnknownNodeError(f"unknown node {node_id!r}") from None

    def node_ip(self, node_id: str) -> str:
        return self._nodes[node_id].ip

    def container_record(self, name: str) -> ContainerRecord:
        try:
            return self._containers[name]
        except KeyError:
            raise ManagementError(f"unknown container {name!r}") from None

    def container_records(self) -> list[ContainerRecord]:
        return sorted(self._containers.values(), key=lambda r: r.name)

    # -- state views for placement ------------------------------------------------

    def _track_group(self, record: ContainerRecord) -> None:
        if record.group is None:
            return
        counts = self._node_groups.setdefault(record.node_id, {})
        counts[record.group] = counts.get(record.group, 0) + 1

    def _untrack_group(self, record: ContainerRecord) -> None:
        if record.group is None:
            return
        counts = self._node_groups.get(record.node_id)
        if not counts:
            return
        remaining = counts.get(record.group, 0) - 1
        if remaining > 0:
            counts[record.group] = remaining
        else:
            counts.pop(record.group, None)

    def _access_link(self, node_id: str, daemon: NodeDaemon):
        """The node's fabric access link, found once and memoised."""
        try:
            return self._access_links[node_id]
        except KeyError:
            pass
        found = None
        for link in daemon.kernel.netstack.fabric.network.links():
            if node_id in link.endpoints:
                found = link
                break
        self._access_links[node_id] = found
        return found

    def node_views(self) -> list[NodeView]:
        """Current snapshot of every registered node, in node-id order.

        Under the gen-2 failure detector, DEAD and UNREACHABLE nodes are
        not placement candidates: their machines may still report
        powered-on (a partitioned node *is* on), but a spawn routed there
        cannot succeed -- and respawning a partitioned replica onto its
        own dark pod would defeat the evacuation.  The legacy detector
        keeps the historical view (DEAD usually implies powered-off).
        """
        views = []
        synced = False
        partition_aware = self.health.partition_aware
        for node_id in self.node_ids():
            if partition_aware and self.health.state(node_id) in (
                    NodeHealth.DEAD, NodeHealth.UNREACHABLE):
                continue
            daemon = self._nodes[node_id].daemon
            machine = daemon.kernel.machine
            groups = tuple(sorted(self._node_groups.get(node_id, ())))
            # The host's access-link utilisation, if the fabric knows it.
            uplink = 0.0
            link = self._access_link(node_id, daemon)
            if link is not None:
                if not synced:
                    # Apply any fair-share solve deferred from churn at
                    # this instant so the utilisation read is current.
                    daemon.kernel.netstack.fabric.network.sync()
                    synced = True
                uplink = max(
                    link.forward.utilization.value,
                    link.reverse.utilization.value,
                )
            views.append(
                NodeView(
                    node_id=node_id,
                    rack=machine.rack,
                    memory_available=machine.memory.available,
                    memory_capacity=machine.memory.capacity,
                    cpu_load=machine.cpu.utilization.value,
                    running_containers=daemon.runtime.running_count(),
                    powered_on=machine.is_on,
                    uplink_utilization=uplink,
                    groups=groups,
                )
            )
        return views

    # -- orchestration ------------------------------------------------------------------

    def _call_with_retry(self, send, what: str, parent=None,
                         node_id: Optional[str] = None):
        """Issue ``send(span)`` (a REST-call factory) with retry + backoff.

        A generator helper (``yield from``).  Transport-level failures --
        the client's per-attempt deadline, connection refused, no route --
        surface as :class:`RestError` with status 0 and are retried up to
        ``op_attempts`` times, sleeping ``op_backoff_s * 2**attempt``
        between tries.  Application-level errors (any real HTTP status)
        are NOT retried: the node answered, the answer was no.  Once the
        attempts are exhausted a typed :class:`DeadlineExceeded` is
        raised, naming the operation.

        ``node_id`` routes attempt outcomes through that node's circuit
        breaker: when the breaker is open the call is rejected immediately
        with :class:`CircuitOpenError` instead of burning attempts against
        a daemon known to be dead.  An application-level answer counts as
        transport success (the node is reachable).

        ``send`` receives the attempt's span so the underlying REST call
        (and everything server-side) nests under it; each attempt is one
        child span of ``parent``, failed attempts ending in error status.
        """
        config = self.config
        breaker = self._breakers.get(node_id) if node_id is not None else None
        last_error: Optional[RestError] = None
        for attempt in range(config.op_attempts):
            if attempt:
                self.op_retries += 1
                yield Timeout(self.sim, config.op_backoff_s * (2 ** (attempt - 1)))
            if breaker is not None and not breaker.allow():
                self.breaker_fast_fails += 1
                raise CircuitOpenError(
                    f"{what}: circuit open for node {node_id}",
                    node_id=node_id,
                )
            attempt_span = trace.start_span(
                self.sim, "mgmt.attempt", parent=parent, kind="mgmt",
                attributes={"what": what, "attempt": attempt + 1},
            )
            try:
                response = yield send(attempt_span)
            except RestError as exc:
                attempt_span.end("error", str(exc))
                if exc.status != 0:
                    # The node answered; transport is healthy.
                    if breaker is not None:
                        breaker.record_success()
                    raise
                if breaker is not None:
                    breaker.record_failure()
                last_error = exc
                continue
            if breaker is not None:
                breaker.record_success()
            attempt_span.end("ok")
            return response
        self.op_deadline_failures += 1
        raise DeadlineExceeded(
            f"{what} failed after {config.op_attempts} attempts "
            f"({config.op_deadline_s}s per-attempt deadline): {last_error}",
            deadline_s=config.op_deadline_s,
            attempts=config.op_attempts,
            trace_id=getattr(parent, "trace_id", None),
        )

    def spawn_container(
        self,
        image: str,
        name: Optional[str] = None,
        policy: Optional[PlacementPolicy] = None,
        cpu_shares: int = 1024,
        cpu_quota: Optional[float] = None,
        memory_limit_bytes: Optional[int] = None,
        same_rack_as: Optional[str] = None,
        avoid_racks: tuple = (),
        group: Optional[str] = None,
        node_id: Optional[str] = None,
        parent=None,
    ) -> Signal:
        """Place, provision and start a container; Signal -> ContainerRecord.

        ``node_id`` pins the placement; otherwise the active policy picks.
        The whole chain is real: image push (if cold), DHCP lease, REST
        create/start on the node, DNS registration.  ``parent`` roots the
        spawn's trace (the recovery plane parents respawns on the
        evacuation span).
        """
        container_image = self.images.get(image)
        self._spawn_seq += 1
        container_name = name or f"{container_image.name}-{self._spawn_seq}"
        # One key per spawn *call*: retried attempts share it, so a node
        # that already created the container answers from its idempotency
        # cache instead of double-creating.
        idempotency_key = f"spawn:{container_name}:{self._spawn_seq}"
        # Fencing: stamp the spawn with the next epoch so the daemon can
        # reject stale ops and reconciliation can order incarnations.
        # Off by default -- the field is absent from the wire format, so
        # unfenced deployments see byte-identical request sizes.
        epoch: Optional[int] = None
        if self.fencing:
            self.fencing_epoch += 1
            epoch = self.fencing_epoch
        span = trace.start_span(
            self.sim, "mgmt.spawn", parent=parent, kind="mgmt",
            attributes={"image": container_image.name, "container": container_name},
        )
        if container_name in self._containers:
            span.end("error", "name in use")
            return Signal(self.sim).fail(
                ManagementError(f"container name {container_name!r} in use")
            )

        request = PlacementRequest(
            image=container_image.name,
            memory_bytes=container_image.idle_memory_bytes,
            cpu_shares=cpu_shares,
            cpu_quota=cpu_quota,
            same_rack_as=same_rack_as,
            avoid_racks=tuple(avoid_racks),
            anti_affinity_group=group,
        )

        def run():
            try:
                if node_id is not None:
                    target = node_id
                else:
                    chooser = policy or self.placement_policy
                    target = chooser.choose(request, self.node_views())
            except PlacementError as exc:
                self.spawn_failures += 1
                span.end("error", str(exc))
                raise
            span.set_attribute("node", target)
            record = self._nodes[target]
            try:
                yield self.images.ensure_cached(
                    self.client, target, record.ip, NODE_DAEMON_PORT,
                    container_image, parent=span,
                )
                lease = self.dhcp.request_lease(
                    client_id=container_name, hostname=container_name
                )
                body = {
                    "name": container_name,
                    "image": container_image.qualified_name,
                    "ip": lease.ip,
                    "cpu_shares": cpu_shares,
                    "cpu_quota": cpu_quota,
                    "memory_limit_bytes": memory_limit_bytes,
                    "idempotency_key": idempotency_key,
                }
                if epoch is not None:
                    body["epoch"] = epoch
                response = yield from self._call_with_retry(
                    lambda attempt: self.client.post(
                        record.ip, NODE_DAEMON_PORT, "/containers",
                        body=body,
                        parent=attempt,
                    ),
                    f"container create/start of {container_name!r} on {target}",
                    parent=span,
                    node_id=target,
                )
                response.raise_for_status()
            except Exception as exc:  # noqa: BLE001 - spawn failed downstream
                self.spawn_failures += 1
                span.end("error", str(exc))
                raise ManagementError(
                    f"spawn of {container_name!r} failed: {exc}"
                ) from exc
            fqdn = self.dns.register(container_name, lease.ip)
            container_record = ContainerRecord(
                name=container_name,
                node_id=target,
                image=container_image.qualified_name,
                ip=lease.ip,
                fqdn=fqdn,
                group=group,
                epoch=epoch,
            )
            self._containers[container_name] = container_record
            self._track_group(container_record)
            self.spawns += 1
            span.end("ok")
            return container_record

        return self.sim.process(run(), name=f"spawn:{container_name}")

    def destroy_container(self, name: str) -> Signal:
        """Stop + destroy a container and release its lease and DNS record."""
        record = self.container_record(name)
        node = self._nodes[record.node_id]
        self._destroy_seq += 1
        idempotency_key = f"destroy:{name}:{self._destroy_seq}"
        span = trace.start_span(self.sim, "mgmt.destroy", kind="mgmt",
                                attributes={"container": name})

        def run():
            try:
                response = yield from self._call_with_retry(
                    lambda attempt: self.client.delete(
                        node.ip, NODE_DAEMON_PORT, f"/containers/{name}",
                        body={"idempotency_key": idempotency_key},
                        parent=attempt,
                    ),
                    f"container destroy of {name!r}",
                    parent=span,
                    node_id=record.node_id,
                )
                response.raise_for_status()
            except Exception as exc:  # noqa: BLE001
                span.end("error", str(exc))
                raise ManagementError(f"destroy of {name!r} failed: {exc}") from exc
            self.dns.unregister(name)
            self.dhcp.release(name)
            self._untrack_group(record)
            del self._containers[name]
            span.end("ok")
            return name

        return self.sim.process(run(), name=f"destroy:{name}")

    def set_limits(self, name: str, **limits) -> Signal:
        """Adjust a container's soft resource limits (Fig. 4 use case)."""
        record = self.container_record(name)
        node = self._nodes[record.node_id]
        span = trace.start_span(self.sim, "mgmt.set_limits", kind="mgmt",
                                attributes={"container": name})

        def run():
            try:
                response = yield from self._call_with_retry(
                    lambda attempt: self.client.post(
                        node.ip, NODE_DAEMON_PORT, f"/containers/{name}/limits",
                        body=limits, parent=attempt,
                    ),
                    f"set_limits on {name!r}",
                    parent=span,
                    node_id=record.node_id,
                )
                response.raise_for_status()
            except Exception as exc:  # noqa: BLE001
                span.end("error", str(exc))
                raise ManagementError(f"set_limits on {name!r} failed: {exc}") from exc
            span.end("ok")
            return response.body

        return self.sim.process(run(), name=f"limits:{name}")

    def migrate_container(self, name: str, destination: str,
                          reassign_ip: bool = False) -> Signal:
        """Live-migrate via the source node's daemon; Signal -> report dict.

        ``reassign_ip=True`` models subnet-bound ("IP-full") addressing:
        after the move the container receives a *new* DHCP lease on the
        destination and DNS is updated -- so peers holding the old
        address break until they re-resolve.  The default keeps the IP
        (the paper's IP-less-routing goal of seamless migration).
        """
        record = self.container_record(name)
        if destination not in self._nodes:
            return Signal(self.sim).fail(
                ManagementError(f"unknown destination node {destination!r}")
            )
        source = self._nodes[record.node_id]
        span = trace.start_span(
            self.sim, "mgmt.migrate", kind="mgmt",
            attributes={"container": name, "source": record.node_id,
                        "destination": destination},
        )

        def run():
            try:
                response = yield from self._call_with_retry(
                    lambda attempt: self.client.post(
                        source.ip, NODE_DAEMON_PORT, f"/containers/{name}/migrate",
                        body={"destination": destination}, parent=attempt,
                    ),
                    f"migration of {name!r} to {destination}",
                    parent=span,
                    node_id=record.node_id,
                )
                response.raise_for_status()
            except Exception as exc:  # noqa: BLE001
                span.end("error", str(exc))
                raise ManagementError(f"migration of {name!r} failed: {exc}") from exc
            self._untrack_group(record)
            record.node_id = destination
            self._track_group(record)
            if reassign_ip:
                try:
                    old_ip = record.ip
                    self.dhcp.release(name)
                    lease = self.dhcp.request_lease(client_id=name, hostname=name)
                    rebind = yield self.client.post(
                        self._nodes[destination].ip, NODE_DAEMON_PORT,
                        f"/containers/{name}/rebind", body={"ip": lease.ip},
                        parent=span,
                    )
                    rebind.raise_for_status()
                    record.ip = lease.ip
                    self.dns.update(name, lease.ip)
                except Exception as exc:  # noqa: BLE001
                    span.end("error", str(exc))
                    raise ManagementError(
                        f"IP reassignment for {name!r} failed: {exc}"
                    ) from exc
            span.end("ok")
            return response.body

        return self.sim.process(run(), name=f"migrate:{name}")

    # -- panel ------------------------------------------------------------------------

    def dashboard(self) -> Dashboard:
        """Snapshot the cloud for the web control panel."""
        return Dashboard(self)

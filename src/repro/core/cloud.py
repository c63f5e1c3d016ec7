"""The PiCloud facade: build and drive the whole testbed.

Construction wires every layer together: machines in Lego racks, the
multi-root tree (or fat-tree) fabric with the configured routing mode,
per-host kernels and LXC runtimes, node daemons, and the pimaster with
DHCP/DNS/images/monitoring.  After :meth:`boot`, the cloud is the paper's
Fig. 1/2 system in software::

    cloud = PiCloud(PiCloudConfig())        # 4 racks x 14 Model B
    cloud.boot()
    record = cloud.spawn("webserver")       # placed, pushed, leased, started
    cloud.run_for(60.0)
    print(cloud.dashboard().render())
"""

from __future__ import annotations

from typing import Dict, Optional

from repro import trace
from repro.core.config import PiCloudConfig, SimBudgetConfig
from repro.errors import LeaseError, PiCloudError
from repro.hardware.catalog import RASPBERRY_PI_MODEL_B_512
from repro.hardware.machine import Machine
from repro.hostos.kernelhost import HostKernel
from repro.hostos.netstack import IpFabric
from repro.mgmt.dashboard import Dashboard
from repro.mgmt.node_daemon import NodeDaemon
from repro.mgmt.pimaster import PiMaster
from repro.netsim.fabric import Network
from repro.netsim.routing import EcmpRouting, ShortestPathRouting
from repro.netsim.sdn.apps import (
    EcmpHashApp,
    LeastCongestedPathApp,
    ShortestPathApp,
)
from repro.netsim.sdn.controller import OpenFlowPathService, SdnController
from repro.netsim.topology import fat_tree, multi_root_tree, rack_host_names
from repro.power.meter import CloudPowerMeter
from repro.sim.kernel import Simulator
from repro.sim.process import AllOf, Signal
from repro.sim.rng import RngRegistry
from repro.telemetry import metrics as metrics_plane
from repro.trace import Tracer
from repro.units import usec
from repro.virt.container import Container

PIMASTER_NODE = "pimaster"
# The head node is a 512 MB Model B.
PIMASTER_SPEC = RASPBERRY_PI_MODEL_B_512
# Propagation latency of every cable in the fabric.
LINK_LATENCY_S = usec(50)


def run_until_triggered(
    sim: Simulator,
    signal: Signal,
    until: Optional[float],
    budget: Optional[SimBudgetConfig] = None,
) -> None:
    """``sim.run(until, budget=budget)`` that also returns once ``signal`` fires.

    Registering the stop callback schedules nothing, so event order is
    the same as an unstopped run's; the callback is removed again however
    the run ends, so it cannot stop a later run.
    """
    if signal.triggered:
        return

    def stop(_signal: Signal) -> None:
        sim.stop()

    signal.add_done_callback(stop)
    try:
        sim.run(until=until, budget=budget)
    finally:
        signal.discard_callback(stop)


class PiCloud:
    """The assembled testbed."""

    def __init__(self, config: Optional[PiCloudConfig] = None) -> None:
        self.config = config or PiCloudConfig()
        self.sim = Simulator(budget=self.config.run_budget())
        self.tracer: Optional[Tracer] = None
        if self.config.trace.enabled:
            self.tracer = Tracer(
                self.sim, kernel_events=self.config.trace.kernel_events
            )
        self.rng = RngRegistry(self.config.seed)

        # -- topology -----------------------------------------------------
        racks = rack_host_names(self.config.num_racks, self.config.pis_per_rack)
        self.node_names = [name for rack in racks for name in rack]
        if self.config.topology == "multi-root-tree":
            self.topology = multi_root_tree(
                racks,
                num_roots=self.config.num_roots,
                host_bandwidth=self.config.host_bandwidth,
                uplink_bandwidth=self.config.uplink_bandwidth,
                gateway_bandwidth=self.config.uplink_bandwidth,
                latency=LINK_LATENCY_S,
            )
            attach_point = "gateway"
        else:
            self.topology = fat_tree(
                self.config.fat_tree_k,
                hosts=self.node_names,
                host_bandwidth=self.config.host_bandwidth,
                fabric_bandwidth=self.config.uplink_bandwidth,
                latency=LINK_LATENCY_S,
            )
            attach_point = "core0"
        # The pimaster hangs off the gateway / a core switch.
        self.topology.add_host(PIMASTER_NODE)
        self.topology.connect(
            PIMASTER_NODE, attach_point,
            self.config.uplink_bandwidth, LINK_LATENCY_S,
        )

        # -- routing / SDN ---------------------------------------------------
        self.controller: Optional[SdnController] = None
        routing = self.config.routing
        structured = self.config.structured_routing
        if routing == "shortest":
            path_service = ShortestPathRouting(
                self.sim, self.topology, structured=structured
            )
        elif routing == "ecmp":
            path_service = EcmpRouting(
                self.sim, self.topology, structured=structured
            )
        else:
            app = {
                "sdn-shortest": ShortestPathApp(),
                "sdn-ecmp": EcmpHashApp(),
                "sdn-least-congested": LeastCongestedPathApp(),
            }[routing]
            self.controller = SdnController(
                self.sim, self.topology, app, structured=structured
            )
            path_service = OpenFlowPathService(
                self.sim,
                self.controller,
                control_latency=self.config.sdn_control_latency_s,
                match_granularity=self.config.sdn_match_granularity,
            )
        self.network = Network(
            self.sim, self.topology, path_service=path_service,
            congestion_threshold=self.config.congestion_threshold,
            incremental=self.config.incremental_fairness,
            rate_model=self.config.rate_model.build(),
        )
        if self.controller is not None:
            self.controller.attach_network(self.network)
        self.ip_fabric = IpFabric(self.sim, self.network)

        # -- machines -----------------------------------------------------------
        self.machines: Dict[str, Machine] = {}
        for rack_index, rack in enumerate(racks):
            for slot, name in enumerate(rack):
                self.machines[name] = Machine(
                    self.sim, self.config.machine_spec, name,
                    rack=f"rack{rack_index}", slot=slot,
                )
        self.machines[PIMASTER_NODE] = Machine(
            self.sim, PIMASTER_SPEC, PIMASTER_NODE, rack=None
        )

        # Populated by boot():
        self.kernels: Dict[str, HostKernel] = {}
        self.daemons: Dict[str, NodeDaemon] = {}
        self.pimaster: Optional[PiMaster] = None
        self.power_meter = CloudPowerMeter(self.machines.values())
        self._booted = False
        # Trace context of the latest outstanding fault per target (node
        # id, or "a|b" for links): the failure detector parents its
        # health transitions here so detection descends from its cause.
        self._fault_contexts: Dict[str, object] = {}
        # Gray-failure state: node id -> service-time stretch factor
        # (>= 1.0) consumed by the load engine's latency model.
        self._slow_factors: Dict[str, float] = {}
        # Node groups of the active partition (for heal bookkeeping).
        self._partition_groups: list[list[str]] = []

    # -- lifecycle -----------------------------------------------------------------

    def boot(self) -> None:
        """Power on every machine and bring up the management plane.

        Synchronous: machines come up at once.  :meth:`boot_async` models
        the spec boot times instead.
        """
        if self._booted:
            raise PiCloudError("cloud already booted")
        for machine in self.machines.values():
            machine.boot_immediately()
        self._bring_up_management()

    def boot_async(self) -> Signal:
        """Timed boot: machines come up after their spec boot time."""
        if self._booted:
            raise PiCloudError("cloud already booted")
        signals = [machine.boot() for machine in self.machines.values()]

        def run():
            yield AllOf(self.sim, signals)
            self._bring_up_management()
            return self

        return self.sim.process(run(), name="cloud.boot")

    def _bring_up_management(self) -> None:
        # Host kernels everywhere.
        for name, machine in self.machines.items():
            self.kernels[name] = HostKernel(self.sim, machine, self.ip_fabric)

        # The pimaster and its services.
        self.pimaster = PiMaster(self.kernels[PIMASTER_NODE], self.config)
        self.pimaster.health.fault_context_provider = self.fault_context
        pool = self.pimaster.dhcp.pool
        pimaster_ip = pool.allocate()
        self.kernels[PIMASTER_NODE].netstack.bind_address(pimaster_ip)

        # Node daemons, with static (infinite-TTL) management leases.
        # One batched pass per node -- lease, bind, daemon, enroll -- with
        # the call chain hoisted out of the loop; at hundreds of nodes the
        # repeated attribute traversals are a measurable slice of boot.
        request_lease = self.pimaster.dhcp.request_lease
        register_node = self.pimaster.register_node
        kernels = self.kernels
        daemons = self.daemons
        op_deadline_s = self.config.op_deadline_s
        static_ttl = float("inf")
        for name in self.node_names:
            lease = request_lease(client_id=name, hostname=name, ttl_s=static_ttl)
            kernel = kernels[name]
            kernel.netstack.bind_address(lease.ip)
            daemon = NodeDaemon(kernel, op_deadline_s=op_deadline_s)
            daemons[name] = daemon
            register_node(daemon, lease.ip)

        if self.config.start_monitoring:
            self.pimaster.monitoring.start()
        if self.config.health.enabled:
            self.pimaster.health.start()
        self._booted = True

    def _require_booted(self) -> None:
        if not self._booted:
            raise PiCloudError("cloud not booted; call boot() first")

    # -- driving the simulation -------------------------------------------------------

    def run_for(self, seconds: float) -> None:
        """Advance the simulated clock by ``seconds``."""
        self.sim.run(until=self.sim.now + seconds)

    def run(self, until: Optional[float] = None) -> None:
        self.sim.run(until=until)

    # -- convenience passthroughs ----------------------------------------------------------

    def spawn(self, image: str, **kwargs) -> Signal:
        """Spawn a container through the pimaster (see PiMaster.spawn_container)."""
        self._require_booted()
        return self.pimaster.spawn_container(image, **kwargs)

    def spawn_and_wait(self, image: str, **kwargs):
        """Spawn and block (runs the simulator) until placement completes."""
        signal = self.spawn(image, **kwargs)
        self.run_until_signal(signal)
        return signal.value  # raises if the spawn failed

    def run_until_signal(self, signal: Signal, max_seconds: float = 86_400.0) -> None:
        """Run the simulator until ``signal`` triggers (or the cap hits).

        Unlike ``run_for``, this stops right after the event that fires
        the signal, so periodic background work (monitoring polls) does
        not needlessly extend the run.  If the signal never fires, this
        returns the way ``run(until=now + max_seconds)`` does: the clock
        ends at the cap, also when the event queue drains first.  The
        installed run budget applies throughout.
        """
        run_until_triggered(self.sim, signal, until=self.sim.now + max_seconds)

    def container(self, name: str) -> Container:
        """The live container object for a managed container name."""
        self._require_booted()
        record = self.pimaster.container_record(name)
        return self.daemons[record.node_id].runtime.container(name)

    def dashboard(self) -> Dashboard:
        self._require_booted()
        return self.pimaster.dashboard()

    def rack_inventory(self) -> dict[str, list[str]]:
        """Rack -> machines, the Fig. 1 physical inventory."""
        return self.topology.racks()

    # -- failure injection ----------------------------------------------------------------

    def fail_node(self, node_id: str) -> None:
        """Hard-fail a Pi: machine dies, its daemon stops serving."""
        self._require_booted()
        machine = self.machines[node_id]
        machine.fail()
        daemon = self.daemons.get(node_id)
        if daemon is not None:
            daemon.server.stop()
        span = trace.instant(self.sim, "fault.node-fail", kind="fault",
                             attributes={"target": node_id}, status="error")
        self._fault_contexts[node_id] = span.context

    def rejoin_node(self, node_id: str) -> Signal:
        """Repair a failed Pi and re-enroll it; Signal -> NodeRecord.

        Models the swap-the-SD-card operational loop: the machine is
        repaired and rebooted, the old kernel's residue is torn down
        (leaked container memory uncharged, fabric addresses unbound, SD
        card wiped), and a *fresh* kernel + node daemon come up on a
        fresh management lease.  The daemon then re-announces itself to
        the pimaster (:meth:`PiMaster.rejoin_node`), which re-registers
        it and marks it ALIVE once a health probe answers.
        """
        self._require_booted()
        if node_id not in self.node_names:
            raise PiCloudError(f"cannot rejoin unmanaged node {node_id!r}")
        machine = self.machines[node_id]
        machine.repair()
        machine.boot_immediately()
        old_kernel = self.kernels.get(node_id)
        if old_kernel is not None:
            for cgroup_name in old_kernel.cgroups():
                old_kernel.remove_cgroup(cgroup_name)
            old_kernel.netstack.reset()
            old_kernel.filesystem.wipe()
        kernel = HostKernel(self.sim, machine, self.ip_fabric)
        self.kernels[node_id] = kernel
        try:
            self.pimaster.dhcp.release(node_id)
        except LeaseError:
            pass
        lease = self.pimaster.dhcp.request_lease(
            client_id=node_id, hostname=node_id, ttl_s=float("inf")
        )
        kernel.netstack.bind_address(lease.ip)
        daemon = NodeDaemon(kernel, op_deadline_s=self.config.op_deadline_s)
        self.daemons[node_id] = daemon
        span = trace.instant(
            self.sim, "fault.node-repair", kind="fault",
            parent=self._fault_contexts.pop(node_id, None),
            attributes={"target": node_id}, status="ok",
        )
        return self.pimaster.rejoin_node(daemon, lease.ip, parent=span.context)

    def fail_link(self, a: str, b: str) -> None:
        self.network.fail_link(a, b)
        span = trace.instant(self.sim, "fault.link-fail", kind="fault",
                             attributes={"target": f"{a}|{b}"}, status="error")
        self._fault_contexts[f"{a}|{b}"] = span.context

    def repair_link(self, a: str, b: str) -> None:
        self.network.repair_link(a, b)
        trace.instant(self.sim, "fault.link-repair", kind="fault",
                      parent=self._fault_contexts.pop(f"{a}|{b}", None),
                      attributes={"target": f"{a}|{b}"}, status="ok")

    # -- gray failures & partitions -------------------------------------------------------

    def degrade_link(self, a: str, b: str, bandwidth_frac: float = 1.0,
                     extra_latency: float = 0.0, loss: float = 0.0) -> None:
        """Gray-fail a cable: reduced capacity / added latency / loss.

        The link stays *up* -- nothing is rerouted and no flow dies; the
        fair-share solver squeezes traffic onto the reduced capacity and
        the load engine's latency model picks up the loss/latency.
        Revert with :meth:`restore_link`.
        """
        self.network.degrade_link(
            a, b, bandwidth_frac=bandwidth_frac,
            extra_latency=extra_latency, loss=loss,
        )
        span = trace.instant(
            self.sim, "fault.link-degrade", kind="fault",
            attributes={"target": f"{a}|{b}", "bandwidth_frac": bandwidth_frac,
                        "extra_latency": extra_latency, "loss": loss},
            status="error",
        )
        self._fault_contexts[f"{a}|{b}"] = span.context

    def restore_link(self, a: str, b: str) -> None:
        """Clear a link's gray-failure state (capacity back to spec)."""
        if not self.network.link(a, b).degraded:
            return
        self.network.restore_link(a, b)
        trace.instant(self.sim, "fault.link-restore", kind="fault",
                      parent=self._fault_contexts.pop(f"{a}|{b}", None),
                      attributes={"target": f"{a}|{b}"}, status="ok")

    def slow_node(self, node_id: str, factor: float) -> None:
        """Gray-fail a Pi: service times stretch by ``factor`` (>= 1).

        The node keeps answering heartbeats and serving requests -- it is
        just slow (thermal throttling, a dying SD card).  Consumed by the
        load engine's latency model; revert with
        :meth:`restore_node_speed`.
        """
        if factor < 1.0:
            raise PiCloudError(f"slow_node factor must be >= 1, got {factor}")
        if node_id not in self.machines:
            raise PiCloudError(f"unknown node {node_id!r}")
        self._slow_factors[node_id] = factor
        span = trace.instant(self.sim, "fault.node-slow", kind="fault",
                             attributes={"target": node_id, "factor": factor},
                             status="error")
        self._fault_contexts[node_id] = span.context

    def restore_node_speed(self, node_id: str) -> None:
        """Clear a node's slow-down (service times back to spec)."""
        if self._slow_factors.pop(node_id, None) is None:
            return
        trace.instant(self.sim, "fault.node-restore", kind="fault",
                      parent=self._fault_contexts.pop(node_id, None),
                      attributes={"target": node_id}, status="ok")

    def slow_factor(self, node_id: str) -> float:
        """The node's current service-time stretch (1.0 = healthy)."""
        return self._slow_factors.get(node_id, 1.0)

    def partition(self, groups) -> None:
        """Partition the fabric into isolated reachability groups.

        ``groups`` is a list of node-name groups (hosts and/or switches);
        unnamed nodes form one implicit "rest" group.  Cross-group
        traffic -- control plane heartbeats included -- fails until
        :meth:`heal_partition`.  Nothing is marked dead: every node keeps
        running, which is exactly what makes partitions dangerous.
        """
        groups = [list(group) for group in groups]
        self.network.set_partition(groups)
        members = [node for group in groups for node in group]
        span = trace.instant(
            self.sim, "fault.partition", kind="fault",
            attributes={"groups": len(groups), "members": ",".join(members)},
            status="error",
        )
        self._partition_groups = groups
        self._fault_contexts["partition"] = span.context
        for node in members:
            self._fault_contexts[node] = span.context

    def heal_partition(self) -> None:
        """Heal the active partition; reachability is restored instantly."""
        if not self.network.partitioned:
            return
        self.network.clear_partition()
        span = trace.instant(
            self.sim, "fault.partition-heal", kind="fault",
            parent=self._fault_contexts.pop("partition", None),
            attributes={}, status="ok",
        )
        # Re-point member fault contexts at the heal instant so the
        # recovery chain (node back ALIVE -> reconcile -> destroys)
        # traces back to the heal, not the cut.
        for group in self._partition_groups:
            for node in group:
                self._fault_contexts[node] = span.context
        self._partition_groups = []

    def fault_context(self, target: str):
        """Trace context of the latest outstanding fault on ``target``.

        ``target`` is a node id or an ``"a|b"`` link key.  Installed as
        the failure detector's ``fault_context_provider`` so detection
        instants descend from the fault that caused them.  None when no
        fault is outstanding (or tracing is off).
        """
        return self._fault_contexts.get(target)

    # -- tracing ----------------------------------------------------------------------

    def write_trace(self, path: str) -> str:
        """Export the recorded trace; ``.jsonl`` -> JSONL, else Chrome JSON.

        Open spans are closed at the current clock first, so a trace
        exported mid-run (or after a budget trip) is still well-formed.
        """
        if self.tracer is None:
            raise PiCloudError(
                "tracing is off; build with "
                "PiCloudConfig(trace=TraceConfig(enabled=True))"
            )
        self.tracer.finish_open_spans()
        return self.tracer.write(path)

    # -- measurements ------------------------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        """Every declared cloud metric (:mod:`repro.telemetry.metrics`), now.

        One flat dict of ``layer.counter`` names, sorted by name.  It only
        reads counters: nothing is scheduled, cancelled, settled or
        flushed, so taking it mid-run leaves the run unchanged.
        """
        self._require_booted()
        return metrics_plane.snapshot(self)

    def total_watts(self) -> float:
        return self.power_meter.current_watts()

    def energy_joules(self, start: Optional[float] = None,
                      end: Optional[float] = None) -> float:
        return self.power_meter.energy_joules(start, end)

    def describe(self) -> dict[str, object]:
        """Architecture summary (the Fig. 2 reproduction)."""
        shape = self.topology.describe()
        return {
            "machines": len(self.machines),
            "pis": len(self.node_names),
            "racks": self.config.num_racks,
            "pis_per_rack": self.config.pis_per_rack,
            "topology": self.config.topology,
            "routing": self.config.routing,
            "sdn_enabled": self.controller is not None,
            **{f"net_{k}": v for k, v in shape.items()},
        }

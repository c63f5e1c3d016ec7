"""The live network: flows, fair-share rates, congestion accounting.

:class:`Network` instantiates a :class:`~repro.netsim.link.Link` per
topology edge and runs the fluid flow model: whenever a flow starts,
finishes, or is rerouted, fair-share rates are recomputed with
:func:`~repro.netsim.fairness.max_min_rates` and completion events are
rescheduled.  Per-direction utilisation gauges and congestion counters
feed the cross-layer experiments (C2/C3) directly.

A flow sets itself up with three kernel callbacks of its own, not a
process: :meth:`Network.transfer` queues :meth:`FlowTransfer._start`,
which asks the path service for a route.  The route wakes
:meth:`FlowTransfer._routed` -- on the event queue when it is already
known, or as soon as a pending one (an SDN PacketIn) resolves -- which
checks the path and queues :meth:`FlowTransfer._propagated` after the
path's latency, or calls it inline on a zero-latency path; that
activates the flow unless a link died or a partition landed meanwhile.
These are the events a generator process per flow used to schedule (its
start, its wakeup on the route, its propagation timeout) at the same
times, priorities and sequence numbers, so a run is unchanged event for
event.  Bound to the flow, each event's label names it in a budget
snapshot (``FlowTransfer._propagated[flow7]``).

The recompute is *incremental* by default: each churn event (activate,
complete, fail, reroute) marks the link directions and flows it touched
dirty, and the next solve only covers the affected bottleneck component
-- the flows transitively sharing a link with the dirty set -- instead of
the whole fabric.  Because the solver fills each component independently
(see :mod:`repro.netsim.fairness`), the component-local answer is
bit-identical to the corresponding slice of a full solve; rates, bytes
and congestion accounting cannot drift.  Pass ``incremental=False`` for
the exact-fallback path that re-solves everything on every event (the
pre-optimisation behaviour, kept for cross-checking and benchmarks).

Solves are additionally *coalesced within a simulated instant*: churn
marks state dirty and arms one low-priority kernel event at the current
timestamp; the actual solve runs once, after every same-instant churn
event has been dispatched.  Because simulated time does not advance
between the churn and the solve, no byte accounting can be missed --
``_settle`` over a zero-length window moves nothing -- so rates at every
clock *boundary* are identical to solving eagerly.  What the coalescing
removes is the O(burst) re-solve per event when e.g. a monitoring sweep
starts hundreds of flows at the same instant, which used to make fleet
boot quadratic in burst size.  Readers that want rates mid-instant
(reports, placement) go through :meth:`Network.sync` /
:meth:`Network.congestion_report`, which flush any pending solve first.

Rate assignment itself is pluggable: every solve delegates the rate
vector to a :class:`~repro.netsim.cc.RateModel` strategy, then makes one
pass over the solved flows in ``flow_id`` order that settles each
flow's bytes at its old rate, installs its new rate and adds it into
its directions' loads (:meth:`Network._reallocate`).  The default
:class:`~repro.netsim.cc.MaxMinRateModel` reproduces the historic
instantaneous fair share byte-for-byte; :class:`~repro.netsim.cc.CcRateModel`
adds per-flow congestion windows, per-direction queue occupancy and an
epoch-stepped update loop that re-enters the fabric through
:meth:`Network._epoch_reallocate`, which runs the same pass on the
epoch plan's index lists, rebuilt only on churn.  The plan parks idle
queues between ticks; whatever reads or moves a queue here
(:meth:`Network.sync`, :meth:`Network.queue_metrics`, a gray failure
or its repair, a churn solve) has the rate model catch them up first
(:meth:`~repro.netsim.cc.RateModel.catch_up`).
"""

from __future__ import annotations

import enum
import math
from operator import attrgetter
from typing import TYPE_CHECKING, Dict, Hashable, Iterable, List, Optional

from repro import trace
from repro.errors import ConnectionResetError, NetworkError, NoRouteError
from repro.netsim.cc import MaxMinRateModel, RateModel, queue_metrics
from repro.netsim.link import Link, LinkDirection
from repro.netsim.routing import PathService, ShortestPathRouting, path_links
from repro.netsim.topology import Topology
from repro.sim.kernel import Event, Simulator
from repro.sim.process import Signal
from repro.telemetry.series import Counter, TimeSeries
from repro.trace.span import NULL_SPAN

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.netsim.cc import _EpochPlan

_EPSILON_BYTES = 1e-6


class FlowState(enum.Enum):
    PENDING = "pending"    # waiting for route resolution / propagation
    ACTIVE = "active"      # transferring data
    DONE = "done"
    FAILED = "failed"


class FlowTransfer(Signal):
    """One data transfer (think: a TCP flow) through the fabric.

    A flow is its own completion signal: it succeeds (``yield flow``
    resumes with ``None``) when the last byte arrives, or fails with a
    :class:`~repro.errors.NetworkError` (or with whatever error its path
    service failed the route with).
    """

    _next_id = 0

    def __init__(
        self,
        network: "Network",
        src: str,
        dst: str,
        size: float,
        flow_key: Hashable,
        rate_cap: Optional[float],
        tag: str,
    ) -> None:
        FlowTransfer._next_id += 1
        self.flow_id = FlowTransfer._next_id
        super().__init__(network.sim, name=f"flow{self.flow_id}")
        self.network = network
        self.src = src
        self.dst = dst
        self.size = float(size)
        self.flow_key = flow_key if flow_key is not None else self.flow_id
        self.rate_cap = rate_cap
        self.tag = tag
        self.state = FlowState.PENDING
        # Causal trace span covering request -> last byte (repro.trace).
        self.span = NULL_SPAN

        self.path: List[str] = []
        self.directions: List[LinkDirection] = []
        self.remaining = self.size
        self.rate = 0.0
        self.requested_at = network.sim.now
        self.started_at: Optional[float] = None
        self.completed_at: Optional[float] = None
        self._last_update = network.sim.now
        self._completion_event: Optional[Event] = None
        # Congestion-control state (a repro.netsim.cc.CcFlowState) when a
        # cc rate model governs this flow; None under max-min.  Survives
        # completion so flow observers can read loss/ECN signal counts at
        # the completion boundary.
        self.cc = None

    @property
    def duration(self) -> Optional[float]:
        """Transfer time from request to completion (None until done)."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.requested_at

    @property
    def throughput(self) -> Optional[float]:
        """Achieved mean throughput in bytes/s (None until done)."""
        duration = self.duration
        if duration is None or duration <= 0:
            return None
        return self.size / duration

    # -- set-up ------------------------------------------------------------
    # Three kernel callbacks, bound to the flow so that the kernel's
    # labels for its events carry the flow's name.

    def _start(self) -> None:
        """First event (queued by :meth:`Network.transfer`): ask for a
        path.  A resolved route wakes :meth:`_routed` on the event queue;
        a pending one (an SDN PacketIn) calls it when it triggers."""
        self.network.path_service.resolve(
            self.src, self.dst, self.flow_key).add_done_callback(self._routed)

    def _routed(self, route: Signal) -> None:
        """Check the path, then wait out its latency, if any."""
        network = self.network
        if route.exception is not None:
            # NoRouteError, or whatever else failed the path service:
            # the flow's waiter sees it either way.
            network._fail_flow(self, route.exception)
            return
        path = route.value
        if (network._partition is not None
                and network._partition_blocks(path)):
            network._fail_flow(self, NoRouteError(
                f"network partition blocks {self.src}->{self.dst}"
            ))
            return
        try:
            directions = network._directions_for(path)
        except NetworkError as exc:
            # Drop the traceback: its frames lead back to this one, which
            # holds the flow, so the flow would sit in a cycle with it.
            network._fail_flow(self, exc.with_traceback(None))
            return
        self.path = list(path)
        self.directions = directions
        # Propagation: the first byte takes the path's total latency.
        total_latency = sum(d.latency for d in directions)
        if total_latency > 0:
            self.sim.schedule(total_latency, self._propagated)
        else:
            self._propagated()

    def _propagated(self) -> None:
        """The first byte arrived: activate unless the path broke."""
        if self.state is not FlowState.PENDING:
            return  # failed while propagating
        network = self.network
        # A link may have died -- or a partition landed -- during the
        # propagation window.
        dead = [d for d in self.directions if not d.link.up]
        if dead:
            network._fail_flow(self, NoRouteError(
                f"link {dead[0].link.a}<->{dead[0].link.b} failed "
                "while the flow was being established"
            ))
            return
        if (network._partition is not None
                and network._partition_blocks(self.path)):
            network._fail_flow(self, NoRouteError(
                f"network partition blocks {self.src}->{self.dst}"
            ))
            return
        network._activate(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Flow {self.flow_id} {self.src}->{self.dst} "
            f"{self.state.value} {self.remaining:.0f}/{self.size:.0f}B>"
        )


class Network:
    """The fabric: links + active flows + the fair-share rate solver."""

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        path_service: Optional[PathService] = None,
        congestion_threshold: float = 0.9,
        incremental: bool = True,
        rate_model: Optional[RateModel] = None,
    ) -> None:
        topology.validate()
        self.sim = sim
        self.topology = topology
        self.path_service: PathService = path_service or ShortestPathRouting(sim, topology)
        self.congestion_threshold = congestion_threshold
        self.incremental = incremental

        self._links: Dict[frozenset, Link] = {}
        for a, b, spec in topology.edges():
            self._links[frozenset((a, b))] = Link(sim, a, b, spec.bandwidth, spec.latency)
        # Every direction (link order) -> its bytes_carried counter, for
        # the churn solve's pass; directions and counters never change.
        self._carried: Dict[LinkDirection, Counter] = {
            direction: direction.bytes_carried
            for link in self._links.values()
            for direction in (link.forward, link.reverse)
        }

        self._active: set[FlowTransfer] = set()
        # Rate caps of active flows, maintained incrementally alongside
        # the dirty-flow tracking (activate adds, detach removes) so a
        # solve never rebuilds it from the flow set; the solver reads it
        # per-flow via .get and never iterates it.
        self._rate_caps: Dict[FlowTransfer, float] = {}
        # The rate-assignment strategy (see repro.netsim.cc).
        self.rate_model: RateModel = rate_model if rate_model is not None \
            else MaxMinRateModel()
        self.rate_model.attach(self)
        # Active partition: node name -> group index (None = no partition).
        # Nodes absent from the map form one implicit "rest" group.
        self._partition: Optional[Dict[str, int]] = None
        # Incremental solver state: link directions whose flow membership
        # changed and flows whose constraints changed since the last solve.
        self._dirty_directions: set[LinkDirection] = set()
        self._dirty_flows: set[FlowTransfer] = set()
        # The one deferred solve armed for the current instant (None when
        # no churn is pending).  See the module docstring on coalescing.
        self._solve_event: Optional[Event] = None
        # Bumped whenever the active set or a flow's path changes
        # (activate, detach, reroute): rate models that cache per-epoch
        # structure compare it to know when to rebuild.
        self._churn = 0
        # Bumped whenever a link's capacity changes (degrade_link,
        # restore_link): the cc epoch plan re-reads capacities then.
        self._capacity_version = 0
        # Cumulative solver effort counters (benchmark/diagnostic aid):
        # how many flow-rate assignments each recompute performed.
        self.recomputes = 0
        self.flows_solved = 0
        self.flows_started = Counter(sim, "net.flows.started")
        self.flows_completed = Counter(sim, "net.flows.completed")
        self.flows_failed = Counter(sim, "net.flows.failed")
        self.bytes_delivered = Counter(sim, "net.bytes.delivered")
        self.flow_durations = TimeSeries("net.flow.durations")
        # Observers called with each flow as it completes or fails
        # (trace recorders, TE telemetry, ...).
        self.flow_observers: list = []

    # -- link access ---------------------------------------------------------

    def link(self, a: str, b: str) -> Link:
        try:
            return self._links[frozenset((a, b))]
        except KeyError:
            raise NetworkError(f"no link between {a!r} and {b!r}") from None

    def links(self) -> Iterable[Link]:
        return self._links.values()

    def direction(self, src: str, dst: str) -> LinkDirection:
        return self.link(src, dst).direction(src, dst)

    # -- link failure ----------------------------------------------------------

    def fail_link(self, a: str, b: str) -> None:
        """Cut a cable: active flows over it fail; routing recomputes."""
        link = self.link(a, b)
        if not link.up:
            return
        link.up = False
        self.path_service.mark_link(a, b, up=False)
        victims = sorted(
            (flow for flow in self._active
             if any(d.link is link for d in flow.directions)),
            key=lambda flow: flow.flow_id,
        )
        for flow in victims:
            self._fail_flow(
                flow, ConnectionResetError(f"link {a}<->{b} failed mid-transfer")
            )
        self._request_solve()

    def repair_link(self, a: str, b: str) -> None:
        link = self.link(a, b)
        if link.up:
            return
        link.up = True
        self.path_service.mark_link(a, b, up=True)

    # -- gray failures ---------------------------------------------------------

    def degrade_link(self, a: str, b: str, bandwidth_frac: float = 1.0,
                     extra_latency: float = 0.0, loss: float = 0.0) -> None:
        """Gray-fail a cable: less capacity / more latency / packet loss.

        Unlike :meth:`fail_link` the binary link state stays *up*:
        routing keeps using the link, no flow is killed, nothing is
        rerouted -- active flows simply get squeezed by the fair-share
        solver onto the reduced capacity.  ``loss`` is bookkeeping for
        higher layers (the load engine's retransmission model); the
        fluid byte accounting itself is lossless.
        """
        link = self.link(a, b)
        self._advance_queues(link)
        link.degrade(bandwidth_frac=bandwidth_frac,
                     extra_latency=extra_latency, loss=loss)
        self._capacity_version += 1
        self._dirty_directions.add(link.forward)
        self._dirty_directions.add(link.reverse)
        self._request_solve()

    def restore_link(self, a: str, b: str) -> None:
        """Clear a link's gray-failure state (capacity back to spec)."""
        link = self.link(a, b)
        if not link.degraded:
            return
        self._advance_queues(link)
        link.restore()
        self._capacity_version += 1
        self._dirty_directions.add(link.forward)
        self._dirty_directions.add(link.reverse)
        self._request_solve()

    def _advance_queues(self, link: Link) -> None:
        """Integrate both queues up to now at the capacity about to change,
        so the part of the epoch before a gray failure (or its repair)
        drains at the capacity it actually had.  Queues the rate model
        parked are caught up first: the capacity change would un-idle
        them."""
        self.rate_model.catch_up()
        now = self.sim.now
        for direction in (link.forward, link.reverse):
            if direction.queue is not None:
                direction.queue.advance(now)

    # -- partitions -----------------------------------------------------------

    def set_partition(self, groups: Iterable[Iterable[str]]) -> None:
        """Cut cross-group reachability without failing any link.

        ``groups`` is a list of node-name groups; nodes not named fall
        into one implicit "rest" group.  Flows whose path would cross a
        group boundary fail to establish (``NoRouteError``), and active
        flows already crossing one are reset -- both control and data
        plane, since every REST call and heartbeat is a fabric flow.
        Links stay *up* and routing state is untouched: this models a
        reachability cut (mis-pushed ACL, spanning-tree meltdown), not
        cable damage, so :meth:`clear_partition` heals instantly.
        """
        partition: Dict[str, int] = {}
        for index, group in enumerate(groups):
            for node in group:
                if node not in self.topology.graph:
                    raise NetworkError(f"unknown partition member {node!r}")
                partition[node] = index
        self._partition = partition
        victims = sorted(
            (flow for flow in self._active
             if self._partition_blocks(flow.path)),
            key=lambda flow: flow.flow_id,
        )
        for flow in victims:
            self._fail_flow(
                flow, ConnectionResetError(
                    f"network partition cut the {flow.src}->{flow.dst} path"
                )
            )

    def clear_partition(self) -> None:
        """Heal the partition: cross-group traffic flows again."""
        self._partition = None

    @property
    def partitioned(self) -> bool:
        return self._partition is not None

    def _partition_blocks(self, path: List[str]) -> bool:
        """Does ``path`` cross a partition group boundary?"""
        partition = self._partition
        if partition is None or not path:
            return False
        group = partition.get(path[0], -1)
        for node in path[1:]:
            if partition.get(node, -1) != group:
                return True
        return False

    # -- transfers ---------------------------------------------------------------

    def transfer(
        self,
        src: str,
        dst: str,
        nbytes: float,
        flow_key: Hashable = None,
        rate_cap: Optional[float] = None,
        tag: str = "",
        parent=None,
    ) -> FlowTransfer:
        """Start a transfer of ``nbytes`` from ``src`` to ``dst``.

        Returns immediately with a :class:`FlowTransfer`; yield it to wait
        for completion.  A zero-byte transfer still pays
        the path's propagation latency (it models a control message).
        ``parent`` (a span or span context) attributes the flow to its
        causal trace.
        """
        if nbytes < 0:
            raise NetworkError(f"cannot transfer {nbytes} bytes")
        for node in (src, dst):
            if node not in self.topology.graph:
                raise NetworkError(f"unknown endpoint {node!r}")
        flow = FlowTransfer(self, src, dst, nbytes, flow_key, rate_cap, tag)
        flow.span = trace.start_span(
            self.sim, "net.flow", parent=parent, kind="net",
            attributes={"src": src, "dst": dst, "bytes": nbytes, "tag": tag},
        )
        self.sim.schedule(0.0, flow._start)
        return flow

    def _directions_for(self, path: List[str]) -> List[LinkDirection]:
        directions = []
        for a, b in path_links(path):
            link = self.link(a, b)
            if not link.up:
                raise NoRouteError(f"path uses failed link {a}<->{b}")
            directions.append(link.direction(a, b))
        return directions

    def _activate(self, flow: FlowTransfer) -> None:
        self._churn += 1
        flow.state = FlowState.ACTIVE
        flow.started_at = self.sim.now
        flow._last_update = self.sim.now
        self.flows_started.add()
        if flow.remaining <= _EPSILON_BYTES:
            self._complete(flow)
            return
        self._active.add(flow)
        self._dirty_flows.add(flow)
        if flow.rate_cap is not None:
            self._rate_caps[flow] = flow.rate_cap
        for direction in flow.directions:
            direction.flows.add(flow)
            self._dirty_directions.add(direction)
        self.rate_model.on_activate(flow)
        self._request_solve()

    def reroute(self, flow: FlowTransfer, new_path: List[str]) -> None:
        """Move an active flow onto a different path (SDN TE hook)."""
        if flow.state is not FlowState.ACTIVE:
            raise NetworkError(f"cannot reroute flow in state {flow.state.value}")
        if new_path[0] != flow.src or new_path[-1] != flow.dst:
            raise NetworkError(
                f"reroute path must join {flow.src!r} to {flow.dst!r}"
            )
        directions = self._directions_for(new_path)
        self._churn += 1
        self._settle(flow)
        for direction in flow.directions:
            direction.flows.discard(flow)
            self._dirty_directions.add(direction)
        flow.path = list(new_path)
        flow.directions = directions
        self._dirty_flows.add(flow)
        for direction in directions:
            direction.flows.add(flow)
            self._dirty_directions.add(direction)
        self._request_solve()

    # -- the fluid model ----------------------------------------------------------

    def _request_solve(self) -> None:
        """Arm the one deferred solve for the current instant.

        Churn handlers call this instead of solving inline; the solve
        runs as a priority-1 kernel event at ``sim.now``, after every
        same-instant priority-0 event (including churn the first piece
        triggered transitively) has been dispatched.  An armed event is
        always at the current instant -- the kernel fires it before the
        clock can advance -- so one pending event covers all callers.
        """
        if self._solve_event is None:
            self._solve_event = self.sim.schedule(0.0, self._run_solve, priority=1)

    def _run_solve(self) -> None:
        self._solve_event = None
        self._recompute()

    def _flush_solve(self) -> None:
        """Run any pending deferred solve now (same instant, so exact)."""
        event = self._solve_event
        if event is None:
            return
        event.cancel()
        self._solve_event = None
        self._recompute()

    def _settle(self, flow: FlowTransfer) -> None:
        """Bring a flow's remaining-bytes up to date with the clock."""
        if math.isinf(flow.rate):
            # Unconstrained flow (e.g. loopback): drains instantly.
            flow.remaining = 0.0
            flow._last_update = self.sim.now
            return
        elapsed = self.sim.now - flow._last_update
        if elapsed > 0 and flow.rate > 0:
            moved = min(flow.remaining, flow.rate * elapsed)
            flow.remaining -= moved
            # Counter.add's negative-increment check, once per flow
            # rather than once per hop.
            if moved < 0:
                raise ValueError(
                    f"flow {flow.flow_id}: negative settle {moved}")
            for direction in flow.directions:
                direction.bytes_carried.total += moved
        flow._last_update = self.sim.now

    def _affected(self) -> tuple[list[FlowTransfer], set[LinkDirection]]:
        """Expand the dirty set into whole bottleneck components.

        Returns every active flow transitively sharing a direction with a
        dirty flow/direction (sorted by flow id for determinism) plus all
        directions reached -- a closed subproblem for the solver.
        """
        seen_flows = {f for f in self._dirty_flows if f in self._active}
        seen_dirs = set(self._dirty_directions)
        frontier = list(seen_flows)
        for direction in self._dirty_directions:
            for flow in direction.flows:
                if flow not in seen_flows:
                    seen_flows.add(flow)
                    frontier.append(flow)
        while frontier:
            flow = frontier.pop()
            for direction in flow.directions:
                if direction not in seen_dirs:
                    seen_dirs.add(direction)
                    for other in direction.flows:
                        if other not in seen_flows:
                            seen_flows.add(other)
                            frontier.append(other)
        return sorted(seen_flows, key=lambda f: f.flow_id), seen_dirs

    def _recompute(self) -> None:
        """Re-solve rates and reschedule completions (churn entry point).

        Incremental mode solves only the dirty bottleneck component(s);
        the fallback treats everything as dirty and re-solves the whole
        fabric (the pre-optimisation behaviour).  Both paths run the same
        per-component arithmetic, so they assign identical rates.  The
        rate vector itself comes from the pluggable rate model; under the
        default max-min strategy this is byte-identical to the historic
        inline solve.
        """
        if self.incremental:
            flows, dirty_dirs = self._affected()
        else:
            flows = sorted(self._active, key=lambda f: f.flow_id)
            dirty_dirs = None  # refresh every direction below
        self._dirty_flows.clear()
        self._dirty_directions.clear()
        if not flows and dirty_dirs is not None and not dirty_dirs:
            return
        self.recomputes += 1
        self.flows_solved += len(flows)
        rates = self.rate_model.allocate(flows, dirty_dirs)
        if dirty_dirs is None:
            directions = list(self._carried)
        else:
            directions = sorted(dirty_dirs, key=attrgetter("name"))
        # The churn pass keys its hops by direction: a solve touches a
        # different subset each time, so there is no plan to index.
        loads = dict.fromkeys(directions, 0.0)
        self._reallocate(flows, rates, [flow.directions for flow in flows],
                         self._carried, loads)
        self._set_loads(directions, loads.values())

    def _epoch_reallocate(self, plan: _EpochPlan,
                          rates: Dict[FlowTransfer, float]) -> None:
        """Cc epoch entry point: install ``rates`` from updated windows.

        Called by :class:`~repro.netsim.cc.CcRateModel` on its epoch tick
        with its :class:`~repro.netsim.cc._EpochPlan` -- the *whole*
        active cc flow set (sorted by flow id), every direction on their
        paths (sorted by name), each flow's hop positions in that list
        and the directions' ``bytes_carried`` counters -- and the rates
        its epoch allocation computed.  The same pass as a churn solve,
        on index lists the plan rebuilds only on churn, and without
        touching the dirty sets: windows moving changes no link
        membership.  Only directions on active paths can see their
        aggregate rate move, so only those loads are refreshed.
        """
        self.recomputes += 1
        self.flows_solved += len(plan.flows)
        loads = [0.0] * len(plan.directions)
        self._reallocate(plan.flows, rates, plan.paths, plan.carried, loads)
        self._set_loads(plan.directions, loads)

    def _reallocate(self, flows: List[FlowTransfer],
                    rates: Dict[FlowTransfer, float], paths: Iterable,
                    carried, loads) -> None:
        """Settle, install ``rates`` and sum link loads, in one pass.

        ``flows`` arrive sorted by flow id and ``paths`` runs parallel
        to them: each flow's hops in path order, as keys into
        ``carried`` (the hops' ``bytes_carried`` counters) and ``loads``
        (their loads, each 0.0 on entry).  The epoch's keys are
        positions in its plan's lists, a churn solve's the directions
        themselves.  Per flow: settle its bytes at the old rate (the
        arithmetic of :meth:`_settle`), install the new rate and
        (re)schedule its completion, then add the new rate, if finite,
        into its hops' loads -- so each load is summed in flow id order.
        """
        now = self.sim.now
        inf = math.inf
        for flow, path in zip(flows, paths):
            rate = flow.rate
            if rate == inf:
                # Unconstrained flow (e.g. loopback): drains instantly.
                flow.remaining = 0.0
            else:
                elapsed = now - flow._last_update
                if elapsed > 0 and rate > 0:
                    moved = rate * elapsed
                    remaining = flow.remaining
                    if not moved < remaining:
                        moved = remaining
                    flow.remaining = remaining - moved
                    if moved < 0:
                        raise ValueError(
                            f"flow {flow.flow_id}: negative settle {moved}")
                    for i in path:
                        carried[i].total += moved
            flow._last_update = now
            new_rate = rates[flow]
            if new_rate < inf:
                for i in path:
                    loads[i] += new_rate
            event = flow._completion_event
            if new_rate == rate and event is not None and not event.cancelled:
                # Unchanged rate: the pending completion event was
                # computed from the same rate history, so its firing
                # time is still valid -- skip the cancel/reschedule.
                continue
            flow.rate = new_rate
            if new_rate > 0 and math.isfinite(new_rate):
                due = now + flow.remaining / new_rate
            elif math.isinf(new_rate):
                due = now
            else:
                due = math.inf  # stalled: next capacity-freeing solve re-arms
            if event is not None and not event.cancelled and event.time <= due:
                # The pending event fires at or before the new completion
                # time.  An early wakeup is harmless -- _complete settles
                # the flow and re-arms for the residue -- so only a rate
                # *increase* (completion moving earlier) forces a
                # reschedule.  Slowdowns, the common case in a churn
                # burst, keep their event and leave no heap tombstone.
                continue
            if event is not None:
                event.cancel()
                flow._completion_event = None
            if math.isfinite(due):
                flow._completion_event = self.sim.schedule_at(
                    due, self._complete, flow
                )

    def _set_loads(self, directions: Iterable[LinkDirection],
                   loads: Iterable[float]) -> None:
        """Apply each direction's new load, in ``directions`` order (the
        order congestion spans open in), skipping loads that did not
        move."""
        threshold = self.congestion_threshold
        for direction, load in zip(directions, loads):
            if load != direction._last_load:
                direction.set_load(load, threshold)

    def _complete(self, flow: FlowTransfer) -> None:
        if flow.state is not FlowState.ACTIVE:
            return
        self._settle(flow)
        if flow.remaining > _EPSILON_BYTES and flow.remaining > flow.size * 1e-9:
            # Either a stale wakeup (a reroute slowed the flow down after
            # this event was scheduled) or floating-point rounding left a
            # hair of residue.  Re-arm completion for whatever remains so
            # the flow always makes progress; a zero rate waits for the
            # next recompute instead.
            if flow.rate > 0 and math.isfinite(flow.rate):
                eta = flow.remaining / flow.rate
                if self.sim.now + eta > self.sim.now:
                    flow._completion_event = self.sim.schedule(
                        eta, self._complete, flow
                    )
                    return
                # The residue drains in less than one representable clock
                # tick at the current timestamp: the rescheduled event
                # would fire at the *same* instant, _settle would move
                # zero bytes, and the flow would re-arm itself forever.
                # Deliver the sub-resolution residue now instead.
            else:
                # Stalled flow: drop the reference to this (already fired)
                # event so the next solve doesn't mistake it for a pending
                # completion, and wait for capacity to free up.
                flow._completion_event = None
                return
        flow.remaining = 0.0
        flow.state = FlowState.DONE
        flow.completed_at = self.sim.now
        self._detach(flow)
        self.flows_completed.add()
        self.bytes_delivered.add(flow.size)
        self.flow_durations.record(self.sim.now, flow.duration or 0.0)
        # The freed capacity is handed out by the deferred solve at this
        # same instant; waiters that need post-completion loads mid-instant
        # read them through sync()/congestion_report(), which flush it.
        self._request_solve()
        flow.span.end("ok")
        for observer in self.flow_observers:
            observer(flow)
        flow.succeed()

    def _fail_flow(self, flow: FlowTransfer, exc: Exception) -> None:
        if flow.state in (FlowState.DONE, FlowState.FAILED):
            return
        was_active = flow.state is FlowState.ACTIVE
        flow.state = FlowState.FAILED
        if was_active:
            # A flow failing during set-up never joined the active set
            # or its directions: there is nothing to detach.
            self._detach(flow)
        self.flows_failed.add()
        flow.span.end("error", str(exc))
        for observer in self.flow_observers:
            observer(flow)
        flow.fail(exc)
        if was_active:
            self._request_solve()

    def _detach(self, flow: FlowTransfer) -> None:
        self._churn += 1
        self._active.discard(flow)
        self._dirty_flows.discard(flow)
        self._rate_caps.pop(flow, None)
        for direction in flow.directions:
            direction.flows.discard(flow)
            self._dirty_directions.add(direction)
        self.rate_model.on_detach(flow)
        if flow._completion_event is not None:
            flow._completion_event.cancel()
            flow._completion_event = None

    # -- reporting ------------------------------------------------------------------

    @property
    def active_flow_count(self) -> int:
        return len(self._active)

    def active_flows(self) -> list[FlowTransfer]:
        return sorted(self._active, key=lambda f: f.flow_id)

    def sync(self) -> None:
        """Bring every active flow's byte accounting up to the clock.

        The incremental solver settles only the flows a churn event
        touched; call this before reading byte counters mid-run so
        long-lived untouched flows are accounted up to ``sim.now`` too.
        Also flushes any solve deferred from churn at the current
        instant, so rates and link loads read afterwards are current,
        and has the rate model catch up the queues it parked.
        """
        self._flush_solve()
        self.rate_model.catch_up()
        for flow in sorted(self._active, key=lambda f: f.flow_id):
            self._settle(flow)

    def congestion_report(self) -> list[dict[str, object]]:
        """Per-direction congestion summary, worst first (experiment C2)."""
        self.sync()
        rows = []
        for link in self._links.values():
            for direction in (link.forward, link.reverse):
                direction.finalize_congestion()
                rows.append(
                    {
                        "direction": direction.name,
                        "mean_util": direction.mean_utilization(),
                        "congested_s": direction.congested_seconds,
                        "episodes": direction.congestion_episodes,
                        "bytes": direction.bytes_carried.total,
                    }
                )
        rows.sort(key=lambda r: (-r["congested_s"], -r["mean_util"]))
        return rows

    def path_queue_delay(self, directions: Iterable[LinkDirection]) -> float:
        """Current queueing delay summed along ``directions``.

        Exactly 0.0 when no queue model is attached (the default max-min
        rate model), so latency models adding this term stay bit-identical
        on the default path.
        """
        total = 0.0
        for direction in directions:
            queue = direction.queue
            if queue is not None:
                total += queue.delay_s()
        return total

    def queue_metrics(self) -> dict:
        """Fabric-wide queue/ECN rollup (all zeros under max-min).

        See :func:`repro.netsim.cc.queue_metrics`: worst-direction p99
        occupancy and ECN-mark fraction, summed drops.
        """
        self.rate_model.catch_up()
        directions = []
        for link in self._links.values():
            directions.append(link.forward)
            directions.append(link.reverse)
        return queue_metrics(directions)

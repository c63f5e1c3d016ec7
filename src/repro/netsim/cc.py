"""Pluggable rate models: max-min fair share vs per-flow congestion control.

The fabric's :class:`~repro.netsim.fabric.Network` delegates rate
assignment to a :class:`RateModel` strategy:

* :class:`MaxMinRateModel` (the default) reproduces the historic
  instantaneous max-min fair share -- stateless, event-driven, and
  byte-identical to the pre-strategy fabric.
* :class:`CcRateModel` runs a per-flow congestion-control loop on top of
  the same solver: each flow keeps a congestion window, each link
  direction a fluid FIFO queue (:class:`~repro.netsim.link.QueueState`),
  and an epoch ticker converts windows to demand rates
  (``cwnd / rtt``), feeds queueing delay / ECN marks / drops back into
  the windows, and re-allocates.  Three update rules are provided:
  Reno-style AIMD, DCTCP with an ECN-fraction EWMA, and a delay-based
  variant (smoothed-RTT backoff).

Allocation under ``cc`` is *demand-capped max-min*: every flow's demand
``min(cwnd / rtt, rate_cap)`` is handed to the max-min fill
(:func:`~repro.netsim.fairness.fill_components`) as its cap, so flows still
share each direction's capacity max-min fairly *below* their windows --
the shared-capacity accounting lives in one place for both models.

Determinism: the cc loop contains no randomness; flows are always
iterated in ``flow_id`` order and per-direction demand sums are
accumulated in that same order, so same-seed runs are bit-identical
regardless of hash seeds.

Fidelity notes (the model is fluid, not packet-level):

* One queue per direction, single-bottleneck approximation: a flow
  offers its full demand to every hop on its path (see
  :class:`~repro.netsim.link.QueueState`).
* Signals are sampled per epoch, not per packet: the ECN fraction is
  the share of the epoch the queue spent above the marking threshold,
  loss means the queue overflowed at some point during the epoch.
* Multiplicative decreases are gated to once per RTT, matching the
  once-per-window reaction of real TCP.
"""

from __future__ import annotations

import math
from operator import attrgetter
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional

from repro.errors import RateModelError
from repro.netsim.fairness import (
    connected_components, fill_components, fill_layouts, fill_with_layouts,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import RateModelConfig
    from repro.netsim.fabric import FlowTransfer, Network
    from repro.netsim.link import LinkDirection, QueueState

# Constants tuned for the paper's fabric: 100 Mb/s links, shallow switch
# buffers (200 x 1500 B packets) and a DCTCP-style ECN threshold at 15%
# of the buffer.
EPOCH_S = 0.001                 # window-update tick
QUEUE_LIMIT_BYTES = 300_000.0   # per link direction; overflow is loss
ECN_THRESHOLD_FRAC = 0.15       # mark above this fraction of the buffer
# Windows start at INIT_CWND_BYTES, never fall below MIN_CWND_BYTES,
# grow by AI_MSS_PER_RTT segments of MSS_BYTES per RTT and shrink by
# MD_FACTOR on loss.
INIT_CWND_BYTES = 15_000.0
MIN_CWND_BYTES = 1_500.0
MSS_BYTES = 1_500.0
AI_MSS_PER_RTT = 1.0
MD_FACTOR = 0.5
DCTCP_G = 0.0625                # DCTCP's ECN-fraction EWMA gain
# The delay variant backs off when smoothed RTT exceeds DELAY_THRESHOLD
# times the propagation RTT, smoothing with weight DELAY_SMOOTHING.
DELAY_THRESHOLD = 1.25
DELAY_SMOOTHING = 0.1
# A parked queue's epochs are replayed at the latest after this many
# ticks, so a long steady run keeps a bounded list of them.
PARK_BACKLOG = 1024
# What close_epoch returns for an idle queue: no marks, no overflow,
# no delay.  The tick hands it to parked queues without calling them.
_IDLE_SIGNAL = (0.0, False, 0.0)


class RateModel:
    """Strategy interface: how the fabric assigns rates to active flows.

    Lifecycle: the :class:`~repro.netsim.fabric.Network` calls
    :meth:`attach` once at construction, :meth:`on_activate` /
    :meth:`on_detach` as flows join and leave, and :meth:`allocate`
    from every churn solve.  ``allocate`` receives the flows of a closed
    bottleneck component (sorted by flow id) and must return a rate for
    each; ``dirty_dirs`` is the set of directions the triggering churn
    touched (``None`` for a full solve) so stateful models can refresh
    per-direction bookkeeping for directions that lost their last flow.
    """

    name = "abstract"

    def __init__(self) -> None:
        self.network: Optional["Network"] = None

    def attach(self, network: "Network") -> None:
        if self.network is not None and self.network is not network:
            raise RateModelError(
                f"rate model {self.name!r} is already attached to a fabric"
            )
        self.network = network

    def on_activate(self, flow: "FlowTransfer") -> None:
        """A flow became ACTIVE on its resolved path."""

    def on_detach(self, flow: "FlowTransfer") -> None:
        """A flow left the fabric (completed, failed, or was killed)."""

    def allocate(
        self,
        flows: List["FlowTransfer"],
        dirty_dirs: Optional[set],
    ) -> Dict["FlowTransfer", float]:
        raise NotImplementedError

    def catch_up(self) -> None:
        """Bring every queue the model has parked up to date.

        The fabric calls this before it reads or moves queue state
        (:meth:`~repro.netsim.fabric.Network.sync`,
        :meth:`~repro.netsim.fabric.Network.queue_metrics`, a gray
        failure or its repair).  Max-min keeps no queues.
        """

    def describe(self) -> dict:
        """Introspection row for reports and the CLI."""
        return {"model": self.name}


class MaxMinRateModel(RateModel):
    """Instantaneous max-min fair share (the historic default).

    Stateless: every allocation is a pure function of the component's
    paths, capacities and rate caps, computed with the same arithmetic
    (and the same iteration order) as the pre-strategy fabric, so the
    default path stays byte-identical.
    """

    name = "maxmin"

    def allocate(
        self,
        flows: List["FlowTransfer"],
        dirty_dirs: Optional[set],
    ) -> Dict["FlowTransfer", float]:
        network = self.network
        flow_paths = {flow: flow.directions for flow in flows}
        capacities: Dict["LinkDirection", float] = {}
        for flow in flows:
            for direction in flow.directions:
                capacities[direction] = direction.capacity
        # Paths and capacities come straight from fabric state, so the
        # fill runs without max_min_rates' input checks.
        return fill_components(connected_components(flow_paths), flow_paths,
                               capacities, network._rate_caps)


class CcFlowState:
    """Per-flow congestion-control state: the window and its update rule.

    ``protocol`` is one of :data:`repro.core.config.CC_PROTOCOLS`;
    ``rtt_base_s`` is the flow's propagation RTT.  Usable standalone
    (unit tests drive :meth:`update` with hand-built signal sequences);
    the :class:`CcRateModel` owns one per active flow.
    """

    __slots__ = (
        "protocol", "cwnd", "rtt_base", "alpha", "srtt", "last_decrease_at",
        "ecn_signals", "loss_signals", "decreases",
    )

    def __init__(self, protocol: str, *, rtt_base_s: float) -> None:
        if rtt_base_s <= 0:
            raise RateModelError(f"rtt_base_s must be positive, got {rtt_base_s}")
        self.protocol = protocol
        self.cwnd = INIT_CWND_BYTES
        self.rtt_base = float(rtt_base_s)
        self.alpha = 0.0           # DCTCP ECN-fraction EWMA
        self.srtt: Optional[float] = None  # delay-variant smoothed RTT
        self.last_decrease_at = -math.inf
        self.ecn_signals = 0
        self.loss_signals = 0
        self.decreases = 0

    def demand_rate(self, queue_delay_s: float) -> float:
        """Window -> offered rate: cwnd over the (queue-inclusive) RTT."""
        return self.cwnd / (self.rtt_base + queue_delay_s)

    def update(self, now: float, dt: float, rtt_s: float,
               ecn_frac: float, loss: bool) -> None:
        """One epoch step: apply the protocol's rule to the window.

        ``rtt_s`` is the current queue-inclusive RTT, ``ecn_frac`` the
        fraction of the epoch the path's worst queue spent above the ECN
        threshold, ``loss`` whether any queue on the path overflowed.
        """
        if ecn_frac > 0.0:
            self.ecn_signals += 1
        if loss:
            self.loss_signals += 1
        grow = AI_MSS_PER_RTT * MSS_BYTES * (dt / rtt_s)
        if self.protocol == "reno":
            # Classic AIMD, loss-only: Reno is ECN-blind, fills the
            # buffer until it overflows, then halves.
            if loss:
                self._decrease(now, rtt_s, MD_FACTOR)
            else:
                self.cwnd += grow
        elif self.protocol == "dctcp":
            self.alpha = ((1.0 - DCTCP_G) * self.alpha
                          + DCTCP_G * ecn_frac)
            if loss:
                self._decrease(now, rtt_s, MD_FACTOR)
            elif ecn_frac > 0.0:
                # Proportional backoff: gentle when marks are rare.
                self._decrease(now, rtt_s, 1.0 - self.alpha / 2.0)
            else:
                self.cwnd += grow
        else:  # delay
            if self.srtt is None:
                self.srtt = rtt_s
            else:
                w = DELAY_SMOOTHING
                self.srtt = (1.0 - w) * self.srtt + w * rtt_s
            if loss:
                self._decrease(now, rtt_s, MD_FACTOR)
            elif self.srtt > DELAY_THRESHOLD * self.rtt_base:
                self._decrease(now, rtt_s, MD_FACTOR)
            else:
                self.cwnd += grow

    def _decrease(self, now: float, rtt_s: float, factor: float) -> None:
        """Multiplicative decrease, gated to once per RTT."""
        if now - self.last_decrease_at < rtt_s:
            return
        self.cwnd = max(self.cwnd * factor, MIN_CWND_BYTES)
        self.last_decrease_at = now
        self.decreases += 1


class _EpochPlan:
    """The epoch's view of the active set, valid until the next churn.

    Membership (activate, detach) and paths (reroute) only change on
    churn, which bumps ``Network._churn``; the tick rebuilds the plan
    when that counter moves.  Besides the sorted flows and directions
    and the bottleneck components, the plan keeps what the tick would
    otherwise rebuild from those paths every epoch: the flows' windows
    and rate caps (a flow's cap is fixed when it activates), each wide
    component's :class:`~repro.netsim.fairness.FillLayout`, the queues
    and ``bytes_carried`` counters of its directions (name order; the cc
    model gives every direction a queue) and, per flow, the positions of
    its hops in that order (path order).  The directions' capacities,
    as a dict and in the layouts, are read again only when
    ``Network._capacity_version`` moves (a gray failure or its repair).
    Queue contents, counter totals and windows change between epochs,
    so they are read live and never cached here.

    *Parked queues.*  ``parked`` runs parallel to ``queues``: None for a
    queue the tick closes, else the index into ``epochs`` from which the
    queue sat out.  At the end of a tick, :meth:`set_inflows` parks each
    queue the next :meth:`~repro.netsim.link.QueueState.close_epoch`
    would find idle -- empty, with an inflow the link can serve -- and
    the tick hands it the idle signal without calling it.  ``epochs``
    lists the length of every epoch since the plan was built (or last
    caught up), each exactly the ``dt`` the skipped ``close_epoch``
    would have computed; a zero-length one is left out, as
    ``close_epoch`` would change nothing over it.  A parked queue is replayed from there, epoch
    by epoch (:meth:`~repro.netsim.link.QueueState.replay_idle`), when
    its inflow outgrows the link or by :meth:`catch_up`, which the
    model calls before anything reads or moves a queue between ticks.
    """

    __slots__ = ("churn", "flows", "states", "rate_caps", "flow_paths",
                 "directions", "components", "layouts", "queues", "carried",
                 "paths", "capacity_version", "capacities", "parked",
                 "epochs")

    def __init__(self, churn: int, capacity_version: int,
                 states: Dict["FlowTransfer", CcFlowState]) -> None:
        self.churn = churn
        self.flows = sorted(states, key=attrgetter("flow_id"))
        self.states = [states[flow] for flow in self.flows]
        self.rate_caps = [flow.rate_cap for flow in self.flows]
        self.flow_paths = {flow: flow.directions for flow in self.flows}
        self.directions = sorted(
            {direction for flow in self.flows for direction in flow.directions},
            key=attrgetter("name"),
        )
        self.components = connected_components(self.flow_paths)
        self.capacity_version = capacity_version
        self.capacities = {d: d.capacity for d in self.directions}
        self.layouts = fill_layouts(self.components, self.flow_paths,
                                    self.capacities)
        self.queues: List["QueueState"] = [d.queue for d in self.directions]
        self.carried = [d.bytes_carried for d in self.directions]
        position = {d: i for i, d in enumerate(self.directions)}
        self.paths = [[position[d] for d in flow.directions]
                      for flow in self.flows]
        self.parked: List[Optional[int]] = [None] * len(self.queues)
        self.epochs: List[float] = []

    def read_capacities(self, capacity_version: int) -> None:
        """Re-read the directions' capacities after one changed."""
        self.capacity_version = capacity_version
        self.capacities = {d: d.capacity for d in self.directions}
        for layout in self.layouts:
            if layout is not None:
                layout.read_capacities(self.capacities)

    def set_inflows(self, offered: List[float], now: float) -> None:
        """End of the tick at ``now``: set each queue's new inflow.

        ``offered`` runs parallel to ``queues``.  A queue left empty
        whose inflow the link can serve is parked from the next epoch
        on; a parked queue whose inflow now exceeds its link's capacity
        is replayed up to ``now`` and closed by the tick again.
        """
        parked = self.parked
        mark = len(self.epochs)
        for i, (queue, demand, capacity) in enumerate(
                zip(self.queues, offered, self.capacities.values())):
            queue.offered = demand
            if demand <= capacity:
                if parked[i] is None and queue.occupancy == 0.0:
                    parked[i] = mark
            elif parked[i] is not None:
                queue.replay_idle(self.epochs[parked[i]:], now)
                parked[i] = None

    def catch_up(self, now: float) -> None:
        """Replay every parked queue up to the tick at ``now``, the
        plan's last, and hand it back to the tick."""
        epochs = self.epochs
        for i, start in enumerate(self.parked):
            if start is not None:
                self.queues[i].replay_idle(epochs[start:], now)
        self.parked = [None] * len(self.queues)
        self.epochs = []


class CcRateModel(RateModel):
    """Per-flow congestion control stepped on a fixed epoch.

    The loop per epoch: settle queues -> read per-direction signals
    (ECN-mark fraction, overflow) -> update every flow's window ->
    re-allocate demand-capped max-min rates -> refresh per-direction
    offered demand so the queues evolve toward the new operating point.
    Churn between epochs (flows starting/finishing) reallocates with the
    current windows through the fabric's normal deferred solve; windows
    only move on epoch boundaries.  What only churn can change -- the
    sorted flows and directions, the paths and their bottleneck
    components -- lives in an :class:`_EpochPlan` rebuilt on the first
    tick after churn, so a steady epoch pays for signals, windows and
    the fill alone.  The plan also parks idle queues, so a steady epoch
    steps only the queues that can move; :meth:`catch_up` replays them
    exactly before anything else reads or moves a queue.

    ``config`` (:class:`~repro.core.config.RateModelConfig`) picks the
    protocol; the epoch, buffer and window constants are this module's.
    """

    name = "cc"

    def __init__(self, config: "RateModelConfig") -> None:
        super().__init__()
        self.protocol = config.protocol
        self._states: Dict["FlowTransfer", CcFlowState] = {}
        self._plan: Optional[_EpochPlan] = None
        self._tick_event = None
        self._last_tick = 0.0

    # -- lifecycle -----------------------------------------------------------

    def attach(self, network: "Network") -> None:
        super().attach(network)
        threshold = QUEUE_LIMIT_BYTES * ECN_THRESHOLD_FRAC
        for link in network.links():
            link.forward.enable_queue(QUEUE_LIMIT_BYTES, threshold)
            link.reverse.enable_queue(QUEUE_LIMIT_BYTES, threshold)

    def on_activate(self, flow: "FlowTransfer") -> None:
        rtt_base = 2.0 * sum(d.latency for d in flow.directions)
        if rtt_base <= 0.0:
            # Zero-latency path (loopback-ish): fall back to one epoch so
            # the demand stays finite.
            rtt_base = EPOCH_S
        state = CcFlowState(self.protocol, rtt_base_s=rtt_base)
        self._states[flow] = state
        # Completion-boundary signal plumbing: observers (and the load
        # engine) read the flow's cc state after it finishes.
        flow.cc = state
        if self._tick_event is None:
            self._last_tick = self.network.sim.now
            self._tick_event = self.network.sim.schedule(EPOCH_S, self._tick)

    def on_detach(self, flow: "FlowTransfer") -> None:
        self._states.pop(flow, None)

    def catch_up(self) -> None:
        if self._plan is not None:
            self._plan.catch_up(self._last_tick)

    # -- allocation ----------------------------------------------------------

    def _demands(
        self,
        flows: List["FlowTransfer"],
        path_delays: List[float],
    ) -> Dict["FlowTransfer", float]:
        """Each flow's demand: window over queue-inclusive RTT.

        ``path_delays`` runs parallel to ``flows``; the demand is
        clamped by any explicit rate_cap and handed to the max-min fill
        as the flow's cap (demand-capped max-min).
        """
        rate_caps = self.network._rate_caps
        states = self._states
        demands: Dict["FlowTransfer", float] = {}
        for flow, queue_delay in zip(flows, path_delays):
            state = states.get(flow)
            if state is None:
                demand = math.inf  # e.g. flow activated before attach
            else:
                demand = state.demand_rate(queue_delay)
            cap = rate_caps.get(flow)
            if cap is not None and cap < demand:
                demand = cap
            demands[flow] = demand
        return demands

    def allocate(
        self,
        flows: List["FlowTransfer"],
        dirty_dirs: Optional[set],
    ) -> Dict["FlowTransfer", float]:
        network = self.network
        now = network.sim.now
        # The solve reads queue delays and moves queues: parked ones
        # first stand where the ticks they sat out would have left them.
        self.catch_up()
        # Churn solve: queue delays as of each queue's last update.
        demands = self._demands(flows, [
            network.path_queue_delay(flow.directions) for flow in flows])
        flow_paths = {flow: flow.directions for flow in flows}
        capacities = {direction: direction.capacity
                      for flow in flows for direction in flow.directions}
        rates = fill_components(connected_components(flow_paths), flow_paths,
                                capacities, demands)
        # Each direction's aggregate finite demand, summed in flow_id
        # order so the floats are deterministic.
        offered: Dict["LinkDirection", float] = {}
        for flow in flows:
            demand = demands[flow]
            if not math.isfinite(demand):
                continue
            for direction in flow.directions:
                offered[direction] = offered.get(direction, 0.0) + demand
        # Refresh queue inflows: settle each touched queue with the old
        # offered demand up to now, then set the new aggregate demand.
        touched: set = set(offered)
        if dirty_dirs:
            touched |= dirty_dirs
        for direction in sorted(touched, key=attrgetter("name")):
            queue = direction.queue
            if queue is None:
                continue
            queue.advance(now)
            queue.offered = offered.get(direction, 0.0)
        return rates

    # -- the epoch ticker ----------------------------------------------------

    def _tick(self) -> None:
        network = self.network
        self._tick_event = None
        # Fold any same-instant churn solve in first so the active set
        # and queue inflows are current before windows move.
        network._flush_solve()
        plan = self._plan
        if not self._states:
            # Every cc flow finished; the ticker re-arms on activate.  The
            # plan would keep the finished flows alive until then.
            if plan is not None:
                plan.catch_up(self._last_tick)
            self._plan = None
            return
        if plan is None or plan.churn != network._churn:
            if plan is not None:
                plan.catch_up(self._last_tick)
            plan = self._plan = _EpochPlan(
                network._churn, network._capacity_version, self._states)
        else:
            if len(plan.epochs) >= PARK_BACKLOG:
                plan.catch_up(self._last_tick)
            if plan.capacity_version != network._capacity_version:
                plan.read_capacities(network._capacity_version)
        sim = network.sim
        now = sim.now
        dt = now - self._last_tick
        self._last_tick = now
        if dt > 0.0:
            plan.epochs.append(dt)
        # Close the epoch on every queue along any active path: one
        # (mark fraction, overflow, delay) per queue, parallel to
        # plan.directions.  A parked queue would return the idle signal.
        idle = _IDLE_SIGNAL
        signals = [idle if start is not None else queue.close_epoch(now)
                   for queue, start in zip(plan.queues, plan.parked)]
        # Window updates from the path-worst signals: the largest mark
        # fraction, any overflow, and the delays summed hop by hop.  Then
        # each flow's demand: window over queue-inclusive RTT, clamped
        # by its rate cap, handed to the fill as its cap.
        demands: List[float] = []
        for path, state, cap in zip(plan.paths, plan.states, plan.rate_caps):
            ecn_frac = 0.0
            loss = False
            queue_delay = 0.0
            for i in path:
                frac, dropped, delay = signals[i]
                if frac > ecn_frac:
                    ecn_frac = frac
                if dropped:
                    loss = True
                queue_delay += delay
            if dt > 0.0:
                state.update(now, dt, state.rtt_base + queue_delay,
                             ecn_frac, loss)
            demand = state.cwnd / (state.rtt_base + queue_delay)
            if cap is not None and cap < demand:
                demand = cap
            demands.append(demand)
        # Re-allocate the whole active set under the new windows.  The
        # queues already stand at now, so only their inflows move.
        rates = fill_with_layouts(plan.components, plan.flow_paths,
                                  plan.capacities, demands, plan.layouts)
        # Every plan flow has a window, so every demand is finite and
        # every queue in the plan gets a new inflow, summed in flow_id
        # order.
        offered = [0.0] * len(plan.queues)
        for path, demand in zip(plan.paths, demands):
            for i in path:
                offered[i] += demand
        plan.set_inflows(offered, now)
        network._epoch_reallocate(plan, rates)
        self._tick_event = sim.schedule(EPOCH_S, self._tick)

    def describe(self) -> dict:
        return {
            "model": self.name,
            "protocol": self.protocol,
            "epoch_s": EPOCH_S,
            "queue_limit_bytes": QUEUE_LIMIT_BYTES,
            "ecn_threshold_frac": ECN_THRESHOLD_FRAC,
        }


def queue_metrics(directions: Iterable["LinkDirection"]) -> dict:
    """Queue/ECN rollup over ``directions``, anchored on the worst queue.

    ``queue_depth_p99`` and ``ecn_mark_frac`` are the *worst direction's*
    time-weighted p99 occupancy and mark fraction -- the bottleneck story
    (the ToR in an incast), not a fleet average diluted by idle links.
    Drops are summed.  Directions without a queue model contribute
    nothing; with none at all every metric is 0 -- so under the default
    max-min model this reports exact zeros.
    """
    p99 = 0.0
    mark_frac = 0.0
    dropped_bytes = 0.0
    drop_events = 0
    peak = 0.0
    for direction in directions:
        queue = direction.queue
        if queue is None:
            continue
        if queue.depth_hist.total > 0:
            depth = queue.depth_hist.quantile(0.99)
            if depth > p99:
                p99 = depth
        frac = queue.mark_fraction()
        if frac > mark_frac:
            mark_frac = frac
        dropped_bytes += queue.dropped_bytes
        drop_events += queue.drop_events
        if queue.peak_bytes > peak:
            peak = queue.peak_bytes
    return {
        "queue_depth_p99": p99,
        "queue_depth_peak": peak,
        "ecn_mark_frac": mark_frac,
        "dropped_bytes": dropped_bytes,
        "drop_events": drop_events,
    }

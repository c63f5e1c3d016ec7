"""Links: full-duplex cables between fabric nodes.

A :class:`Link` joins two nodes and owns one :class:`LinkDirection` per
direction.  Each direction has independent capacity (full duplex, as real
Ethernet), carries a set of active flows, and keeps an exact utilisation
gauge plus congestion accounting -- the raw material for the paper's
"consolidation causes congestion episodes" cross-layer experiments.
"""

from __future__ import annotations

from functools import reduce
from operator import add
from typing import TYPE_CHECKING, Optional, Sequence, Set

from repro import trace
from repro.errors import ConfigurationError
from repro.sim.kernel import Simulator
from repro.telemetry.series import Counter, Gauge
from repro.telemetry.stats import LatencyHistogram

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.netsim.fabric import FlowTransfer


class QueueState:
    """Fluid FIFO queue on one link direction (cc rate model only).

    The congestion-control layer treats each direction as a single
    shallow buffer: inflow is the aggregate *offered* demand the active
    cc flows place on the direction (refreshed at every allocation),
    outflow is the direction's live capacity.  Between updates the
    occupancy evolves piecewise-linearly; the queue records the time
    spent above the ECN marking threshold, drops the overhang that would
    exceed the limit (bookkeeping only -- the fabric's byte accounting
    stays lossless; the drop is a *signal*, like gray-failure loss), and
    feeds a time-weighted depth histogram for ``queue_depth_p99``.

    The single-bottleneck approximation: a flow contributes its full
    demand to every direction on its path, so a flow throttled upstream
    still counts downstream.  On the PiCloud's single-oversubscription
    fabric the bottleneck is the ToR/host edge and this is exact; on
    multi-bottleneck paths it overstates downstream occupancy.

    The cc tick closes each queue once per epoch (:meth:`close_epoch`),
    except an idle one -- empty, its inflow within capacity -- which
    the epoch plan parks and later catches up with :meth:`replay_idle`.
    While a queue is parked, its clock, ``observed_seconds`` and
    ``depth_hist`` lag behind the ticks (its occupancy, marks and drops
    cannot move); read them after ``Network.sync()`` or
    ``Network.queue_metrics()``, which catch every queue up first.
    """

    __slots__ = (
        "direction", "limit_bytes", "ecn_threshold_bytes",
        "occupancy", "offered", "_last_update",
        "marked_seconds", "observed_seconds", "dropped_bytes", "drop_events",
        "_interval_marked_s", "_interval_observed_s", "_interval_dropped",
        "peak_bytes", "depth_hist",
    )

    def __init__(self, direction: "LinkDirection", limit_bytes: float,
                 ecn_threshold_bytes: float) -> None:
        self.direction = direction
        self.limit_bytes = float(limit_bytes)
        self.ecn_threshold_bytes = float(ecn_threshold_bytes)
        self.occupancy = 0.0          # bytes queued right now
        self.offered = 0.0            # aggregate demand (bytes/s) since last allocation
        self._last_update = direction.sim.now
        # Cumulative signal accounting (whole run).
        self.marked_seconds = 0.0     # time spent above the ECN threshold
        self.observed_seconds = 0.0
        self.dropped_bytes = 0.0
        self.drop_events = 0
        # Interval accumulators, reset by close_epoch() at each cc epoch.
        self._interval_marked_s = 0.0
        self._interval_observed_s = 0.0
        self._interval_dropped = 0.0
        self.peak_bytes = 0.0
        # Time-weighted occupancy distribution (1 byte .. 1 GB, fractional
        # counts = seconds spent at that depth); zero depths land in the
        # underflow bucket and report as ~the floor.
        self.depth_hist = LatencyHistogram(
            min_value=1.0, max_value=1e9, buckets_per_decade=10)

    def advance(self, now: float) -> None:
        """Integrate occupancy from the last update to ``now``.

        Piecewise-linear: net rate = offered - capacity.  Clamps to
        [0, limit], accounts time-above-threshold exactly for the linear
        segment, and books overflow as dropped bytes.
        """
        dt = now - self._last_update
        if dt <= 0.0:
            return
        self._last_update = now
        net = self.offered - self.direction.capacity
        q0 = self.occupancy
        raw = q0 + net * dt
        limit = self.limit_bytes
        if raw > limit:
            q1 = limit
            overflow = raw - limit
            self.dropped_bytes += overflow
            self._interval_dropped += overflow
            self.drop_events += 1
        elif raw < 0.0:
            q1 = 0.0
        else:
            q1 = raw
        # Time within [0, dt] the clamped occupancy spends above the
        # ECN threshold k: all of it, none, or up to (from) the crossing.
        k = self.ecn_threshold_bytes
        if net == 0.0:
            above = dt if q0 > k else 0.0
        elif net > 0.0:
            if q0 >= k:
                above = dt
            else:
                above = dt - (k - q0) / net
                if not above > 0.0:
                    above = 0.0
        elif q0 <= k:
            above = 0.0
        else:
            above = (q0 - k) / -net
            if not above < dt:
                above = dt
        self.marked_seconds += above
        self.observed_seconds += dt
        self._interval_marked_s += above
        self._interval_observed_s += dt
        self.occupancy = q1
        if q1 > self.peak_bytes:
            self.peak_bytes = q1
        self.depth_hist.record(q1, dt)

    def close_epoch(self, now: float) -> tuple[float, bool, float]:
        """Advance to ``now`` and close the cc epoch.

        Returns the share of the epoch spent above the ECN threshold,
        whether the queue overflowed during it, and the queueing delay
        at ``now`` (as :meth:`delay_s`), then resets the epoch's
        accumulators.  An idle queue (empty, inflow the link can serve)
        would return ``(0.0, False, 0.0)``; the cc tick parks such
        queues instead of closing them and catches them up later with
        :meth:`replay_idle`.
        """
        self.advance(now)
        observed_s = self._interval_observed_s
        frac = self._interval_marked_s / observed_s if observed_s > 0.0 else 0.0
        dropped = self._interval_dropped > 0.0
        self._interval_marked_s = 0.0
        self._interval_observed_s = 0.0
        self._interval_dropped = 0.0
        cap = self.direction.capacity
        return frac, dropped, self.occupancy / cap if cap > 0 else 0.0

    def replay_idle(self, epochs: Sequence[float], now: float) -> None:
        """Catch a parked queue up on the epochs it sat out.

        ``epochs`` are the lengths (each positive) of the cc epochs the
        queue was parked for, in order, and ``now`` the time the last of
        them closed.  A parked queue is empty and the link can serve its
        inflow, so each of those :meth:`close_epoch` calls would have
        added 0.0 to the marked seconds, stored 0.0 as the occupancy,
        added the epoch to the observed seconds, recorded a zero depth
        for it and reset the interval accumulators to where they already
        are (0.0).  This makes the two changes that move, epoch by epoch
        in the same order: bit for bit the calls it stands for.
        """
        self._last_update = now
        if epochs:
            self.observed_seconds = reduce(add, epochs, self.observed_seconds)
            self.depth_hist.record_each(0.0, epochs)

    def delay_s(self) -> float:
        """Current queueing delay: occupancy / service rate."""
        cap = self.direction.capacity
        return self.occupancy / cap if cap > 0 else 0.0

    def mark_fraction(self) -> float:
        """Run-long fraction of observed time spent above the ECN threshold."""
        if self.observed_seconds <= 0:
            return 0.0
        return self.marked_seconds / self.observed_seconds


class LinkDirection:
    """One direction of a full-duplex link: the unit the fairness solver sees."""

    def __init__(
        self,
        sim: Simulator,
        link: "Link",
        src: str,
        dst: str,
    ) -> None:
        self.sim = sim
        self.link = link
        self.src = src
        self.dst = dst
        # Endpoints never change, so the name is built once: solvers sort
        # directions by it on every epoch.
        self.name = f"{src}->{dst}"
        # Bytes/s this direction delivers: the link's spec bandwidth times
        # its gray-failure fraction.  A plain attribute, read on every
        # solve and epoch; Link.degrade/restore keep it current.
        self.capacity = link.bandwidth * link.bandwidth_frac
        self.flows: Set["FlowTransfer"] = set()
        # Last load applied via set_load; solves touching a direction
        # whose aggregate rate did not actually move skip the call, and
        # with it the telemetry and congestion-accounting work.  None
        # forces the next load through (initial state, or capacity
        # changed under us).
        self._last_load: Optional[float] = None
        self.utilization = Gauge(sim, name=f"{self.name}.util", initial=0.0)
        self.bytes_carried = Counter(sim, name=f"{self.name}.bytes")
        # Queue occupancy model -- None unless a cc rate model enables it,
        # so the default max-min path carries no queue state at all.
        self.queue: Optional[QueueState] = None
        # Congestion accounting: time spent above the congestion threshold.
        self._congested_since: Optional[float] = None
        self.congested_seconds = 0.0
        self.congestion_episodes = 0
        # Open span covering the current congestion episode (repro.trace).
        self._congestion_span = None

    @property
    def latency(self) -> float:
        return self.link.latency + self.link.extra_latency

    def set_load(self, bytes_per_s: float, congestion_threshold: float) -> None:
        """Fabric hook: aggregate flow rate on this direction changed.

        The fabric calls this only when ``bytes_per_s`` differs from
        ``_last_load``: the same load at the same capacity gives the same
        fraction, gauge level and congestion branch as the last call,
        which already settled them.
        """
        self._last_load = bytes_per_s
        fraction = bytes_per_s / self.capacity if self.capacity > 0 else 0.0
        self.utilization.set(fraction)
        now = self.sim.now
        if fraction >= congestion_threshold:
            if self._congested_since is None:
                self._congested_since = now
                self.congestion_episodes += 1
                self._congestion_span = trace.start_span(
                    self.sim, f"congestion:{self.name}", kind="net",
                    attributes={"direction": self.name,
                                "episode": self.congestion_episodes},
                )
        else:
            if self._congested_since is not None:
                self.congested_seconds += now - self._congested_since
                self._congested_since = None
                if self._congestion_span is not None:
                    self._congestion_span.end("ok")
                    self._congestion_span = None

    def enable_queue(self, limit_bytes: float, ecn_threshold_bytes: float) -> QueueState:
        """Attach (or return the existing) queue model to this direction."""
        if self.queue is None:
            self.queue = QueueState(self, limit_bytes, ecn_threshold_bytes)
        return self.queue

    def queue_delay_s(self) -> float:
        """Current queueing delay on this direction (0.0 without a queue)."""
        return self.queue.delay_s() if self.queue is not None else 0.0

    def finalize_congestion(self) -> None:
        """Close an open congestion interval at the current clock (end of run)."""
        if self._congested_since is not None:
            self.congested_seconds += self.sim.now - self._congested_since
            self._congested_since = self.sim.now

    def mean_utilization(self, start: float | None = None, end: float | None = None) -> float:
        return self.utilization.time_weighted_mean(start, end)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<LinkDirection {self.name} {len(self.flows)} flows>"


class Link:
    """A full-duplex cable: two directions sharing bandwidth/latency specs."""

    def __init__(
        self,
        sim: Simulator,
        a: str,
        b: str,
        bandwidth: float,
        latency: float = 0.0,
    ) -> None:
        if bandwidth <= 0:
            raise ConfigurationError(f"link {a}<->{b}: bandwidth must be positive")
        if latency < 0:
            raise ConfigurationError(f"link {a}<->{b}: latency must be >= 0")
        self.sim = sim
        self.a = a
        self.b = b
        # Fixed for the link's life; the directions' capacities are
        # derived from it here and on every degrade/restore.
        self.bandwidth = bandwidth
        self.latency = latency
        self.up = True
        # Gray-failure state: a degraded link is still *up* (the binary
        # state the routing layer sees) but delivers a fraction of its
        # bandwidth, adds serialization latency, and/or drops a fraction
        # of packets.  The defaults (1.0 / 0.0 / 0.0) are exact
        # identities under IEEE arithmetic, so an undegraded link
        # computes bit-identical capacities and latencies to the
        # pre-gray-failure model.
        self.bandwidth_frac = 1.0
        self.extra_latency = 0.0
        self.loss = 0.0
        self.forward = LinkDirection(sim, self, a, b)
        self.reverse = LinkDirection(sim, self, b, a)

    @property
    def degraded(self) -> bool:
        """True when any gray-failure knob is off its healthy default."""
        return (self.bandwidth_frac != 1.0 or self.extra_latency != 0.0
                or self.loss != 0.0)

    def degrade(self, bandwidth_frac: float = 1.0, extra_latency: float = 0.0,
                loss: float = 0.0) -> None:
        """Set the gray-failure state (validated); does not touch ``up``."""
        if not 0.0 < bandwidth_frac <= 1.0:
            raise ConfigurationError(
                f"link {self.a}<->{self.b}: bandwidth_frac must be in (0, 1], "
                f"got {bandwidth_frac}"
            )
        if extra_latency < 0:
            raise ConfigurationError(
                f"link {self.a}<->{self.b}: extra_latency must be >= 0, "
                f"got {extra_latency}"
            )
        if not 0.0 <= loss < 1.0:
            raise ConfigurationError(
                f"link {self.a}<->{self.b}: loss must be in [0, 1), got {loss}"
            )
        self.bandwidth_frac = bandwidth_frac
        self.extra_latency = extra_latency
        self.loss = loss
        self._capacity_changed()

    def restore(self) -> None:
        """Clear any gray-failure state (back to the healthy identity)."""
        self.bandwidth_frac = 1.0
        self.extra_latency = 0.0
        self.loss = 0.0
        self._capacity_changed()

    def _capacity_changed(self) -> None:
        """Refresh both directions' capacity from ``bandwidth_frac``.

        The same byte rate now means a different utilisation fraction,
        so also force each direction's next set_load through.
        """
        for direction in (self.forward, self.reverse):
            direction.capacity = self.bandwidth * self.bandwidth_frac
            direction._last_load = None

    def direction(self, src: str, dst: str) -> LinkDirection:
        """The directed half carrying traffic ``src -> dst``."""
        if (src, dst) == (self.a, self.b):
            return self.forward
        if (src, dst) == (self.b, self.a):
            return self.reverse
        raise KeyError(f"link {self.a}<->{self.b} does not join {src}->{dst}")

    @property
    def endpoints(self) -> tuple[str, str]:
        return (self.a, self.b)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "up" if self.up else "down"
        return f"<Link {self.a}<->{self.b} {state}>"

"""Failure detection and circuit breaking for the management plane.

The paper motivates the testbed with the unpredictability of real DC
behaviour (§I cites Gill et al.'s failure study); a control plane that is
worth studying must therefore *notice* failures, not just suffer them.
This module provides the two mechanisms the pimaster uses to do so:

* :class:`FailureDetector` -- heartbeat probes (`GET /health` over the
  real fabric) driving a per-node lifecycle state machine::

      alive -> suspect -> dead -> rejoining -> alive

  Transitions use a consecutive-miss accrual rule (``suspect_misses``
  unanswered heartbeats to suspect, ``dead_misses`` to declare death) and
  are emitted as ``health.node-*`` trace instants parented on the fault
  that caused them, so the chain *fault -> detection -> recovery* is
  assertable from an exported trace.

* :class:`CircuitBreaker` -- a per-node breaker over management
  transport.  After :data:`BREAKER_FAILURE_THRESHOLD` consecutive
  transport failures the breaker opens and orchestration calls fail fast
  instead of hammering a dead daemon; after :data:`BREAKER_RESET_S` one
  half-open probe is let through, and a success closes the breaker again.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro import trace
from repro.mgmt.rest import RestClient
from repro.sim.kernel import Simulator
from repro.sim.process import AllOf, Timeout
from repro.trace.span import SpanContext

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import HealthConfig

# Circuit breaker: open after this many consecutive transport failures,
# admit one half-open probe this long after opening.
BREAKER_FAILURE_THRESHOLD = 5
BREAKER_RESET_S = 60.0
# Gen-2 detector: how many alive peers are asked to probe a node whose
# UNREACHABLE grace period has expired.
WITNESS_COUNT = 2


class NodeHealth(enum.Enum):
    """Lifecycle state of one managed node, as seen by the pimaster.

    UNREACHABLE is the gen-2 (partition-aware) detector's refinement of
    DEAD: the pimaster cannot reach the node, but it has not proven the
    node is down -- a partitioned node looks exactly like a dead one from
    one vantage point.  UNREACHABLE nodes are never auto-evacuated; only
    after ``unreachable_grace_s`` elapses *and* no witness peer can reach
    the node either does it become DEAD.
    """

    ALIVE = "alive"
    SUSPECT = "suspect"
    UNREACHABLE = "unreachable"
    DEAD = "dead"
    REJOINING = "rejoining"


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


class CircuitBreaker:
    """Transport circuit breaker for one node's management endpoint.

    ``allow()`` gates each attempt: CLOSED always allows; OPEN allows
    nothing until :data:`BREAKER_RESET_S` has elapsed, at which point the
    breaker moves to HALF_OPEN and admits exactly one probe; the probe's
    ``record_success`` / ``record_failure`` closes or re-opens it.
    """

    def __init__(self, sim: Simulator, node_id: str = "") -> None:
        self.sim = sim
        self.node_id = node_id
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self.opened_at: Optional[float] = None
        self.opened_count = 0
        self.fast_fails = 0
        self.probes = 0
        self._probe_inflight = False

    def allow(self) -> bool:
        """May an attempt be sent now?  Counts fast-fails when not."""
        if self.state is BreakerState.CLOSED:
            return True
        if (self.state is BreakerState.OPEN
                and self.sim.now - self.opened_at >= BREAKER_RESET_S):
            self.state = BreakerState.HALF_OPEN
            self._probe_inflight = False
        if self.state is BreakerState.HALF_OPEN:
            if not self._probe_inflight:
                self._probe_inflight = True
                self.probes += 1
                return True
            # One probe already in flight; everything else fast-fails.
        self.fast_fails += 1
        return False

    def half_open_now(self) -> None:
        """Force the half-open probe window (out-of-band repair evidence).

        Used by the rejoin path: a node that just re-announced itself is
        better evidence than the reset timer, so the next attempt becomes
        the probe regardless of how long the breaker has been open.
        """
        if self.state is BreakerState.OPEN:
            self.state = BreakerState.HALF_OPEN
            self._probe_inflight = False

    def record_success(self) -> None:
        self.consecutive_failures = 0
        self._probe_inflight = False
        if self.state is not BreakerState.CLOSED:
            self.state = BreakerState.CLOSED
            self.opened_at = None

    def record_failure(self) -> None:
        self.consecutive_failures += 1
        self._probe_inflight = False
        if self.state is BreakerState.HALF_OPEN or (
            self.state is BreakerState.CLOSED
            and self.consecutive_failures >= BREAKER_FAILURE_THRESHOLD
        ):
            if self.state is not BreakerState.OPEN:
                self.opened_count += 1
            self.state = BreakerState.OPEN
            self.opened_at = self.sim.now

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<CircuitBreaker {self.node_id} {self.state.value} "
                f"fails={self.consecutive_failures}>")


# listener(node_id, old_state, new_state, transition_context)
TransitionListener = Callable[[str, NodeHealth, NodeHealth,
                               Optional[SpanContext]], None]


class FailureDetector:
    """Heartbeat-based failure detection for every registered node.

    Each interval, every watched node that is not already DEAD is probed
    in parallel with ``GET /health`` (a dedicated short-timeout client,
    so a dead node cannot stall the detection of others).  Consecutive
    misses drive the state machine; probe outcomes also feed the node's
    :class:`CircuitBreaker` when ``breaker_for`` is wired.

    ``fault_context_provider(node_id)`` (installed by the cloud) returns
    the trace context of the most recent fault instant against a node, so
    ``health.node-suspect`` / ``health.node-dead`` instants descend from
    the fault that caused them.

    The interval, miss thresholds and gen-2 knobs are copied from
    ``config`` (:class:`~repro.core.config.HealthConfig`, which validates
    them) at construction.
    """

    def __init__(
        self,
        sim: Simulator,
        client: RestClient,
        config: "HealthConfig",
        daemon_port: int = 8600,
        fault_context_provider: Optional[
            Callable[[str], Optional[SpanContext]]] = None,
        breaker_for: Optional[Callable[[str], Optional[CircuitBreaker]]] = None,
    ) -> None:
        self.sim = sim
        self.client = client
        self.interval_s = config.heartbeat_interval_s
        self.suspect_misses = config.suspect_after_misses
        self.dead_misses = config.dead_after_misses
        self.daemon_port = daemon_port
        # Gen-2 (partition-aware) detection: > 0 switches accrued
        # dead_misses to UNREACHABLE and requires witness corroboration
        # plus grace expiry before declaring DEAD.  0.0 = legacy binary
        # detector, byte-identical behaviour.
        self.unreachable_grace_s = config.unreachable_grace_s
        self.fault_context_provider = fault_context_provider
        self.breaker_for = breaker_for
        self._targets: Dict[str, str] = {}          # node_id -> management IP
        self._states: Dict[str, NodeHealth] = {}
        self._misses: Dict[str, int] = {}
        # Trace context of each node's latest transition instant, so the
        # next transition chains onto it (suspect -> dead -> ...).
        self._last_ctx: Dict[str, Optional[SpanContext]] = {}
        self._listeners: List[TransitionListener] = []
        self.heartbeats_sent = 0
        self.heartbeats_missed = 0
        self.transitions: Dict[str, int] = {}       # "alive->suspect" -> count
        # Gen-2 bookkeeping: when each node entered UNREACHABLE, the
        # cumulative seconds spent there, and witness-probe counters.
        self._unreachable_since: Dict[str, float] = {}
        self.unreachable_s = 0.0
        self.witness_probes = 0
        self.witness_confirmations = 0
        self._witness_inflight: set[str] = set()
        self._stopped = False
        self._process = None

    @property
    def partition_aware(self) -> bool:
        """True when the gen-2 (UNREACHABLE + witness) detector is on."""
        return self.unreachable_grace_s > 0

    # -- membership -------------------------------------------------------

    def watch(self, node_id: str, ip: str) -> None:
        self._targets[node_id] = ip
        self._states.setdefault(node_id, NodeHealth.ALIVE)
        self._misses.setdefault(node_id, 0)

    def unwatch(self, node_id: str) -> None:
        self._targets.pop(node_id, None)

    def rewatch(self, node_id: str, ip: str) -> None:
        """Refresh a node's probe address (rejoin gives a fresh lease)."""
        self._targets[node_id] = ip
        self._misses[node_id] = 0

    def state(self, node_id: str) -> NodeHealth:
        return self._states.get(node_id, NodeHealth.ALIVE)

    def states(self) -> Dict[str, NodeHealth]:
        return dict(self._states)

    def nodes_in(self, state: NodeHealth) -> List[str]:
        return sorted(n for n, s in self._states.items() if s is state)

    def add_listener(self, listener: TransitionListener) -> None:
        self._listeners.append(listener)

    # -- lifecycle --------------------------------------------------------

    def start(self) -> None:
        if self._process is None:
            self._process = self.sim.process(self._probe_loop(),
                                             name="health.detector")

    def stop(self) -> None:
        self._stopped = True
        if self._process is not None:
            self._process.interrupt("failure detector stopped")

    # -- probing ----------------------------------------------------------

    def _probe_loop(self):
        while not self._stopped:
            # Legacy mode writes DEAD off permanently (rejoin is the only
            # way back); the gen-2 detector keeps probing UNREACHABLE and
            # DEAD nodes so a partition heal is noticed promptly.
            probes = [
                self.sim.process(self._probe(node_id, ip),
                                 name=f"health.probe:{node_id}")
                for node_id, ip in sorted(self._targets.items())
                if (self.partition_aware
                    or self._states.get(node_id) is not NodeHealth.DEAD)
            ]
            if probes:
                yield AllOf(self.sim, probes)
            yield Timeout(self.sim, self.interval_s)

    def _probe(self, node_id: str, ip: str):
        self.heartbeats_sent += 1
        ok = False
        try:
            response = yield self.client.get(ip, self.daemon_port, "/health")
            ok = response.ok
        except Exception:  # noqa: BLE001 - any transport failure is a miss
            ok = False
        if self._stopped or node_id not in self._targets:
            return
        breaker = self.breaker_for(node_id) if self.breaker_for else None
        if ok:
            if breaker is not None:
                breaker.record_success()
            self._heartbeat_ok(node_id)
        else:
            self.heartbeats_missed += 1
            if breaker is not None:
                breaker.record_failure()
            self._heartbeat_miss(node_id)
            if (self.partition_aware
                    and self._states.get(node_id) is NodeHealth.UNREACHABLE
                    and node_id not in self._witness_inflight):
                since = self._unreachable_since.get(node_id)
                if (since is not None
                        and self.sim.now - since >= self.unreachable_grace_s):
                    self._witness_inflight.add(node_id)
                    try:
                        yield from self._witness_check(node_id, ip)
                    finally:
                        self._witness_inflight.discard(node_id)

    def _witness_check(self, node_id: str, ip: str):
        """Ask alive peers whether *they* can reach the node.

        An UNREACHABLE node whose grace period has expired is only
        declared DEAD when none of up to :data:`WITNESS_COUNT` alive peers
        can reach its daemon either -- that distinguishes "the pimaster
        is partitioned from it" (a witness inside the partition still
        sees it) from "it is actually down".  A positive witness keeps
        the node UNREACHABLE indefinitely: its containers keep running
        and must not be double-spawned.
        """
        witnesses = [
            peer for peer, state in sorted(self._states.items())
            if peer != node_id and peer in self._targets
            and state is NodeHealth.ALIVE
        ][:WITNESS_COUNT]
        reachable = False
        for peer in witnesses:
            self.witness_probes += 1
            try:
                response = yield self.client.post(
                    self._targets[peer], self.daemon_port, "/probe",
                    {"ip": ip, "port": self.daemon_port},
                )
                if response.ok and (response.body or {}).get("reachable"):
                    reachable = True
                    break
            except Exception:  # noqa: BLE001 - witness unreachable too
                continue
        if self._stopped or node_id not in self._targets:
            return
        if reachable:
            self.witness_confirmations += 1
            return
        since = self._unreachable_since.get(node_id)
        if (self._states.get(node_id) is NodeHealth.UNREACHABLE
                and since is not None
                and self.sim.now - since >= self.unreachable_grace_s):
            self._transition(node_id, NodeHealth.DEAD)

    def _heartbeat_ok(self, node_id: str) -> None:
        self._misses[node_id] = 0
        state = self._states.get(node_id)
        recoverable = (NodeHealth.SUSPECT, NodeHealth.REJOINING)
        if self.partition_aware:
            # A heal makes an UNREACHABLE (or witness-less false-DEAD)
            # node answer again; legacy mode never probes DEAD nodes so
            # this branch cannot fire there.
            recoverable = (NodeHealth.SUSPECT, NodeHealth.REJOINING,
                           NodeHealth.UNREACHABLE, NodeHealth.DEAD)
        if state in recoverable:
            self._transition(node_id, NodeHealth.ALIVE)

    def _heartbeat_miss(self, node_id: str) -> None:
        misses = self._misses.get(node_id, 0) + 1
        self._misses[node_id] = misses
        state = self._states.get(node_id, NodeHealth.ALIVE)
        # The gen-2 detector interposes UNREACHABLE where the legacy one
        # jumps straight to DEAD; the UNREACHABLE -> DEAD step then needs
        # witness corroboration + grace expiry (see _witness_check).
        terminal = (NodeHealth.UNREACHABLE if self.partition_aware
                    else NodeHealth.DEAD)
        if state in (NodeHealth.ALIVE, NodeHealth.REJOINING):
            if misses >= self.suspect_misses:
                self._transition(node_id, NodeHealth.SUSPECT)
                if misses >= self.dead_misses:
                    self._transition(node_id, terminal)
        elif state is NodeHealth.SUSPECT and misses >= self.dead_misses:
            self._transition(node_id, terminal)

    # -- the state machine ------------------------------------------------

    def mark(self, node_id: str, new: NodeHealth, parent=None) -> None:
        """Externally drive a transition (the rejoin path uses this)."""
        self._misses[node_id] = 0
        self._transition(node_id, new, parent=parent)

    def _transition(self, node_id: str, new: NodeHealth, parent=None) -> None:
        old = self._states.get(node_id, NodeHealth.ALIVE)
        if old is new:
            return
        self._states[node_id] = new
        now = self.sim.now
        if old is NodeHealth.UNREACHABLE:
            since = self._unreachable_since.pop(node_id, None)
            if since is not None:
                self.unreachable_s += now - since
        if new is NodeHealth.UNREACHABLE:
            self._unreachable_since[node_id] = now
        key = f"{old.value}->{new.value}"
        self.transitions[key] = self.transitions.get(key, 0) + 1
        ctx = parent
        if ctx is None:
            # Entering suspicion chains onto the causing fault (when the
            # cloud knows one); deeper transitions chain onto the previous
            # transition so the whole episode shares one trace.  A gen-2
            # recovery (UNREACHABLE/DEAD answering again) chains onto the
            # *heal* instant instead -- the cloud re-points the node's
            # fault context at the heal -- so reconciliation provably
            # descends from the partition healing.
            if new is NodeHealth.SUSPECT and self.fault_context_provider:
                ctx = self.fault_context_provider(node_id)
            elif (new is NodeHealth.ALIVE
                    and old in (NodeHealth.UNREACHABLE, NodeHealth.DEAD)
                    and self.fault_context_provider):
                ctx = self.fault_context_provider(node_id)
            if ctx is None:
                ctx = self._last_ctx.get(node_id)
        span = trace.instant(
            self.sim, f"health.node-{new.value}", parent=ctx, kind="health",
            attributes={"node": node_id, "from": old.value},
            status="error" if new in (NodeHealth.DEAD,
                                      NodeHealth.UNREACHABLE) else "ok",
        )
        context = span.context
        self._last_ctx[node_id] = context
        for listener in list(self._listeners):
            listener(node_id, old, new, context)

    def unreachable_seconds(self) -> float:
        """Cumulative seconds nodes have spent UNREACHABLE (open included)."""
        total = self.unreachable_s
        now = self.sim.now
        for since in self._unreachable_since.values():
            total += now - since
        return total

"""Self-healing control plane: detection, evacuation, breaker, rejoin.

These tests drive the real stack end to end: a booted PiCloud with the
heartbeat failure detector on, scripted faults killing nodes, and
assertions on both the management-plane state (registry, counters) and
the *exported* trace JSON -- the causal chain
fault -> detection -> evacuation -> respawn must be reconstructible from
the trace file alone.
"""

import dataclasses
import json

import pytest

from repro.core.cloud import PiCloud
from repro.core.config import HealthConfig, PiCloudConfig, TraceConfig
from repro.errors import CircuitOpenError, DeadlineExceeded, RestError
from repro.faults import FaultSchedule
from repro.mgmt.health import (
    BREAKER_FAILURE_THRESHOLD,
    BREAKER_RESET_S,
    BreakerState,
    CircuitBreaker,
    NodeHealth,
)
from repro.mgmt.pimaster import OP_ATTEMPTS, OP_BACKOFF_S
from repro.mgmt.recovery import RETRY_BUDGET
from repro.sim.kernel import Simulator
from repro.sim.process import Signal
from tests.sim_helpers import run_while

HEARTBEAT_INTERVAL_S = 1.0
DEAD_AFTER_MISSES = 3


HEALTH_KNOBS = frozenset(
    "enabled heartbeat_interval_s heartbeat_timeout_s suspect_after_misses "
    "dead_after_misses".split()
)


def build_cloud(tracing=True, self_healing=True, **overrides):
    health = dict(
        enabled=self_healing,
        heartbeat_interval_s=HEARTBEAT_INTERVAL_S,
        heartbeat_timeout_s=0.5,
        suspect_after_misses=2,
        dead_after_misses=DEAD_AFTER_MISSES,
    )
    health.update({k: overrides.pop(k) for k in list(overrides)
                   if k in HEALTH_KNOBS})
    config = PiCloudConfig.small(
        racks=overrides.pop("racks", 2), pis=overrides.pop("pis", 3),
        start_monitoring=False, routing="shortest",
        trace=TraceConfig(enabled=tracing),
        health=HealthConfig(**health),
        **overrides,
    )
    cloud = PiCloud(config)
    cloud.boot()
    return cloud


def run_until(cloud, signal, deadline=3600.0):
    cloud.run_until_signal(signal, max_seconds=deadline)
    assert signal.triggered, f"signal {signal.name!r} did not trigger"
    return signal.value


# -- circuit breaker unit behaviour ----------------------------------------


def advance(sim, seconds):
    sim.schedule(seconds, lambda: None)
    sim.run()


def trip(breaker):
    for _ in range(BREAKER_FAILURE_THRESHOLD):
        breaker.record_failure()


class TestCircuitBreaker:
    def test_validation(self):
        """The threshold and reset timeout are constants, not parameters."""
        sim = Simulator()
        with pytest.raises(TypeError):
            CircuitBreaker(sim, failure_threshold=3)
        with pytest.raises(TypeError):
            CircuitBreaker(sim, reset_timeout_s=10.0)
        assert (BREAKER_FAILURE_THRESHOLD, BREAKER_RESET_S) == (5, 60.0)

    def test_opens_after_consecutive_failures_only(self):
        sim = Simulator()
        breaker = CircuitBreaker(sim)
        breaker.record_failure()
        breaker.record_success()  # success resets the streak
        for _ in range(BREAKER_FAILURE_THRESHOLD - 1):
            breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert breaker.opened_count == 1
        assert not breaker.allow()
        assert breaker.fast_fails == 1

    def test_half_open_admits_exactly_one_probe(self):
        sim = Simulator()
        breaker = CircuitBreaker(sim)
        trip(breaker)
        assert breaker.state is BreakerState.OPEN
        advance(sim, BREAKER_RESET_S - 1.0)
        assert not breaker.allow()      # still inside the reset timeout
        advance(sim, 1.0)
        assert breaker.allow()          # the half-open probe
        assert breaker.state is BreakerState.HALF_OPEN
        assert breaker.probes == 1
        assert not breaker.allow()      # everything else fast-fails
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow()

    def test_half_open_failure_reopens(self):
        sim = Simulator()
        breaker = CircuitBreaker(sim)
        trip(breaker)
        advance(sim, BREAKER_RESET_S)
        assert breaker.allow()
        breaker.record_failure()        # one failed probe is enough
        assert breaker.state is BreakerState.OPEN
        assert breaker.opened_count == 2
        assert not breaker.allow()

    def test_half_open_now_forces_probe_window(self):
        sim = Simulator()
        breaker = CircuitBreaker(sim)
        trip(breaker)
        assert not breaker.allow()
        breaker.half_open_now()
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED


# -- failure detection ------------------------------------------------------


def test_transient_link_flap_suspects_then_recovers():
    """A few missed heartbeats suspect a node; an answer revives it."""
    cloud = build_cloud(tracing=False, dead_after_misses=6)
    victim = "pi-r0-n0"
    schedule = (
        FaultSchedule(cloud)
        .cut_link(4.5, victim, "tor0")
        .repair_link(7.6, victim, "tor0")
    )
    schedule.arm()
    cloud.run_for(7.0)
    assert cloud.pimaster.health.state(victim) is NodeHealth.SUSPECT
    cloud.run_for(5.0)
    assert cloud.pimaster.health.state(victim) is NodeHealth.ALIVE
    transitions = cloud.pimaster.health.transitions
    assert transitions.get("alive->suspect", 0) >= 1
    assert transitions.get("suspect->alive", 0) >= 1
    assert "suspect->dead" not in transitions
    # Nothing was evacuated for a transient blip.
    assert cloud.pimaster.recovery.evacuations == 0


# -- the end-to-end recovery loop ------------------------------------------


def test_end_to_end_recovery_assertable_from_exported_trace(tmp_path):
    """Kill a loaded node; detection, evacuation, respawn and rejoin all
    happen within bounds and the causal chain survives JSON export."""
    cloud = build_cloud()
    victim = "pi-r0-n1"
    for name in ("web-1", "web-2"):
        run_until(cloud, cloud.spawn("webserver", name=name,
                                     node_id=victim, group="web"))

    t_fail = cloud.sim.now + 5.0
    t_repair = t_fail + 180.0
    schedule = (
        FaultSchedule(cloud)
        .fail_node(t_fail, victim)
        .repair_node(t_repair, victim)
    )
    schedule.arm()

    # Both containers respawn on live nodes within the configured
    # detection + recovery bound.
    recovery = cloud.pimaster.recovery
    recovery_bound = 150.0
    run_while(cloud, lambda: recovery.containers_respawned < 2,
              max_seconds=(t_fail - cloud.sim.now) + recovery_bound)
    assert cloud.pimaster.health.state(victim) is NodeHealth.DEAD
    assert recovery.containers_evacuated == 2
    assert recovery.containers_respawned == 2
    assert recovery.unschedulable == []
    assert cloud.sim.now <= t_fail + recovery_bound
    for name in ("web-1", "web-2"):
        record = cloud.pimaster.container_record(name)
        assert record.node_id != victim
        assert cloud.machines[record.node_id].is_on
        # The replacement is really running on its new host.
        assert cloud.container(name).name == name

    # After the scripted repair the node rejoins ...
    cloud.run(until=t_repair + 30.0)
    assert cloud.pimaster.rejoins == 1
    assert cloud.pimaster.health.state(victim) is NodeHealth.ALIVE
    # ... and accepts new placements.
    run_until(cloud, cloud.spawn("webserver", name="web-3", node_id=victim))
    assert cloud.pimaster.container_record("web-3").node_id == victim

    # -- now assert the whole story from the exported trace JSON ----------
    path = cloud.write_trace(str(tmp_path / "trace.jsonl"))
    with open(path) as handle:
        records = [json.loads(line) for line in handle]
    by_id = {r["span_id"]: r for r in records}

    def ancestor_ids(record):
        seen = set()
        while record.get("parent_id"):
            record = by_id.get(record["parent_id"])
            if record is None:
                break
            seen.add(record["span_id"])
        return seen

    fail = next(r for r in records if r["name"] == "fault.node-fail"
                and r["attributes"]["target"] == victim)
    dead = next(r for r in records if r["name"] == "health.node-dead"
                and r["attributes"]["node"] == victim)
    assert fail["span_id"] in ancestor_ids(dead)
    assert dead["status"] == "error"
    detection_bound = (DEAD_AFTER_MISSES + 3) * HEARTBEAT_INTERVAL_S
    assert t_fail <= dead["start"] <= t_fail + detection_bound

    evacuate = next(r for r in records if r["name"] == "mgmt.evacuate"
                    and r["attributes"]["node"] == victim)
    assert fail["span_id"] in ancestor_ids(evacuate)
    respawns = [r for r in records if r["name"] == "mgmt.spawn"
                and r["attributes"].get("container") in ("web-1", "web-2")
                and r["start"] > t_fail]
    assert len(respawns) == 2
    for respawn in respawns:
        assert evacuate["span_id"] in ancestor_ids(respawn)
        assert respawn["status"] == "ok"

    repair = next(r for r in records if r["name"] == "fault.node-repair"
                  and r["attributes"]["target"] == victim)
    assert fail["span_id"] in ancestor_ids(repair)
    rejoin = next(r for r in records if r["name"] == "mgmt.rejoin")
    assert repair["span_id"] in ancestor_ids(rejoin)
    assert any(r["name"] == "health.node-alive"
               and r["attributes"]["node"] == victim
               and r["start"] >= t_repair for r in records)


def test_evacuation_degrades_to_unschedulable_and_retries_later():
    """No capacity left -> bounded retries -> logged unschedulable; the
    backlog respawns once capacity returns."""
    cloud = build_cloud(racks=1, pis=2, tracing=False)
    recovery = cloud.pimaster.recovery
    run_until(cloud, cloud.spawn("webserver", name="web-1",
                                 node_id="pi-r0-n0"))
    cloud.fail_node("pi-r0-n0")
    cloud.fail_node("pi-r0-n1")
    # Detection + RETRY_BUDGET (2) placement retries (5 s + 10 s backoff)
    # and give-up.
    cloud.run_for(40.0)
    assert cloud.pimaster.health.nodes_in(NodeHealth.DEAD) == [
        "pi-r0-n0", "pi-r0-n1"
    ]
    assert recovery.containers_evacuated == 1
    assert recovery.containers_respawned == 0
    assert recovery.respawn_retries == RETRY_BUDGET
    assert len(recovery.unschedulable) == 1
    entry = recovery.unschedulable[0]
    assert entry.name == "web-1"
    assert entry.lost_from == "pi-r0-n0"
    with pytest.raises(Exception):
        cloud.pimaster.container_record("web-1")

    # Capacity comes back: requeue the backlog, it lands on the live node.
    run_until(cloud, cloud.rejoin_node("pi-r0-n1"))
    assert recovery.retry_unschedulable() == 1
    run_while(cloud, lambda: recovery.containers_respawned < 1,
              max_seconds=200.0)
    assert recovery.containers_respawned == 1
    assert recovery.unschedulable == []
    assert cloud.pimaster.container_record("web-1").node_id == "pi-r0-n1"


# -- the breaker in the orchestration path ---------------------------------


def _breaker_scenario():
    """Run the breaker lifecycle once; return the observable counters."""
    # The first call's attempts leave the breaker closed; the second
    # call's reach the threshold part-way through.
    assert OP_ATTEMPTS < BREAKER_FAILURE_THRESHOLD < 2 * OP_ATTEMPTS
    cloud = build_cloud(self_healing=False, tracing=False, seed=42)
    record = cloud.spawn_and_wait("webserver", name="web-1",
                                  node_id="pi-r1-n0")
    node = record.node_id
    breaker = cloud.pimaster.breaker(node)
    cloud.fail_node(node)

    # First call: every attempt goes on the wire and fails.
    sent_before = cloud.pimaster.client.requests_sent
    done = cloud.pimaster.set_limits("web-1", cpu_quota=0.5)
    cloud.run_until_signal(done)
    assert not done.ok
    assert "circuit open" not in str(done.exception)
    assert cloud.pimaster.client.requests_sent - sent_before == OP_ATTEMPTS
    assert breaker.state is BreakerState.CLOSED

    # Second call: the failure that reaches the threshold opens the
    # breaker, and the call's remaining attempt is rejected without
    # touching the wire -- bounded, not OP_ATTEMPTS more sends.
    sent_before = cloud.pimaster.client.requests_sent
    done = cloud.pimaster.set_limits("web-1", cpu_quota=0.5)
    cloud.run_until_signal(done)
    assert not done.ok
    assert "circuit open" in str(done.exception)
    second_call_sends = cloud.pimaster.client.requests_sent - sent_before
    assert second_call_sends == BREAKER_FAILURE_THRESHOLD - OP_ATTEMPTS
    assert breaker.state is BreakerState.OPEN
    assert breaker.opened_count == 1

    # Third call fast-fails instantly: zero requests on the wire.
    sent_before = cloud.pimaster.client.requests_sent
    done = cloud.pimaster.set_limits("web-1", cpu_quota=0.5)
    cloud.run_until_signal(done)
    assert not done.ok
    assert cloud.pimaster.client.requests_sent == sent_before

    # Repair: the rejoin path forces the half-open window, the probe
    # succeeds and closes the breaker.
    run_until(cloud, cloud.rejoin_node(node))
    assert cloud.pimaster.rejoins == 1
    assert breaker.state is BreakerState.CLOSED
    assert breaker.probes == 1

    # Closed breaker passes traffic again: a fresh placement lands.
    run_until(cloud, cloud.spawn("webserver", name="web-2", node_id=node))
    assert cloud.pimaster.container_record("web-2").node_id == node
    return (
        cloud.sim.now,
        cloud.pimaster.op_retries,
        cloud.pimaster.breaker_fast_fails,
        breaker.fast_fails,
        breaker.opened_count,
        breaker.probes,
        cloud.pimaster.client.requests_sent,
    )


def test_breaker_bounds_attempts_and_recovers_deterministically():
    first = _breaker_scenario()
    assert first == _breaker_scenario()  # same seed -> same counters


def test_circuit_open_error_carries_node_id():
    sim = Simulator()
    exc = CircuitOpenError("probe: circuit open for node pi-r0-n0",
                           node_id="pi-r0-n0")
    assert exc.node_id == "pi-r0-n0"
    assert "circuit open" in str(exc)
    del sim


# -- retry idempotency ------------------------------------------------------


def test_retried_spawn_after_dropped_response_does_not_duplicate():
    """A spawn whose first attempt succeeds on the node but whose response
    is dropped (client-side timeout) must not double-create on retry."""
    cloud = build_cloud(self_healing=False, tracing=False)
    node = "pi-r0-n0"
    daemon = cloud.daemons[node]
    # Warm the image cache, then measure a steady-state create duration.
    run_until(cloud, cloud.spawn("webserver", name="warm-1", node_id=node))
    started = cloud.sim.now
    run_until(cloud, cloud.spawn("webserver", name="warm-2", node_id=node))
    create_duration = cloud.sim.now - started
    assert create_duration > 2.0

    # Give up client-side just before the daemon finishes: attempt 1 times
    # out, the node completes anyway, and the retry carries the same
    # idempotency key -- the daemon must replay, not re-create.
    cloud.pimaster.client.timeout_s = create_duration - 1.0
    retries_before = cloud.pimaster.op_retries
    replays_before = daemon.idempotent_replays
    record = run_until(cloud, cloud.spawn("webserver", name="web-x",
                                          node_id=node))
    assert cloud.pimaster.op_retries > retries_before
    assert daemon.idempotent_replays > replays_before

    # Exactly one container materialised; registry and node agree.
    names = [c.name for c in daemon.runtime.containers()]
    assert names.count("web-x") == 1
    assert daemon.runtime.running_count() == 3  # warm-1, warm-2, web-x
    assert record.name == "web-x"
    assert record.node_id == node
    assert cloud.pimaster.container_record("web-x").ip == record.ip
    assert cloud.container("web-x").name == "web-x"


class TestKnobsReachTheControlPlane:
    """Every HealthConfig knob and op_deadline_s, set away from its
    default, reaches the detector, breakers or pimaster that reads it;
    the retry loop follows OP_ATTEMPTS and OP_BACKOFF_S."""

    HEALTH = dict(
        enabled=True, heartbeat_interval_s=3.0, heartbeat_timeout_s=0.75,
        suspect_after_misses=3, dead_after_misses=5,
        unreachable_grace_s=12.0, fencing=True,
    )
    OPS = dict(op_deadline_s=600.0)

    def test_every_knob_reaches_its_component(self):
        fields = {f.name for f in dataclasses.fields(HealthConfig)}
        assert set(self.HEALTH) == fields
        defaults = (HealthConfig(), PiCloudConfig())
        for knobs, default in zip((self.HEALTH, self.OPS), defaults):
            for name, value in knobs.items():
                assert getattr(default, name) != value, name
        cloud = PiCloud(PiCloudConfig.small(
            start_monitoring=False, routing="shortest",
            health=HealthConfig(**self.HEALTH), **self.OPS,
        ))
        cloud.boot()
        pimaster = cloud.pimaster
        detector = pimaster.health
        assert detector._process is not None       # enabled: runs from boot
        assert detector.client.timeout_s == 0.75
        assert (detector.interval_s, detector.suspect_misses,
                detector.dead_misses) == (3.0, 3, 5)
        assert detector.unreachable_grace_s == 12.0
        assert pimaster.fencing is True
        assert pimaster.client.timeout_s == 600.0
        assert cloud.daemons["pi-r0-n0"].op_deadline_s == 600.0

        # OP_ATTEMPTS (3) refused attempts, with backoffs of
        # OP_BACKOFF_S x (1 + 2) s in all.
        def refused(span):
            signal = Signal(cloud.sim, name="refused")
            signal.fail(RestError(0, "connection refused"))
            return signal

        outcome = {}

        def call():
            try:
                yield from pimaster._call_with_retry(refused, "probe")
            except DeadlineExceeded as exc:
                outcome["error"] = exc

        start = cloud.sim.now
        cloud.sim.process(call(), name="probe")
        run_while(cloud, lambda: "error" not in outcome, 60.0)
        error = outcome["error"]
        assert (error.attempts, error.deadline_s) == (OP_ATTEMPTS, 600.0)
        assert pimaster.op_retries == OP_ATTEMPTS - 1
        assert cloud.sim.now - start == pytest.approx(OP_BACKOFF_S * 3)

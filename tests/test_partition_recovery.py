"""Partitions, the gen-2 failure detector, and split-brain-safe recovery.

The failure mode under test: a network partition makes live nodes look
dead from the pimaster's vantage point.  The legacy detector would
declare them DEAD and evacuate -- spawning second copies of containers
whose first copies are still running behind the partition (split
brain).  The gen-2 detector interposes UNREACHABLE (never
auto-evacuated before a grace period plus witness corroboration), every
spawn carries a monotone fencing epoch, daemons reject stale-epoch
operations, and on heal the pimaster reconciles duplicates -- newest
epoch wins, with the causal chain provable from the exported trace.
"""

import json

import pytest

from repro.core.cloud import PiCloud
from repro.core.config import HealthConfig, PiCloudConfig, TraceConfig
from repro.faults import FaultSchedule
from repro.hardware import Machine, RASPBERRY_PI_MODEL_B
from repro.hostos import HostKernel, IpFabric
from repro.mgmt import NODE_DAEMON_PORT, NodeDaemon, RestClient
from repro.mgmt.distribution import ImageDistributor
from repro.mgmt.health import WITNESS_COUNT, FailureDetector, NodeHealth
from repro.mgmt.rest import RestResponse
from repro.netsim import Network
from repro.netsim.topology import single_switch
from repro.sim import Simulator
from repro.units import mib
from tests.sim_helpers import run_while

HEARTBEAT_S = 1.0

HEALTH_KNOBS = frozenset(
    "unreachable_grace_s fencing dead_after_misses".split()
)


def build_cloud(tracing=False, **overrides):
    health = dict(
        enabled=True,
        heartbeat_interval_s=HEARTBEAT_S,
        heartbeat_timeout_s=0.5,
        suspect_after_misses=2,
        dead_after_misses=3,
        unreachable_grace_s=10.0,
    )
    health.update({k: overrides.pop(k) for k in list(overrides)
                   if k in HEALTH_KNOBS})
    config = PiCloudConfig.small(
        racks=overrides.pop("racks", 2), pis=overrides.pop("pis", 2),
        start_monitoring=False, routing="shortest",
        trace=TraceConfig(enabled=tracing),
        health=HealthConfig(**health),
        **overrides,
    )
    cloud = PiCloud(config)
    cloud.boot()
    return cloud


RACK0 = ["pi-r0-n0", "pi-r0-n1", "tor0"]


# -- the gen-2 detector state machine ---------------------------------------


class TestUnreachableInterposition:
    def test_partitioned_nodes_become_unreachable_not_dead(self):
        cloud = build_cloud(unreachable_grace_s=30.0)
        t0 = cloud.sim.now
        FaultSchedule(cloud).partition(t0 + 2.0, [RACK0]).arm()
        cloud.run_for(12.0)
        health = cloud.pimaster.health
        for node in ("pi-r0-n0", "pi-r0-n1"):
            assert health.state(node) is NodeHealth.UNREACHABLE
        # Within the grace period nothing is evacuated: the containers
        # behind the partition may well still be serving.
        assert cloud.pimaster.recovery.evacuations == 0
        assert "suspect->dead" not in health.transitions
        assert health.transitions.get("suspect->unreachable", 0) == 2

    def test_heal_within_grace_recovers_without_evacuation(self):
        cloud = build_cloud(unreachable_grace_s=60.0)
        t0 = cloud.sim.now
        (FaultSchedule(cloud)
         .partition(t0 + 2.0, [RACK0])
         .heal_partition(t0 + 20.0)
         .arm())
        cloud.run_for(30.0)
        health = cloud.pimaster.health
        for node in ("pi-r0-n0", "pi-r0-n1"):
            assert health.state(node) is NodeHealth.ALIVE
        assert cloud.pimaster.recovery.evacuations == 0
        assert cloud.pimaster.false_dead_evacuations == 0
        assert "unreachable->alive" in health.transitions
        # The outage is accounted even though nothing died.
        assert health.unreachable_seconds() > 0.0

    def test_grace_expiry_without_witness_declares_dead(self):
        cloud = build_cloud(unreachable_grace_s=8.0)
        t0 = cloud.sim.now
        FaultSchedule(cloud).partition(t0 + 2.0, [RACK0]).arm()
        cloud.run_for(40.0)
        health = cloud.pimaster.health
        for node in ("pi-r0-n0", "pi-r0-n1"):
            assert health.state(node) is NodeHealth.DEAD
        assert health.transitions.get("unreachable->dead", 0) == 2
        # Witnesses were consulted and none could reach the victims
        # (they sit on the pimaster's side of the cut).
        assert health.witness_probes > 0
        assert health.witness_confirmations == 0

    def test_legacy_detector_unchanged_with_zero_grace(self):
        cloud = build_cloud(unreachable_grace_s=0.0)
        assert not cloud.pimaster.health.partition_aware
        t0 = cloud.sim.now
        FaultSchedule(cloud).partition(t0 + 2.0, [RACK0]).arm()
        cloud.run_for(15.0)
        health = cloud.pimaster.health
        for node in ("pi-r0-n0", "pi-r0-n1"):
            assert health.state(node) is NodeHealth.DEAD
        assert "suspect->unreachable" not in health.transitions
        assert health.witness_probes == 0


# -- witness corroboration (unit: the generator is driven by hand) ----------


class _StubClient:
    """Stands in for RestClient: records posts, yields canned responses."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = []

    def post(self, ip, port, path, body):
        self.calls.append((ip, path, dict(body)))
        return ("request", len(self.calls))


def _detector(states, grace=5.0):
    sim = Simulator()
    detector = FailureDetector(sim, None, HealthConfig(
        heartbeat_interval_s=1.0, suspect_after_misses=1, dead_after_misses=2,
        unreachable_grace_s=grace,
    ))
    for index, (node, state) in enumerate(sorted(states.items())):
        detector.watch(node, f"10.0.0.{index + 1}")
        detector._states[node] = state
    return sim, detector


def _drive(gen, responses):
    """Run a witness-check generator, answering each yielded request."""
    try:
        next(gen)
        for response in responses:
            gen.send(response)
    except StopIteration:
        return
    raise AssertionError("generator wanted more responses than provided")


class TestWitnessCorroboration:
    def test_positive_witness_keeps_node_unreachable(self):
        sim, detector = _detector({
            "victim": NodeHealth.UNREACHABLE,
            "w1": NodeHealth.ALIVE,
            "w2": NodeHealth.ALIVE,
        })
        detector.client = _StubClient([])
        detector._unreachable_since["victim"] = 0.0
        sim.schedule(20.0, lambda: None)
        sim.run()  # well past the grace period
        _drive(detector._witness_check("victim", detector._targets["victim"]),
               [RestResponse(200, {"reachable": True, "witness": "w1"})])
        # One confirmation was enough: no DEAD, no second probe.
        assert detector._states["victim"] is NodeHealth.UNREACHABLE
        assert detector.witness_probes == 1
        assert detector.witness_confirmations == 1
        assert len(detector.client.calls) == 1
        ip, path, body = detector.client.calls[0]
        assert path == "/probe"
        assert body["ip"] == detector._targets["victim"]

    def test_all_witnesses_refute_declares_dead(self):
        # One more alive peer than WITNESS_COUNT: only that many are asked.
        peers = {f"w{i}": NodeHealth.ALIVE for i in range(WITNESS_COUNT + 1)}
        sim, detector = _detector({"victim": NodeHealth.UNREACHABLE, **peers})
        detector.client = _StubClient([])
        detector._unreachable_since["victim"] = 0.0
        sim.schedule(20.0, lambda: None)
        sim.run()
        _drive(detector._witness_check("victim", detector._targets["victim"]),
               [RestResponse(200, {"reachable": False})] * WITNESS_COUNT)
        assert detector._states["victim"] is NodeHealth.DEAD
        assert detector.witness_probes == WITNESS_COUNT
        assert detector.witness_confirmations == 0

    def test_only_alive_peers_are_witnesses(self):
        sim, detector = _detector({
            "victim": NodeHealth.UNREACHABLE,
            "w1": NodeHealth.ALIVE,
            "w2": NodeHealth.SUSPECT,       # not a credible witness
            "w3": NodeHealth.UNREACHABLE,   # nor this one
        })
        detector.client = _StubClient([])
        detector._unreachable_since["victim"] = 0.0
        sim.schedule(20.0, lambda: None)
        sim.run()
        _drive(detector._witness_check("victim", detector._targets["victim"]),
               [RestResponse(200, {"reachable": False})])
        assert len(detector.client.calls) == 1  # only w1 was asked
        assert detector._states["victim"] is NodeHealth.DEAD

    def test_no_dead_verdict_before_grace_expiry(self):
        sim, detector = _detector({
            "victim": NodeHealth.UNREACHABLE,
            "w1": NodeHealth.ALIVE,
        }, grace=100.0)
        detector.client = _StubClient([])
        detector._unreachable_since["victim"] = 0.0
        sim.schedule(20.0, lambda: None)
        sim.run()  # 20 s < 100 s grace
        _drive(detector._witness_check("victim", detector._targets["victim"]),
               [RestResponse(200, {"reachable": False})])
        # Even a refuting witness cannot shortcut the grace period.
        assert detector._states["victim"] is NodeHealth.UNREACHABLE


# -- split-brain end to end --------------------------------------------------


def _split_brain_run(fencing, tracing=False):
    """Partition the rack hosting web-1 long enough for a (false) DEAD
    verdict and an evacuation respawn, then heal; returns the cloud."""
    cloud = build_cloud(
        tracing=tracing, racks=2, pis=2,
        unreachable_grace_s=8.0, fencing=fencing,
    )
    cloud.spawn_and_wait("webserver", name="web-1", node_id="pi-r0-n0",
                         group="web")
    # Pre-warm the image fleet-wide so the evacuation respawn is not
    # bottlenecked on a ~60 s SD-card image push.
    warmed = ImageDistributor(cloud.pimaster).distribute_peer_assisted(
        "webserver")
    cloud.run_until_signal(warmed, max_seconds=86_400.0)

    t0 = cloud.sim.now + 5.0
    (FaultSchedule(cloud)
     .partition(t0, [RACK0])
     .heal_partition(t0 + 90.0)
     .arm())

    recovery = cloud.pimaster.recovery
    run_while(cloud, lambda: recovery.containers_respawned < 1,
              max_seconds=(t0 - cloud.sim.now) + 80.0)
    assert recovery.containers_respawned == 1, "respawn before heal"
    assert cloud.sim.now < t0 + 90.0
    # Split brain is now latent: the registry points at the new copy,
    # while the partitioned original is still running on pi-r0-n0.
    record = cloud.pimaster.container_record("web-1")
    assert record.node_id != "pi-r0-n0"
    originals = [c.name for c in
                 cloud.daemons["pi-r0-n0"].runtime.containers()]
    assert "web-1" in originals

    run_while(cloud, lambda: cloud.pimaster.reconciles < 1,
              max_seconds=(t0 + 90.0 - cloud.sim.now) + 60.0)
    cloud.run_for(10.0)  # let the reconcile finish its destroys
    return cloud, t0


class TestSplitBrainRecovery:
    def test_fencing_resolves_duplicates_newest_epoch_wins(self, tmp_path):
        cloud, t_partition = _split_brain_run(fencing=True, tracing=True)
        pimaster = cloud.pimaster

        # The invariant the whole design exists for:
        assert pimaster.duplicate_container_epochs == 0
        # The healed node's stale copy was fenced off ...
        stale = [c.name for c in
                 cloud.daemons["pi-r0-n0"].runtime.containers()]
        assert "web-1" not in stale
        # ... and exactly one authoritative copy survives, the one the
        # registry points at, carrying the higher epoch.
        record = pimaster.container_record("web-1")
        assert record.node_id != "pi-r0-n0"
        assert record.epoch == 2  # spawn epoch 1, evacuation respawn 2
        assert cloud.container("web-1").name == "web-1"
        # The detector's verdict was a false positive for both rack-0
        # nodes (each went through the evacuation path while alive
        # behind the partition), and both are counted.
        assert pimaster.false_dead_evacuations == 2
        assert pimaster.reconciles >= 1

        # -- causality, from the exported trace alone -------------------
        path = cloud.write_trace(str(tmp_path / "trace.jsonl"))
        with open(path) as handle:
            records = [json.loads(line) for line in handle]
        by_id = {r["span_id"]: r for r in records}

        def ancestors(record):
            seen = set()
            while record.get("parent_id"):
                record = by_id.get(record["parent_id"])
                if record is None:
                    break
                seen.add(record["span_id"])
            return seen

        cut = next(r for r in records if r["name"] == "fault.partition")
        heal = next(r for r in records
                    if r["name"] == "fault.partition-heal")
        assert heal["start"] >= t_partition + 90.0

        # The evacuation respawn descends from the partition cut ...
        respawn = next(r for r in records if r["name"] == "mgmt.spawn"
                       and r["attributes"].get("container") == "web-1"
                       and r["start"] > t_partition)
        assert cut["span_id"] in ancestors(respawn)

        # ... and the reconcile + fence-destroy descend from the heal
        # instant, through the node's back-to-ALIVE transition.
        revive = next(r for r in records if r["name"] == "health.node-alive"
                      and r["attributes"]["node"] == "pi-r0-n0"
                      and r["start"] >= heal["start"])
        assert heal["span_id"] in ancestors(revive)
        reconcile = next(r for r in records if r["name"] == "mgmt.reconcile"
                         and r["attributes"]["node"] == "pi-r0-n0")
        assert heal["span_id"] in ancestors(reconcile)
        destroy = next(r for r in records
                       if r["name"] == "mgmt.fence-destroy"
                       and r["attributes"]["container"] == "web-1")
        assert reconcile["span_id"] in ancestors(destroy)
        assert destroy["status"] == "ok"

    def test_without_fencing_the_double_run_is_visible(self):
        cloud, _ = _split_brain_run(fencing=False)
        pimaster = cloud.pimaster

        # Split brain: both incarnations are still running ...
        assert pimaster.duplicate_container_epochs == 1
        stale = [c.name for c in
                 cloud.daemons["pi-r0-n0"].runtime.containers()]
        assert "web-1" in stale
        record = pimaster.container_record("web-1")
        assert record.node_id != "pi-r0-n0"
        assert record.epoch is None  # no fencing epochs on the wire
        # ... and no daemon ever saw an epoch to reject.
        assert all(d.stale_epoch_rejections == 0
                   for d in cloud.daemons.values())


# -- fencing epochs at the daemon API (unit) --------------------------------


IMAGE_BODY = {"name": "tiny", "version": 1, "size": mib(1),
              "idle_memory": mib(30), "app_class": "generic"}


@pytest.fixture
def daemon_world():
    sim = Simulator()
    topo = single_switch(["pi-1", "mgmt"], bandwidth=12.5e6, latency=0.0)
    network = Network(sim, topo)
    fabric = IpFabric(sim, network)
    kernels = {}
    for index, host in enumerate(("pi-1", "mgmt")):
        machine = Machine(sim, RASPBERRY_PI_MODEL_B, host)
        machine.boot_immediately()
        kernel = HostKernel(sim, machine, fabric)
        kernel.netstack.bind_address(f"10.0.0.{index + 1}")
        kernels[host] = kernel
    daemon = NodeDaemon(kernels["pi-1"])
    client = RestClient(kernels["mgmt"].netstack, timeout_s=3600.0)
    response = _call(sim, client.post("10.0.0.1", NODE_DAEMON_PORT, "/images",
                                      body=IMAGE_BODY, wire_size=mib(1)))
    assert response.status == 201
    return sim, network, daemon, client


def _call(sim, signal, deadline=7200.0):
    sim.run(until=sim.now + deadline)
    assert signal.triggered
    return signal.value


def _create(sim, client, epoch=None, key=None, ip="10.0.1.10"):
    body = {"name": "c1", "image": "tiny:v1", "ip": ip}
    if epoch is not None:
        body["epoch"] = epoch
    if key is not None:
        body["idempotency_key"] = key
    return _call(sim, client.post("10.0.0.1", NODE_DAEMON_PORT,
                                  "/containers", body=body))


class TestFencingEpochs:
    def test_duplicate_delivery_across_partition_heal_replays(
            self, daemon_world):
        """A create retried after a heal (its first response was lost to
        the partition) answers from the idempotency cache -- one
        container, not two, and the daemon counts the replay."""
        sim, network, daemon, client = daemon_world
        first = _create(sim, client, epoch=1, key="spawn:c1:1")
        assert first.status == 201
        network.set_partition([["pi-1"]])
        sim.run(until=sim.now + 30.0)
        network.clear_partition()
        second = _create(sim, client, epoch=1, key="spawn:c1:1")
        assert second.status == 201
        assert second.body == first.body
        assert daemon.idempotent_replays == 1
        assert [c.name for c in daemon.runtime.containers()] == ["c1"]

    def test_stale_epoch_create_and_destroy_rejected(self, daemon_world):
        sim, network, daemon, client = daemon_world
        assert _create(sim, client, epoch=2, key="spawn:c1:1").status == 201
        # A destroy stamped with a pre-partition epoch must not kill the
        # newer incarnation.
        stale_destroy = _call(sim, client.delete(
            "10.0.0.1", NODE_DAEMON_PORT, "/containers/c1",
            body={"epoch": 1, "idempotency_key": "destroy:c1:1"},
        ))
        assert stale_destroy.status == 409
        assert [c.name for c in daemon.runtime.containers()] == ["c1"]
        # Same for a stale create.
        stale_create = _create(sim, client, epoch=1, key="spawn:c1:2")
        assert stale_create.status == 409
        assert daemon.stale_epoch_rejections == 2

    def test_newer_epoch_create_supersedes_running_copy(self, daemon_world):
        """Fenced replace: a create with a strictly newer epoch destroys
        the stale same-name copy first -- newest epoch wins on the node
        itself, so a respawn landing back on a healed host succeeds."""
        sim, network, daemon, client = daemon_world
        assert _create(sim, client, epoch=1, key="spawn:c1:1",
                       ip="10.0.1.10").status == 201
        replaced = _create(sim, client, epoch=3, key="spawn:c1:2",
                           ip="10.0.1.11")
        assert replaced.status == 201
        containers = daemon.runtime.containers()
        assert [c.name for c in containers] == ["c1"]
        assert daemon._container_epochs["c1"] == 3

    def test_epochs_survive_destruction(self, daemon_world):
        """The fence must hold even after the container is gone: a
        stale create after an epoch-2 destroy is still rejected."""
        sim, network, daemon, client = daemon_world
        assert _create(sim, client, epoch=2, key="spawn:c1:1").status == 201
        destroyed = _call(sim, client.delete(
            "10.0.0.1", NODE_DAEMON_PORT, "/containers/c1",
            body={"epoch": 2, "idempotency_key": "destroy:c1:1"},
        ))
        assert destroyed.status == 200
        assert daemon.runtime.containers() == []
        late = _create(sim, client, epoch=1, key="spawn:c1:2")
        assert late.status == 409
        assert daemon.stale_epoch_rejections == 1

    def test_unfenced_ops_ignore_epochs(self, daemon_world):
        """Legacy path: no epoch on the wire, no fencing behaviour."""
        sim, network, daemon, client = daemon_world
        assert _create(sim, client, key="spawn:c1:1").status == 201
        assert "c1" not in daemon._container_epochs
        destroyed = _call(sim, client.delete(
            "10.0.0.1", NODE_DAEMON_PORT, "/containers/c1",
            body={"idempotency_key": "destroy:c1:1"},
        ))
        assert destroyed.status == 200
        assert daemon.stale_epoch_rejections == 0

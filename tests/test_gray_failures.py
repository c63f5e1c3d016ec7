"""Gray failures and partitions at the fabric + load-engine layers.

A gray-failed element under-delivers while every binary health signal
says "up": these tests pin the three guarantees the fault layer makes.

* Identity defaults: an undegraded link computes bit-identical
  capacities and latencies to the pre-gray-failure model (the knobs are
  exact IEEE identities), so default-path runs cannot drift.
* User-visible impact: degraded bandwidth slows real transfers, and a
  lossy uplink measurably raises a service's p99 while the link still
  reports ``up`` -- including byte-identical same-seed metrics across
  fresh interpreter processes.
* Partitions cut reachability (active flows reset, new flows refused)
  without failing a single link, and heal instantly.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro import (
    LoadEngine, PiCloud, PiCloudConfig, PoissonArrivals, Service,
)
from repro.errors import (
    ConfigurationError,
    ConnectionResetError,
    NoRouteError,
)
from repro.mgmt.health import NodeHealth

SRC = str(Path(__file__).resolve().parent.parent / "src")


def small_cloud(**overrides):
    overrides.setdefault("start_monitoring", False)
    overrides.setdefault("seed", 7)
    overrides.setdefault("routing", "shortest")
    config = PiCloudConfig.small(racks=2, pis=2, **overrides)
    cloud = PiCloud(config)
    cloud.boot()
    return cloud


# -- link-level gray state ---------------------------------------------------


class TestLinkDegrade:
    def test_validation(self):
        cloud = small_cloud()
        link = cloud.network.link("tor0", "agg0")
        with pytest.raises(ConfigurationError):
            link.degrade(bandwidth_frac=0.0)
        with pytest.raises(ConfigurationError):
            link.degrade(bandwidth_frac=1.0001)
        with pytest.raises(ConfigurationError):
            link.degrade(extra_latency=-1.0)
        with pytest.raises(ConfigurationError):
            link.degrade(loss=-0.1)
        with pytest.raises(ConfigurationError):
            link.degrade(loss=1.0)
        assert not link.degraded

    def test_capacity_and_latency_reflect_degradation(self):
        cloud = small_cloud()
        link = cloud.network.link("tor0", "agg0")
        spec_capacity = link.forward.capacity
        spec_latency = link.forward.latency
        cloud.network.degrade_link("tor0", "agg0", bandwidth_frac=0.25,
                                   extra_latency=0.003, loss=0.02)
        assert link.up                      # gray, not down
        assert link.degraded
        assert link.forward.capacity == spec_capacity * 0.25
        assert link.reverse.capacity == spec_capacity * 0.25
        assert link.forward.latency == spec_latency + 0.003
        assert link.loss == 0.02

    def test_capacity_attribute_follows_degrade_and_restore(self):
        """``capacity`` is stored, not computed on read: degrade and
        restore, the only writers of ``bandwidth_frac``, refresh it on
        both directions, and a rejected degrade leaves it alone."""
        cloud = small_cloud()
        link = cloud.network.link("tor0", "agg0")
        assert "capacity" in vars(link.forward)
        for frac in (0.25, 0.5, 1.0, 0.125):
            cloud.network.degrade_link("tor0", "agg0", bandwidth_frac=frac)
            assert link.forward.capacity == link.bandwidth * frac
            assert link.reverse.capacity == link.bandwidth * frac
        with pytest.raises(ConfigurationError):
            link.degrade(bandwidth_frac=0.0)
        assert link.forward.capacity == link.bandwidth * 0.125
        cloud.network.restore_link("tor0", "agg0")
        assert link.forward.capacity == link.bandwidth
        assert link.reverse.capacity == link.bandwidth

    def test_restore_is_the_exact_identity(self):
        """After restore, capacity/latency are bit-identical to spec --
        the float identities 1.0x and +0.0 guarantee default-path runs
        cannot drift after a degrade/restore cycle."""
        cloud = small_cloud()
        link = cloud.network.link("tor0", "agg0")
        spec_capacity = link.forward.capacity
        spec_latency = link.forward.latency
        cloud.network.degrade_link("tor0", "agg0", bandwidth_frac=0.5)
        cloud.network.restore_link("tor0", "agg0")
        assert not link.degraded
        assert link.forward.capacity == spec_capacity
        assert link.forward.latency == spec_latency
        # Restoring an undegraded link is a no-op, not an error.
        cloud.network.restore_link("tor0", "agg0")

    def test_degraded_bandwidth_slows_real_transfers(self):
        cloud = small_cloud()
        src, dst, size = "pi-r0-n0", "pi-r0-n1", 20e6

        healthy = cloud.network.transfer(src, dst, size)
        cloud.run_for(600.0)
        assert healthy.ok
        healthy_s = healthy.completed_at - healthy.started_at

        cloud.network.degrade_link(src, "tor0", bandwidth_frac=0.1)
        degraded = cloud.network.transfer(src, dst, size)
        cloud.run_for(6000.0)
        assert degraded.ok
        degraded_s = degraded.completed_at - degraded.started_at
        # 10% of the access-link capacity -> ~10x the transfer time.
        assert degraded_s > 5.0 * healthy_s


# -- partitions at the fabric level -----------------------------------------


class TestFabricPartition:
    def test_active_crossing_flow_is_reset(self):
        cloud = small_cloud()
        flow = cloud.network.transfer("pi-r0-n0", "pi-r1-n0", 500e6)
        cloud.run_for(1.0)
        cloud.network.set_partition([["pi-r0-n0", "pi-r0-n1", "tor0"]])
        assert flow.triggered and not flow.ok
        assert isinstance(flow.exception, ConnectionResetError)

    def test_new_crossing_flow_refused_intra_group_unaffected(self):
        cloud = small_cloud()
        cloud.network.set_partition([["pi-r0-n0", "pi-r0-n1", "tor0"]])
        crossing = cloud.network.transfer("pi-r0-n0", "pi-r1-n0", 1000.0)
        within = cloud.network.transfer("pi-r0-n0", "pi-r0-n1", 1000.0)
        rest = cloud.network.transfer("pi-r1-n0", "pi-r1-n1", 1000.0)
        cloud.run_for(30.0)
        assert not crossing.ok
        assert isinstance(crossing.exception, NoRouteError)
        # Both sides keep working internally: nothing is dead.
        assert within.ok
        assert rest.ok

    def test_unknown_member_rejected(self):
        cloud = small_cloud()
        with pytest.raises(Exception):
            cloud.network.set_partition([["ghost"]])
        assert not cloud.network.partitioned

    def test_heal_is_instant(self):
        cloud = small_cloud()
        cloud.network.set_partition([["pi-r0-n0", "pi-r0-n1", "tor0"]])
        cloud.network.clear_partition()
        assert not cloud.network.partitioned
        flow = cloud.network.transfer("pi-r0-n0", "pi-r1-n0", 1000.0)
        cloud.run_for(30.0)
        assert flow.ok


# -- user-visible impact through the load engine ----------------------------


def _run_load(degrade: bool, seconds: float = 40.0):
    """One seeded load run against a rack-0 replica; optionally with the
    serving rack's uplink gray-failed at 10% bandwidth + 2% loss."""
    cloud = small_cloud(seed=21)
    cloud.spawn_and_wait("webserver", name="web0", node_id="pi-r0-n0",
                         group="web")
    if degrade:
        cloud.network.degrade_link("tor0", "agg0", bandwidth_frac=0.1,
                                   loss=0.02)
        cloud.network.degrade_link("tor0", "agg1", bandwidth_frac=0.1,
                                   loss=0.02)
    engine = LoadEngine(cloud, [Service("web")], PoissonArrivals(30.0))
    report = engine.run(seconds)
    links_up = (cloud.network.link("tor0", "agg0").up
                and cloud.network.link("tor0", "agg1").up)
    return report.metrics(), links_up


class TestGraySlo:
    def test_lossy_slow_uplink_raises_p99_while_up(self):
        healthy, _ = _run_load(degrade=False)
        degraded, links_up = _run_load(degrade=True)
        # The binary health signal never moved ...
        assert links_up
        # ... but the users crossing the uplink measurably suffered.
        assert degraded["web_p99_ms"] > healthy["web_p99_ms"]
        assert degraded["web_p50_ms"] > healthy["web_p50_ms"]
        assert degraded["web_burn_rate"] >= healthy["web_burn_rate"]

    def test_same_seed_same_metrics_in_process(self):
        first, _ = _run_load(degrade=True)
        second, _ = _run_load(degrade=True)
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True)


_GRAY_DETERMINISM_SCRIPT = """
import json, sys
from repro import (
    LoadEngine, PiCloud, PiCloudConfig, PoissonArrivals, Service,
)

config = PiCloudConfig.small(racks=2, pis=2, seed=21, routing="shortest",
                             start_monitoring=False)
cloud = PiCloud(config)
cloud.boot()
cloud.spawn_and_wait("webserver", name="web0", node_id="pi-r0-n0",
                     group="web")
cloud.network.degrade_link("tor0", "agg0", bandwidth_frac=0.1, loss=0.02)
cloud.network.degrade_link("tor0", "agg1", bandwidth_frac=0.1, loss=0.02)
cloud.slow_node("pi-r0-n0", factor=3.0)
engine = LoadEngine(cloud, [Service("web")], PoissonArrivals(30.0))
metrics = engine.run(40.0).metrics()
with open(sys.argv[1], "w") as out:
    json.dump(metrics, out, sort_keys=True)
"""


class TestGrayCrossProcessDeterminism:
    def test_same_seed_byte_identical_across_interpreters(self, tmp_path):
        """Gray-failure metrics replay bit-for-bit in fresh interpreters:
        the retransmission and slow-node terms are pure float arithmetic
        on deterministic inputs, no hidden iteration-order or clock."""
        outputs = []
        for run in ("a", "b"):
            out = tmp_path / f"gray-{run}.json"
            subprocess.run(
                [sys.executable, "-c", _GRAY_DETERMINISM_SCRIPT, str(out)],
                capture_output=True, text=True, check=True,
                env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
            )
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        metrics = json.loads(outputs[0])
        assert metrics["web_offered_requests"] > 0


# -- deferred retry instead of silent +inf ----------------------------------


class TestDeferredRetry:
    def _engine(self):
        cloud = small_cloud(seed=5)
        cloud.spawn_and_wait("webserver", name="web0", node_id="pi-r0-n0",
                             group="web")
        # Gen-2 detector on (grace > 0) without running the heartbeat
        # loop: tests drive the recorded states directly.
        cloud.pimaster.health.unreachable_grace_s = 30.0
        engine = LoadEngine(cloud, [Service("web")],
                            PoissonArrivals(10.0))
        return cloud, engine

    def test_unreachable_replicas_defer_then_retry(self):
        cloud, engine = self._engine()
        states = cloud.pimaster.health._states
        states["pi-r0-n0"] = NodeHealth.UNREACHABLE
        engine.start(20.0)
        # Dark for fewer epochs than the backlog bound: nothing ages out.
        cloud.run_for((engine.backlog_epochs - 1) * engine.epoch_s)
        report = engine.report().services["web"]
        assert report.deferred_requests > 0
        assert report.shed_requests == 0
        # The host answers again: the backlog is folded into the next
        # epoch's offered mass instead of having been shed at +inf.
        states["pi-r0-n0"] = NodeHealth.ALIVE
        cloud.run_for(20.0)
        report = engine.report().services["web"]
        assert report.retried_requests > 0
        assert report.retried_requests <= report.deferred_requests
        assert report.flows_completed > 0

    def test_deferred_demand_ages_out_as_shed(self):
        cloud, engine = self._engine()
        cloud.pimaster.health._states["pi-r0-n0"] = NodeHealth.UNREACHABLE
        engine.start(30.0)
        cloud.run_for(30.0)
        report = engine.report().services["web"]
        # Past backlog_epochs of waiting, deferred entries shed at +inf.
        assert report.deferred_requests > 0
        assert report.shed_requests > 0
        assert report.retried_requests == 0

    def test_legacy_detector_sheds_immediately(self):
        """With the legacy (binary) detector nothing is deferred: an
        empty replica set sheds at +inf exactly as before this change."""
        cloud = small_cloud(seed=5)
        # Group resolution with no containers: the replica set is empty.
        engine = LoadEngine(cloud, [Service("web")], PoissonArrivals(10.0))
        assert not cloud.pimaster.health.partition_aware
        engine.start(10.0)
        cloud.run_for(10.0)
        report = engine.report().services["web"]
        assert report.shed_requests > 0
        assert report.deferred_requests == 0

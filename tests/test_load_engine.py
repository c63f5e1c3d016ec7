"""The fluid load engine: event-count scaling, TE gap, shedding, determinism.

The acceptance-critical properties live here:

* kernel events scale with ``aggregates x epochs``, never with users --
  a run carrying >1M concurrent sessions costs about the same number of
  events as one carrying a thousand;
* a flash crowd on a tight fat-tree burns the SLO budget under static
  ECMP but not under the SDN TE arm (least-congested + rerouter);
* same seed => byte-identical metrics, including across two fresh
  interpreter processes (the campaign-worker guarantee).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro import (
    ConfigurationError,
    FlashCrowdArrivals,
    LoadEngine,
    LoadError,
    PiCloud,
    PiCloudConfig,
    PoissonArrivals,
    RegionalMixture,
    Service,
    ServiceProfile,
    SloObjective,
)
from repro.load.engine import EPOCH_S
from repro.units import mbit_per_s

SRC = str(Path(__file__).resolve().parent.parent / "src")


def small_cloud(racks=2, pis=2, **overrides):
    overrides.setdefault("start_monitoring", False)
    overrides.setdefault("seed", 7)
    config = PiCloudConfig.small(racks=racks, pis=pis, **overrides)
    cloud = PiCloud(config)
    cloud.boot()
    return cloud


def spawn_pool(cloud, count=2, group="web"):
    for index in range(count):
        cloud.spawn_and_wait("webserver", name=f"web{index}", group=group)


class TestEngineValidation:
    def test_needs_services(self):
        cloud = small_cloud()
        with pytest.raises(ConfigurationError):
            LoadEngine(cloud, [], PoissonArrivals(1.0))

    def test_rejects_duplicate_service_names(self):
        cloud = small_cloud()
        with pytest.raises(ConfigurationError):
            LoadEngine(cloud, [Service("web"), Service("web")],
                       PoissonArrivals(1.0))

    def test_rejects_unknown_client_edge(self):
        cloud = small_cloud()
        with pytest.raises(LoadError):
            LoadEngine(cloud, [Service("web")], PoissonArrivals(1.0),
                       client_edges=["no-such-switch"])

    def test_start_twice_rejected(self):
        cloud = small_cloud()
        spawn_pool(cloud)
        engine = LoadEngine(cloud, [Service("web")], PoissonArrivals(1.0))
        engine.start(5.0)
        with pytest.raises(LoadError):
            engine.start(5.0)

    def test_group_resolution_without_pimaster_nodes_hint(self):
        cloud = small_cloud()
        # No containers in the group: every request is shed, not crashed.
        engine = LoadEngine(cloud, [Service("ghost")], PoissonArrivals(50.0))
        report = engine.run(5.0)
        ghost = report.services["ghost"]
        assert ghost.shed_requests == ghost.offered_requests > 0
        assert ghost.slo.error_rate() == 1.0


class TestEventScaling:
    """The tentpole property: kernel cost is O(aggregates x epochs)."""

    def run_at_rate(self, rate_per_s, duration=40.0):
        cloud = small_cloud(topology="fat-tree", fat_tree_k=4)
        spawn_pool(cloud)
        engine = LoadEngine(
            cloud,
            [Service("web", profile=ServiceProfile(session_duration_s=60.0))],
            PoissonArrivals(rate_per_s),
        )
        events_before = cloud.sim.events_executed
        report = engine.run(duration)
        return report, cloud.sim.events_executed - events_before

    def test_events_do_not_scale_with_users(self):
        small_report, small_events = self.run_at_rate(50.0)
        big_report, big_events = self.run_at_rate(50_000.0)
        # Three orders of magnitude more users...
        ratio = (big_report.peak_concurrent_sessions
                 / small_report.peak_concurrent_sessions)
        assert ratio > 500.0
        # ...for essentially the same kernel bill.  (Overload shedding
        # can only *reduce* the flow count, never inflate it.)
        assert big_events <= small_events * 1.5
        assert big_events < 10_000

    def test_million_concurrent_sessions_within_budget(self):
        report, events = self.run_at_rate(50_000.0)
        assert report.peak_concurrent_sessions >= 1_000_000
        assert report.services["web"].offered_requests > 1e6
        assert events < 10_000

    def test_epoch_knob_trades_resolution_for_events(self):
        """One epoch (one tick of aggregate flows) per EPOCH_S."""
        cloud = small_cloud(topology="fat-tree", fat_tree_k=4)
        spawn_pool(cloud)
        engine = LoadEngine(cloud, [Service("web")], PoissonArrivals(50.0))
        report = engine.run(40.0)
        assert report.epochs == round(40.0 / EPOCH_S) == 40


class TestTrafficEngineeringGap:
    """Flash crowd on tight uplinks: ECMP burns the budget, TE does not."""

    def run_arm(self, routing, te):
        cloud = small_cloud(
            racks=4, pis=4, topology="fat-tree", fat_tree_k=4,
            routing=routing, uplink_bandwidth=mbit_per_s(100),
            seed=1,
        )
        spawn_pool(cloud, count=8)
        rerouter = None
        if te:
            from repro.netsim.sdn import ElephantRerouter
            rerouter = ElephantRerouter(
                cloud.sim, cloud.network, cloud.controller,
                interval=0.5, congestion_threshold=0.7, min_flow_bytes=1e5,
            )
        service = Service("web", profile=ServiceProfile(
            response_bytes=8192.0, requests_per_session_per_s=0.2,
        ), slo=SloObjective(threshold_s=0.25, objective=0.999))
        engine = LoadEngine(
            cloud, [service],
            FlashCrowdArrivals(50.0, 1500.0, start_s=10.0),
        )
        report = engine.run(60.0)
        if rerouter is not None:
            rerouter.stop()
        return report

    def test_te_apps_close_the_slo_gap(self):
        ecmp = self.run_arm("ecmp", te=False)
        te = self.run_arm("sdn-least-congested", te=True)
        ecmp_web, te_web = ecmp.services["web"], te.services["web"]
        # Static hashing under the crowd: collisions persist, the
        # backlog guard sheds, the error budget burns hard.
        assert ecmp_web.slo.burn_rate() > 1.0
        assert ecmp_web.shed_requests > 0
        # The TE arm rides out the same crowd inside the SLO.
        assert te_web.slo.burn_rate() < 1.0
        assert te.fleet_summary().p99 * 10.0 < ecmp.fleet_summary().p99

    def test_backlog_guard_sheds_instead_of_queueing(self):
        report = self.run_arm("ecmp", te=False)
        web = report.services["web"]
        assert web.shed_requests > 0
        # Shed mass lands in the histogram overflow bucket (recorded at
        # +inf) and counts as SLO-bad -- overload is visible as burn.
        assert web.histogram._counts[-1] >= web.shed_requests * 0.99
        assert web.slo.bad >= web.shed_requests


class TestReporting:
    def run_small(self):
        cloud = small_cloud()
        spawn_pool(cloud)
        engine = LoadEngine(cloud, [Service("web")], PoissonArrivals(40.0))
        return engine.run(20.0)

    def test_report_shape(self):
        report = self.run_small()
        assert report.epochs == 20
        assert report.duration_s == pytest.approx(20.0)
        web = report.services["web"]
        assert web.flows_completed > 0
        assert web.offered_requests > 0
        summary = report.fleet_summary()
        assert 0.0 < summary.p50 <= summary.p99

    def test_metrics_are_flat_and_numeric(self):
        metrics = self.run_small().metrics()
        for key in ("peak_concurrent_sessions", "total_requests",
                    "fleet_p50_ms", "fleet_p99_ms", "fleet_p999_ms",
                    "fleet_error_rate", "worst_burn_rate",
                    "web_p99_ms", "web_burn_rate"):
            assert isinstance(metrics[key], (int, float)), key

    def test_format_renders_table(self):
        text = self.run_small().format()
        assert "service" in text and "web" in text and "burn" in text


class TestDeterminism:
    def run_metrics(self):
        cloud = small_cloud(topology="fat-tree", fat_tree_k=4, seed=11)
        spawn_pool(cloud)
        engine = LoadEngine(
            cloud, [Service("web")],
            FlashCrowdArrivals(20.0, 400.0, start_s=5.0),
        )
        return engine.run(30.0).metrics()

    def test_same_seed_same_metrics_in_process(self):
        first = json.dumps(self.run_metrics(), sort_keys=True)
        second = json.dumps(self.run_metrics(), sort_keys=True)
        assert first == second


_DETERMINISM_SCRIPT = """
import json, sys
from repro import (FlashCrowdArrivals, LoadEngine, PiCloud, PiCloudConfig,
                   PoissonArrivals, RegionalMixture, Service)

config = PiCloudConfig.small(racks=2, pis=2, topology="fat-tree",
                             fat_tree_k=4, seed=11, start_monitoring=False)
cloud = PiCloud(config)
cloud.boot()
for index in range(2):
    cloud.spawn_and_wait("webserver", name=f"web{index}", group="web")

arrivals = RegionalMixture({
    "eu": (FlashCrowdArrivals(20.0, 400.0, start_s=5.0), 1.0),
    "us": (PoissonArrivals(30.0), 2.0),
})
# The sampled arrival timeline, epoch by epoch, straight from the
# seeded per-region streams the engine will consume.
probe = RegionalMixture(dict(arrivals.regions))
rngs = {name: cloud.rng.stream(f"probe.{name}") for name in probe.regions}
timeline = [probe.per_region(t, t + 1.0, rngs) for t in range(30)]

engine = LoadEngine(cloud, [Service("web")], arrivals)
metrics = engine.run(30.0).metrics()
with open(sys.argv[1], "w") as out:
    json.dump({"timeline": timeline, "metrics": metrics}, out,
              sort_keys=True)
"""


class TestCrossProcessDeterminism:
    def test_same_seed_byte_identical_across_interpreters(self, tmp_path):
        """Fresh interpreters, same seed -> identical arrivals + metrics.

        This is what makes campaign grids trustworthy: a worker process
        rerunning a cell reproduces it bit for bit.
        """
        outputs = []
        for run in ("a", "b"):
            out = tmp_path / f"load-{run}.json"
            subprocess.run(
                [sys.executable, "-c", _DETERMINISM_SCRIPT, str(out)],
                capture_output=True, text=True, check=True,
                env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
            )
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        payload = json.loads(outputs[0])
        assert payload["metrics"]["peak_concurrent_sessions"] > 0
        assert len(payload["timeline"]) == 30

"""The metrics plane: declarations, ``cloud.metrics()`` and directions.

Every metric a run reports resolves to one declaration in
``repro.telemetry.metrics``; the cloud snapshot reads counters without
touching the simulation; the dashboard's colours come from the
declared directions.
"""

import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

import repro.campaign.scenarios as scenarios
from repro.campaign.scenarios import RunContext, resolve_scenario
from repro.core import PiCloud, PiCloudConfig
from repro.core.config import HealthConfig, TraceConfig
from repro.errors import PiCloudError
from repro.load.slo import DEFAULT_WINDOWS
from repro.telemetry.metrics import (
    CLOUD_METRICS,
    REPORT_METRICS,
    SERVICE_METRICS,
    direction,
    lookup,
)

SRC = str(Path(__file__).resolve().parent.parent / "src")
CLOUD_NAMES = {metric.name for metric in CLOUD_METRICS}

# The five built-ins at smoke size (a few seconds in all).
SMOKE_CELLS = {
    "availability_mtbf": dict(duration_s=60.0, node_mtbf_s=30.0,
                              mttr_s=10.0, web_containers=2),
    "scale_perf": dict(nodes=56, pairs=2, rate_model="cc",
                       protocol="dctcp"),
    "flashcrowd_slo": dict(nodes=56, duration_s=50.0, replicas=4,
                           base_rate=50.0, peak_rate=400.0),
    "partition_chaos": dict(partition_s=20.0, unreachable_grace_s=8.0,
                            fencing=True, pod=0, fat_tree_k=4, racks=4,
                            pis=4, web_containers=2, settle_s=10.0,
                            arrival_rate=5.0, heartbeat_interval_s=1.0,
                            heartbeat_timeout_s=0.5),
    "cc_contrast": dict(workload="incast", hosts=16, fat_tree_k=4,
                        senders=8, duration_s=2.0),
}


@pytest.fixture(scope="module")
def smoke_outputs():
    with pytest.MonkeyPatch.context() as patch:
        for window in ("WARMUP_S", "SETTLE_S", "MEASURE_S"):
            patch.setattr(scenarios, window, 2.0)
        return {
            name: resolve_scenario(name)(RunContext(params=params, seed=7))
            for name, params in SMOKE_CELLS.items()
        }


def _small_cloud(trace: bool = False) -> PiCloud:
    cloud = PiCloud(PiCloudConfig.small(
        racks=2, pis=3, seed=5, routing="shortest",
        health=HealthConfig(enabled=True),
        trace=TraceConfig(enabled=trace),
    ))
    cloud.boot()
    return cloud


class TestDeclarations:
    def test_names_are_unique_per_table(self):
        for table in (CLOUD_METRICS + REPORT_METRICS, SERVICE_METRICS):
            names = [metric.name for metric in table]
            assert len(names) == len(set(names))

    def test_cloud_metrics_are_layer_counters_with_sources(self):
        for metric in CLOUD_METRICS:
            layer, dot, _ = metric.name.partition(".")
            assert dot and layer in ("sim", "netsim", "mgmt", "virt")
            assert metric.source is not None
        assert all(m.source is None for m in REPORT_METRICS + SERVICE_METRICS)

    def test_directions_are_lower_higher_or_none(self):
        for metric in CLOUD_METRICS + REPORT_METRICS + SERVICE_METRICS:
            assert metric.direction in ("lower", "higher", None)
            assert metric.unit

    def test_peak_burn_keys_follow_the_default_windows(self):
        declared = sorted(m.name for m in SERVICE_METRICS
                          if m.name.startswith("peak_burn_"))
        assert declared == sorted(f"peak_burn_{w:g}s"
                                  for w in DEFAULT_WINDOWS)

    def test_import_stays_off_the_substrate(self):
        code = (
            "import sys; import repro.telemetry.metrics; "
            "print(','.join(m for m in sys.modules if m.startswith("
            "('repro.core', 'repro.mgmt', 'repro.netsim'))))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
        )
        assert out.stdout.strip() == ""


class TestDirection:
    def test_echoed_inputs_are_neutral(self):
        assert direction("unreachable_grace_s") == 0
        assert direction("duration_s") == 0
        assert direction("web_slo_threshold_s") == 0

    def test_declared_cloud_metrics(self):
        assert direction("mgmt.duplicate_container_epochs") == -1
        assert direction("virt.containers_running") == 1

    def test_service_keys_resolve_after_the_first_underscore(self):
        assert direction("web_p99_ms") == -1
        assert direction("web_good_requests") == 1
        assert lookup("api_burn_rate").name == "burn_rate"

    def test_exact_name_wins_over_service_key(self):
        assert lookup("fleet_p99_ms").name == "fleet_p99_ms"

    def test_undeclared_is_neutral(self):
        assert lookup("no_such_metric") is None
        assert direction("no_such_metric") == 0
        assert direction("nodots") == 0


class TestCloudMetrics:
    def test_requires_a_booted_cloud(self):
        with pytest.raises(PiCloudError, match="not booted"):
            PiCloud(PiCloudConfig.small()).metrics()

    def test_every_declared_metric_sorted(self):
        cloud = _small_cloud()
        cloud.spawn_and_wait("webserver", name="web-1")
        cloud.run_for(10.0)
        metrics = cloud.metrics()
        assert list(metrics) == sorted(CLOUD_NAMES)
        assert metrics["mgmt.spawns"] == 1
        assert metrics["virt.containers_running"] == 1
        assert metrics["mgmt.heartbeats_sent"] > 0
        assert metrics["sim.events_executed"] == cloud.sim.events_executed

    def test_reading_does_not_change_the_run(self, tmp_path):
        """A run that snapshots every simulated second writes the same
        trace bytes, and ends with the same counters, as one that never
        does."""
        runs = []
        for read in (True, False):
            cloud = _small_cloud(trace=True)
            for name in ("web-1", "web-2"):
                cloud.spawn_and_wait("webserver", name=name)
            # Flows stay in flight across many reads; a read must not
            # settle them.
            cloud.network.transfer("pi-r0-n0", "pi-r1-n2", 40e6)
            cloud.network.transfer("pi-r0-n1", "pi-r1-n2", 25e6)
            cloud.fail_node("pi-r1-n1")
            for _ in range(30):
                cloud.run_for(1.0)
                if read:
                    cloud.metrics()
            path = tmp_path / f"trace-{read}.jsonl"
            cloud.write_trace(str(path))
            runs.append((hashlib.sha256(path.read_bytes()).hexdigest(),
                         cloud.metrics()))
        assert runs[0] == runs[1]


class TestScenarioCompleteness:
    def test_every_numeric_key_is_declared(self, smoke_outputs):
        for name, metrics in smoke_outputs.items():
            numeric = [key for key, value in metrics.items()
                       if isinstance(value, (int, float))]
            assert numeric, name
            undeclared = [key for key in numeric if lookup(key) is None]
            assert undeclared == [], name

    def test_cloud_scenarios_report_every_cloud_metric(self, smoke_outputs):
        for name, metrics in smoke_outputs.items():
            if name != "cc_contrast":
                assert CLOUD_NAMES <= set(metrics), name

    def test_parameters_are_not_echoed(self, smoke_outputs):
        echoes = {"partition_s", "unreachable_grace_s", "fencing", "nodes",
                  "te_apps", "consolidate", "events", "kernel_events"}
        for name, metrics in smoke_outputs.items():
            assert echoes.isdisjoint(metrics), name
            assert not any(isinstance(v, bool) for v in metrics.values())

    def test_cc_contrast_uses_netsim_names(self, smoke_outputs):
        metrics = smoke_outputs["cc_contrast"]
        assert metrics["netsim.recomputes"] > 0
        assert metrics["netsim.queue_depth_p99"] > 0.0

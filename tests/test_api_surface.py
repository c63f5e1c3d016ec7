"""The public facade: surface snapshot, laziness, shims, determinism.

``repro``'s ``__all__`` is the compatibility contract (docs/api.md).
These tests pin it exactly, verify ``import repro`` stays lazy (no
substrate packages load until an attribute is touched), pin the
``PiCloudConfig`` field set, and assert same-seed runs export
byte-identical traces -- the reproducibility guarantee the whole paper
model rests on.
"""

import dataclasses
import importlib
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import repro
from repro.core.config import (
    HealthConfig,
    PiCloudConfig,
    RateModelConfig,
    SimBudgetConfig,
    TraceConfig,
)
from repro.errors import ConfigurationError, PiCloudError

SRC = str(Path(__file__).resolve().parent.parent / "src")

EXPECTED_SURFACE = sorted([
    "__version__",
    "PiCloud", "PiCloudConfig",
    "SimBudgetConfig", "HealthConfig", "TraceConfig",
    "FaultSchedule", "FaultEvent", "MtbfFaultInjector",
    "Tracer",
    "PiCloudError", "ConfigurationError",
    "SimulationError", "SimBudgetExceeded", "DeadlineExceeded",
    "HardwareError", "OutOfMemoryError", "StorageFullError",
    "PowerStateError",
    "NetworkError", "NoRouteError", "AddressError", "RateModelError",
    "VirtualisationError", "ContainerStateError", "ImageError",
    "MigrationError",
    "ManagementError", "RestError", "CircuitOpenError", "LeaseError",
    "UnknownNodeError",
    "FaultError", "FaultTargetError", "FaultStateError",
    "PlacementError", "SchedulingError",
    "CampaignError",
    "CampaignSpec", "CampaignRunner", "CampaignResult",
    "ResultStore", "RunRecord",
    "run_campaign", "render_dashboard",
    "RateModelConfig",
    "LoadError", "LoadEngine", "LoadReport",
    "Service", "ServiceProfile", "SloObjective", "SloTracker",
    "ArrivalProcess", "PoissonArrivals",
    "FlashCrowdArrivals", "RegionalMixture",
    "LatencyHistogram",
])

EXPECTED_CONFIG_FIELDS = [
    "num_racks", "pis_per_rack", "machine_spec",
    "topology", "num_roots", "fat_tree_k", "host_bandwidth",
    "uplink_bandwidth", "routing",
    "sdn_control_latency_s", "sdn_match_granularity", "congestion_threshold",
    "incremental_fairness", "structured_routing",
    "subnet", "dns_zone", "monitoring_interval_s", "start_monitoring",
    "op_deadline_s",
    "budget", "health", "trace", "rate_model",
    "seed",
]

# Fields 3.0.0 and 5.0.0 removed, by the config class that had them.
# Each value is now a module constant (docs/api.md, "Migrating from 2.x"
# and "Migrating from 4.x").
REMOVED_FIELDS = {
    PiCloudConfig: [
        "instant_boot", "sdn_idle_timeout_s", "monitoring_idle_backoff",
        "monitoring_max_interval_s", "op_attempts", "op_backoff_s", "load",
        "pimaster_spec", "link_latency",
    ],
    HealthConfig: [
        "evacuation_queue_limit", "evacuation_retry_budget",
        "breaker_failure_threshold", "breaker_reset_s", "witness_count",
    ],
    RateModelConfig: [
        "epoch_s", "queue_limit_bytes", "ecn_threshold_frac",
        "init_cwnd_bytes", "min_cwnd_bytes", "mss_bytes", "ai_mss_per_rtt",
        "md_factor", "dctcp_g", "delay_threshold", "delay_smoothing",
    ],
}


# Facade names 4.0.0 removed (docs/api.md, "Migrating from 3.x").
REMOVED_NAMES = ["DiurnalArrivals"]

# Modules and package exports 5.0.0 removed (docs/api.md, "Migrating
# from 4.x").
REMOVED_MODULES = ["repro.apps.threetier", "repro.mgmt.rolling"]
REMOVED_EXPORTS = {
    "repro.apps": ["ThreeTierService", "dc_flow_size"],
    "repro.mgmt": ["RollingUpgrade", "UpgradeReport"],
    "repro.power": ["CostModel"],
}


class TestFacadeSurface:
    def test_all_is_the_pinned_snapshot(self):
        assert sorted(repro.__all__) == EXPECTED_SURFACE

    def test_package_version_matches_facade(self):
        pyproject = Path(SRC).parent / "pyproject.toml"
        assert f'version = "{repro.__version__}"' in pyproject.read_text()

    def test_removed_names_are_gone(self):
        for name in REMOVED_NAMES:
            with pytest.raises(AttributeError, match=name):
                getattr(repro, name)

    @pytest.mark.parametrize("module", REMOVED_MODULES)
    def test_removed_modules_are_gone(self, module):
        with pytest.raises(ModuleNotFoundError, match=module):
            importlib.import_module(module)

    @pytest.mark.parametrize("package", sorted(REMOVED_EXPORTS))
    def test_removed_exports_are_gone(self, package):
        package_module = importlib.import_module(package)
        for name in REMOVED_EXPORTS[package]:
            assert name not in package_module.__all__
            assert not hasattr(package_module, name)

    def test_every_name_in_all_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_error_hierarchy_roots_at_picloud_error(self):
        for name in repro.__all__:
            obj = getattr(repro, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                assert issubclass(obj, repro.PiCloudError)

    def test_import_is_lazy(self):
        """``import repro`` must not drag in the substrate packages."""
        code = (
            "import sys; import repro; "
            "heavy = [m for m in sys.modules if m.startswith("
            "('repro.core', 'repro.netsim', 'repro.mgmt', 'repro.virt'))]; "
            "print(','.join(heavy))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True,
            env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
        )
        assert out.stdout.strip() == ""

    def test_facade_import_works_from_clean_interpreter(self):
        code = (
            "import repro; "
            "assert repro.PiCloud.__name__ == 'PiCloud'; "
            "assert repro.Tracer.__name__ == 'Tracer'; "
            "assert issubclass(repro.FaultTargetError, ValueError)"
        )
        subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True,
            env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
        )


class TestGroupedConfig:
    def test_keyword_only(self):
        with pytest.raises(TypeError):
            PiCloudConfig(4, 14)  # noqa: positional args rejected

    def test_sub_configs_validate(self):
        with pytest.raises(PiCloudError):
            SimBudgetConfig(max_events=0)
        with pytest.raises(PiCloudError):
            HealthConfig(heartbeat_interval_s=0.0)
        with pytest.raises(PiCloudError):
            HealthConfig(suspect_after_misses=3, dead_after_misses=3)

    def test_grouped_knobs_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            config = PiCloudConfig(
                budget=SimBudgetConfig(max_events=500),
                health=HealthConfig(enabled=True),
                trace=TraceConfig(enabled=True, kernel_events=True),
            )
        assert config.budget.max_events == 500
        assert config.run_budget().max_events == 500

    def test_new_perf_knobs_default_on(self):
        config = PiCloudConfig()
        assert config.incremental_fairness is True
        assert config.structured_routing is True

    def test_configuration_error_is_value_error(self):
        with pytest.raises(ValueError):
            PiCloudConfig.small(budget=SimBudgetConfig(max_events=0))
        assert issubclass(ConfigurationError, ValueError)

    @pytest.mark.parametrize("routing", ["shortest", "sdn-shortest"])
    def test_unknown_match_granularity_is_rejected(self, routing):
        with pytest.raises(ConfigurationError, match="sdn_match_granularity"):
            PiCloudConfig.small(routing=routing, sdn_match_granularity="bogus")

    def test_fields_are_the_pinned_snapshot(self):
        """Budget, health and trace knobs exist only in their sub-configs."""
        names = [f.name for f in dataclasses.fields(PiCloudConfig)]
        assert names == EXPECTED_CONFIG_FIELDS

    def test_flat_knobs_are_rejected(self):
        with pytest.raises(TypeError):
            PiCloudConfig(max_events=1)
        with pytest.raises(TypeError):
            PiCloudConfig.small(tracing=True)
        for cls, names in REMOVED_FIELDS.items():
            for name in names:
                with pytest.raises(TypeError, match=name):
                    cls(**{name: None})
        assert not hasattr(repro, "LoadConfig")

    def test_settable_value_count(self):
        """34 settable values: PiCloudConfig's own plus its sub-configs'."""
        subs = {"budget", "health", "trace", "rate_model"}
        own = [f for f in dataclasses.fields(PiCloudConfig)
               if f.name not in subs]
        nested = sum(len(dataclasses.fields(cls)) for cls in (
            SimBudgetConfig, HealthConfig, TraceConfig, RateModelConfig))
        assert len(own) + nested == 34


# Each script writes its trace to argv[1] and prints its run metrics.
_METRICS_TAIL = """
import json
cloud.write_trace(sys.argv[1])
print(json.dumps(cloud.metrics()))
"""

_SMALL_SCRIPT = """
import sys
from repro import PiCloud, PiCloudConfig, TraceConfig

config = PiCloudConfig.small(
    seed=3, routing="shortest",
    trace=TraceConfig(enabled=True),
)
cloud = PiCloud(config)
cloud.boot()
for name in ("web-1", "web-2"):
    cloud.spawn_and_wait("webserver", name=name)
cloud.network.transfer("pi-r0-n0", "pi-r1-n2", 5e6)
cloud.run_for(120.0)
""" + _METRICS_TAIL

_FAT_TREE_SCRIPT = """
import sys
from repro import PiCloud, PiCloudConfig, TraceConfig

config = PiCloudConfig(
    num_racks=2, pis_per_rack=8,
    topology="fat-tree", fat_tree_k=4, routing="ecmp",
    seed=7, trace=TraceConfig(enabled=True),
)
cloud = PiCloud(config)
cloud.boot()
for name in ("web-1", "web-2"):
    cloud.spawn_and_wait("webserver", name=name)
cloud.network.transfer("pi-r0-n0", "pi-r1-n2", 5e6)
cloud.run_for(90.0)
""" + _METRICS_TAIL


def _assert_deterministic(script, tmp_path):
    """Two fresh interpreters, same seed, different hash seeds ->
    identical trace bytes and metrics."""
    runs = []
    for hashseed in ("1", "4242"):
        out = tmp_path / f"trace-{hashseed}.jsonl"
        proc = subprocess.run(
            [sys.executable, "-c", script, str(out)],
            capture_output=True, text=True, check=True,
            env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin",
                 "PYTHONHASHSEED": hashseed},
        )
        runs.append((out.read_bytes(), proc.stdout))
    assert runs[0] == runs[1]
    assert len(runs[0][0]) > 0


class TestSeedDeterminism:
    def test_same_seed_exports_byte_identical_traces(self, tmp_path):
        _assert_deterministic(_SMALL_SCRIPT, tmp_path)

    def test_fat_tree_ecmp_exports_byte_identical_traces(self, tmp_path):
        _assert_deterministic(_FAT_TREE_SCRIPT, tmp_path)

"""PiCloud: a discrete-event scale model of the Glasgow Raspberry Pi Cloud.

This library reproduces the system described in *"The Glasgow Raspberry Pi
Cloud: A Scale Model for Cloud Computing Infrastructures"* (Tso, White,
Jouet, Singer, Pezaros -- CCRM workshop at ICDCS, 2013) as a fully
simulated testbed: 56 Raspberry Pi nodes in 4 racks, a multi-root tree /
fat-tree network with OpenFlow SDN, LXC-style containers, a ``pimaster``
management plane (REST, DHCP, DNS, images, monitoring), cloud workloads
(HTTP, MapReduce, a three-tier service), placement/consolidation/migration
algorithms and power/cost instrumentation.

This module is the stable public facade (see ``docs/api.md``): everything
in ``__all__`` is importable directly from ``repro`` and covered by the
compatibility policy.  Submodule paths (``repro.netsim...``) are internal
and may move between minor releases.

Quickstart::

    from repro import PiCloud, PiCloudConfig

    cloud = PiCloud(PiCloudConfig())      # the paper's 4 racks x 14 Pis
    cloud.boot()
    vm = cloud.pimaster.spawn_container(image="webserver")
    cloud.run_for(60.0)
    print(cloud.dashboard().render())

See ``DESIGN.md`` for the full system inventory and ``EXPERIMENTS.md`` for
the paper-vs-measured record of every table and figure.
"""

__version__ = "6.0.0"

# Lazy re-exports keep ``import repro`` cheap and avoid importing the
# whole stack when callers only need one substrate package.
_FACADE = {
    # Core entry points.
    "PiCloud": "repro.core.cloud",
    "PiCloudConfig": "repro.core.config",
    "SimBudgetConfig": "repro.core.config",
    "HealthConfig": "repro.core.config",
    "TraceConfig": "repro.core.config",
    "RateModelConfig": "repro.core.config",
    # Session-level load + SLO accounting (repro.load).
    "LoadEngine": "repro.load",
    "LoadReport": "repro.load",
    "Service": "repro.load",
    "ServiceProfile": "repro.load",
    "SloObjective": "repro.load",
    "SloTracker": "repro.load",
    "ArrivalProcess": "repro.load",
    "PoissonArrivals": "repro.load",
    "FlashCrowdArrivals": "repro.load",
    "RegionalMixture": "repro.load",
    "LatencyHistogram": "repro.telemetry.stats",
    # Fault injection and tracing.
    "FaultSchedule": "repro.faults",
    "FaultEvent": "repro.faults",
    "MtbfFaultInjector": "repro.faults",
    "Tracer": "repro.trace.tracer",
    # Experiment campaigns (grid sweeps, result stores, dashboards).
    "CampaignSpec": "repro.campaign",
    "CampaignRunner": "repro.campaign",
    "CampaignResult": "repro.campaign",
    "ResultStore": "repro.campaign",
    "RunRecord": "repro.campaign",
    "run_campaign": "repro.campaign",
    "render_dashboard": "repro.campaign",
    # Error hierarchy.
    "PiCloudError": "repro.errors",
    "ConfigurationError": "repro.errors",
    "SimulationError": "repro.errors",
    "SimBudgetExceeded": "repro.errors",
    "DeadlineExceeded": "repro.errors",
    "HardwareError": "repro.errors",
    "OutOfMemoryError": "repro.errors",
    "StorageFullError": "repro.errors",
    "PowerStateError": "repro.errors",
    "NetworkError": "repro.errors",
    "NoRouteError": "repro.errors",
    "AddressError": "repro.errors",
    "RateModelError": "repro.errors",
    "VirtualisationError": "repro.errors",
    "ContainerStateError": "repro.errors",
    "ImageError": "repro.errors",
    "MigrationError": "repro.errors",
    "ManagementError": "repro.errors",
    "RestError": "repro.errors",
    "CircuitOpenError": "repro.errors",
    "LeaseError": "repro.errors",
    "UnknownNodeError": "repro.errors",
    "FaultError": "repro.errors",
    "FaultTargetError": "repro.errors",
    "FaultStateError": "repro.errors",
    "CampaignError": "repro.errors",
    "PlacementError": "repro.errors",
    "SchedulingError": "repro.errors",
    "LoadError": "repro.errors",
}

__all__ = ["__version__", *_FACADE]


def __getattr__(name: str):
    module_name = _FACADE.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value  # cache so __getattr__ runs once per name
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))

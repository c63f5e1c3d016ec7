"""Session-level traffic: millions of users against the scale model.

The paper's claim -- the Pi cloud is a scale model on which
cloud-infrastructure behaviours can be *measured* -- needs user-facing
traffic and user-facing latency, not just raw flows.  This package is
the open-loop load engine that provides them:

* :mod:`repro.load.arrivals` -- seeded session arrival processes:
  homogeneous Poisson, flash crowds (ramp/spike/decay) and regional
  mixtures.  Also the home of the one seeded implementation of the
  classic traffic primitives (``poisson_wait``, ``pareto_size``)
  shared with :mod:`repro.apps.traffic`.
* :mod:`repro.load.sessions` -- the fluid session model: service
  profiles and per-(service, edge-pair) aggregates, so a million
  concurrent users cost O(edge-pairs x epochs) kernel events rather
  than O(users).
* :mod:`repro.load.engine` -- :class:`LoadEngine`: ticks the fluid
  model once per epoch, resolves targets through DNS/placement, maps
  offered load onto the fabric as aggregate flows through the existing
  fair-share solver, and turns achieved rates back into per-request
  latency samples.
* :mod:`repro.load.slo` -- SLO objectives with streaming error-budget
  burn-rate windows, per-service and fleet rollups.

See ``docs/load.md`` for the model, its accuracy envelope, and the
SLO/burn-rate semantics.
"""

from repro.load.arrivals import (
    ArrivalProcess,
    FlashCrowdArrivals,
    PoissonArrivals,
    RegionalMixture,
    pareto_size,
    poisson_count,
    poisson_wait,
)
from repro.load.engine import LoadEngine, LoadReport
from repro.load.sessions import Service, ServiceProfile
from repro.load.slo import SloObjective, SloTracker

__all__ = [
    "ArrivalProcess",
    "FlashCrowdArrivals",
    "LoadEngine",
    "LoadReport",
    "PoissonArrivals",
    "RegionalMixture",
    "Service",
    "ServiceProfile",
    "SloObjective",
    "SloTracker",
    "pareto_size",
    "poisson_count",
    "poisson_wait",
]

"""Seeded session arrival processes.

Every process exposes two views of the same random object:

* :meth:`ArrivalProcess.rate` -- the instantaneous intensity
  ``lambda(t)`` in sessions/s, and :meth:`ArrivalProcess.mean_arrivals`,
  its exact integral over an epoch.
* :meth:`ArrivalProcess.arrivals` -- a Poisson draw around that
  integral from a caller-supplied ``random.Random`` stream (obtained
  from :class:`repro.sim.rng.RngRegistry`), so sampled runs are
  byte-reproducible across processes and Python versions.

The module is also the single home of the classic per-event traffic
primitives -- :func:`poisson_wait` and :func:`pareto_size` --
historically duplicated in :mod:`repro.apps.traffic`, which now imports
them from here.
"""

from __future__ import annotations

import math
import random
from typing import Dict, Mapping, Tuple

from repro.errors import ConfigurationError

# Above this mean, the exact inversion sampler in poisson_count would
# walk O(mean) terms; a (deterministic, seeded) normal approximation is
# indistinguishable at fleet scale and O(1).
_POISSON_EXACT_LIMIT = 64.0


def poisson_wait(rng: random.Random, rate_per_s: float) -> float:
    """Exponential inter-arrival time for a Poisson process."""
    if rate_per_s <= 0:
        raise ValueError("rate must be positive")
    return rng.expovariate(rate_per_s)


def pareto_size(rng: random.Random, alpha: float = 1.2, minimum: float = 1000.0) -> float:
    """Heavy-tailed (Pareto) flow size in bytes."""
    if alpha <= 0 or minimum <= 0:
        raise ValueError("alpha and minimum must be positive")
    return minimum * rng.paretovariate(alpha)


def poisson_count(rng: random.Random, mean: float) -> int:
    """One Poisson(``mean``) draw from ``rng``.

    Exact (Knuth inversion) for small means; for large means a normal
    approximation -- still driven purely by ``rng``, so the draw is as
    reproducible as the exact path.  At the million-user scale the
    engine runs at, per-epoch means are huge and the O(mean) exact walk
    would dominate the run.
    """
    if mean < 0:
        raise ValueError(f"mean must be >= 0, got {mean}")
    if mean == 0:
        return 0
    if mean <= _POISSON_EXACT_LIMIT:
        limit = math.exp(-mean)
        count = 0
        product = rng.random()
        while product > limit:
            count += 1
            product *= rng.random()
        return count
    return max(0, round(rng.gauss(mean, math.sqrt(mean))))


class ArrivalProcess:
    """Base class: an inhomogeneous Poisson session-arrival process."""

    def rate(self, t: float) -> float:
        """Instantaneous intensity lambda(t), sessions/s."""
        raise NotImplementedError

    def mean_arrivals(self, t0: float, t1: float) -> float:
        """Exact integral of the intensity over ``[t0, t1)``."""
        raise NotImplementedError

    def arrivals(self, t0: float, t1: float, rng: random.Random) -> float:
        """Sessions arriving in ``[t0, t1)``: one seeded Poisson draw."""
        return float(poisson_count(rng, self.mean_arrivals(t0, t1)))


class PoissonArrivals(ArrivalProcess):
    """Homogeneous Poisson arrivals at a constant rate."""

    def __init__(self, rate_per_s: float) -> None:
        if rate_per_s < 0:
            raise ConfigurationError(f"rate_per_s must be >= 0, got {rate_per_s}")
        self.rate_per_s = float(rate_per_s)

    def rate(self, t: float) -> float:
        return self.rate_per_s

    def mean_arrivals(self, t0: float, t1: float) -> float:
        return self.rate_per_s * max(0.0, t1 - t0)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"PoissonArrivals({self.rate_per_s}/s)"


class FlashCrowdArrivals(ArrivalProcess):
    """A flash crowd: baseline, linear ramp, spike plateau, linear decay.

    ::

        rate
        peak ........___________
                    /           \\
        base ______/             \\__________
                 start  ramp hold decay   t

    Piecewise linear, so the epoch integral is exact.  Grounded in the
    Pico-Cloud/edge-fleet arrival mixes (PAPERS.md): a viral event hits
    a steady service, holds, and drains away.
    """

    def __init__(
        self,
        base_rate_per_s: float,
        peak_rate_per_s: float,
        start_s: float,
        ramp_s: float = 10.0,
        hold_s: float = 30.0,
        decay_s: float = 30.0,
    ) -> None:
        if base_rate_per_s < 0 or peak_rate_per_s < 0:
            raise ConfigurationError("rates must be >= 0")
        if peak_rate_per_s < base_rate_per_s:
            raise ConfigurationError(
                f"peak rate {peak_rate_per_s} below base rate {base_rate_per_s}"
            )
        if ramp_s < 0 or hold_s < 0 or decay_s < 0:
            raise ConfigurationError("ramp/hold/decay durations must be >= 0")
        self.base_rate_per_s = float(base_rate_per_s)
        self.peak_rate_per_s = float(peak_rate_per_s)
        self.start_s = float(start_s)
        self.ramp_s = float(ramp_s)
        self.hold_s = float(hold_s)
        self.decay_s = float(decay_s)

    def rate(self, t: float) -> float:
        base, peak = self.base_rate_per_s, self.peak_rate_per_s
        dt = t - self.start_s
        if dt < 0:
            return base
        if dt < self.ramp_s:
            return base + (peak - base) * dt / self.ramp_s
        dt -= self.ramp_s
        if dt < self.hold_s:
            return peak
        dt -= self.hold_s
        if dt < self.decay_s:
            return peak - (peak - base) * dt / self.decay_s
        return base

    def mean_arrivals(self, t0: float, t1: float) -> float:
        if t1 <= t0:
            return 0.0
        # Trapezoid over each piecewise-linear segment boundary inside
        # [t0, t1): exact because rate() is linear between breakpoints.
        breaks = [
            self.start_s,
            self.start_s + self.ramp_s,
            self.start_s + self.ramp_s + self.hold_s,
            self.start_s + self.ramp_s + self.hold_s + self.decay_s,
        ]
        points = sorted({t0, t1, *(b for b in breaks if t0 < b < t1)})
        total = 0.0
        for a, b in zip(points, points[1:]):
            total += 0.5 * (self.rate(a) + self.rate(b)) * (b - a)
        return total


class RegionalMixture(ArrivalProcess):
    """A weighted mixture of per-region arrival processes.

    ``regions`` maps region name -> (process, weight); the aggregate
    intensity is the weighted sum and :meth:`per_region` splits an
    epoch's arrivals by region, each from the caller-provided
    per-region RNG stream, so adding a region never perturbs another
    region's draws.
    """

    def __init__(
        self,
        regions: Mapping[str, Tuple[ArrivalProcess, float]],
    ) -> None:
        if not regions:
            raise ConfigurationError("RegionalMixture needs at least one region")
        for name, (process, weight) in regions.items():
            if weight < 0:
                raise ConfigurationError(
                    f"region {name!r} has negative weight {weight}"
                )
            if not isinstance(process, ArrivalProcess):
                raise ConfigurationError(
                    f"region {name!r}: {process!r} is not an ArrivalProcess"
                )
        self.regions: Dict[str, Tuple[ArrivalProcess, float]] = dict(
            sorted(regions.items())
        )

    def region_names(self) -> list[str]:
        return list(self.regions)

    def rate(self, t: float) -> float:
        return sum(w * p.rate(t) for p, w in self.regions.values())

    def mean_arrivals(self, t0: float, t1: float) -> float:
        return sum(w * p.mean_arrivals(t0, t1) for p, w in self.regions.values())

    def arrivals(self, t0: float, t1: float, rng: random.Random) -> float:
        return sum(self.per_region(t0, t1, {r: rng for r in self.regions}).values())

    def per_region(
        self,
        t0: float,
        t1: float,
        rngs: Mapping[str, random.Random],
    ) -> Dict[str, float]:
        """Epoch arrivals split by region, each from its own stream."""
        out: Dict[str, float] = {}
        for name, (process, weight) in self.regions.items():
            mean = weight * process.mean_arrivals(t0, t1)
            out[name] = float(poisson_count(rngs[name], mean))
        return out

"""Arrival processes: exact integrals, validation, seeded determinism."""

import math
import random

import pytest

from repro import (
    ConfigurationError,
    FlashCrowdArrivals,
    PoissonArrivals,
    RegionalMixture,
)
from repro.load.arrivals import pareto_size, poisson_count, poisson_wait


def numeric_integral(process, t0, t1, steps=20_000):
    dt = (t1 - t0) / steps
    return sum(process.rate(t0 + (i + 0.5) * dt) for i in range(steps)) * dt


class TestPrimitives:
    def test_poisson_wait_positive_and_seeded(self):
        a = [poisson_wait(random.Random(5), 10.0) for _ in range(3)]
        b = [poisson_wait(random.Random(5), 10.0) for _ in range(3)]
        assert a == b
        assert all(w > 0 for w in a)

    def test_poisson_wait_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            poisson_wait(random.Random(1), 0.0)

    def test_pareto_size_at_least_minimum(self):
        rng = random.Random(9)
        sizes = [pareto_size(rng, minimum=500.0) for _ in range(100)]
        assert min(sizes) >= 500.0

    def test_pareto_size_validation(self):
        with pytest.raises(ValueError):
            pareto_size(random.Random(1), alpha=0.0)
        with pytest.raises(ValueError):
            pareto_size(random.Random(1), minimum=-1.0)

    def test_poisson_count_zero_and_negative(self):
        assert poisson_count(random.Random(1), 0.0) == 0
        with pytest.raises(ValueError):
            poisson_count(random.Random(1), -1.0)

    def test_poisson_count_exact_path_matches_mean(self):
        rng = random.Random(11)
        draws = [poisson_count(rng, 5.0) for _ in range(4000)]
        assert sum(draws) / len(draws) == pytest.approx(5.0, rel=0.1)

    def test_poisson_count_large_mean_approximation(self):
        rng = random.Random(11)
        draws = [poisson_count(rng, 1e6) for _ in range(50)]
        assert all(abs(d - 1e6) < 5e3 for d in draws)

    def test_poisson_count_seeded_identical(self):
        a = [poisson_count(random.Random(3), m) for m in (2.0, 50.0, 1e5)]
        b = [poisson_count(random.Random(3), m) for m in (2.0, 50.0, 1e5)]
        assert a == b


class TestPoissonArrivals:
    def test_mean_is_rate_times_span(self):
        p = PoissonArrivals(40.0)
        assert p.mean_arrivals(10.0, 12.5) == pytest.approx(100.0)
        assert p.rate(123.0) == 40.0

    def test_empty_or_inverted_span(self):
        assert PoissonArrivals(40.0).mean_arrivals(5.0, 5.0) == 0.0
        assert PoissonArrivals(40.0).mean_arrivals(5.0, 4.0) == 0.0

    def test_negative_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            PoissonArrivals(-1.0)


class TestFlashCrowdArrivals:
    def make(self):
        return FlashCrowdArrivals(
            base_rate_per_s=10.0, peak_rate_per_s=1000.0,
            start_s=20.0, ramp_s=10.0, hold_s=30.0, decay_s=40.0,
        )

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FlashCrowdArrivals(-1.0, 10.0, start_s=0.0)
        with pytest.raises(ConfigurationError):
            FlashCrowdArrivals(100.0, 10.0, start_s=0.0)  # peak below base
        with pytest.raises(ConfigurationError):
            FlashCrowdArrivals(1.0, 10.0, start_s=0.0, ramp_s=-1.0)

    def test_piecewise_rate_shape(self):
        p = self.make()
        assert p.rate(0.0) == 10.0                # before the crowd
        assert p.rate(25.0) == pytest.approx(505.0)   # mid-ramp
        assert p.rate(40.0) == 1000.0             # plateau
        assert p.rate(80.0) == pytest.approx(505.0)   # mid-decay
        assert p.rate(1000.0) == 10.0             # drained away

    def test_exact_integral_matches_quadrature(self):
        p = self.make()
        for (t0, t1) in [(0.0, 15.0), (18.0, 27.0), (25.0, 95.0), (0.0, 200.0)]:
            assert p.mean_arrivals(t0, t1) == pytest.approx(
                numeric_integral(p, t0, t1), rel=1e-4
            )

    def test_whole_curve_closed_form(self):
        p = self.make()
        extra = (1000.0 - 10.0) * (0.5 * 10.0 + 30.0 + 0.5 * 40.0)
        assert p.mean_arrivals(0.0, 200.0) == pytest.approx(
            10.0 * 200.0 + extra
        )


class TestRegionalMixture:
    def make(self):
        return RegionalMixture({
            "eu": (PoissonArrivals(100.0), 1.0),
            "us": (PoissonArrivals(100.0), 3.0),
        })

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RegionalMixture({})
        with pytest.raises(ConfigurationError):
            RegionalMixture({"eu": (PoissonArrivals(1.0), -1.0)})
        with pytest.raises(ConfigurationError):
            RegionalMixture({"eu": ("not-a-process", 1.0)})

    def test_weighted_sums(self):
        mix = self.make()
        assert mix.rate(0.0) == pytest.approx(400.0)
        assert mix.mean_arrivals(0.0, 2.0) == pytest.approx(800.0)
        assert mix.region_names() == ["eu", "us"]

    def test_sampled_split_centres_on_exact_means(self):
        """Each region draws around weight x its process's exact mean."""
        mix = self.make()
        rngs = {"eu": random.Random(5), "us": random.Random(6)}
        epochs = 400
        totals = {"eu": 0.0, "us": 0.0}
        for t in range(epochs):
            for name, count in mix.per_region(t, t + 1.0, rngs).items():
                totals[name] += count
        # Means 100 and 300 per epoch; 400 epochs put 3 sigma near 1.5%.
        assert totals["eu"] / epochs == pytest.approx(100.0, rel=0.03)
        assert totals["us"] / epochs == pytest.approx(300.0, rel=0.03)

    def test_sampled_split_is_seeded(self):
        mix = self.make()

        def draw(seed):
            rngs = {"eu": random.Random(seed), "us": random.Random(seed + 1)}
            return mix.per_region(0.0, 1.0, rngs)

        assert draw(7) == draw(7)

    def test_region_streams_are_independent(self):
        """Adding a region never perturbs another region's draws."""
        small = RegionalMixture({"eu": (PoissonArrivals(100.0), 1.0)})
        big = self.make()
        eu_alone = small.per_region(0.0, 1.0, {"eu": random.Random(3)})["eu"]
        eu_mixed = big.per_region(
            0.0, 1.0, {"eu": random.Random(3), "us": random.Random(99)}
        )["eu"]
        assert eu_alone == eu_mixed


class TestSampledTimelineDeterminism:
    def test_same_seed_same_timeline(self):
        """The epoch-by-epoch sampled arrival sequence is reproducible."""
        crowd = FlashCrowdArrivals(50.0, 1500.0, start_s=10.0)

        def timeline(seed):
            rng = random.Random(seed)
            return [crowd.arrivals(t, t + 1.0, rng) for t in range(60)]

        first, second = timeline(17), timeline(17)
        assert first == second
        assert not math.isclose(sum(first), 50.0 * 60)   # crowd actually fired
        assert timeline(18) != first                     # seed matters

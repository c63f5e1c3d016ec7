"""SLO objectives, streaming burn-rate trackers, and the load constants."""

import pytest

import repro
from repro import (
    ConfigurationError,
    LatencyHistogram,
    LoadEngine,
    PiCloudConfig,
    SloObjective,
    SloTracker,
)
from repro.load.sessions import (
    Service,
    ServiceProfile,
    SessionPool,
    partition_regions,
)
from tests.slo_reference import BruteForceSlo


class TestSloObjective:
    def test_defaults_and_budget(self):
        slo = SloObjective()
        assert slo.threshold_s == 0.25
        assert slo.objective == 0.999
        assert slo.error_budget == pytest.approx(1e-3)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SloObjective(threshold_s=0.0)
        with pytest.raises(ConfigurationError):
            SloObjective(objective=1.0)
        with pytest.raises(ConfigurationError):
            SloObjective(objective=0.0)
        with pytest.raises(ConfigurationError):
            SloObjective(windows=())
        with pytest.raises(ConfigurationError):
            SloObjective(windows=(10.0, -1.0))


class TestSloTracker:
    def make(self, objective=0.99, windows=(10.0, 60.0)):
        return SloTracker(SloObjective(objective=objective, windows=windows))

    def test_counts_and_overall_rates(self):
        tracker = self.make()
        tracker.record(1.0, good=990.0, bad=10.0)
        assert tracker.total == 1000.0
        assert tracker.error_rate() == pytest.approx(0.01)
        assert tracker.burn_rate() == pytest.approx(1.0)

    def test_zero_mass_records_are_ignored(self):
        tracker = self.make()
        tracker.record(5.0, good=0.0, bad=0.0)
        assert tracker.total == 0.0
        assert tracker.error_rate() == 0.0

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError):
            self.make().record(0.0, good=-1.0, bad=0.0)

    def test_out_of_order_record_rejected(self):
        tracker = self.make()
        tracker.record(10.0, good=1.0, bad=0.0)
        with pytest.raises(ValueError):
            tracker.record(9.0, good=1.0, bad=0.0)

    def test_windowed_error_rate_forgets_old_samples(self):
        tracker = self.make(windows=(10.0,))
        tracker.record(0.0, good=0.0, bad=100.0)     # a bad burst...
        tracker.record(50.0, good=100.0, bad=0.0)    # ...long since over
        assert tracker.error_rate() == pytest.approx(0.5)
        assert tracker.error_rate(window_s=10.0, now=50.0) == 0.0

    def test_windowed_error_rate_skips_future_samples(self):
        tracker = self.make(windows=(10.0, 60.0))
        tracker.record(1.0, good=0.0, bad=100.0)
        tracker.record(50.0, good=100.0, bad=0.0)    # after now=5
        assert tracker.error_rate(window_s=10.0, now=5.0) == 1.0
        assert tracker.burn_rate(window_s=10.0, now=0.5) == 0.0

    def test_non_finite_mass_rejected(self):
        with pytest.raises(ValueError):
            self.make().record(0.0, good=float("inf"), bad=0.0)
        with pytest.raises(ValueError):
            self.make().record(0.0, good=0.0, bad=float("nan"))

    def test_peak_burn_tracked_online(self):
        tracker = self.make(objective=0.9, windows=(10.0,))
        tracker.record(1.0, good=50.0, bad=50.0)     # burn 5.0 in-window
        tracker.record(100.0, good=1000.0, bad=0.0)  # calm again
        assert tracker.burn_rate(window_s=10.0, now=100.0) == 0.0
        assert tracker.peak_burn_rate(10.0) == pytest.approx(5.0)
        assert tracker.peak_burn_rate() == pytest.approx(5.0)
        with pytest.raises(ValueError):
            tracker.peak_burn_rate(123.0)            # untracked window

    def test_sample_ring_stays_bounded(self):
        tracker = self.make(windows=(10.0,))
        for t in range(1000):
            tracker.record(float(t), good=1.0, bad=0.0)
        assert len(tracker._samples) <= 13
        assert tracker.good == 1000.0                # totals keep everything

    def test_merge_interleaves_and_rejects_mismatch(self):
        a, b = self.make(), self.make()
        a.record(1.0, good=90.0, bad=10.0)
        b.record(2.0, good=100.0, bad=0.0)
        a.merge(b)
        assert a.total == 200.0
        assert a.error_rate() == pytest.approx(0.05)
        assert [t for t, _, _ in a._samples] == [1.0, 2.0]
        with pytest.raises(ValueError):
            a.merge(SloTracker(SloObjective(objective=0.5)))

    def test_records_after_merge_match_brute_force(self):
        a, b = self.make(windows=(10.0, 60.0)), self.make(windows=(10.0, 60.0))
        for t in range(0, 80, 3):
            a.record(float(t), good=100.0 - t, bad=t % 7)
            b.record(t + 1.5, good=50.0, bad=(t % 5) * 0.3)
        a.merge(b)
        ref = BruteForceSlo.like(a)
        for t in range(80, 200, 2):
            good, bad = 10.0 + t % 13, (t % 11) * 0.7
            a.record(float(t), good=good, bad=bad)
            ref.record(float(t), good=good, bad=bad)
            for window in (10.0, 60.0):
                assert a.peak_burn_rate(window).hex() == ref.peak[window].hex()
        assert a._samples == ref.samples[-len(a._samples):]

    def test_row_keys(self):
        tracker = self.make(windows=(10.0, 60.0))
        tracker.record(0.0, good=1.0, bad=0.0)
        row = tracker.row()
        assert set(row) == {
            "slo_threshold_s", "slo_objective", "good_requests",
            "bad_requests", "error_rate", "burn_rate",
            "peak_burn_10s", "peak_burn_60s",
        }


class TestServiceModel:
    def test_profile_validation(self):
        with pytest.raises(ConfigurationError):
            ServiceProfile(response_bytes=0.0)
        with pytest.raises(ConfigurationError):
            ServiceProfile(requests_per_session_per_s=0.0)
        with pytest.raises(ConfigurationError):
            ServiceProfile(session_duration_s=-1.0)
        with pytest.raises(ConfigurationError):
            ServiceProfile(burst_rate=0.0)

    def test_service_defaults_group_to_name(self):
        assert Service("web").group == "web"
        assert Service("web", group="pool").group == "pool"
        assert Service("web", nodes=["pi-a"]).group is None

    def test_service_validation(self):
        with pytest.raises(ConfigurationError):
            Service("")
        with pytest.raises(ConfigurationError):
            Service("web", weight=0.0)
        with pytest.raises(ConfigurationError):
            Service("web", nodes=[])

    def test_session_pool_exact_fluid_step(self):
        pool = SessionPool(Service("web", profile=ServiceProfile(
            session_duration_s=60.0)), "global")
        pool.step(120.0, 1.0)
        # One epoch of the exact solution of n' = a/dt - n/D from n=0.
        import math
        steady = 120.0 * 60.0
        assert pool.sessions == pytest.approx(
            steady * (1.0 - math.exp(-1.0 / 60.0))
        )

    def test_session_pool_converges_to_little_law(self):
        """Long-run concurrency -> arrival rate x mean session duration."""
        pool = SessionPool(Service("web", profile=ServiceProfile(
            session_duration_s=30.0)), "global")
        for _ in range(600):
            pool.step(50.0, 1.0)
        assert pool.sessions == pytest.approx(50.0 * 30.0, rel=1e-6)

    def test_partition_regions_round_robin(self):
        edges = ["e3", "e1", "e2", "e0"]
        out = partition_regions(edges, ["us", "eu"])
        assert out == {"eu": ["e0", "e2"], "us": ["e1", "e3"]}
        with pytest.raises(ConfigurationError):
            partition_regions(["e0"], ["a", "b"])
        with pytest.raises(ConfigurationError):
            partition_regions(["e0"], [])


class TestLoadConfig:
    """3.0 replaced LoadConfig with the engine's constants."""

    def test_defaults(self):
        """The constants keep LoadConfig's 2.x defaults."""
        assert LoadEngine.epoch_s == 1.0
        assert LoadEngine.backlog_epochs == 4
        assert LatencyHistogram().layout() == (1e-4, 100.0, 20)

    def test_validation(self):
        """Nothing left to validate: the class and ``load=`` are gone."""
        assert not hasattr(repro, "LoadConfig")
        with pytest.raises(TypeError):
            PiCloudConfig(load=None)

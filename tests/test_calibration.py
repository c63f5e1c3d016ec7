"""Tests for trace capture and workload calibration (repro.calibration)."""

import random

import pytest

from repro import calibration
from repro.calibration import (
    FittedWorkload,
    TraceRecorder,
    compare_link_profiles,
    link_utilization_profile,
)
from repro.netsim import Network
from repro.netsim.topology import single_switch
from repro.sim import Simulator, Timeout


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def net(sim):
    topo = single_switch([f"h{i}" for i in range(4)], bandwidth=1e6, latency=0.0)
    return Network(sim, topo)


def drive_workload(sim, net, rng, rate=5.0, duration=100.0, pairs=None):
    pairs = pairs or [("h0", "h1"), ("h2", "h3"), ("h0", "h3")]

    def run():
        deadline = sim.now + duration
        while sim.now < deadline:
            yield Timeout(sim, rng.expovariate(rate))
            src, dst = rng.choice(pairs)
            net.transfer(src, dst, rng.uniform(1e3, 1e5))

    sim.process(run())
    sim.run(until=duration + 60.0)


class TestTraceRecorder:
    def test_captures_completed_flows(self, sim, net):
        recorder = TraceRecorder(net)
        net.transfer("h0", "h1", 1000.0)
        net.transfer("h2", "h3", 2000.0)
        sim.run()
        assert len(recorder) == 2
        sizes = sorted(r.size for r in recorder.records)
        assert sizes == [1000.0, 2000.0]
        assert all(r.ok for r in recorder.records)

    def test_failed_flows_excluded_by_default(self, sim, net):
        recorder = TraceRecorder(net)
        net.transfer("h0", "h1", 1e9)
        sim.schedule(0.5, net.fail_link, "h0", "sw0")
        sim.run()
        assert len(recorder) == 0

    def test_failed_flows_included_on_request(self, sim, net, monkeypatch):
        monkeypatch.setattr(calibration, "RECORD_FAILED_FLOWS", True)
        recorder = TraceRecorder(net)
        net.transfer("h0", "h1", 1e9)
        sim.schedule(0.5, net.fail_link, "h0", "sw0")
        sim.run()
        assert len(recorder) == 1
        assert not recorder.records[0].ok

    def test_span(self, sim, net):
        recorder = TraceRecorder(net)
        net.transfer("h0", "h1", 100.0)
        sim.schedule(10.0, net.transfer, "h0", "h1", 100.0)
        sim.run()
        assert recorder.span_s == pytest.approx(10.0)


class TestFittedWorkload:
    def _fit(self, sim, net, seed=1):
        recorder = TraceRecorder(net)
        drive_workload(sim, net, random.Random(seed))
        return FittedWorkload.from_trace(recorder), recorder

    def test_fit_requires_flows(self, sim, net):
        recorder = TraceRecorder(net)
        with pytest.raises(ValueError):
            FittedWorkload.from_trace(recorder)

    def test_fitted_rate_close_to_generator(self, sim, net):
        fitted, recorder = self._fit(sim, net)
        # The generator ran at 5 flows/s for 100s.
        assert fitted.arrival_rate_per_s == pytest.approx(5.0, rel=0.25)

    def test_matrix_covers_generator_pairs(self, sim, net):
        fitted, _ = self._fit(sim, net)
        assert set(fitted.matrix) == {("h0", "h1"), ("h2", "h3"), ("h0", "h3")}
        assert sum(fitted.matrix.values()) == pytest.approx(1.0)

    def test_size_sampling_within_empirical_range(self, sim, net):
        fitted, _ = self._fit(sim, net)
        rng = random.Random(9)
        samples = [fitted.sample_size(rng) for _ in range(500)]
        assert min(samples) >= min(fitted.sizes)
        assert max(samples) <= max(fitted.sizes)

    def test_pair_sampling_follows_matrix(self, sim, net):
        fitted, _ = self._fit(sim, net)
        rng = random.Random(10)
        counts = {}
        for _ in range(3000):
            pair = fitted.sample_pair(rng)
            counts[pair] = counts.get(pair, 0) + 1
        for pair, probability in fitted.matrix.items():
            assert counts[pair] / 3000 == pytest.approx(probability, abs=0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            FittedWorkload([], 1.0, {("a", "b"): 1.0})
        with pytest.raises(ValueError):
            FittedWorkload([1.0], 0.0, {("a", "b"): 1.0})
        with pytest.raises(ValueError):
            FittedWorkload([1.0], 1.0, {})


class TestReplay:
    def test_replay_reproduces_link_profile(self, sim, net):
        """The §IV loop: fit on a run, replay, compare fingerprints."""
        recorder = TraceRecorder(net)
        drive_workload(sim, net, random.Random(2), duration=200.0)
        original_profile = link_utilization_profile(net)
        fitted = FittedWorkload.from_trace(recorder)

        # Replay onto a fresh, identical fabric.
        sim2 = Simulator()
        topo2 = single_switch([f"h{i}" for i in range(4)], bandwidth=1e6,
                              latency=0.0)
        net2 = Network(sim2, topo2)
        process = fitted.replay(net2, duration_s=200.0,
                                rng=random.Random(3))
        sim2.run(until=260.0)
        assert process.stats["launched"] > 100
        replay_profile = link_utilization_profile(net2)

        divergence = compare_link_profiles(original_profile, replay_profile)
        # Same model, same topology: profiles agree within a few percent
        # utilisation on average.
        assert divergence < 0.05

    def test_replay_skips_unknown_endpoints(self, sim, net):
        recorder = TraceRecorder(net)
        drive_workload(sim, net, random.Random(4), duration=50.0)
        fitted = FittedWorkload.from_trace(recorder)

        sim2 = Simulator()
        smaller = single_switch(["h0", "h1"], bandwidth=1e6, latency=0.0)
        net2 = Network(sim2, smaller)
        process = fitted.replay(net2, duration_s=50.0, rng=random.Random(5))
        sim2.run(until=120.0)
        assert process.stats["skipped"] > 0
        assert process.stats["launched"] > 0  # (h0, h1) flows still run

    def test_rate_scale(self, sim, net, monkeypatch):
        recorder = TraceRecorder(net)
        drive_workload(sim, net, random.Random(6), duration=50.0)
        fitted = FittedWorkload.from_trace(recorder)

        sim2 = Simulator()
        topo2 = single_switch([f"h{i}" for i in range(4)], bandwidth=1e6)
        net2 = Network(sim2, topo2)
        monkeypatch.setattr(calibration, "REPLAY_RATE_SCALE", 0.5)
        half = fitted.replay(net2, duration_s=100.0, rng=random.Random(7))
        sim2.run(until=160.0)
        expected = fitted.arrival_rate_per_s * 0.5 * 100.0
        assert half.stats["launched"] == pytest.approx(expected, rel=0.3)

    def test_profile_comparison_validation(self):
        with pytest.raises(ValueError):
            compare_link_profiles({"a": 0.1}, {"b": 0.2})

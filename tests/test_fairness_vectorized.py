"""The numpy water-fill is byte-identical to the scalar loop.

``repro.netsim.fairness`` dispatches components with >=
``VECTORIZE_MIN_FLOWS`` flows to a numpy implementation.  The module
promises the two paths perform the identical IEEE arithmetic, so
crossing the threshold never changes a single rate bit.  These tests
pin that promise on adversarial instances: wide incasts, cap-limited
flows, empty paths (the ``reduceat`` zero-length-segment hazard),
unbounded flows, and randomized meshes.  A fill handed prebuilt
layouts (what the cc epoch plan keeps between churns) must equal one
that builds its own, also when some flows of a component are inactive.
"""

import math
import random

import pytest

import repro.netsim.fairness as fairness
from repro.netsim.fairness import (
    connected_components, fill_components, fill_layouts, fill_with_layouts,
    max_min_rates,
)


def _solve_both_ways(flow_paths, capacities, rate_caps=None):
    """Solve with the scalar loop and the vectorized path; return both."""
    original = fairness.VECTORIZE_MIN_FLOWS
    try:
        fairness.VECTORIZE_MIN_FLOWS = 10 ** 9     # force scalar
        scalar = max_min_rates(flow_paths, capacities, rate_caps)
        fairness.VECTORIZE_MIN_FLOWS = 0           # force vectorized
        vectorized = max_min_rates(flow_paths, capacities, rate_caps)
    finally:
        fairness.VECTORIZE_MIN_FLOWS = original
    return scalar, vectorized


def _assert_bit_identical(scalar, vectorized):
    assert scalar.keys() == vectorized.keys()
    for flow in scalar:
        a, b = scalar[flow], vectorized[flow]
        if math.isinf(a) or math.isinf(b):
            assert a == b, flow
        else:
            # Bit-for-bit, not almost-equal: the whole point.
            assert a.hex() == b.hex(), (flow, a, b)


class TestVectorizedIdentity:
    def test_wide_incast(self):
        """100 flows converging on one link: the vectorized sweet spot."""
        flow_paths = {f"f{i}": ["uplink", f"leaf{i}"] for i in range(100)}
        capacities = {"uplink": 1e8}
        capacities.update({f"leaf{i}": 12.5e6 for i in range(100)})
        _assert_bit_identical(*_solve_both_ways(flow_paths, capacities))

    def test_rate_caps_and_saturation_interleave(self):
        flow_paths = {f"f{i}": ["shared"] for i in range(50)}
        capacities = {"shared": 1e7}
        caps = {f"f{i}": 1e5 * (1 + i % 7) for i in range(0, 50, 2)}
        _assert_bit_identical(
            *_solve_both_ways(flow_paths, capacities, caps))

    def test_empty_paths_among_wide_component(self):
        """Empty-path flows exercise reduceat's zero-length segments."""
        flow_paths = {}
        for i in range(40):
            flow_paths[f"f{i}"] = ["link"]
            flow_paths[f"free{i}"] = []          # no resources at all
        capacities = {"link": 1e7}
        caps = {f"free{i}": 5e5 for i in range(40)}
        scalar, vectorized = _solve_both_ways(flow_paths, capacities, caps)
        _assert_bit_identical(scalar, vectorized)
        # Capped empty-path flows land exactly on their cap...
        assert vectorized["free0"] == 5e5

    def test_unbounded_flows_get_infinity(self):
        flow_paths = {f"f{i}": [] for i in range(20)}
        scalar, vectorized = _solve_both_ways(flow_paths, {})
        _assert_bit_identical(scalar, vectorized)
        assert all(math.isinf(r) for r in vectorized.values())

    def test_randomized_meshes(self):
        """Random multi-bottleneck instances, several sizes and seeds."""
        for seed in range(6):
            rng = random.Random(seed)
            n_res = rng.randint(3, 20)
            n_flows = rng.randint(30, 120)
            capacities = {
                f"r{j}": rng.choice([1e6, 5e6, 1e7, 2.5e7])
                for j in range(n_res)
            }
            flow_paths = {}
            rate_caps = {}
            for i in range(n_flows):
                hops = rng.randint(0, min(4, n_res))
                flow_paths[f"f{i}"] = rng.sample(sorted(capacities), hops)
                if rng.random() < 0.3:
                    rate_caps[f"f{i}"] = rng.choice([1e5, 1e6, 1e7])
            scalar, vectorized = _solve_both_ways(
                flow_paths, capacities, rate_caps)
            _assert_bit_identical(scalar, vectorized)

    def test_threshold_crossing_changes_nothing(self):
        """The same instance solved just under and just over the gate."""
        flow_paths = {
            f"f{i}": ["a", "b"] if i % 2 else ["b", "c"]
            for i in range(fairness.VECTORIZE_MIN_FLOWS + 5)
        }
        capacities = {"a": 1e7, "b": 2e7, "c": 5e6}
        # The default dispatch (over the threshold -> vectorized) equals
        # the forced-scalar answer.
        default = max_min_rates(flow_paths, capacities)
        original = fairness.VECTORIZE_MIN_FLOWS
        try:
            fairness.VECTORIZE_MIN_FLOWS = 10 ** 9
            scalar = max_min_rates(flow_paths, capacities)
        finally:
            fairness.VECTORIZE_MIN_FLOWS = original
        _assert_bit_identical(scalar, default)


def _random_mesh(seed, zero_cap_frac=0.0):
    rng = random.Random(seed)
    capacities = {f"r{j}": rng.choice([1e6, 5e6, 1e7, 2.5e7])
                  for j in range(rng.randint(3, 12))}
    flow_paths, rate_caps = {}, {}
    for i in range(rng.randint(90, 160)):
        hops = 0 if i % 10 == 9 else rng.randint(1, min(4, len(capacities)))
        flow_paths[f"f{i}"] = rng.sample(sorted(capacities), hops)
        if rng.random() < zero_cap_frac:
            rate_caps[f"f{i}"] = 0.0        # inactive: never rises
        elif rng.random() < 0.3:
            rate_caps[f"f{i}"] = rng.choice([1e5, 1e6, 1e7])
    return flow_paths, capacities, rate_caps


class TestPrebuiltLayout:
    @pytest.mark.parametrize("zero_cap_frac", [0.0, 0.1])
    def test_prebuilt_layouts_change_nothing(self, zero_cap_frac):
        for seed in range(6):
            flow_paths, capacities, rate_caps = _random_mesh(
                seed, zero_cap_frac)
            components = connected_components(flow_paths)
            layouts = fill_layouts(components, flow_paths, capacities)
            assert any(layout is not None for layout in layouts)
            built = fill_components(components, flow_paths, capacities,
                                    rate_caps)
            caps = [rate_caps.get(flow, math.inf) for flow in flow_paths]
            reused = fill_with_layouts(components, flow_paths, capacities,
                                       caps, layouts)
            _assert_bit_identical(built, reused)
            scalar, _ = _solve_both_ways(flow_paths, capacities, rate_caps)
            _assert_bit_identical(scalar, reused)

    def test_narrow_components_get_no_layout(self):
        flow_paths = {f"f{i}": ["a"] for i in range(3)}
        flow_paths.update({f"g{i}": ["b"] for i in range(
            fairness.VECTORIZE_MIN_FLOWS)})
        components = connected_components(flow_paths)
        layouts = fill_layouts(components, flow_paths, {"a": 1.0, "b": 2.0})
        assert layouts[0] is None
        assert layouts[1].resources == ["b"]
        assert layouts[1].crossing.tolist() == [
            float(fairness.VECTORIZE_MIN_FLOWS)]
        # The wide component's flows stand after the three narrow ones.
        assert layouts[1].positions.tolist() == list(
            range(3, 3 + fairness.VECTORIZE_MIN_FLOWS))
        assert layouts[1].capacity.tolist() == [2.0]

"""Unit tests for telemetry primitives (series, stats, samplers)."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import Simulator
from repro.telemetry import (
    Counter,
    Gauge,
    PeriodicSampler,
    TimeSeries,
    summarize,
)
from repro.telemetry.stats import LatencyHistogram, format_table


@pytest.fixture
def sim():
    return Simulator()


class TestTimeSeries:
    def test_record_and_iterate(self):
        series = TimeSeries("lat")
        series.record(1.0, 10.0)
        series.record(2.0, 20.0)
        assert list(series) == [(1.0, 10.0), (2.0, 20.0)]
        assert len(series) == 2
        assert series.last == 20.0

    def test_time_must_not_go_backwards(self):
        series = TimeSeries()
        series.record(5.0, 1.0)
        with pytest.raises(ValueError):
            series.record(4.0, 1.0)

    def test_window_is_half_open(self):
        series = TimeSeries()
        for t in range(5):
            series.record(float(t), float(t))
        windowed = series.window(1.0, 3.0)
        assert list(windowed) == [(1.0, 1.0), (2.0, 2.0)]

    def test_empty_series_last_is_none(self):
        assert TimeSeries().last is None


class TestGauge:
    def test_initial_value(self, sim):
        assert Gauge(sim, initial=5.0).value == 5.0

    def test_integral_of_constant(self, sim):
        gauge = Gauge(sim, initial=2.0)
        sim.schedule(10.0, lambda: None)
        sim.run()
        assert gauge.integral() == pytest.approx(20.0)

    def test_integral_of_step_function(self, sim):
        gauge = Gauge(sim, initial=0.0)
        sim.schedule(2.0, gauge.set, 10.0)
        sim.schedule(5.0, gauge.set, 0.0)
        sim.schedule(8.0, lambda: None)
        sim.run()
        # 0 for [0,2), 10 for [2,5), 0 after => 30.
        assert gauge.integral() == pytest.approx(30.0)

    def test_integral_partial_window(self, sim):
        gauge = Gauge(sim, initial=4.0)
        sim.schedule(10.0, lambda: None)
        sim.run()
        assert gauge.integral(2.0, 7.0) == pytest.approx(20.0)

    def test_set_same_instant_overwrites(self, sim):
        gauge = Gauge(sim, initial=0.0)
        gauge.set(5.0)
        gauge.set(7.0)
        assert gauge.value == 7.0
        assert len(gauge.values) == 1

    def test_time_weighted_mean(self, sim):
        gauge = Gauge(sim, initial=0.0)
        sim.schedule(5.0, gauge.set, 1.0)
        sim.schedule(10.0, lambda: None)
        sim.run()
        assert gauge.time_weighted_mean() == pytest.approx(0.5)

    def test_add_is_relative(self, sim):
        gauge = Gauge(sim, initial=3.0)
        gauge.add(2.0)
        gauge.add(-1.0)
        assert gauge.value == 4.0

    def test_end_before_start_rejected(self, sim):
        with pytest.raises(ValueError):
            Gauge(sim).integral(5.0, 1.0)

    def test_maximum(self, sim):
        gauge = Gauge(sim, initial=1.0)
        sim.schedule(1.0, gauge.set, 9.0)
        sim.schedule(2.0, gauge.set, 3.0)
        sim.run()
        assert gauge.maximum() == 9.0


class TestCounter:
    def test_accumulates(self, sim):
        counter = Counter(sim)
        counter.add(5)
        counter.add()
        assert counter.total == 6.0

    def test_negative_rejected(self, sim):
        with pytest.raises(ValueError):
            Counter(sim).add(-1)

    def test_rate(self, sim):
        counter = Counter(sim)
        sim.schedule(4.0, counter.add, 8.0)
        sim.run()
        assert counter.rate() == pytest.approx(2.0)

    def test_rate_at_zero_elapsed(self, sim):
        counter = Counter(sim)
        counter.add(3)
        assert counter.rate() == 0.0


class TestSummary:
    def test_basic_statistics(self):
        summary = summarize([1.0, 2.0, 3.0, 4.0])
        assert summary.count == 4
        assert summary.mean == pytest.approx(2.5)
        assert summary.minimum == 1.0
        assert summary.maximum == 4.0
        assert summary.p50 == pytest.approx(2.5)

    def test_empty_input(self):
        summary = summarize([])
        assert summary.count == 0
        assert math.isnan(summary.mean)

    def test_row_keys(self):
        row = summarize([1.0]).row()
        assert set(row) == {"count", "mean", "std", "min", "p50", "p95",
                            "p99", "p999", "max"}

    def test_percentiles_ordered(self):
        summary = summarize(range(1000))
        assert (summary.p50 <= summary.p95 <= summary.p99
                <= summary.p999 <= summary.maximum)


class TestLatencyHistogram:
    def test_quantiles_bounded_by_bucket_width(self):
        histogram = LatencyHistogram()
        values = [0.001 * (1 + i % 100) for i in range(10_000)]
        for value in values:
            histogram.record(value)
        exact = summarize(values)
        approx = histogram.summary()
        # Log buckets at 20/decade put relative error under ~12%.
        for name in ("p50", "p95", "p99", "p999"):
            assert getattr(approx, name) == pytest.approx(
                getattr(exact, name), rel=0.13)
        assert approx.mean == pytest.approx(exact.mean)
        assert approx.minimum == exact.minimum
        assert approx.maximum == exact.maximum

    def test_fractional_weights(self):
        histogram = LatencyHistogram()
        histogram.record(0.01, count=1.5e6)
        histogram.record(1.0, count=0.5e6)
        assert histogram.total == pytest.approx(2e6)
        assert histogram.quantile(0.5) == pytest.approx(0.01, rel=0.15)
        assert histogram.quantile(0.99) == pytest.approx(1.0, rel=0.15)

    def test_overflow_and_underflow(self):
        histogram = LatencyHistogram(min_value=1e-3, max_value=10.0)
        histogram.record(math.inf, count=3.0)
        histogram.record(1e-9)
        assert histogram.total == 4.0
        assert histogram.quantile(1.0) == 10.0    # clamped at the ceiling
        with pytest.raises(ValueError):
            histogram.record(math.nan)

    def test_merge_matches_single_stream(self):
        a, b, both = (LatencyHistogram() for _ in range(3))
        for i in range(1, 500):
            value = 0.001 * i
            (a if i % 2 else b).record(value, count=i)
            both.record(value, count=i)
        a.merge(b)
        merged, single = a.summary(), both.summary()
        assert merged.count == single.count
        assert merged.p50 == single.p50
        assert merged.p99 == single.p99
        assert merged.mean == pytest.approx(single.mean)
        assert merged.std == pytest.approx(single.std)

    def test_merge_rejects_layout_mismatch(self):
        with pytest.raises(ValueError):
            LatencyHistogram().merge(LatencyHistogram(buckets_per_decade=5))

    def test_round_trips_through_dict(self):
        histogram = LatencyHistogram()
        for i in range(1, 100):
            histogram.record(0.002 * i, count=i / 3.0)
        clone = LatencyHistogram.from_dict(histogram.to_dict())
        assert clone.summary() == histogram.summary()
        assert clone.to_dict() == histogram.to_dict()

    def test_empty_summary(self):
        assert LatencyHistogram().summary().count == 0
        assert math.isnan(LatencyHistogram().quantile(0.5))


def _reference_record(histogram, value, count=1.0):
    """``LatencyHistogram.record`` as it was before it traded the
    builtin ``min``/``max``/``isnan`` calls for comparisons: the oracle
    the current body must match field for field."""
    if count <= 0:
        return
    value = float(value)
    if math.isnan(value):
        raise ValueError("cannot record NaN")
    if value < histogram.min_value:
        index = 0
    elif value >= histogram.max_value:
        index = len(histogram._counts) - 1
    else:
        index = 1 + int((math.log10(value) - histogram._log_min)
                        * histogram._scale)
        index = min(max(index, 1), len(histogram._counts) - 2)
    histogram._counts[index] += count
    histogram.total += count
    clamped = min(max(value, histogram.min_value), histogram.max_value)
    histogram._sum += clamped * count
    histogram._sum_sq += clamped * clamped * count
    histogram._min_seen = min(histogram._min_seen, clamped)
    histogram._max_seen = max(histogram._max_seen, clamped)


def _fields(histogram):
    return (
        [count.hex() for count in histogram._counts],
        histogram.total.hex(), histogram._sum.hex(), histogram._sum_sq.hex(),
        histogram._min_seen.hex(), histogram._max_seen.hex(),
    )


# The default layout and the cc queue-depth layout.
_LAYOUTS = [(1e-4, 100.0, 20), (1.0, 1e9, 10)]


def _record_both(layout, samples):
    fast, oracle = LatencyHistogram(*layout), LatencyHistogram(*layout)
    for value, count in samples:
        fast.record(value, count)
        _reference_record(oracle, value, count)
        assert _fields(fast) == _fields(oracle), (value, count)


class TestRecordMatchesReference:
    """``record`` keeps the pre-change arithmetic bit for bit."""

    @pytest.mark.parametrize("layout", _LAYOUTS)
    def test_edge_values(self, layout):
        histogram = LatencyHistogram(*layout)
        edges = [histogram._edge(i) for i in range(1, len(histogram._counts))]
        values = [0.0, -0.0, -1.0, -math.inf, math.inf,
                  histogram.min_value, histogram.max_value]
        for edge in edges + values[5:]:
            values += [math.nextafter(edge, 0.0),
                       math.nextafter(edge, math.inf)]
        values += edges
        _record_both(layout, [(value, 0.25) for value in values])
        _record_both(layout, [(value, 3.0) for value in reversed(values)])

    @pytest.mark.parametrize("layout", _LAYOUTS)
    def test_non_positive_count_is_a_noop(self, layout):
        histogram = LatencyHistogram(*layout)
        for count in (0.0, -0.0, -1.0, -math.inf):
            histogram.record(1.0, count)
            histogram.record(math.nan, count)
        assert _fields(histogram) == _fields(LatencyHistogram(*layout))

    @pytest.mark.parametrize("layout", _LAYOUTS)
    def test_nan_raises_and_records_nothing(self, layout):
        histogram = LatencyHistogram(*layout)
        histogram.record(2.0, 1.5)
        before = _fields(histogram)
        with pytest.raises(ValueError, match="NaN"):
            histogram.record(math.nan, 1.0)
        assert _fields(histogram) == before

    @given(
        layout=st.sampled_from(_LAYOUTS),
        samples=st.lists(
            st.tuples(
                st.one_of(
                    st.floats(allow_nan=False),
                    st.floats(1e-6, 1e10),
                    st.sampled_from([1e-4, 100.0, 1.0, 1e9, math.inf]),
                ),
                st.floats(-1.0, 1e6, allow_nan=False),
            ),
            max_size=40,
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, layout, samples):
        _record_both(layout, samples)

    @given(
        layout=st.sampled_from(_LAYOUTS),
        history=st.floats(0.0, 1e6),
        value=st.one_of(
            st.floats(allow_nan=False),
            st.sampled_from([0.0, 1e-4, 100.0, 1.0, 1e9, math.inf]),
        ),
        counts=st.lists(st.floats(5e-324, 1e6), max_size=40),
    )
    @settings(max_examples=300, deadline=None)
    def test_record_each_is_one_record_per_count(self, layout, history,
                                                 value, counts):
        each, oracle = LatencyHistogram(*layout), LatencyHistogram(*layout)
        for histogram in (each, oracle):
            histogram.record(2.0, history)
        each.record_each(value, counts)
        for count in counts:
            _reference_record(oracle, value, count)
        assert _fields(each) == _fields(oracle)


class TestFormatTable:
    def test_renders_aligned_columns(self):
        text = format_table(["name", "value"], [["a", 1], ["long-name", 22]])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert "---" in lines[1]
        assert len(lines) == 4


class TestPeriodicSampler:
    def test_samples_at_interval(self, sim):
        sampler = PeriodicSampler(sim, fn=lambda: sim.now, interval=2.0)
        sim.run(until=7.0)
        sampler.stop()
        assert sampler.series.times == [0.0, 2.0, 4.0, 6.0]
        assert sampler.series.values == [0.0, 2.0, 4.0, 6.0]

    def test_duration_bounds_sampling(self, sim):
        sampler = PeriodicSampler(sim, fn=lambda: 1.0, interval=1.0, duration=3.0)
        sim.run(until=10.0)
        assert len(sampler.series) == 4  # t = 0, 1, 2, 3

    def test_invalid_interval(self, sim):
        with pytest.raises(ValueError):
            PeriodicSampler(sim, fn=lambda: 0.0, interval=0.0)

    def test_stop_halts_sampling(self, sim):
        sampler = PeriodicSampler(sim, fn=lambda: 0.0, interval=1.0)
        sim.run(until=2.5)
        sampler.stop()
        sim.run(until=10.0)
        assert len(sampler.series) == 3

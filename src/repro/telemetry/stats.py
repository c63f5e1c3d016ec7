"""Summary statistics for experiment reporting.

Two ways to a :class:`Summary`:

* :func:`summarize` -- exact percentiles over a materialised sample
  list (fine up to ~1e6 values).
* :class:`LatencyHistogram` -- a mergeable streaming histogram with
  log-spaced buckets and weighted counts, for the session-level load
  engine where one epoch can stand for millions of requests and
  materialising a sample list would dwarf the simulation itself.
  Quantiles come from log-linear interpolation inside the matching
  bucket, so relative error is bounded by the bucket width
  (``10**(1/buckets_per_decade)``, ~12% at the default 20/decade).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Iterable, List, Optional, Sequence

import numpy as np


@dataclass(frozen=True)
class Summary:
    """Five-number-plus summary of a sample."""

    count: int
    mean: float
    std: float
    minimum: float
    p50: float
    p95: float
    p99: float
    p999: float
    maximum: float

    def row(self) -> dict[str, float]:
        """As a flat dict, for table printers."""
        return {
            "count": self.count,
            "mean": self.mean,
            "std": self.std,
            "min": self.minimum,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "p999": self.p999,
            "max": self.maximum,
        }


EMPTY_SUMMARY = Summary(0, float("nan"), float("nan"), float("nan"),
                        float("nan"), float("nan"), float("nan"),
                        float("nan"), float("nan"))


def summarize(values: Iterable[float]) -> Summary:
    """Compute a :class:`Summary`; empty input yields NaN fields, count 0."""
    data = np.asarray(list(values), dtype=float)
    if data.size == 0:
        return EMPTY_SUMMARY
    return Summary(
        count=int(data.size),
        mean=float(data.mean()),
        std=float(data.std()),
        minimum=float(data.min()),
        p50=float(np.percentile(data, 50)),
        p95=float(np.percentile(data, 95)),
        p99=float(np.percentile(data, 99)),
        p999=float(np.percentile(data, 99.9)),
        maximum=float(data.max()),
    )


class LatencyHistogram:
    """Streaming log-bucketed histogram with weighted (fluid) counts.

    Buckets are log-spaced between ``min_value`` and ``max_value`` with
    ``buckets_per_decade`` buckets per power of ten, plus an underflow
    and an overflow bucket, so recording never fails: values below the
    floor land in underflow (reported at the floor), values at or above
    the ceiling -- including ``inf`` for timed-out/shed requests --
    land in overflow (reported at the ceiling).

    ``count`` may be fractional: the fluid load engine records one
    latency per (aggregate, epoch) weighted by the number of requests
    it stands for, so a million users per epoch is one bucket
    increment.  Exact running sum/min/max/sum-of-squares are kept
    alongside, so :meth:`summary` reports exact mean/std/extrema with
    bucket-resolution percentiles.

    Two histograms with identical bucket layouts :meth:`merge`
    associatively and commutatively -- the per-service rollup, the
    fleet rollup, and cross-process campaign reductions all use this.
    """

    __slots__ = ("min_value", "max_value", "buckets_per_decade", "_log_min",
                 "_scale", "_counts", "total", "_sum", "_sum_sq",
                 "_min_seen", "_max_seen")

    def __init__(
        self,
        min_value: float = 1e-4,
        max_value: float = 100.0,
        buckets_per_decade: int = 20,
    ) -> None:
        if min_value <= 0 or max_value <= min_value:
            raise ValueError(
                f"need 0 < min_value < max_value, got [{min_value}, {max_value}]"
            )
        if buckets_per_decade < 1:
            raise ValueError(
                f"buckets_per_decade must be >= 1, got {buckets_per_decade}"
            )
        self.min_value = float(min_value)
        self.max_value = float(max_value)
        self.buckets_per_decade = int(buckets_per_decade)
        self._log_min = math.log10(self.min_value)
        self._scale = float(buckets_per_decade)
        span = math.log10(self.max_value) - self._log_min
        # [0] underflow, [1..n] log buckets, [n+1] overflow.
        n = max(1, math.ceil(span * self._scale - 1e-9))
        self._counts = [0.0] * (n + 2)
        self.total = 0.0
        self._sum = 0.0
        self._sum_sq = 0.0
        self._min_seen = math.inf
        self._max_seen = -math.inf

    def layout(self) -> tuple[float, float, int]:
        """The merge-compatibility key."""
        return (self.min_value, self.max_value, self.buckets_per_decade)

    def _edge(self, index: int) -> float:
        """Lower value edge of log bucket ``index`` (1-based)."""
        return 10.0 ** (self._log_min + (index - 1) / self._scale)

    def _slot(self, value: float) -> tuple[int, float]:
        """The bucket ``value`` lands in, and the value its moments use.

        Exact moments use the value clamped into [min_value, max_value]:
        overflow (inf) observations count at the ceiling so the mean
        stays finite and conservative.
        """
        value = float(value)
        if value < self.min_value:
            return 0, self.min_value
        last = len(self._counts) - 1
        if value >= self.max_value:
            return last, self.max_value
        if value != value:
            raise ValueError("cannot record NaN")
        index = 1 + int((math.log10(value) - self._log_min) * self._scale)
        if index < 1:
            index = 1
        elif index > last - 1:
            index = last - 1
        return index, value

    def record(self, value: float, count: float = 1.0) -> None:
        """Add ``count`` observations of ``value`` (fractions allowed)."""
        if count <= 0:
            return
        index, clamped = self._slot(value)
        self._counts[index] += count
        self.total += count
        self._sum += clamped * count
        self._sum_sq += clamped * clamped * count
        if clamped < self._min_seen:
            self._min_seen = clamped
        if clamped > self._max_seen:
            self._max_seen = clamped

    def record_each(self, value: float, counts: Sequence[float]) -> None:
        """``record(value, count)`` for each of ``counts``, in order.

        Every ``count`` must be positive (``record`` ignores the rest).
        Bit for bit the same as the calls: each running total adds the
        counts one at a time, in order, never their sum, which rounds
        differently.  Only the bucket lookup and the extrema, which
        repeat the same result, are done once.
        """
        if not counts:
            return
        index, clamped = self._slot(value)
        self._counts[index] = reduce(add, counts, self._counts[index])
        self.total = reduce(add, counts, self.total)
        self._sum = reduce(add, map(clamped.__mul__, counts), self._sum)
        square = clamped * clamped
        self._sum_sq = reduce(add, map(square.__mul__, counts), self._sum_sq)
        if clamped < self._min_seen:
            self._min_seen = clamped
        if clamped > self._max_seen:
            self._max_seen = clamped

    def merge(self, other: "LatencyHistogram") -> "LatencyHistogram":
        """Fold ``other`` into this histogram in place; returns self."""
        if self.layout() != other.layout():
            raise ValueError(
                f"cannot merge histograms with layouts {self.layout()} "
                f"and {other.layout()}"
            )
        for i, count in enumerate(other._counts):
            self._counts[i] += count
        self.total += other.total
        self._sum += other._sum
        self._sum_sq += other._sum_sq
        self._min_seen = min(self._min_seen, other._min_seen)
        self._max_seen = max(self._max_seen, other._max_seen)
        return self

    def copy(self) -> "LatencyHistogram":
        clone = LatencyHistogram(*self.layout())
        clone.merge(self)
        return clone

    def quantile(self, q: float) -> float:
        """The value at quantile ``q`` in [0, 1]; NaN when empty.

        Log-linear interpolation inside the matching bucket, clamped to
        the exact observed extrema so ``quantile(0)``/``quantile(1)``
        are sharp.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be within [0, 1], got {q}")
        if self.total <= 0:
            return float("nan")
        target = q * self.total
        cumulative = 0.0
        for index, count in enumerate(self._counts):
            if count <= 0:
                continue
            if cumulative + count >= target - 1e-12:
                if index == 0:
                    value = self.min_value
                elif index == len(self._counts) - 1:
                    value = self.max_value
                else:
                    lo, hi = self._edge(index), self._edge(index + 1)
                    fraction = (target - cumulative) / count
                    fraction = min(max(fraction, 0.0), 1.0)
                    value = 10.0 ** (
                        math.log10(lo)
                        + fraction * (math.log10(hi) - math.log10(lo))
                    )
                return float(min(max(value, self._min_seen), self._max_seen))
            cumulative += count
        return float(self._max_seen)

    def mean(self) -> float:
        return self._sum / self.total if self.total > 0 else float("nan")

    def summary(self) -> Summary:
        """A :class:`Summary` from the stream (percentiles bucket-grade)."""
        if self.total <= 0:
            return EMPTY_SUMMARY
        mean = self.mean()
        variance = max(0.0, self._sum_sq / self.total - mean * mean)
        return Summary(
            count=int(round(self.total)),
            mean=mean,
            std=math.sqrt(variance),
            minimum=self._min_seen,
            p50=self.quantile(0.50),
            p95=self.quantile(0.95),
            p99=self.quantile(0.99),
            p999=self.quantile(0.999),
            maximum=self._max_seen,
        )

    def to_dict(self) -> dict[str, object]:
        """JSON-safe state (campaign artifact / cross-process handoff)."""
        return {
            "min_value": self.min_value,
            "max_value": self.max_value,
            "buckets_per_decade": self.buckets_per_decade,
            "counts": list(self._counts),
            "total": self.total,
            "sum": self._sum,
            "sum_sq": self._sum_sq,
            "min_seen": None if math.isinf(self._min_seen) else self._min_seen,
            "max_seen": None if math.isinf(self._max_seen) else self._max_seen,
        }

    @classmethod
    def from_dict(cls, state: dict) -> "LatencyHistogram":
        histogram = cls(
            min_value=state["min_value"],
            max_value=state["max_value"],
            buckets_per_decade=state["buckets_per_decade"],
        )
        counts: List[float] = [float(c) for c in state["counts"]]
        if len(counts) != len(histogram._counts):
            raise ValueError("bucket count mismatch in serialized histogram")
        histogram._counts = counts
        total = state.get("total")
        histogram.total = float(sum(counts) if total is None else total)
        histogram._sum = float(state["sum"])
        histogram._sum_sq = float(state["sum_sq"])
        min_seen: Optional[float] = state.get("min_seen")
        max_seen: Optional[float] = state.get("max_seen")
        histogram._min_seen = math.inf if min_seen is None else float(min_seen)
        histogram._max_seen = -math.inf if max_seen is None else float(max_seen)
        return histogram

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<LatencyHistogram n={self.total:.0f} "
            f"[{self.min_value}, {self.max_value}] "
            f"x{self.buckets_per_decade}/decade>"
        )


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render an aligned plain-text table (used by benches and the dashboard)."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    for index, row in enumerate(cells):
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)

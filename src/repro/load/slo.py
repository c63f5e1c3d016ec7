"""SLO objectives and streaming error-budget burn-rate accounting.

Follows the SRE formulation: an objective like "99.9% of requests
under 250 ms" grants an *error budget* of ``1 - objective``; the
*burn rate* over a window is the observed bad fraction divided by the
budget, so burn 1.0 means "spending the budget exactly as fast as
allowed", burn 14.4 over an hour is the classic page-now threshold.
The tracker is fluid-native -- good/bad counts are fractional request
masses from the load engine, and trackers merge for per-service and
fleet rollups exactly like :class:`repro.telemetry.stats.LatencyHistogram`.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError

#: Default burn-rate alert windows (seconds) -- scaled-down analogues of
#: the SRE book's 5m/1h/6h multiwindow alerts for simulated-minute runs.
DEFAULT_WINDOWS = (10.0, 60.0, 300.0)

#: Every finite double is ``n / 2**k`` with ``k <= 1074``, so scaling by
#: ``2**1074`` makes window sums exact ints.
_FIXED_BITS = 1074
_time = itemgetter(0)


def _fixed(x: float) -> int:
    """``x * 2**1074`` exactly."""
    num, den = x.as_integer_ratio()
    return num << (_FIXED_BITS + 1 - den.bit_length())


def _rate(good: float, bad: float) -> float:
    total = good + bad
    return bad / total if total > 0 else 0.0


def _burn_bound(good_fx: int, bad_fx: int, count: int, budget: float) -> float:
    """Upper bound on the burn a fold over ``count`` samples gives.

    ``good_fx`` and ``bad_fx`` are the window's exact sums G and B.  A
    float sum of m non-negative terms is within ``gamma(m-1) = (m-1)u /
    (1-(m-1)u)`` of the exact sum, relatively, with ``u = 2**-53``, and
    the fold's ``good + bad`` rounds once more.  So the fold's
    ``bad / total`` before rounding is at most ``B / (G+B)`` times
    ``(1 + (4m + 4)u)``.  The bound rounds that product and divides by
    the budget just as the fold rounds its own quotients; rounding is
    monotone, so the fold's burn cannot exceed it.  A fold that
    overflows gives 0.0 or nan, which never raises a peak.
    """
    slack = (1 << 53) + 4 * count + 4
    return (bad_fx * slack) / ((good_fx + bad_fx) << 53) / budget


@dataclass(frozen=True)
class SloObjective:
    """A latency SLO: ``objective`` of requests faster than ``threshold_s``."""

    threshold_s: float = 0.25
    objective: float = 0.999
    windows: Tuple[float, ...] = DEFAULT_WINDOWS

    def __post_init__(self) -> None:
        if self.threshold_s <= 0:
            raise ConfigurationError(
                f"threshold_s must be > 0, got {self.threshold_s}"
            )
        if not 0.0 < self.objective < 1.0:
            raise ConfigurationError(
                f"objective must be in (0, 1), got {self.objective}"
            )
        if not self.windows or any(w <= 0 for w in self.windows):
            raise ConfigurationError(
                f"windows must be positive, got {self.windows}"
            )

    @property
    def error_budget(self) -> float:
        """Allowed bad fraction: ``1 - objective``."""
        return 1.0 - self.objective


class SloTracker:
    """Streaming good/bad accounting against one :class:`SloObjective`.

    :meth:`record` takes fluid request masses stamped with simulation
    time; per-window burn rates come from a ring of (time, good, bad)
    samples so the tracker is O(window / epoch) memory regardless of
    request volume.  Peak burn per window is tracked as it happens --
    campaigns report it without replaying the timeline.

    Peaks are exact without folding every window on every record.  Each
    window also keeps its sums as exact fixed-point ints, which bound
    the float fold from above.  A record whose bound could beat the
    window's peak becomes a candidate; candidates wait until time moves
    on or the peak is read, and then only those whose bound still beats
    the peak are folded, highest bound first.
    """

    __slots__ = ("objective", "good", "bad", "_samples", "_peak_burn",
                 "_budget", "_windows", "_window_state")

    def __init__(self, objective: SloObjective) -> None:
        self.objective = objective
        self.good = 0.0
        self.bad = 0.0
        # Chronological (t, good, bad) epoch samples for window sums.
        self._samples: List[Tuple[float, float, float]] = []
        self._peak_burn: Dict[float, float] = {w: 0.0 for w in objective.windows}
        self._budget = objective.error_budget
        self._windows = tuple(sorted(self._peak_burn))
        # Per window in ``_windows``: [index of its oldest sample, exact
        # good sum, exact bad sum, candidates]; sums are in units of
        # 2**-1074 and each candidate is (burn bound, samples in window).
        self._window_state: List[list] = []
        self._rebuild_windows()

    @property
    def total(self) -> float:
        return self.good + self.bad

    def record(self, t: float, good: float, bad: float) -> None:
        """Account an epoch's request masses at simulation time ``t``."""
        if not (0 <= good < math.inf and 0 <= bad < math.inf):
            raise ValueError(
                f"good/bad request masses must be finite and >= 0, "
                f"got {good}/{bad}"
            )
        if good == 0 and bad == 0:
            return
        samples = self._samples
        if samples and t != samples[-1][0]:
            if t < samples[-1][0]:
                raise ValueError(
                    f"samples must be recorded in time order "
                    f"({t} < {samples[-1][0]})"
                )
            # Window starts move from here on: settle the candidates.
            self._settle()
        self.good += good
        self.bad += bad
        samples.append((t, good, bad))
        good_fx = _fixed(good) if good else 0
        bad_fx = _fixed(bad) if bad else 0
        for window, state in zip(self._windows, self._window_state):
            start, good_sum, bad_sum, candidates = state
            good_sum += good_fx
            bad_sum += bad_fx
            # The fold's own membership test, so the sums cover exactly
            # the samples it visits.
            cutoff = t - window
            while samples[start][0] < cutoff:
                _, g, b = samples[start]
                if g:
                    good_sum -= _fixed(g)
                if b:
                    bad_sum -= _fixed(b)
                start += 1
            state[0], state[1], state[2] = start, good_sum, bad_sum
            # An all-good window folds to exactly 0.0.
            if bad_sum:
                count = len(samples) - start
                bound = _burn_bound(good_sum, bad_sum, count, self._budget)
                if bound > self._peak_burn[window]:
                    candidates.append((bound, count))
        self._trim()

    def _settle(self) -> None:
        """Fold the candidates that could still raise a peak."""
        for window, state in zip(self._windows, self._window_state):
            start, _, _, candidates = state
            candidates.sort(reverse=True)
            for bound, count in candidates:
                if bound <= self._peak_burn[window]:
                    break
                burn = _rate(*self._fold(start, start + count)) / self._budget
                self._peak_burn[window] = max(self._peak_burn[window], burn)
            candidates.clear()

    def _rebuild_windows(self) -> None:
        """Recompute every window's start and exact sums from the samples."""
        samples = self._samples
        now = samples[-1][0] if samples else 0.0
        self._window_state = []
        for window in self._windows:
            start = self._window_start(now, window, len(samples))
            self._window_state.append([
                start,
                sum(_fixed(g) for _, g, _ in samples[start:]),
                sum(_fixed(b) for _, _, b in samples[start:]),
                [],
            ])
        self._trim()

    def _trim(self) -> None:
        """Drop samples older than the longest window (keeps memory flat)."""
        drop = self._window_state[-1][0]
        if drop:
            del self._samples[:drop]
            for state in self._window_state:
                state[0] -= drop

    def _window_start(self, now: float, window_s: float, end: int) -> int:
        """Index of the oldest of ``_samples[:end]`` in the window."""
        return bisect_left(self._samples, now - window_s, 0, end, key=_time)

    def _fold(self, start: int, end: int) -> Tuple[float, float]:
        """Float (good, bad) sums of ``_samples[start:end]``, newest first."""
        good = bad = 0.0
        for _, g, b in reversed(self._samples[start:end]):
            good += g
            bad += b
        return good, bad

    def error_rate(self, window_s: Optional[float] = None,
                   now: Optional[float] = None) -> float:
        """Bad fraction overall, or within the trailing window.

        Samples stamped after ``now`` are not counted.
        """
        if window_s is None:
            return _rate(self.good, self.bad)
        if now is None:
            now = self._samples[-1][0] if self._samples else 0.0
        end = bisect_right(self._samples, now, key=_time)
        return _rate(*self._fold(self._window_start(now, window_s, end), end))

    def burn_rate(self, window_s: Optional[float] = None,
                  now: Optional[float] = None) -> float:
        """Error-budget burn multiple (1.0 = spending budget exactly)."""
        return self.error_rate(window_s, now) / self.objective.error_budget

    def peak_burn_rate(self, window_s: Optional[float] = None) -> float:
        """Highest burn seen over any ``window_s`` window so far."""
        self._settle()
        if window_s is None:
            return max(self._peak_burn.values(), default=0.0)
        if window_s not in self._peak_burn:
            raise ValueError(
                f"window {window_s} not tracked (have {self.objective.windows})"
            )
        return self._peak_burn[window_s]

    def merge(self, other: "SloTracker") -> "SloTracker":
        """Fold ``other`` (same objective) into this tracker, in place.

        Window samples are interleaved by time, so merged burn-rate
        windows stay meaningful; peak burns take the element-wise max
        (a lower bound for the merged stream, exact when the sources
        cover disjoint services that peak together).
        """
        if other.objective != self.objective:
            raise ValueError(
                "cannot merge trackers with different objectives: "
                f"{self.objective} vs {other.objective}"
            )
        self._settle()
        other._settle()
        self.good += other.good
        self.bad += other.bad
        self._samples = sorted(self._samples + other._samples)
        self._rebuild_windows()
        for window in self.objective.windows:
            self._peak_burn[window] = max(
                self._peak_burn[window], other._peak_burn[window]
            )
        return self

    def row(self) -> Dict[str, float]:
        """Flat metrics dict (campaign/dashboard naming convention)."""
        out: Dict[str, float] = {
            "slo_threshold_s": self.objective.threshold_s,
            "slo_objective": self.objective.objective,
            "good_requests": self.good,
            "bad_requests": self.bad,
            "error_rate": self.error_rate(),
            "burn_rate": self.burn_rate(),
        }
        for window in self.objective.windows:
            out[f"peak_burn_{window:g}s"] = self.peak_burn_rate(window)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        rate = self.error_rate()
        shown = "nan" if math.isnan(rate) else f"{rate:.2e}"
        return (
            f"<SloTracker {self.objective.objective:.3%}@"
            f"{self.objective.threshold_s * 1e3:g}ms err={shown} "
            f"burn={self.burn_rate():.2f}>"
        )

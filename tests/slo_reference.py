"""Brute-force reference for :class:`repro.load.slo.SloTracker` peaks.

Folds every window, newest sample first, after every record -- the
definition the tracker's filtered peak tracking must reproduce bit for
bit.
"""

from repro.load.slo import SloObjective, SloTracker


class BruteForceSlo:
    def __init__(self, objective: SloObjective) -> None:
        self.objective = objective
        self.samples = []
        self.peak = {w: 0.0 for w in objective.windows}

    @classmethod
    def like(cls, tracker: SloTracker) -> "BruteForceSlo":
        """A reference holding ``tracker``'s samples and peaks."""
        ref = cls(tracker.objective)
        ref.samples = list(tracker._samples)
        ref.peak = {w: tracker.peak_burn_rate(w) for w in ref.peak}
        return ref

    def record(self, t: float, good: float, bad: float) -> None:
        if good == 0 and bad == 0:
            return
        self.samples.append((t, good, bad))
        for window in self.peak:
            g = b = 0.0
            for ts, gs, bs in reversed(self.samples):
                if ts < t - window:
                    break
                g += gs
                b += bs
            total = g + b
            rate = b / total if total > 0 else 0.0
            burn = rate / self.objective.error_budget
            self.peak[window] = max(self.peak[window], burn)

"""Periodic samplers."""

from __future__ import annotations

from typing import Callable, Optional

from repro.sim.kernel import Simulator
from repro.sim.process import Timeout
from repro.telemetry.series import TimeSeries


class PeriodicSampler:
    """A background process sampling ``fn()`` every ``interval`` seconds.

    This is the model of the pimaster's monitoring poller: the dashboard's
    CPU-load graphs (paper Fig. 4) are fed by samplers like this one.
    """

    def __init__(
        self,
        sim: Simulator,
        fn: Callable[[], float],
        interval: float,
        name: str = "",
        duration: Optional[float] = None,
    ) -> None:
        if interval <= 0:
            raise ValueError("sampler interval must be positive")
        self.sim = sim
        self.fn = fn
        self.interval = interval
        self.series = TimeSeries(name)
        self._duration = duration
        self._stopped = False
        self._process = sim.process(self._run(), name=f"sampler:{name}")

    def _run(self):
        deadline = None if self._duration is None else self.sim.now + self._duration
        while not self._stopped:
            self.series.record(self.sim.now, float(self.fn()))
            if deadline is not None and self.sim.now + self.interval > deadline:
                return
            yield Timeout(self.sim, self.interval)

    def stop(self) -> None:
        self._stopped = True
        self._process.interrupt("sampler stopped")

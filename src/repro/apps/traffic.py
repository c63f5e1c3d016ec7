"""Traffic pattern primitives.

DC traffic is "constantly changing and generally unpredictable" (§I,
citing Gill et al. and VL2); the standard approximation the measurement
literature supports is Poisson-ish arrivals with heavy-tailed flow sizes
(a sea of mice, a few elephants) plus ON/OFF burstiness.  All randomness
comes from caller-supplied ``random.Random`` streams so experiments are
reproducible.

The sampling primitives (``poisson_wait``, ``pareto_size``) live in
:mod:`repro.load.arrivals` -- one implementation shared between the
per-event traffic sources here and the session-level load engine -- and
are re-exported for compatibility.
"""

from __future__ import annotations

import random
from typing import Callable, Optional

from repro.load.arrivals import pareto_size, poisson_wait
from repro.sim.kernel import Simulator
from repro.sim.process import Timeout

__all__ = ["OnOffTrafficSource", "pareto_size", "poisson_wait"]


class OnOffTrafficSource:
    """Bursty sender: exponential ON/OFF periods, fixed rate while ON.

    During an ON period, messages of ``message_bytes`` are emitted back to
    back at ``rate_per_s``; OFF periods are silent.  ``send`` is a callback
    returning a Signal (e.g. ``lambda: stack.send(...)``).
    """

    def __init__(
        self,
        sim: Simulator,
        rng: random.Random,
        send: Callable[[], object],
        on_mean_s: float = 1.0,
        off_mean_s: float = 1.0,
        rate_per_s: float = 10.0,
        duration_s: Optional[float] = None,
    ) -> None:
        if on_mean_s <= 0 or off_mean_s <= 0 or rate_per_s <= 0:
            raise ValueError("ON/OFF means and rate must be positive")
        self.sim = sim
        self.rng = rng
        self.send = send
        self.on_mean_s = on_mean_s
        self.off_mean_s = off_mean_s
        self.rate_per_s = rate_per_s
        self.duration_s = duration_s
        self.messages_sent = 0
        self.on_periods = 0
        self._stopped = False
        self._process = sim.process(self._run(), name="onoff-source")

    def stop(self) -> None:
        self._stopped = True
        self._process.interrupt("source stopped")

    def _run(self):
        deadline = (
            None if self.duration_s is None else self.sim.now + self.duration_s
        )
        while not self._stopped:
            if deadline is not None and self.sim.now >= deadline:
                return
            # ON period: send at the configured rate.
            self.on_periods += 1
            on_until = self.sim.now + self.rng.expovariate(1.0 / self.on_mean_s)
            while self.sim.now < on_until and not self._stopped:
                if deadline is not None and self.sim.now >= deadline:
                    return
                self.send()
                self.messages_sent += 1
                yield Timeout(self.sim, 1.0 / self.rate_per_s)
            # OFF period: silence.
            off = self.rng.expovariate(1.0 / self.off_mean_s)
            yield Timeout(self.sim, off)

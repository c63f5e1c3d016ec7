"""Whole-cloud power metering: the "single trailing power socket board".

Aggregates the per-machine power models.  Because each machine's draw is
a step-function gauge, the cloud meter's energy numbers are *exact*
integrals, not sampled approximations -- matching the paper's point that
a physical testbed gives real power data where simulators guess.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.hardware.machine import Machine

# One 10 A / 230 V socket board.
SOCKET_LIMIT_WATTS = 2300.0


class CloudPowerMeter:
    """One socket board: every machine plugged into it."""

    def __init__(self, machines: Iterable[Machine]) -> None:
        self.machines: list[Machine] = list(machines)
        if not self.machines:
            raise ValueError("a power meter needs at least one machine")

    def add(self, machine: Machine) -> None:
        self.machines.append(machine)

    # -- instantaneous ------------------------------------------------------

    def current_watts(self) -> float:
        return sum(m.power.current_watts for m in self.machines)

    def per_machine_watts(self) -> dict[str, float]:
        """Component isolation: each machine's current draw."""
        return {m.machine_id: m.power.current_watts for m in self.machines}

    # -- integrals -----------------------------------------------------------

    def energy_joules(
        self, start: Optional[float] = None, end: Optional[float] = None
    ) -> float:
        return sum(m.power.energy_joules(start, end) for m in self.machines)

    def mean_watts(
        self, start: Optional[float] = None, end: Optional[float] = None
    ) -> float:
        return sum(m.power.mean_watts(start, end) for m in self.machines)

    # -- claims ----------------------------------------------------------------

    def peak_possible_watts(self) -> float:
        """Nameplate worst case: every machine flat out."""
        return sum(m.spec.power.peak_watts for m in self.machines)

    def fits_single_socket(self) -> bool:
        """Can the whole cloud run from one 10 A / 230 V socket board?

        The paper's claim for the 56-Pi cloud; trivially false for the
        x86 comparison testbed.
        """
        return self.peak_possible_watts() <= SOCKET_LIMIT_WATTS

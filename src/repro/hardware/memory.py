"""Memory model: labelled allocations against a fixed capacity.

This is where the paper's container-density limit comes from: a 256 MB
Model B with the Raspbian reserve holds exactly three ~30 MB idle
containers (plus per-container filesystem overhead), and attempts beyond
that raise :class:`~repro.errors.OutOfMemoryError`.
"""

from __future__ import annotations

from typing import Dict

from repro.errors import OutOfMemoryError
from repro.hardware.specs import MemorySpec
from repro.sim.kernel import Simulator
from repro.telemetry.series import Gauge
from repro.units import fmt_bytes


class Memory:
    """Byte-accurate allocation tracking with named allocations."""

    def __init__(
        self,
        sim: Simulator,
        spec: MemorySpec,
        reserved_bytes: int = 0,
        owner: str = "",
    ) -> None:
        if reserved_bytes > spec.capacity_bytes:
            raise OutOfMemoryError(
                f"{owner}: OS reserve {fmt_bytes(reserved_bytes)} exceeds "
                f"capacity {fmt_bytes(spec.capacity_bytes)}"
            )
        self.sim = sim
        self.spec = spec
        self.owner = owner
        self.reserved_bytes = reserved_bytes
        self._allocations: Dict[str, int] = {}
        self.used_gauge = Gauge(sim, name=f"{owner}.mem.used", initial=float(reserved_bytes))

    @property
    def capacity(self) -> int:
        return self.spec.capacity_bytes

    @property
    def used(self) -> int:
        """Bytes in use, including the OS reserve."""
        return self.reserved_bytes + sum(self._allocations.values())

    @property
    def available(self) -> int:
        return self.capacity - self.used

    @property
    def utilization(self) -> float:
        return self.used / self.capacity

    def allocate(self, label: str, nbytes: int) -> None:
        """Allocate ``nbytes`` under ``label``; raises on OOM or relabel."""
        if nbytes < 0:
            raise ValueError(f"negative allocation {nbytes} for {label!r}")
        if label in self._allocations:
            raise OutOfMemoryError(
                f"{self.owner}: allocation label {label!r} already in use "
                "(use resize() to grow it)"
            )
        if nbytes > self.available:
            raise OutOfMemoryError(
                f"{self.owner}: cannot allocate {fmt_bytes(nbytes)} for {label!r}; "
                f"only {fmt_bytes(self.available)} of {fmt_bytes(self.capacity)} free"
            )
        self._allocations[label] = nbytes
        self.used_gauge.set(float(self.used))

    def resize(self, label: str, nbytes: int) -> None:
        """Grow or shrink an existing allocation (models RSS changes)."""
        if label not in self._allocations:
            raise KeyError(f"{self.owner}: no allocation {label!r}")
        if nbytes < 0:
            raise ValueError(f"negative allocation {nbytes} for {label!r}")
        delta = nbytes - self._allocations[label]
        if delta > self.available:
            raise OutOfMemoryError(
                f"{self.owner}: cannot grow {label!r} by {fmt_bytes(delta)}; "
                f"only {fmt_bytes(self.available)} free"
            )
        self._allocations[label] = nbytes
        self.used_gauge.set(float(self.used))

    def free(self, label: str) -> int:
        """Release an allocation; returns the bytes freed."""
        try:
            nbytes = self._allocations.pop(label)
        except KeyError:
            raise KeyError(f"{self.owner}: no allocation {label!r}") from None
        self.used_gauge.set(float(self.used))
        return nbytes

    def allocations(self) -> dict[str, int]:
        """Copy of the live allocation table (label -> bytes)."""
        return dict(self._allocations)

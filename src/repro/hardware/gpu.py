"""GPU offload: "the onboard GPU can also be exploited for general
computation" (§IV).

The BCM2835 integrates a VideoCore IV GPU (~24 GFLOPS single precision
-- an order of magnitude beyond the 700 MHz ARM11 core).  The model
captures what matters for offload studies on a constrained board:

* a *serial* offload queue (the GPU runs one kernel at a time; there is
  no preemption or fair sharing, unlike the CPU's GPS scheduler);
* a transfer cost in and out of GPU memory over the SoC bus, which makes
  small kernels not worth offloading -- the classic crossover;
* an active-power adder on top of the board's CPU-driven draw.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.sim.kernel import Simulator
from repro.sim.process import Signal, Timeout
from repro.sim.resources import Resource
from repro.telemetry.series import Counter, Gauge


@dataclass(frozen=True)
class GpuSpec:
    """GPU capability."""

    flops: float                    # sustained ops/second
    transfer_bytes_per_s: float     # CPU<->GPU memory bandwidth
    launch_overhead_s: float = 100e-6
    active_watts: float = 0.5       # extra draw while a kernel runs

    def __post_init__(self) -> None:
        if self.flops <= 0 or self.transfer_bytes_per_s <= 0:
            raise ValueError("GPU flops and transfer bandwidth must be positive")
        if self.launch_overhead_s < 0 or self.active_watts < 0:
            raise ValueError("GPU overheads must be >= 0")


# The VideoCore IV as shipped on the BCM2835.
VIDEOCORE_IV = GpuSpec(
    flops=24e9,
    transfer_bytes_per_s=500e6,
    launch_overhead_s=100e-6,
    active_watts=0.5,
)


class Gpu:
    """One board's GPU: a serial offload engine."""

    def __init__(self, sim: Simulator, spec: GpuSpec, owner: str = "") -> None:
        self.sim = sim
        self.spec = spec
        self.owner = owner
        self._queue = Resource(sim, capacity=1, name=f"{owner}.gpu")
        self.kernels_run = Counter(sim, f"{owner}.gpu.kernels")
        self.busy = Gauge(sim, f"{owner}.gpu.busy", initial=0.0)

    def kernel_time(self, ops: float, transfer_bytes: float = 0.0) -> float:
        """Uncontended wall time for one kernel (planning helper)."""
        return (
            self.spec.launch_overhead_s
            + transfer_bytes / self.spec.transfer_bytes_per_s
            + ops / self.spec.flops
        )

    def offload(self, ops: float, transfer_bytes: float = 0.0) -> Signal:
        """Queue a kernel; the Signal fires when its results are back.

        ``transfer_bytes`` covers input + output movement over the bus.
        Kernels from co-located containers serialise on the device.
        """
        if ops < 0 or transfer_bytes < 0:
            raise ValueError("ops and transfer_bytes must be >= 0")
        service_time = self.kernel_time(ops, transfer_bytes)

        def run():
            yield self._queue.acquire()
            self.busy.set(1.0)
            yield Timeout(self.sim, service_time)
            self._queue.release()
            if self._queue.in_use == 0:
                self.busy.set(0.0)
            self.kernels_run.add()
            return ops

        return self.sim.process(run(), name=f"{self.owner}.gpu")

    def busy_seconds(self, start: Optional[float] = None,
                     end: Optional[float] = None) -> float:
        return self.busy.integral(start, end)

    def energy_joules(self, start: Optional[float] = None,
                      end: Optional[float] = None) -> float:
        """Extra energy attributable to GPU activity."""
        return self.busy_seconds(start, end) * self.spec.active_watts

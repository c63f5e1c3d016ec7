"""Block-storage model for the Pi's SD card (and the x86 server's disk).

Capacity accounting is owned by the filesystem layer
(:mod:`repro.hostos.filesystem`); this device models *time*: each I/O
takes ``latency + size/bandwidth`` seconds and the device serves one
request at a time (FIFO), so concurrent readers contend realistically --
important for image spawning, where pimaster pushes root filesystems onto
many SD cards.
"""

from __future__ import annotations

from repro.errors import StorageFullError
from repro.hardware.specs import StorageSpec
from repro.sim.kernel import Simulator
from repro.sim.process import Signal, Timeout
from repro.sim.resources import Resource
from repro.telemetry.series import Counter
from repro.units import fmt_bytes


class StorageDevice:
    """A single-queue block device with separate read/write bandwidths."""

    def __init__(self, sim: Simulator, spec: StorageSpec, owner: str = "") -> None:
        self.sim = sim
        self.spec = spec
        self.owner = owner
        self._queue = Resource(sim, capacity=1, name=f"{owner}.storage")
        self._used_bytes = 0
        self.bytes_read = Counter(sim, f"{owner}.storage.read")
        self.bytes_written = Counter(sim, f"{owner}.storage.written")

    # -- capacity accounting (called by the filesystem) ---------------------

    @property
    def capacity(self) -> int:
        return self.spec.capacity_bytes

    @property
    def used(self) -> int:
        return self._used_bytes

    @property
    def available(self) -> int:
        return self.capacity - self._used_bytes

    def reserve(self, nbytes: int) -> None:
        """Claim space on the device; raises :class:`StorageFullError`."""
        if nbytes < 0:
            raise ValueError("cannot reserve negative bytes")
        if nbytes > self.available:
            raise StorageFullError(
                f"{self.owner}: need {fmt_bytes(nbytes)}, "
                f"only {fmt_bytes(self.available)} free on {self.spec.kind}"
            )
        self._used_bytes += nbytes

    def release(self, nbytes: int) -> None:
        if nbytes < 0 or nbytes > self._used_bytes:
            raise ValueError(f"invalid release of {nbytes} bytes")
        self._used_bytes -= nbytes

    # -- timed I/O (processes yield these) ----------------------------------

    def read(self, nbytes: int) -> Signal:
        """Timed read of ``nbytes``; returns a Signal for the completion."""
        return self._io(nbytes, self.spec.read_bytes_per_s, self.bytes_read)

    def write(self, nbytes: int) -> Signal:
        """Timed write of ``nbytes`` (space must already be reserved)."""
        return self._io(nbytes, self.spec.write_bytes_per_s, self.bytes_written)

    def _io(self, nbytes: int, bandwidth: float, counter: Counter) -> Signal:
        if nbytes < 0:
            raise ValueError("negative I/O size")
        service_time = self.spec.access_latency_s + nbytes / bandwidth

        def run():
            yield self._queue.acquire()
            yield Timeout(self.sim, service_time)
            self._queue.release()
            counter.add(nbytes)
            return nbytes

        return self.sim.process(run(), name=f"{self.owner}.storage.io")

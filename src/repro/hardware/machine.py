"""The Machine: composition of hardware components plus a power lifecycle.

A :class:`Machine` is one Raspberry Pi board (or one x86 server in the
comparison testbed).  Booting takes the spec's boot time; only a booted
machine runs a host OS, containers, or daemons.  Failure injection
(``fail()`` / ``repair()``) supports the reliability experiments.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.errors import PowerStateError
from repro.hardware.cpu import Cpu
from repro.hardware.memory import Memory
from repro.hardware.power import MachinePowerModel
from repro.hardware.specs import MachineSpec
from repro.hardware.storage import StorageDevice
from repro.sim.kernel import Simulator
from repro.sim.process import Signal, Timeout


class PowerState(enum.Enum):
    """Machine power lifecycle."""

    OFF = "off"
    BOOTING = "booting"
    ON = "on"
    FAILED = "failed"


class Machine:
    """One physical node: CPU + memory + storage + power model.

    The NIC is only its spec's line rate; the fabric models the link.
    """

    def __init__(
        self,
        sim: Simulator,
        spec: MachineSpec,
        machine_id: str,
        rack: Optional[str] = None,
        slot: Optional[int] = None,
    ) -> None:
        self.sim = sim
        self.spec = spec
        self.machine_id = machine_id
        self.rack = rack
        self.slot = slot

        self.cpu = Cpu(sim, spec.cpu, owner=machine_id)
        self.memory = Memory(
            sim, spec.memory, reserved_bytes=spec.os_reserved_bytes, owner=machine_id
        )
        self.storage = StorageDevice(sim, spec.storage, owner=machine_id)
        self.power = MachinePowerModel(sim, spec.power, owner=machine_id)
        if spec.gpu is not None:
            from repro.hardware.gpu import Gpu  # local: avoid import cycle

            self.gpu: Optional[Gpu] = Gpu(sim, spec.gpu, owner=machine_id)
        else:
            self.gpu = None

        self.state = PowerState.OFF
        self.boot_count = 0
        self.failure_count = 0

        # Wire utilisation changes through to the power model.
        original_set = self.cpu.set_utilization

        def set_and_meter(fraction: float) -> None:
            original_set(fraction)
            if self.state is PowerState.ON:
                self.power.on_utilization(fraction)

        self.cpu.set_utilization = set_and_meter  # type: ignore[method-assign]

    # -- power lifecycle ------------------------------------------------------

    @property
    def is_on(self) -> bool:
        return self.state is PowerState.ON

    def boot(self) -> Signal:
        """Power on; the returned Signal fires when the machine is up."""
        if self.state is not PowerState.OFF:
            raise PowerStateError(
                f"{self.machine_id}: cannot boot from state {self.state.value}"
            )
        self.state = PowerState.BOOTING
        self.power.on_power_on()

        def run():
            yield Timeout(self.sim, self.spec.boot_time_s)
            if self.state is not PowerState.BOOTING:
                raise PowerStateError(f"{self.machine_id}: failed during boot")
            self.state = PowerState.ON
            self.boot_count += 1
            return self

        return self.sim.process(run(), name=f"{self.machine_id}.boot")

    def boot_immediately(self) -> None:
        """Skip the boot delay (used when assembling pre-warmed testbeds)."""
        if self.state is not PowerState.OFF:
            raise PowerStateError(
                f"{self.machine_id}: cannot boot from state {self.state.value}"
            )
        self.state = PowerState.ON
        self.boot_count += 1
        self.power.on_power_on()

    def shutdown(self) -> None:
        """Clean power-off.  The caller is responsible for stopping guests."""
        if self.state not in (PowerState.ON, PowerState.BOOTING):
            raise PowerStateError(
                f"{self.machine_id}: cannot shut down from state {self.state.value}"
            )
        self.state = PowerState.OFF
        self.cpu.set_utilization(0.0)
        self.power.on_power_off()

    def fail(self) -> None:
        """Hard failure: instant power loss, state FAILED until repair()."""
        if self.state is PowerState.FAILED:
            return
        self.state = PowerState.FAILED
        self.failure_count += 1
        self.power.on_power_off()
        # A dead board draws no cycles; without this the utilisation
        # telemetry (and placement's cpu_load view) shows a ghost load.
        self.cpu.set_utilization(0.0)

    def repair(self) -> None:
        """Return a failed machine to OFF so it can be booted again."""
        if self.state is not PowerState.FAILED:
            raise PowerStateError(
                f"{self.machine_id}: repair() only valid from FAILED, "
                f"not {self.state.value}"
            )
        self.state = PowerState.OFF

    # -- reporting -------------------------------------------------------------

    def describe(self) -> dict[str, object]:
        """Inventory row for the dashboard and Fig. 1 reproduction."""
        return {
            "id": self.machine_id,
            "spec": self.spec.name,
            "rack": self.rack,
            "slot": self.slot,
            "state": self.state.value,
            "cpu_util": self.cpu.utilization.value,
            "mem_used": self.memory.used,
            "mem_capacity": self.memory.capacity,
            "watts": self.power.current_watts,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Machine {self.machine_id} {self.spec.name} {self.state.value}>"

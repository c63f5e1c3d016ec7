"""Hardware models: machines, CPUs, memory, SD-card storage, NICs, power.

This package is the substitution for the physical Raspberry Pi boards of
the Glasgow PiCloud (and the commodity x86 servers they are compared to in
the paper's Table I).  Each machine is a composition of parameterised
component models whose capacities reproduce the ratios the paper's
arguments rest on: 256/512 MB RAM bounding container density, 100 Mb/s
NICs bounding network throughput, and 3.5 W vs 180 W power draw.
"""

from repro.hardware.catalog import (
    COMMODITY_X86_SERVER,
    RASPBERRY_PI_MODEL_A,
    RASPBERRY_PI_MODEL_B,
    RASPBERRY_PI_MODEL_B_512,
    SPEC_CATALOG,
)
from repro.hardware.cpu import Cpu
from repro.hardware.gpu import Gpu, GpuSpec, VIDEOCORE_IV
from repro.hardware.machine import Machine, PowerState
from repro.hardware.memory import Memory
from repro.hardware.power import MachinePowerModel
from repro.hardware.specs import (
    CpuSpec,
    MachineSpec,
    MemorySpec,
    NicSpec,
    PowerSpec,
    StorageSpec,
)
from repro.hardware.storage import StorageDevice

__all__ = [
    "COMMODITY_X86_SERVER",
    "Cpu",
    "CpuSpec",
    "Gpu",
    "GpuSpec",
    "VIDEOCORE_IV",
    "Machine",
    "MachinePowerModel",
    "MachineSpec",
    "Memory",
    "MemorySpec",
    "NicSpec",
    "PowerSpec",
    "PowerState",
    "RASPBERRY_PI_MODEL_A",
    "RASPBERRY_PI_MODEL_B",
    "RASPBERRY_PI_MODEL_B_512",
    "SPEC_CATALOG",
    "StorageDevice",
    "StorageSpec",
]

"""The hardware catalog: the exact machines the paper builds and compares.

Numbers come straight from the paper where it gives them:

* Raspberry Pi: $35 per board (Table I; Model A is "$25" in §IV),
  3.5 W (Table I), 256 MB RAM on the original Model B (§II-B), later
  doubled to 512 MB at the same price (§IV), 700 MHz BCM2835 ARM11,
  16 GB SanDisk SD card (§II-A), 100 Mb/s Ethernet, no cooling needed.
* Commodity x86 testbed server: $2,000 and 180 W (Table I), needs cooling.

Where the paper is silent (e.g. SD-card throughput, x86 core counts) we
use period-accurate public figures for the class of device; only ratios
matter to the paper's arguments and those are preserved.
"""

from __future__ import annotations

from repro.hardware.gpu import VIDEOCORE_IV
from repro.hardware.specs import (
    CpuSpec,
    MachineSpec,
    MemorySpec,
    NicSpec,
    PowerSpec,
    StorageSpec,
)
from repro.units import gib, mbit_per_s, mhz, mib

_SD_CARD_16GB = StorageSpec(
    capacity_bytes=gib(16),
    read_bytes_per_s=20e6,   # class-10 SD sequential read, ~20 MB/s
    write_bytes_per_s=10e6,  # class-10 SD sequential write, ~10 MB/s
    access_latency_s=2e-3,
    kind="sd-card",
)

_PI_CPU = CpuSpec(clock_hz=mhz(700), cores=1, architecture="armv6")
_PI_NIC = NicSpec(bandwidth_bytes_per_s=mbit_per_s(100))
_PI_POWER = PowerSpec(idle_watts=2.5, peak_watts=3.5, needs_cooling=False)

# Raspbian idle footprint on a 2012-era Model B: the default GPU memory
# split (gpu_mem=64) plus kernel, system daemons and page cache come to
# roughly 150 MB, leaving ~106 MB for guests -- which is why the paper can
# run exactly three ~30 MB idle containers "comfortably" but not a fourth.
_PI_OS_RESERVE = mib(150)

RASPBERRY_PI_MODEL_A = MachineSpec(
    name="raspberry-pi-model-a",
    cpu=_PI_CPU,
    memory=MemorySpec(mib(256)),
    storage=_SD_CARD_16GB,
    nic=NicSpec(bandwidth_bytes_per_s=mbit_per_s(100)),  # via USB adapter
    power=PowerSpec(idle_watts=1.5, peak_watts=2.5, needs_cooling=False),
    unit_cost_usd=25.0,
    boot_time_s=25.0,
    os_reserved_bytes=_PI_OS_RESERVE,
    description="Raspberry Pi Model A: 256 MB, no onboard Ethernet, $25",
    tags=("arm", "pi"),
    gpu=VIDEOCORE_IV,
)

RASPBERRY_PI_MODEL_B = MachineSpec(
    name="raspberry-pi-model-b",
    cpu=_PI_CPU,
    memory=MemorySpec(mib(256)),
    storage=_SD_CARD_16GB,
    nic=_PI_NIC,
    power=_PI_POWER,
    unit_cost_usd=35.0,
    boot_time_s=25.0,
    os_reserved_bytes=_PI_OS_RESERVE,
    description="Raspberry Pi Model B (original): 256 MB, 100 Mb Ethernet, $35",
    tags=("arm", "pi"),
    gpu=VIDEOCORE_IV,
)

RASPBERRY_PI_MODEL_B_512 = RASPBERRY_PI_MODEL_B.with_memory(mib(512))
RASPBERRY_PI_MODEL_B_512 = MachineSpec(
    name="raspberry-pi-model-b-512",
    cpu=_PI_CPU,
    memory=MemorySpec(mib(512)),
    storage=_SD_CARD_16GB,
    nic=_PI_NIC,
    power=_PI_POWER,
    unit_cost_usd=35.0,
    boot_time_s=25.0,
    os_reserved_bytes=_PI_OS_RESERVE,
    description="Raspberry Pi Model B after the RAM doubling: 512 MB, same $35",
    tags=("arm", "pi"),
    gpu=VIDEOCORE_IV,
)

COMMODITY_X86_SERVER = MachineSpec(
    name="commodity-x86-server",
    cpu=CpuSpec(clock_hz=2.4e9, cores=8, architecture="x86-64"),
    memory=MemorySpec(gib(16)),
    storage=StorageSpec(
        capacity_bytes=gib(500),
        read_bytes_per_s=120e6,
        write_bytes_per_s=120e6,
        access_latency_s=8e-3,
        kind="hdd",
    ),
    nic=NicSpec(bandwidth_bytes_per_s=mbit_per_s(1000)),
    power=PowerSpec(idle_watts=110.0, peak_watts=180.0, needs_cooling=True),
    unit_cost_usd=2000.0,
    boot_time_s=120.0,
    os_reserved_bytes=gib(1),
    description="Commodity x86 rack server, the Table I comparison point",
    tags=("x86", "server"),
)

SPEC_CATALOG: dict[str, MachineSpec] = {
    spec.name: spec
    for spec in (
        RASPBERRY_PI_MODEL_A,
        RASPBERRY_PI_MODEL_B,
        RASPBERRY_PI_MODEL_B_512,
        COMMODITY_X86_SERVER,
    )
}

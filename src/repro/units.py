"""Unit conventions and conversion helpers shared across the PiCloud model.

The whole library uses a single, explicit set of base units:

* time        -- seconds on the simulated clock (``float``)
* data size   -- bytes (``int`` where exactness matters, ``float`` in rates)
* bandwidth   -- bytes per second
* CPU work    -- abstract "cycles"; a machine's CPU executes cycles/second
* power       -- watts
* money       -- US dollars

Helpers below convert from the units people actually write (MiB, Mbit/s,
milliseconds) into the base units, so call sites stay readable:
``mbit_per_s(100)`` instead of ``100 * 1e6 / 8``.
"""

from __future__ import annotations

# ---------------------------------------------------------------------------
# Data sizes (base unit: bytes)
# ---------------------------------------------------------------------------

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB


def kib(n: float) -> int:
    """Kibibytes to bytes."""
    return int(n * KIB)


def mib(n: float) -> int:
    """Mebibytes to bytes."""
    return int(n * MIB)


def gib(n: float) -> int:
    """Gibibytes to bytes."""
    return int(n * GIB)


# ---------------------------------------------------------------------------
# Bandwidth (base unit: bytes per second)
# ---------------------------------------------------------------------------


def mbit_per_s(n: float) -> float:
    """Megabits per second to bytes per second."""
    return n * 1e6 / 8.0


def gbit_per_s(n: float) -> float:
    """Gigabits per second to bytes per second."""
    return n * 1e9 / 8.0


# ---------------------------------------------------------------------------
# Time (base unit: seconds)
# ---------------------------------------------------------------------------

US = 1e-6
MS = 1e-3


def usec(n: float) -> float:
    """Microseconds to seconds."""
    return n * US


def msec(n: float) -> float:
    """Milliseconds to seconds."""
    return n * MS


# ---------------------------------------------------------------------------
# CPU work (base unit: cycles).  A 700 MHz ARM11 executes 700e6 cycles/s.
# ---------------------------------------------------------------------------


def mhz(n: float) -> float:
    """Clock rate in MHz to cycles per second."""
    return n * 1e6


def mcycles(n: float) -> float:
    """Millions of cycles to cycles."""
    return n * 1e6


# ---------------------------------------------------------------------------
# Formatting helpers for dashboards and reports
# ---------------------------------------------------------------------------


def fmt_bytes(n: float) -> str:
    """Human-readable byte count, e.g. ``fmt_bytes(3 * MIB) == '3.0 MiB'``."""
    value = float(n)
    for suffix in ("B", "KiB", "MiB", "GiB", "TiB"):
        if abs(value) < 1024.0 or suffix == "TiB":
            return f"{value:.1f} {suffix}" if suffix != "B" else f"{int(value)} B"
        value /= 1024.0
    raise AssertionError("unreachable")

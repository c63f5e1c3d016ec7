"""Which layer of the simulator a profiled function belongs to.

A layer is a set of ``repro`` module prefixes.  Every ``repro`` module
matches at most one prefix; those matching none are ``other``.  Code
outside ``repro`` -- the stdlib, numpy, networkx, builtins and the
benchmark's own loops -- is ``ext``.
"""

from __future__ import annotations

import pstats
from pathlib import PurePath
from typing import Dict, Optional

LAYERS: Dict[str, tuple] = {
    "core": ("repro.core",),
    "sim.kernel": ("repro.sim.kernel",),
    "sim.process": ("repro.sim.process",),
    "netsim.fabric": ("repro.netsim.fabric",),
    "netsim.fairness": ("repro.netsim.fairness",),
    "netsim.link": ("repro.netsim.link",),
    "netsim.cc": ("repro.netsim.cc",),
    "netsim.routing": ("repro.netsim.routing", "repro.netsim.structured",
                       "repro.netsim.topology"),
    "hostos": ("repro.hostos",),
    "virt": ("repro.virt",),
    "mgmt.rest": ("repro.mgmt.rest",),
    "mgmt.monitoring": ("repro.mgmt.monitoring",),
    "mgmt.health": ("repro.mgmt.health", "repro.mgmt.recovery"),
    "mgmt.control": ("repro.mgmt.pimaster", "repro.mgmt.node_daemon",
                     "repro.mgmt.images", "repro.mgmt.distribution",
                     "repro.mgmt.dns", "repro.mgmt.dhcp"),
    "load.engine": ("repro.load.engine", "repro.load.sessions",
                    "repro.load.arrivals"),
    "load.slo": ("repro.load.slo",),
    "telemetry": ("repro.telemetry",),
}
OTHER = "other"
EXT = "ext"
ALL_LAYERS = (*LAYERS, OTHER, EXT)


def module_of(filename: str) -> Optional[str]:
    """``.../repro/netsim/fabric.py`` -> ``repro.netsim.fabric``; None
    for a file outside the ``repro`` package."""
    parts = PurePath(filename).parts
    if "repro" not in parts or not filename.endswith(".py"):
        return None
    start = len(parts) - 1 - parts[::-1].index("repro")
    names = list(parts[start:])
    names[-1] = names[-1][:-3]
    if names[-1] == "__init__":
        names.pop()
    return ".".join(names)


def matching_layers(module: str) -> list:
    """Every layer with a prefix covering ``module`` (at most one)."""
    return [
        layer for layer, prefixes in LAYERS.items()
        if any(module == p or module.startswith(p + ".") for p in prefixes)
    ]


def layer_of(filename: str) -> str:
    module = module_of(filename)
    if module is None:
        return EXT
    found = matching_layers(module)
    return found[0] if found else OTHER


def self_seconds(stats: pstats.Stats) -> Dict[str, float]:
    """Profiled self time per layer; every layer present, zeros included."""
    out = dict.fromkeys(ALL_LAYERS, 0.0)
    for (filename, _, _), (_, _, tottime, _, _) in stats.stats.items():
        out[layer_of(filename)] += tottime
    return out


def shares(self_s: Dict[str, float]) -> Dict[str, float]:
    """Each layer's fraction of the total self time."""
    total = sum(self_s.values())
    return {layer: (s / total if total else 0.0) for layer, s in self_s.items()}

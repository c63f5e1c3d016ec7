"""The module -> layer map and the pstats grouping, on synthetic profiles."""

from pathlib import Path
from types import SimpleNamespace

import pytest

import layers

SRC = Path(__file__).resolve().parent.parent / "src"


def _profile(self_times):
    """A stand-in for ``pstats.Stats``: only ``.stats`` is read."""
    return SimpleNamespace(stats={
        (filename, 1, f"f{i}"): (1, 1, tottime, tottime, {})
        for i, (filename, tottime) in enumerate(self_times.items())
    })


def test_every_repro_module_maps_to_exactly_one_layer():
    files = sorted((SRC / "repro").rglob("*.py"))
    assert files
    for path in files:
        module = layers.module_of(str(path))
        assert module is not None and module.startswith("repro"), path
        assert len(layers.matching_layers(module)) <= 1, module
        assert layers.layer_of(str(path)) != layers.EXT, module


@pytest.mark.parametrize("filename, layer", [
    ("/x/src/repro/netsim/fabric.py", "netsim.fabric"),
    ("/x/src/repro/netsim/structured.py", "netsim.routing"),
    ("/x/src/repro/mgmt/recovery.py", "mgmt.health"),
    ("/x/src/repro/hostos/__init__.py", "hostos"),
    ("/x/src/repro/telemetry/stats.py", "telemetry"),
    ("/x/src/repro/placement/policies.py", "other"),
    ("/usr/lib/python3.11/heapq.py", "ext"),
    ("~", "ext"),
])
def test_layer_of(filename, layer):
    assert layers.layer_of(filename) == layer


def test_unknown_module_lands_in_other_instead_of_being_dropped():
    profile = _profile({
        "/x/src/repro/brand_new/module.py": 0.25,
        "/x/src/repro/sim/kernel.py": 0.75,
    })
    self_s = layers.self_seconds(profile)
    assert self_s["other"] == pytest.approx(0.25)
    assert sum(self_s.values()) == pytest.approx(1.0)


def test_shares_sum_to_one_and_every_layer_is_reported():
    profile = _profile({
        "/x/src/repro/load/slo.py": 3.0,
        "/x/src/repro/netsim/cc.py": 1.0,
        "/x/src/repro/apps/http.py": 0.5,
        "~": 0.5,
    })
    shares = layers.shares(layers.self_seconds(profile))
    assert set(shares) == set(layers.ALL_LAYERS)
    assert sum(shares.values()) == pytest.approx(1.0)
    assert shares["load.slo"] == pytest.approx(0.6)
    assert shares["ext"] == pytest.approx(0.1)

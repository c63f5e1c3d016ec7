"""Shared fixtures and helpers for the reproduction benchmarks.

Each benchmark reproduces one table/figure of the paper (see DESIGN.md's
per-experiment index).  Benchmarks both *assert* the paper's qualitative
shape (who wins, by roughly what factor) and *print* the regenerated
table so ``pytest benchmarks/ --benchmark-only -s`` shows the artefacts.
Timing numbers from pytest-benchmark measure the simulator itself.
"""

import pytest

from repro.core import PiCloud, PiCloudConfig


def build_small_cloud(**overrides) -> PiCloud:
    """A 2x3 cloud for experiments that sweep many configurations."""
    defaults = dict(racks=2, pis=3, start_monitoring=False, routing="shortest")
    defaults.update(overrides)
    cloud = PiCloud(PiCloudConfig.small(**defaults))
    cloud.boot()
    return cloud


def build_paper_cloud(**overrides) -> PiCloud:
    """The paper's 4x14 deployment."""
    config = PiCloudConfig(start_monitoring=False, **overrides)
    cloud = PiCloud(config)
    cloud.boot()
    return cloud


def spawn_and_wait(cloud, image, **kwargs):
    signal = cloud.spawn(image, **kwargs)
    cloud.run_until_signal(signal)
    assert signal.triggered, "spawn did not complete"
    return signal.value


@pytest.fixture
def small_cloud():
    return build_small_cloud()

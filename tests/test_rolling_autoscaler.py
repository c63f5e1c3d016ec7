"""Tests for the autoscaler."""

import pytest

from repro.core import PiCloud, PiCloudConfig
from repro.mgmt.autoscaler import Autoscaler, AutoscalerConfig


@pytest.fixture
def cloud():
    config = PiCloudConfig.small(
        racks=2, pis=3, start_monitoring=False, routing="shortest"
    )
    cloud = PiCloud(config)
    cloud.boot()
    return cloud


def wait(cloud, signal):
    cloud.run_until_signal(signal)
    assert signal.triggered
    return signal.value


class TestAutoscalerConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            AutoscalerConfig(image="x", group="g", min_replicas=0)
        with pytest.raises(ValueError):
            AutoscalerConfig(image="x", group="g", min_replicas=3, max_replicas=2)
        with pytest.raises(ValueError):
            AutoscalerConfig(image="x", group="g", low_watermark=0.9,
                             high_watermark=0.5)
        with pytest.raises(ValueError):
            AutoscalerConfig(image="x", group="g", interval_s=0.0)


class TestAutoscaler:
    def _autoscaler(self, cloud, **overrides):
        cloud.pimaster.monitoring.start()
        defaults = dict(
            image="base", group="svc", min_replicas=1, max_replicas=3,
            high_watermark=0.8, low_watermark=0.1,
            interval_s=5.0, cooldown_s=10.0,
        )
        defaults.update(overrides)
        scaler = Autoscaler(cloud.pimaster, AutoscalerConfig(**defaults))
        scaler.start()
        return scaler

    def test_maintains_minimum_replicas(self, cloud):
        scaler = self._autoscaler(cloud, min_replicas=2)
        # Two sequential cold spawns push ~200 MiB each: give them room.
        cloud.run_for(300.0)
        assert len(scaler.replicas()) == 2
        assert all(e.action == "out" for e in scaler.events)
        scaler.stop()
        cloud.pimaster.monitoring.stop()

    def test_scales_out_under_load(self, cloud):
        scaler = self._autoscaler(cloud)
        cloud.run_for(90.0)  # the cold image push takes ~60s
        assert len(scaler.replicas()) == 1
        # Saturate the replica's host so polled load goes to 1.0.
        replica = scaler.replicas()[0]
        cloud.kernels[replica.node_id].submit(700e6 * 10_000)
        cloud.run_for(300.0)
        assert len(scaler.replicas()) >= 2
        assert any(e.action == "out" and e.observed_load > 0.5
                   for e in scaler.events)
        scaler.stop()
        cloud.pimaster.monitoring.stop()

    def test_scales_in_when_idle(self, cloud):
        scaler = self._autoscaler(cloud, min_replicas=1)
        cloud.run_for(60.0)
        # Force an extra replica, then let the idle loop remove it.
        wait(cloud, cloud.pimaster.spawn_container(
            "base", name="svc-extra", group="svc"
        ))
        assert len(scaler.replicas()) == 2
        cloud.run_for(300.0)
        assert len(scaler.replicas()) == 1
        assert any(e.action == "in" for e in scaler.events)
        scaler.stop()
        cloud.pimaster.monitoring.stop()

    def test_respects_max_replicas(self, cloud):
        scaler = self._autoscaler(cloud, max_replicas=2)
        cloud.run_for(60.0)
        for record in scaler.replicas():
            cloud.kernels[record.node_id].submit(700e6 * 10_000)
        cloud.run_for(600.0)
        assert len(scaler.replicas()) <= 2
        scaler.stop()
        cloud.pimaster.monitoring.stop()

    def test_replicas_spread_by_anti_affinity(self, cloud):
        scaler = self._autoscaler(cloud, min_replicas=3)
        cloud.run_for(240.0)
        nodes = {r.node_id for r in scaler.replicas()}
        assert len(nodes) == 3
        scaler.stop()
        cloud.pimaster.monitoring.stop()

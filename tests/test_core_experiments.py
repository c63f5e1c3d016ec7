"""Tests for the public experiment scenarios (repro.core.experiments)."""

import pytest

from repro.core import PiCloud, PiCloudConfig
from repro.core.experiments import chatty_pairs, elephant_storm


@pytest.fixture
def cloud():
    config = PiCloudConfig.small(
        racks=2, pis=2, start_monitoring=False, routing="shortest"
    )
    cloud = PiCloud(config)
    cloud.boot()
    return cloud


class TestElephantStorm:
    def test_storm_completes_and_reports(self, cloud):
        result = elephant_storm(cloud, flows=4, size_bytes=1e6)
        assert result["failed"] == 0
        assert result["completion_s"] > 0
        assert result["mean_throughput"] > 0
        assert set(result["roots_used"]) <= {"agg0", "agg1"}

    def test_static_routing_uses_one_root(self, cloud):
        result = elephant_storm(cloud, flows=4, size_bytes=1e6)
        assert len(result["roots_used"]) == 1  # shortest-path pins a root


class TestChattyPairs:
    def test_pairs_generate_traffic(self, cloud):
        for index, node in enumerate(["pi-r0-n0", "pi-r1-n0"]):
            signal = cloud.spawn("base", name=f"c{index}", node_id=node)
            cloud.run_until_signal(signal)
        sources = chatty_pairs(cloud, [("c0", "c1")], rate_per_s=10.0)
        delivered_before = cloud.network.bytes_delivered.total
        cloud.run_for(30.0)
        for source in sources:
            source.stop()
        assert cloud.network.bytes_delivered.total > delivered_before
        assert sources[0].messages_sent > 0


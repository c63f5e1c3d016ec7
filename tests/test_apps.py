"""Integration tests for application workloads on a small PiCloud."""

import random

import pytest

from repro.apps import (
    HttpClientApp,
    HttpServerApp,
    MapReduceJob,
    OnOffTrafficSource,
    pareto_size,
    poisson_wait,
)
from repro.core import PiCloud, PiCloudConfig
from repro.sim import Simulator
from repro.units import kib, mib


@pytest.fixture(scope="module")
def cloud():
    """One booted cloud shared by this module (containers vary per test)."""
    config = PiCloudConfig.small(
        racks=2, pis=3, start_monitoring=False, routing="shortest"
    )
    cloud = PiCloud(config)
    cloud.boot()
    return cloud


def spawn(cloud, image, name, node_id=None):
    signal = cloud.spawn(image, name=name, node_id=node_id)
    cloud.sim.run(until=cloud.sim.now + 3600)
    assert signal.triggered, f"spawn of {name} did not finish"
    record = signal.value
    return cloud.container(record.name)


class TestTrafficPrimitives:
    def test_poisson_wait_positive(self):
        rng = random.Random(1)
        waits = [poisson_wait(rng, 10.0) for _ in range(1000)]
        assert all(w > 0 for w in waits)
        assert sum(waits) / len(waits) == pytest.approx(0.1, rel=0.2)

    def test_poisson_wait_validation(self):
        with pytest.raises(ValueError):
            poisson_wait(random.Random(), 0.0)

    def test_pareto_heavy_tail(self):
        rng = random.Random(2)
        sizes = [pareto_size(rng, alpha=1.2, minimum=1000.0) for _ in range(5000)]
        assert min(sizes) >= 1000.0
        assert max(sizes) > 20 * 1000.0  # the tail is really heavy

    def test_onoff_source_alternates(self):
        sim = Simulator()
        sent = []
        source = OnOffTrafficSource(
            sim, random.Random(4), send=lambda: sent.append(sim.now),
            on_mean_s=1.0, off_mean_s=1.0, rate_per_s=20.0, duration_s=30.0,
        )
        sim.run(until=40.0)
        assert source.messages_sent == len(sent) > 0
        assert source.on_periods >= 2
        # Bursts: some gaps far exceed the in-burst spacing.
        gaps = [b - a for a, b in zip(sent, sent[1:])]
        assert max(gaps) > 5 * (1.0 / 20.0)


class TestHttp:
    def test_fetch_roundtrip(self, cloud):
        server_c = spawn(cloud, "webserver", "http-s1", node_id="pi-r0-n0")
        server = HttpServerApp(server_c)
        client = HttpClientApp(
            cloud.kernels["pi-r1-n0"].netstack, server_c.ip,
            response_bytes=kib(16),
        )
        fetch = client.fetch("/index.html")
        cloud.run_for(60.0)
        assert fetch.triggered
        latency = fetch.value
        assert latency > 0
        assert server.requests_served.total == 1
        server.stop()

    def test_closed_loop_completes_requests(self, cloud):
        server_c = spawn(cloud, "webserver", "http-s2", node_id="pi-r0-n1")
        server = HttpServerApp(server_c)
        client = HttpClientApp(
            cloud.kernels["pi-r1-n1"].netstack, server_c.ip,
            rng=random.Random(5),
        )
        run = client.run_closed_loop(workers=4, duration_s=20.0, think_time_s=0.05)
        cloud.run_for(120.0)
        assert run.triggered
        summary = run.value
        assert summary["completed"] > 20
        assert summary["latency_p99"] >= summary["latency_p50"] > 0
        server.stop()

    def test_open_loop_poisson(self, cloud):
        server_c = spawn(cloud, "webserver", "http-s3", node_id="pi-r0-n2")
        server = HttpServerApp(server_c)
        client = HttpClientApp(
            cloud.kernels["pi-r1-n2"].netstack, server_c.ip,
            rng=random.Random(6), response_bytes=kib(4),
        )
        run = client.run_open_loop(rate_per_s=10.0, duration_s=10.0)
        cloud.run_for(120.0)
        assert run.triggered
        assert run.value["completed"] > 50
        server.stop()

    def test_cpu_contention_stretches_latency(self, cloud):
        """A busy co-tenant on the same Pi slows HTTP service (cross-layer)."""
        server_c = spawn(cloud, "webserver", "http-s4", node_id="pi-r1-n0")
        hog_c = spawn(cloud, "base", "hog-1", node_id="pi-r1-n0")
        server = HttpServerApp(server_c)
        client = HttpClientApp(
            cloud.kernels["pi-r0-n0"].netstack, server_c.ip,
            rng=random.Random(7),
        )
        quiet = client.fetch("/")
        cloud.run_for(30.0)
        quiet_latency = quiet.value
        # Saturate the host CPU with the hog container.
        hog_c.execute(700e6 * 1000, name="cpu-hog")  # 1000s of CPU work
        loaded = client.fetch("/")
        cloud.run_for(30.0)
        loaded_latency = loaded.value
        assert loaded_latency > 1.5 * quiet_latency
        server.stop()


class TestMapReduce:
    def _workers(self, cloud, n, prefix):
        nodes = ["pi-r0-n0", "pi-r0-n1", "pi-r1-n0", "pi-r1-n1"]
        return [
            spawn(cloud, "hadoop-worker", f"{prefix}-{i}", node_id=nodes[i % len(nodes)])
            for i in range(n)
        ]

    def test_job_runs_all_phases(self, cloud):
        workers = self._workers(cloud, 4, "mr1")
        job = MapReduceJob(workers, input_bytes=mib(32), split_bytes=mib(8))
        run = job.run()
        cloud.run_for(3600.0)
        assert run.triggered
        report = run.value
        assert report.splits == 4
        assert report.read_s > 0 and report.map_s > 0
        assert report.shuffle_s > 0 and report.reduce_s > 0
        assert report.total_s == pytest.approx(
            report.read_s + report.map_s + report.shuffle_s + report.reduce_s
        )
        for worker in workers:
            run2 = cloud.pimaster.destroy_container(worker.name)
            cloud.run_for(60.0)

    def test_cross_rack_workers_shuffle_over_fabric(self, cloud):
        workers = self._workers(cloud, 4, "mr2")
        job = MapReduceJob(workers, input_bytes=mib(16), split_bytes=mib(4))
        run = job.run()
        cloud.run_for(3600.0)
        report = run.value
        assert report.cross_host_shuffle_bytes > 0
        assert report.shuffle_bytes >= report.cross_host_shuffle_bytes
        for worker in workers:
            cloud.pimaster.destroy_container(worker.name)
            cloud.run_for(60.0)

    def test_validation(self, cloud):
        with pytest.raises(Exception):
            MapReduceJob([], input_bytes=mib(1))

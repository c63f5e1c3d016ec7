"""Experiment C7 -- the "toy device?" workload envelope (§IV).

"We are therefore currently limited to a subset of software (lightweight
httpd servers, hadoop etc.) at the application layer."  We quantify that
envelope: the Pi serves lightweight HTTP fine, its 700 MHz core bounds
MapReduce compute, and the same workload on the x86 spec shows the
(linear-ish) hardware-capacity scaling the paper's scale-model argument
depends on.
"""

import random

import pytest

from repro.apps import HttpClientApp, HttpServerApp, MapReduceJob
from repro.core import PiCloud, PiCloudConfig
from repro.hardware import COMMODITY_X86_SERVER
from repro.telemetry.stats import format_table
from repro.units import kib, mib

from conftest import build_small_cloud


def test_lightweight_httpd_works_on_pi():
    """The Pi sustains a lightweight HTTP load with sane tail latency."""
    cloud = build_small_cloud()
    record = cloud.spawn_and_wait("webserver", name="web", node_id="pi-r0-n0")
    server = HttpServerApp(cloud.container("web"),
                           default_response_bytes=kib(8))
    client = HttpClientApp(
        cloud.kernels["pi-r1-n0"].netstack, record.ip,
        response_bytes=kib(8), rng=random.Random(3),
    )

    def load():
        run = client.run_closed_loop(workers=8, duration_s=30.0,
                                     think_time_s=0.05)
        cloud.sim.run(until=cloud.sim.now + 600.0)
        return run.value

    summary = load()
    throughput = summary["completed"] / 30.0
    print(f"\nPi httpd: {throughput:.0f} req/s, "
          f"p50 {summary['latency_p50'] * 1e3:.1f} ms, "
          f"p99 {summary['latency_p99'] * 1e3:.1f} ms")
    assert throughput > 20.0                     # usable as a web server
    assert summary["latency_p99"] < 1.0          # and not collapsing
    server.stop()


def test_mapreduce_is_compute_bound_on_pi():
    """On 700 MHz cores, map+reduce dominates the job (the Pi's limit)."""
    cloud = build_small_cloud()
    workers = []
    for index, node in enumerate(["pi-r0-n0", "pi-r0-n1", "pi-r1-n0",
                                  "pi-r1-n1"]):
        record = cloud.spawn_and_wait("hadoop-worker", name=f"w{index}",
                                      node_id=node)
        workers.append(cloud.container(record.name))

    def job():
        run = MapReduceJob(workers, input_bytes=mib(32),
                           split_bytes=mib(8), reducers=2).run()
        cloud.sim.run(until=cloud.sim.now + 7200.0)
        return run.value

    report = job()
    compute = report.map_s + report.reduce_s
    io = report.read_s + report.shuffle_s
    print(f"\nPi MapReduce 32 MiB: compute {compute:.1f}s vs I/O {io:.1f}s "
          f"(total {report.total_s:.1f}s)")
    assert compute > io  # the ARM core, not the fabric, is the bottleneck


def test_hardware_scaling_pi_vs_x86():
    """The same CPU-bound work, Pi spec vs x86 spec: the capacity ratio
    matches the hardware catalog (scale-model linearity)."""
    work_cycles = 700e6 * 20  # 20 s on one Pi core

    def run_on(spec_name):
        config = (
            PiCloudConfig.small(racks=1, pis=1, start_monitoring=False)
            if spec_name == "pi"
            else PiCloudConfig.small(
                racks=1, pis=1, start_monitoring=False,
                machine_spec=COMMODITY_X86_SERVER,
            )
        )
        cloud = PiCloud(config)
        cloud.boot()
        task = cloud.kernels["pi-r0-n0"].submit(work_cycles)
        cloud.run_for(3600.0)
        assert task.finished
        return task.duration

    pi_time = run_on("pi")
    x86_time = run_on("x86")

    ratio = pi_time / x86_time
    expected = COMMODITY_X86_SERVER.cpu.capacity_cycles_per_s / 700e6
    print(f"\nCPU-bound job: Pi {pi_time:.1f}s vs x86 {x86_time:.2f}s "
          f"(ratio {ratio:.1f}x, hardware ratio {expected:.1f}x)")
    assert ratio == pytest.approx(expected, rel=1e-6)


def test_pi_saturates_before_x86():
    """Open-loop overload: the Pi's httpd saturates at a rate the x86
    spec absorbs -- quantifying 'limited to a subset of software'."""
    def saturation_latency(machine_spec_name, rate):
        overrides = {}
        if machine_spec_name == "x86":
            overrides["machine_spec"] = COMMODITY_X86_SERVER
        cloud = build_small_cloud(racks=1, pis=2, **overrides)
        record = cloud.spawn_and_wait("webserver", name="web",
                                      node_id="pi-r0-n0")
        HttpServerApp(cloud.container("web"), default_response_bytes=kib(4))
        client = HttpClientApp(
            cloud.kernels["pi-r0-n1"].netstack, record.ip,
            response_bytes=kib(4), rng=random.Random(9),
        )
        run = client.run_open_loop(rate_per_s=rate, duration_s=20.0)
        cloud.sim.run(until=cloud.sim.now + 1200.0)
        return run.value["latency_p99"]

    rate = 60.0  # beyond one 700 MHz core's service capacity
    pi_p99 = saturation_latency("pi", rate)
    x86_p99 = saturation_latency("x86", rate)
    print(f"\nopen-loop {rate:.0f} req/s: Pi p99 {pi_p99:.3f}s vs "
          f"x86 p99 {x86_p99:.3f}s")
    assert pi_p99 > 3 * x86_p99  # the Pi is queueing, the x86 is not

"""Every workload, at reduced size, is deterministic across interpreters;
phase times are scaled by the sampled host speed."""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import workloads

HERE = Path(__file__).resolve().parent

SMALL = {
    "consolidation_896": dict(racks=4, pis=4, k=4, pairs=1, warmup_s=5.0,
                              settle_s=10.0),
    "flashcrowd_224": dict(racks=4, pis=4, k=4, replicas=4, base_rate=20.0,
                           peak_rate=400.0, hold_s=20.0),
    "partition_64": dict(racks=4, pis=4, k=4, load_s=90.0,
                         cuts=((0, 5.0, 30.0),)),
    "incast_dctcp_224": dict(k=4, hosts=16, senders=8, flow_bytes=5e4,
                             duration_s=0.5, slice_s=0.05),
}


def _rep_in_fresh_interpreter(name, hash_seed):
    code = (
        "import json, sys, workloads\n"
        f"print(json.dumps(workloads.run_rep({name!r}, 5, **{SMALL[name]!r})))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=HERE, capture_output=True,
        text=True, timeout=60,
        env=dict(os.environ, PYTHONHASHSEED=str(hash_seed)),
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("name", sorted(SMALL))
def test_small_workload_is_deterministic_and_passes_its_checks(name):
    first = _rep_in_fresh_interpreter(name, 1)
    second = _rep_in_fresh_interpreter(name, 2)
    assert first["problems"] == [] and second["problems"] == []
    assert first["outputs_sha256"] == second["outputs_sha256"]
    assert first["counts"] == second["counts"]
    assert first["ops"] == second["ops"] > 0
    assert first["counts"]["sim.events"] > 0


def test_scaled_time_divides_out_the_host_speed_of_each_window():
    ref, window = workloads.REFERENCE_LOOP_S, workloads.WINDOW_S
    speed = workloads.HostSpeed()
    assert speed.scaled(0.0, 1.0) == 1.0  # nothing sampled: host time
    # Half speed in the first window, full speed in the second.
    speed.loops = [(0.01, 2 * ref), (0.02, 2 * ref), (window + 0.01, ref)]
    assert speed.scaled(0.0, 2 * window) == pytest.approx(
        (window - 4 * ref) / 2 + (window - ref))
    # A window without a loop takes the whole interval's speed.
    assert speed.scaled(0.0, 3 * window) == pytest.approx(
        (window - 4 * ref) / 2 + (window - ref) + window * 3 / 5)


def test_host_speed_samples_only_while_active():
    rec = workloads.Recorder()
    with rec.speed:
        with rec.span("busy"):
            deadline = time.perf_counter() + 0.1
            while time.perf_counter() < deadline:
                pass
    (busy,) = rec.spans
    assert rec.speed.loops and busy["sampled_s"] == rec.speed.seconds > 0.0
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_outputs_do_not_depend_on_the_slice_length():
    digests = {
        workloads.run_rep("partition_64", 5, slice_s=slice_s,
                          **SMALL["partition_64"])["outputs_sha256"]
        for slice_s in (0.5, 2.0)
    }
    assert len(digests) == 1

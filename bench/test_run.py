"""The output check: digests, counts and the committed reference."""

import cProfile
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
import workloads

HERE = Path(__file__).resolve().parent


def _record(sha="a" * 64, events=10, problems=()):
    return {"outputs_sha256": sha, "counts": {"sim.events": events},
            "problems": list(problems)}


def test_agreeing_reps_pass():
    assert run.check([_record(), _record(), _record()], None) == [[], [], []]


def test_odd_digest_or_count_fails_only_that_rep():
    verdicts = run.check(
        [_record(), _record(sha="b" * 64), _record(events=11)], None)
    assert verdicts[0] == []
    assert "digest" in verdicts[1][0]
    assert verdicts[2] == ["layer counts differ between reps"]


def test_reference_digest_overrides_agreement():
    verdicts = run.check([_record(), _record()], "c" * 64)
    assert all("digest" in why[0] for why in verdicts)


def test_workload_problems_fail_the_rep():
    assert run.check([_record(problems=["flows failed"])], None) \
        == [["flows failed"]]


def test_reported_metrics_are_the_ones_benchmark_json_declares(tmp_path):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for phase in ("setup", "run"):
        profiler = cProfile.Profile()
        profiler.enable()
        sum(range(1000))
        profiler.disable()
        profiler.dump_stats(str(tmp_path / f"w.{phase}.pstats"))
    record = {
        "setup_s": 1.0, "run_s": 2.0, "host_setup_s": 1.1, "host_run_s": 2.2,
        "peak_rss_mb": 50.0,
        "counts": dict.fromkeys(workloads.COUNT_NAMES, 1),
        "spans": [{"name": "slice", "start": 0.0, "end": 0.01,
                   "parent": None, "sampled_s": 0.0}] * 3,
    }
    per_layer, _ = run.layer_metrics([record], record, tmp_path, "w")

    def units(metrics):
        return {name: metric["unit"] for name, metric in metrics.items()}

    assert units(run.e2e_metrics([record])) == units(
        {m["name"]: m for m in spec["end_to_end"]})
    assert units(per_layer) == units({m["name"]: m for m in spec["per_layer"]})


def test_tampered_reference_digest_makes_the_command_fail(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        shutil.copy(path, bench)
    (tmp_path / "src").symlink_to(HERE.parent / "src")
    (bench / "reference.json").write_text(json.dumps(
        {"incast_dctcp_224": {"42": "0" * 64}}))
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload",
         "incast_dctcp_224", "--reps", "1", "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert last["correct"] is False
    assert last["failed"] == last["attempted"] > 0
    assert "CHECK FAILED" in proc.stdout


def test_without_the_library_the_command_fails_without_a_result(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        shutil.copy(path, bench)
    shutil.copy(HERE / "reference.json", bench)
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload",
         "flashcrowd_224", "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

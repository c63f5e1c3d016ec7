"""Run the simulator benchmark and check its outputs.

    python3 bench/run.py [--workload NAME]... [--seed N] [--reps R]
                         [--seconds S] [--trace [0|1]] [--out DIR]

Each rep is one fresh interpreter (``workloads.py``) under its own
``PYTHONHASHSEED``, run one at a time.  A workload runs at least
``--reps`` reps, and more while another should end within ``--seconds``
of wall time.  End-to-end metrics are medians over reps; ``setup_s``
and ``run_s`` are phase times scaled to a reference host speed
(``workloads.py`` says how), and ``host_setup_s`` and ``host_run_s``,
printed and in ``results.json``, are the same unscaled.  Every rep must
reproduce the same outputs digest and layer counts, pass its workload's
output checks, and match ``reference.json`` where that records the
seed.  ``--trace`` adds one rep profiled per phase and puts the
per-layer metrics in the result line instead of the end-to-end ones.

Every metric is printed by name with its unit; ``DIR/results.json``
holds everything measured.  The last line of output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
only if every check passed, and 2, with no result line, if a rep could
not run at all.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import pstats
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

import layers
from workloads import WORKLOADS, span_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
# No new rep starts once one could end past this, and a rep is killed
# GRACE_S after it, so a run of one workload exits within three minutes.
DEADLINE_S = 140.0
GRACE_S = 25.0
DEFAULT_SEEDS = {name: seed for name, (_, seed) in WORKLOADS.items()}

E2E_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MiB"}
# Phase times as measured, before scaling to the reference host speed.
HOST_UNITS = {"host_setup_s": "s", "host_run_s": "s"}
SPANS = {  # metric -> benchmark span whose per-rep total it reports
    "core.construct_s": "construct",
    "core.boot_s": "boot",
    "mgmt.warm_s": "warm",
    "mgmt.deploy_s": "deploy",
}
# Units of the counts that are not plain counts.
COUNT_UNITS = {"mgmt.rest_failed_frac": "ratio",
               "netsim.flows_per_recompute": "flows/recompute"}


class RepFailed(RuntimeError):
    """A rep's process failed: there is nothing to measure or check."""


def run_rep(workload: str, seed: int, hash_seed: int, deadline: float,
            profile_dir: Optional[Path] = None) -> Dict[str, Any]:
    cmd = [sys.executable, str(HERE / "workloads.py"), workload,
           "--seed", str(seed)]
    if profile_dir is not None:
        cmd += ["--profile", str(profile_dir)]
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    try:
        proc = subprocess.run(
            cmd, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise RepFailed(f"{workload} rep timed out") from None
    if proc.returncode != 0:
        raise RepFailed(f"{workload} rep exited {proc.returncode}:\n"
                        f"{proc.stderr[-2000:]}")
    record = json.loads(proc.stdout.splitlines()[-1])
    record["hash_seed"] = hash_seed
    return record


def check(records: List[Dict[str, Any]],
          reference: Optional[str]) -> List[List[str]]:
    """Per rep, why its outputs are wrong (empty when they are right).

    Without a reference digest, the digest most reps agree on is taken
    as expected, and likewise for the layer counts.
    """
    expected = reference or collections.Counter(
        r["outputs_sha256"] for r in records).most_common(1)[0][0]
    counts = collections.Counter(
        json.dumps(r["counts"], sort_keys=True) for r in records
    ).most_common(1)[0][0]
    verdicts = []
    for r in records:
        why = list(r["problems"])
        if r["outputs_sha256"] != expected:
            why.append(f"outputs digest {r['outputs_sha256'][:12]} != "
                       f"expected {expected[:12]}")
        if json.dumps(r["counts"], sort_keys=True) != counts:
            why.append("layer counts differ between reps")
        verdicts.append(why)
    return verdicts


def _p(values: List[float], q: int) -> float:
    """The q-th percentile (inclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def e2e_metrics(records, units=E2E_UNITS) -> Dict[str, Dict[str, Any]]:
    return {
        name: {"value": statistics.median(r[name] for r in records),
               "unit": unit}
        for name, unit in units.items()
    }


def layer_metrics(records, profiled, profile_dir: Path, workload: str):
    """Counts, span timings and per-layer self times of a traced run,
    plus the per-phase layer breakdown for ``layers.json``."""
    out: Dict[str, Dict[str, Any]] = {}
    for name, value in records[0]["counts"].items():
        out[name] = {"value": value, "unit": COUNT_UNITS.get(name, "count")}
    for metric, span in SPANS.items():
        out[metric] = {"value": statistics.median(
            sum(span_seconds(r["spans"], span)) for r in records),
            "unit": "s"}
    deploy_ops = [s for r in records
                  for s in span_seconds(r["spans"], "deploy_op")]
    slices = [s for r in records for s in span_seconds(r["spans"], "slice")]
    out["mgmt.deploy_op_p50_ms"] = {
        "value": _p(deploy_ops, 50) * 1e3 if deploy_ops else 0.0,
        "unit": "ms", "n": len(deploy_ops)}
    for q in (50, 90):
        out[f"sim.slice_p{q}_ms"] = {"value": _p(slices, q) * 1e3,
                                     "unit": "ms", "n": len(slices)}
    run_s = statistics.median(r["run_s"] for r in records)
    out["sim.events_per_s"] = {"value": records[0]["counts"]["sim.events"]
                               / run_s, "unit": "1/s"}

    # cProfile inflates host time unevenly, so it supplies only each
    # layer's share; the unprofiled median phase time scales it.
    breakdown: Dict[str, Any] = {}
    for phase in ("setup", "run"):
        stats = pstats.Stats(str(profile_dir / f"{workload}.{phase}.pstats"))
        self_s = layers.self_seconds(stats)
        shares = layers.shares(self_s)
        phase_s = statistics.median(r[f"{phase}_s"] for r in records)
        breakdown[phase] = {
            layer: {"profiled_self_s": self_s[layer], "share": shares[layer],
                    "self_s": shares[layer] * phase_s}
            for layer in layers.ALL_LAYERS
        }
        for layer in layers.ALL_LAYERS:
            out[f"{layer}.{phase}_self_s"] = {
                "value": shares[layer] * phase_s, "unit": "s"}
    unprofiled = (statistics.median(r["host_setup_s"] for r in records)
                  + statistics.median(r["host_run_s"] for r in records))
    out["trace_overhead"] = {
        "value": (profiled["host_setup_s"] + profiled["host_run_s"])
        / unprofiled,
        "unit": "ratio"}
    return out, breakdown


def chrome_trace(records) -> Dict[str, Any]:
    """The benchmark's own spans, one process row per rep."""
    events = []
    for pid, record in enumerate(records):
        t0 = record["spans"][0]["start"]
        for index, span in enumerate(record["spans"]):
            events.append({
                "name": span["name"], "ph": "X", "pid": pid, "tid": 0,
                "ts": (span["start"] - t0) * 1e6,
                "dur": (span["end"] - span["start"]) * 1e6,
                "args": {"id": index, "parent": span["parent"]},
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def run_workload(workload: str, seed: int, reps: int, seconds: float,
                 trace: bool, out_dir: Path) -> Dict[str, Any]:
    reference = json.loads(REFERENCE.read_text()).get(workload, {}).get(
        str(seed))
    start = time.monotonic()
    deadline = start + DEADLINE_S
    profile_dir = out_dir / "profiles"
    profiled = run_rep(workload, seed, 0, deadline + GRACE_S,
                       profile_dir=profile_dir) if trace else None
    records: List[Dict[str, Any]] = []
    longest = 0.0
    # After the first ``reps``, a rep starts only if it should end in time.
    while (len(records) < reps
           or time.monotonic() - start + longest < seconds):
        if time.monotonic() + longest > deadline:
            break
        began = time.monotonic()
        records.append(run_rep(workload, seed, len(records) + 1,
                               deadline + GRACE_S))
        longest = max(longest, time.monotonic() - began)
    checked = records + ([profiled] if trace else [])
    verdicts = check(checked, reference)
    attempted = sum(r["ops"] for r in checked)
    failed = sum(r["ops"] for r, why in zip(checked, verdicts) if why)
    result = {
        "workload": workload,
        "seed": seed,
        "reps": len(records),
        "outputs_sha256": records[0]["outputs_sha256"],
        "reference_sha256": reference,
        "problems": sorted({w for why in verdicts for w in why}),
        "correct": not any(verdicts),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "metrics": e2e_metrics(records),
        "host_metrics": e2e_metrics(records, HOST_UNITS),
        "records": checked,
    }
    if trace:
        result["layer_metrics"], result["layers"] = layer_metrics(
            records, profiled, profile_dir, workload)
        (out_dir / f"{workload}.trace.json").write_text(
            json.dumps(chrome_trace(records)))
    return result


def _print(result: Dict[str, Any]) -> None:
    print(f"== {result['workload']}  seed {result['seed']}  "
          f"reps {result['reps']}  outputs {result['outputs_sha256'][:16]}"
          + ("" if result["reference_sha256"] else "  (no reference)"))
    rows = dict(result["metrics"])
    rows.update(result["host_metrics"])
    rows["failed_frac"] = {"value": result["failed_frac"], "unit": "ratio"}
    rows.update(result.get("layer_metrics", {}))
    for name, metric in rows.items():
        n = f"  (n={metric['n']})" if "n" in metric else ""
        print(f"  {name:34s} {metric['value']:>16.6g} {metric['unit']}{n}")
    for problem in result["problems"]:
        print(f"  CHECK FAILED: {problem}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append",
                        choices=sorted(WORKLOADS),
                        help="repeatable; default: every workload")
    parser.add_argument("--seed", type=int, default=None,
                        help="default: each workload's own seed")
    parser.add_argument("--reps", type=int, default=3,
                        help="minimum reps per workload (default 3)")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="keep adding reps until this much wall time "
                             "has passed")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="add a profiled rep; report per-layer metrics")
    parser.add_argument("--out", type=Path, default=ROOT / ".bench_out")
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be at least 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    workloads = args.workload or list(WORKLOADS)
    args.out.mkdir(parents=True, exist_ok=True)
    results = {}
    try:
        for name in workloads:
            seed = DEFAULT_SEEDS[name] if args.seed is None else args.seed
            results[name] = run_workload(name, seed, args.reps, args.seconds,
                                         bool(args.trace), args.out)
            _print(results[name])
    except RepFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    (args.out / "results.json").write_text(json.dumps(results, indent=1))
    if args.trace:
        (args.out / "layers.json").write_text(json.dumps(
            {name: r["layers"] for name, r in results.items()}, indent=1))
    key = "layer_metrics" if args.trace else "metrics"

    def strip(metrics):
        return {k: {"value": m["value"], "unit": m["unit"]}
                for k, m in metrics.items()}

    correct = all(r["correct"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": (strip(results[workloads[0]][key]) if len(workloads) == 1
                    else {w: strip(r[key]) for w, r in results.items()}),
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

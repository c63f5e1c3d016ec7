"""Compare two sets of benchmark runs against the bounds in BENCHMARK.json.

    python3 bench/compare.py A B

``A`` (the parent) and ``B`` (the change) are each a ``results.json``
written by ``run.py``, or a directory searched for them; every file is
one run.  For each (workload, end-to-end metric) both sides' median and
quartiles are printed with a verdict:

* ``better``: B's median beats A's by more than A's interquartile range;
* ``within``: B's median is no worse than A's by more than the bound;
* ``worse``: B's median is worse than A's by more than the bound;
* ``unresolved``: either side's spread (interquartile range over
  median) exceeds the bound, so the runs cannot tell -- unless every B
  run beats every A run, which is ``better``.

``failed_frac`` has a bound of zero: B is worse if any B run failed more
operations than every A run.  The exit code is 1 if any verdict is worse
or unresolved.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: List[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def verdict(a: List[float], b: List[float], bound: float,
            lower_is_better: bool = True) -> str:
    sign = 1.0 if lower_is_better else -1.0
    all_better = (max(b) < min(a)) if lower_is_better else (min(b) > max(a))
    if max(spread(a), spread(b)) > bound:
        return "better" if all_better else "unresolved"
    q1, median_a, q3 = quartiles(a)
    worsening = sign * (statistics.median(b) - median_a)
    if worsening > bound * median_a:
        return "worse"
    if -worsening > q3 - q1 and worsening < 0:
        return "better"
    return "within"


def load(path: Path) -> Dict[str, Dict[str, List[float]]]:
    """workload -> metric -> one value per run (plus ``failed_frac``)."""
    files = [path] if path.is_file() else sorted(path.rglob("results.json"))
    if not files:
        raise SystemExit(f"error: no results.json under {path}")
    runs: Dict[str, Dict[str, List[float]]] = {}
    for file in files:
        for workload, result in json.loads(file.read_text()).items():
            metrics = runs.setdefault(workload, {})
            for name, metric in result["metrics"].items():
                metrics.setdefault(name, []).append(metric["value"])
            metrics.setdefault("failed_frac", []).append(result["failed_frac"])
    return runs


def compare(a: Dict[str, Dict[str, List[float]]],
            b: Dict[str, Dict[str, List[float]]],
            benchmark: dict) -> List[dict]:
    rows = []
    for workload in sorted(set(a) & set(b)):
        for spec in benchmark["end_to_end"]:
            name = spec["name"]
            va, vb = a[workload].get(name), b[workload].get(name)
            if not va or not vb:
                continue
            rows.append({
                "workload": workload, "metric": name, "unit": spec["unit"],
                "bound": spec["bound"], "a": quartiles(va),
                "b": quartiles(vb),
                "verdict": verdict(va, vb, spec["bound"],
                                   spec["better"] == "lower"),
            })
        fa, fb = a[workload]["failed_frac"], b[workload]["failed_frac"]
        rows.append({
            "workload": workload, "metric": "failed_frac", "unit": "ratio",
            "bound": 0.0, "a": quartiles(fa), "b": quartiles(fb),
            "verdict": "worse" if max(fb) > max(fa) else "within",
        })
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("a", type=Path, help="parent runs")
    parser.add_argument("b", type=Path, help="changed runs")
    parser.add_argument("--benchmark", type=Path, default=BENCHMARK)
    args = parser.parse_args(argv)
    benchmark = json.loads(args.benchmark.read_text())
    rows = compare(load(args.a), load(args.b), benchmark)
    def cell(q):
        return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"

    print(f"{'workload':18s} {'metric':12s} {'A median [q1, q3]':>30s} "
          f"{'B median [q1, q3]':>30s} {'bound':>6s}  verdict")
    for row in rows:
        print(f"{row['workload']:18s} {row['metric']:12s} "
              f"{cell(row['a']):>30s} {cell(row['b']):>30s} "
              f"{row['bound']:6.0%}  {row['verdict']}")
    bad = [r for r in rows if r["verdict"] in ("worse", "unresolved")]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python
"""Availability under stochastic node failures, as a campaign sweep.

The paper motivates the testbed with real DC failure behaviour (§I
cites Gill et al.).  This experiment closes the loop at *campaign*
scale: a 12-cell grid of MTBF node-fault processes (failure rate x
repair speed x self-healing on/off) runs across worker processes under
the kernel's run budgets, every run lands as a structured record in a
JSONL result store, and a static HTML dashboard shows the availability
and recovery grids.  The per-run body is the ``availability_mtbf``
scenario in ``repro.campaign.scenarios``: heartbeat detection,
container evacuation through the placement policy, node re-imaging and
rejoin.

Run:  python examples/availability_experiment.py
      python examples/availability_experiment.py --quick
      python -m repro campaign run specs/availability_mtbf.yaml

CI runs the committed spec directly as the ``chaos-smoke`` job and
uploads the result store + dashboard as artifacts on every run.
"""

import argparse
import sys
from pathlib import Path

from repro.campaign import load_spec, run_campaign

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SPEC = REPO_ROOT / "specs" / "availability_mtbf.yaml"

parser = argparse.ArgumentParser(description=__doc__)
parser.add_argument("--spec", default=str(DEFAULT_SPEC),
                    help="campaign spec to run (default: the committed "
                         "specs/availability_mtbf.yaml)")
parser.add_argument("--out", default="campaign-out/availability-mtbf",
                    help="result store / dashboard directory")
parser.add_argument("--workers", type=int, default=None,
                    help="worker processes (default: from the spec)")
parser.add_argument("--quick", action="store_true",
                    help="single seed and shorter fault window (for a "
                         "fast local look)")
args = parser.parse_args()

spec = load_spec(args.spec)
if args.quick:
    from dataclasses import replace

    spec = replace(spec, seeds=spec.seeds[:1],
                   params={**spec.params, "duration_s": 300.0})

print(f"campaign {spec.name!r}: {spec.cell_count} grid cells x "
      f"{len(spec.seeds)} seed(s) = {spec.run_count} runs "
      f"(MTBF x MTTR x self-healing)")
result = run_campaign(spec, args.out, workers=args.workers)

# -- the headline table: does self-healing keep the workload alive? ------
by_cell = {}
for record in result.records:
    if not record.ok:
        continue
    key = (record.cell.get("node_mtbf_s"), record.cell.get("mttr_s"))
    bucket = by_cell.setdefault(key, {True: [], False: []})
    bucket[bool(record.cell.get("self_healing"))].append(record)


def _mean(records, metric):
    # Index, do not filter: a metric the scenario stopped reporting
    # (a rename) fails here instead of printing nan.
    values = [r.metrics[metric] for r in records]
    return sum(values) / len(values) if values else float("nan")


print("\nfleet availability / containers still running "
      "(mean over seeds; workload starts with 4):")
print(f"  {'MTBF':>6s} {'MTTR':>6s}   {'self-healing':>22s}   "
      f"{'no self-healing':>22s}")
for (mtbf, mttr), bucket in sorted(by_cell.items()):
    columns = []
    for healing in (True, False):
        records = bucket[healing]
        columns.append(
            f"{_mean(records, 'fleet_availability') * 100:6.2f}%  "
            f"{_mean(records, 'virt.containers_running'):4.1f} up"
        )
    print(f"  {mtbf:6.0f} {mttr:6.0f}   {columns[0]:>22s}   {columns[1]:>22s}")

failed = result.store.failed()
if failed:
    print(f"\n{len(failed)} run(s) did not complete cleanly "
          f"(recorded in the store, not crashed):")
    for record in failed:
        print(f"  {record.run_id} {record.status}: {record.error}")

print(f"\nresult store: {result.store.path}")
if result.dashboard_path:
    print(f"dashboard:    {result.dashboard_path}")
print("\n=> nodes die and come back, containers follow the survivors, and "
      "the campaign store quantifies the whole loop across the grid.")
sys.exit(0 if result.ok else 1)

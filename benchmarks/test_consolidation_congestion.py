"""Experiment C2 -- the cross-layer claim (§III/§IV).

"A naive consolidation algorithm may improve server resource usage at
the expense of frequent episodes of network congestion."  We run the
same chatty workload under spread vs consolidated placement and compare
power draw against access-link congestion: consolidation must win on
power and lose on congestion -- the ripple effect VM-only simulators
(iCanCloud) cannot reveal.
"""

import random

import pytest

from repro.apps import OnOffTrafficSource
from repro.placement import Consolidator, WorstFit
from repro.telemetry.stats import format_table
from repro.units import kib

from conftest import build_small_cloud


def deploy_chatty_pairs(cloud, pairs=3):
    """Spread 2*pairs containers wide; each pair talks continuously."""
    records = []
    for index in range(2 * pairs):
        records.append(cloud.spawn_and_wait(
            "base", name=f"c{index}", policy=WorstFit()
        ))
    rng = random.Random(17)
    sources = []
    for index in range(pairs):
        sender = cloud.container(records[index].name)
        receiver = records[index + pairs]
        cloud.container(receiver.name).listen(9000)

        def make_send(src=sender, dst=receiver.ip):
            return lambda: src.send(dst, 9000, "chunk", size=kib(512))

        sources.append(OnOffTrafficSource(
            cloud.sim, rng, make_send(), on_mean_s=2.0, off_mean_s=0.5,
            rate_per_s=15.0,
        ))
    return records, sources


def measure(cloud, duration=120.0):
    """(mean watts, congested link-seconds) over the next window."""
    start = cloud.sim.now
    joules_before = cloud.energy_joules()
    congested_before = sum(
        r["congested_s"] for r in cloud.network.congestion_report()
    )
    cloud.run_for(duration)
    joules = cloud.energy_joules() - joules_before
    congested = sum(
        r["congested_s"] for r in cloud.network.congestion_report()
    ) - congested_before
    return joules / duration, congested


def test_consolidation_saves_power_but_congests():
    cloud = build_small_cloud()
    deploy_chatty_pairs(cloud)
    watts_spread, congested_spread = measure(cloud)

    def consolidate():
        runtimes = {n: d.runtime for n, d in cloud.daemons.items()}
        consolidator = Consolidator(cloud.sim, runtimes, power_off_empty=True)
        done = consolidator.run_round()
        cloud.run_until_signal(done)
        return done.value

    report = consolidate()
    assert report.executed_migrations >= 1
    assert report.hosts_powered_off

    watts_packed, congested_packed = measure(cloud)

    print("\nC2 -- spread vs consolidated placement, same workload\n")
    print(format_table(
        ["placement", "mean watts", "congested link-s / 120s"],
        [["spread (WorstFit)", f"{watts_spread:.1f}", f"{congested_spread:.1f}"],
         ["consolidated+poweroff", f"{watts_packed:.1f}", f"{congested_packed:.1f}"]],
    ))

    # The paper's trade-off, in the measured direction:
    assert watts_packed < watts_spread                  # power improves
    assert congested_packed > congested_spread          # congestion worsens


def test_aggressiveness_sweep():
    """More migrations per round => more hosts freed (ablation knob)."""
    rows = []
    for aggressiveness in (0, 1, 100):
        cloud = build_small_cloud()
        deploy_chatty_pairs(cloud, pairs=2)
        runtimes = {n: d.runtime for n, d in cloud.daemons.items()}
        consolidator = Consolidator(
            cloud.sim, runtimes, aggressiveness=aggressiveness,
            power_off_empty=True,
        )
        done = consolidator.run_round()
        cloud.run_until_signal(done)
        report = done.value
        rows.append((aggressiveness, report.executed_migrations,
                     len(report.hosts_powered_off)))

    print("\nC2b -- consolidation aggressiveness sweep\n")
    print(format_table(["max migrations/round", "migrated", "hosts freed"],
                       [list(r) for r in rows]))
    migrations = [r[1] for r in rows]
    freed = [r[2] for r in rows]
    assert migrations[0] == 0
    assert migrations == sorted(migrations)
    assert freed == sorted(freed)

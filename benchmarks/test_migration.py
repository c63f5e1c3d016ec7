"""Experiment C4 -- live migration (§VI future work, implemented).

Characterises pre-copy over the 100 Mb/s fabric: rounds and downtime vs
dirty rate, the convergence cliff when dirtying beats the link, and the
cross-layer effect of background traffic on migration time.
"""

from repro.telemetry.stats import format_table
from repro.units import mib
from repro.virt.migration import live_migrate

from conftest import build_small_cloud


def migrate_once(cloud, container, destination_runtime):
    done = live_migrate(container, destination_runtime)
    cloud.sim.run(until=cloud.sim.now + 7200.0)
    return done.value


def test_dirty_rate_sweep():
    cloud = build_small_cloud(racks=2, pis=2)
    cloud.spawn_and_wait("webserver", name="mover", node_id="pi-r0-n0")
    container = cloud.container("mover")
    runtimes = {n: d.runtime for n, d in cloud.daemons.items()}
    destinations = ["pi-r1-n0", "pi-r0-n0"]

    rows = []
    reports = []
    for index, dirty in enumerate([0.0, 1e5, 1e6, 5e6, 20e6]):
        container.dirty_rate = dirty
        dst = runtimes[destinations[index % 2]]
        report = migrate_once(cloud, container, dst)
        reports.append((dirty, report))
        rows.append([
            f"{dirty / 1e6:.2f}",
            report.rounds,
            f"{report.total_bytes / 1e6:.1f}",
            f"{report.duration_s:.2f}",
            f"{report.downtime_s * 1e3:.2f}",
            "yes" if report.converged else "no",
        ])

    print("\nC4 -- pre-copy migration of a 30 MiB container, 100 Mb/s link\n")
    print(format_table(
        ["dirty MB/s", "rounds", "copied MB", "total s", "downtime ms",
         "converged"],
        rows,
    ))

    clean = reports[0][1]
    assert clean.rounds == 1 and clean.converged
    assert clean.downtime_s < 0.05
    # Higher dirty rates copy more bytes over more rounds.
    copied = [r.total_bytes for _, r in reports[:4]]
    assert copied == sorted(copied)
    # Beyond link bandwidth (20 MB/s > 12.5 MB/s): no convergence, big
    # stop-and-copy downtime.
    runaway = reports[-1][1]
    assert not runaway.converged
    assert runaway.downtime_s > clean.downtime_s * 10


def test_migration_contends_with_traffic():
    """Cross-layer: background elephants slow the migration stream."""
    cloud = build_small_cloud(racks=2, pis=2)
    cloud.spawn_and_wait("webserver", name="mover", node_id="pi-r0-n0")
    container = cloud.container("mover")
    runtimes = {n: d.runtime for n, d in cloud.daemons.items()}

    quiet = migrate_once(cloud, container, runtimes["pi-r1-n0"])

    # Saturate the same path with a long transfer, migrate back through it.
    cloud.network.transfer("pi-r1-n0", "pi-r0-n0", mib(200), tag="background")
    container.dirty_rate = 0.0
    loaded = migrate_once(cloud, container, runtimes["pi-r0-n0"])

    print(f"\nmigration: quiet fabric {quiet.duration_s:.2f}s vs "
          f"contended {loaded.duration_s:.2f}s")
    assert loaded.duration_s > 1.5 * quiet.duration_s


def test_migration_preserves_service():
    """The moved container keeps its IP and resumes work (paper's goal of
    'more flexible and efficient migration')."""
    cloud = build_small_cloud(racks=2, pis=2)
    record = cloud.spawn_and_wait("webserver", name="svc", node_id="pi-r0-n0")
    container = cloud.container("svc")
    runtimes = {n: d.runtime for n, d in cloud.daemons.items()}

    report = migrate_once(cloud, container, runtimes["pi-r1-n1"])
    assert container.ip == record.ip  # IP travelled with the container
    assert cloud.ip_fabric.locate(record.ip).node_id == "pi-r1-n1"
    done = container.execute(700e6)
    cloud.run_for(120.0)
    assert done.triggered
    assert report.downtime_s < 0.1

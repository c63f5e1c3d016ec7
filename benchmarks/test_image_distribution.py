"""Experiment C12 -- file-management techniques (§III).

"We can empirically evaluate improvements to file management and
migration techniques."  The file-management workload on a real PiCloud
is image distribution: getting a 220 MiB webserver image onto every
node.  We compare the naive technique (pimaster unicasts to all 56...
here, all 6) against the peer-assisted swarm, measuring wall time and
who carried the bytes.
"""

from repro.mgmt.distribution import ImageDistributor
from repro.telemetry.stats import format_table
from repro.units import mib

from conftest import build_small_cloud


def run_scheme(scheme):
    cloud = build_small_cloud(racks=2, pis=3)
    distributor = ImageDistributor(cloud.pimaster, uploads_per_seeder=2)
    if scheme == "unicast":
        signal = distributor.distribute_unicast("webserver")
    else:
        signal = distributor.distribute_peer_assisted("webserver")
    cloud.run_until_signal(signal, max_seconds=86_400.0)
    report = signal.value
    assert report.failed == []
    assert len(report.succeeded) == 6
    # The pimaster's uplink carried this much:
    return report


def test_peer_assisted_beats_unicast():
    unicast = run_scheme("unicast")
    peer = run_scheme("peer")

    print("\nC12 -- distribute a 220 MiB image to 6 nodes (2 racks)\n")
    print(format_table(
        ["technique", "time", "pimaster sent", "peers sent"],
        [["unicast", f"{unicast.duration_s:.0f}s",
          f"{unicast.pimaster_bytes_sent / mib(1):.0f} MiB",
          f"{unicast.peer_bytes_sent / mib(1):.0f} MiB"],
         ["peer-assisted", f"{peer.duration_s:.0f}s",
          f"{peer.pimaster_bytes_sent / mib(1):.0f} MiB",
          f"{peer.peer_bytes_sent / mib(1):.0f} MiB"]],
    ))

    # The improvement: the pimaster moves a third of the bytes and the
    # fleet is seeded at least as fast (rack-local pulls parallelise).
    assert peer.pimaster_bytes_sent < unicast.pimaster_bytes_sent / 2
    assert peer.duration_s <= unicast.duration_s * 1.2


def test_distribution_traffic_stays_rack_local():
    """Peer pulls prefer rack-local seeders: ToR links carry the load."""
    cloud = build_small_cloud(racks=2, pis=3)
    distributor = ImageDistributor(cloud.pimaster)

    def run():
        signal = distributor.distribute_peer_assisted("webserver")
        cloud.run_until_signal(signal, max_seconds=86_400.0)
        return signal.value

    report = run()
    assert report.failed == []
    # Count bytes that crossed the aggregation layer vs stayed on ToRs.
    agg_bytes = 0.0
    tor_bytes = 0.0
    for link in cloud.network.links():
        carried = link.forward.bytes_carried.total + link.reverse.bytes_carried.total
        if "agg" in link.a or "agg" in link.b:
            agg_bytes += carried
        elif link.a.startswith("tor") or link.b.startswith("tor"):
            tor_bytes += carried
    print(f"\nToR-local bytes {tor_bytes / mib(1):.0f} MiB vs "
          f"aggregation-crossing {agg_bytes / mib(1):.0f} MiB")
    # Host<->ToR links necessarily carry everything once; the point is the
    # aggregation layer carries only the per-rack seed copies.
    assert agg_bytes < tor_bytes

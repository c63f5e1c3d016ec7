"""Experiment C8 -- IP-less routing for flexible migration (§III).

"We are researching IP-less routing in order to support more flexible
and efficient migration."  We quantify the two addressing schemes across
a sequence of migrations that re-address the container (the subnet-bound
"IP-full" world):

* cached-IP senders break on every re-address until they re-resolve;
* flat-name (IP-less) senders resolve per message and never hit a stale
  address, at the price of a sub-millisecond lookup per send.

And the punchline the paper aims at: with IP-less-style *location
transparency* (our default keep-the-IP migration), even caches never go
stale.
"""

import pytest

from repro.apps.naming import CachedIpSender, FlatNameSender
from repro.telemetry.stats import format_table

from conftest import build_small_cloud

SERVICE_PORT = 9100


def deploy(cloud, name="svc", node="pi-r0-n0"):
    cloud.spawn_and_wait("base", name=name, node_id=node)
    cloud.container(name).listen(SERVICE_PORT)


def drive(cloud, sender, name, sends_per_phase=5, migrations=4,
          reassign_ip=True):
    """Interleave sends with ping-pong migrations; return the sender."""
    hops = ["pi-r1-n0", "pi-r0-n0"]
    for _ in range(sends_per_phase):
        signal = sender.send(name, SERVICE_PORT, "x", size=100)
        cloud.run_until_signal(signal)
    for index in range(migrations):
        signal = cloud.pimaster.migrate_container(
            name, hops[index % 2], reassign_ip=reassign_ip
        )
        cloud.run_until_signal(signal)
        assert signal.ok
        for _ in range(sends_per_phase):
            signal = sender.send(name, SERVICE_PORT, "x", size=100)
            cloud.run_until_signal(signal)
    return sender


def test_ipless_vs_cached_over_readdressing_migrations():
    cloud = build_small_cloud(racks=2, pis=2)
    deploy(cloud)
    cached = CachedIpSender(cloud.kernels["pi-r1-n1"].netstack,
                            cloud.pimaster.dns, cache_ttl_s=1e6)
    cached = drive(cloud, cached, "svc")

    cloud2 = build_small_cloud(racks=2, pis=2)
    deploy(cloud2)
    flat = FlatNameSender(cloud2.kernels["pi-r1-n1"].netstack,
                          cloud2.pimaster.dns)
    flat = drive(cloud2, flat, "svc")

    print("\nC8 -- 4 re-addressing migrations, 5 sends after each\n")
    print(format_table(
        ["addressing", "sent", "delivered", "failed", "failure rate"],
        [["cached IP (ttl=inf)", f"{cached.sent.total:.0f}",
          f"{cached.delivered.total:.0f}", f"{cached.failed.total:.0f}",
          f"{cached.failure_rate:.2%}"],
         ["flat name (IP-less)", f"{flat.sent.total:.0f}",
          f"{flat.delivered.total:.0f}", f"{flat.failed.total:.0f}",
          f"{flat.failure_rate:.2%}"]],
    ))
    # Every migration breaks the cached sender exactly once (first stale
    # send fails, invalidates, retry resolves); flat never fails.
    assert cached.failed.total == 4
    assert flat.failed.total == 0
    assert flat.failure_rate == 0.0


def test_keep_ip_migration_needs_no_resolution_at_all():
    """The IP-less end-state: location transparency via IP mobility."""
    cloud = build_small_cloud(racks=2, pis=2)
    deploy(cloud)
    sender = CachedIpSender(cloud.kernels["pi-r1-n1"].netstack,
                            cloud.pimaster.dns, cache_ttl_s=1e6)

    def run():
        return drive(cloud, sender, "svc", reassign_ip=False)

    result = run()
    assert result.failed.total == 0
    assert result.resolutions == 1  # one lookup, ever
    print(f"\nkeep-IP migrations: {result.sent.total:.0f} sends, "
          f"0 failures, {result.resolutions} DNS lookups total")

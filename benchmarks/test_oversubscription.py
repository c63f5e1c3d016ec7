"""Experiment C10 -- oversubscription (§III).

"VM management ... allows for consolidation to reduce power consumption,
and oversubscription to improve cost efficiency."  We quantify the
oversubscription trade on one Pi: give N co-located containers CPU
quotas summing past the machine's capacity and measure what tenants
actually experience as N grows -- the cost-efficiency curve and its
latency price.
"""

import pytest

from repro.telemetry.stats import format_table
from repro.units import mib

from conftest import build_small_cloud


def tenant_service_time(cloud, container, cycles=700e6 * 0.2):
    """Run one 0.2 s-of-CPU 'request' in the container; return duration."""
    task = container.execute(cycles, name="probe")
    cloud.run_until_signal(task.done)
    return task.duration


def run_colocated(cloud, tenants, quota_each):
    """Start ``tenants`` quota-capped containers on one 512MB-class host.

    Uses the base image (30 MiB idle) on the 256 MB host: up to 3 fit.
    Returns the per-tenant service time with everyone busy.
    """
    containers = []
    for index in range(tenants):
        cloud.spawn_and_wait(
            "base", name=f"tenant{index}", node_id="pi-r0-n0",
            cpu_quota=quota_each,
        )
        containers.append(cloud.container(f"tenant{index}"))
    # All tenants run continuous background work.
    background = [c.execute(700e6 * 3600, name="bg") for c in containers]
    cloud.run_for(1.0)
    # Probe the first tenant's service time under full co-tenancy.
    probe_time = tenant_service_time(cloud, containers[0])
    for task in background:
        task.cancel()
    cloud.run_for(1.0)
    return probe_time


def test_oversubscription_latency_curve():
    """Quota sum 0.5 -> 1.5: requests stretch once the host oversubscribes."""
    rows = []
    results = {}
    for tenants, quota in ((1, 0.5), (2, 0.5), (3, 0.5)):
        cloud = build_small_cloud(racks=1, pis=1)
        probe = run_colocated(cloud, tenants, quota)
        oversub = tenants * quota
        results[tenants] = probe
        rows.append([tenants, f"{oversub:.1f}x", f"{probe * 1e3:.0f} ms"])

    print("\nC10 -- 0.2s-of-CPU request under co-tenancy (quota 0.5 each)\n")
    print(format_table(
        ["tenants", "quota sum", "request service time"], rows,
    ))
    # The probe shares its tenant's cgroup with that tenant's background
    # work, so within-quota it runs at quota/2.
    # Under-subscribed (sum 0.5): 0.2s of CPU at 0.25 capacity = 0.8 s.
    assert results[1] == pytest.approx(0.8, rel=0.05)
    # Sum 1.0: every tenant still gets its full quota -- no degradation.
    assert results[2] == pytest.approx(0.8, rel=0.10)
    # Oversubscribed (sum 1.5): fair share (1/3) is now below the quota
    # (0.5); the probe drops to 1/6 capacity => ~1.2 s.  The oversell is
    # what tenants feel.
    assert results[3] == pytest.approx(1.2, rel=0.10)
    assert results[3] > results[2] * 1.3


def test_oversubscription_buys_density():
    """The upside: 3 tenants on one Pi instead of 3 Pis = 1/3 the watts."""
    packed = build_small_cloud(racks=1, pis=3)

    def pack():
        for index in range(3):
            packed.spawn_and_wait("base", name=f"t{index}",
                                  node_id="pi-r0-n0", cpu_quota=0.5)
        # The two empty Pis can be powered off.
        for node in ("pi-r0-n1", "pi-r0-n2"):
            packed.machines[node].shutdown()
        return packed.total_watts()

    packed_watts = pack()

    spread = build_small_cloud(racks=1, pis=3)
    for index, node in enumerate(["pi-r0-n0", "pi-r0-n1", "pi-r0-n2"]):
        spread.spawn_and_wait("base", name=f"t{index}", node_id=node,
                              cpu_quota=0.5)
    spread_watts = spread.total_watts()

    print(f"\npacked (1 Pi + pimaster): {packed_watts:.1f} W vs "
          f"spread (3 Pis + pimaster): {spread_watts:.1f} W")
    assert packed_watts < spread_watts

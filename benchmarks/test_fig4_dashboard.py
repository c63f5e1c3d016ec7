"""Experiment F4 -- Fig. 4: the PiCloud management web interface.

The screenshot shows the pimaster's control panel: per-node CPU load,
the virtual-host table, and controls to spawn VMs and set (soft) per-VM
resource limits.  We exercise all three use cases the paper names
("remote monitoring of the CPU load on some/all Pi nodes, spawning new
VM instances and specifying (soft) per-VM resource utilisation limits")
and render the panel.
"""

from conftest import build_small_cloud


def test_fig4_panel_renders_cloud_state():
    cloud = build_small_cloud()
    cloud.spawn_and_wait("webserver", name="web-1")
    cloud.spawn_and_wait("database", name="db-1")

    dashboard = cloud.dashboard()
    panel = dashboard.render()

    # The panel carries the screenshot's content: nodes, loads, VM table.
    assert "PiCloud control panel" in panel
    for node in cloud.node_names:
        assert node in panel
    for vm in ("web-1", "db-1"):
        assert vm in panel
    assert "cpu load" in panel and "watts" in panel
    assert "[#" in panel or "[-" in panel  # the load bars

    summary = dashboard.summary()
    assert summary["containers_running"] == 2
    assert summary["nodes"] == 6
    print("\n" + panel)


def test_fig4_remote_cpu_monitoring():
    """Use case 1: remote monitoring of CPU load on all nodes."""
    cloud = build_small_cloud(start_monitoring=True, monitoring_interval_s=2.0)
    record = cloud.spawn_and_wait("webserver", name="busy")
    # Make the hosting node busy so the poller sees real load.
    cloud.container("busy").execute(700e6 * 300, name="burn")
    cloud.run_for(30.0)

    monitoring = cloud.pimaster.monitoring
    series = monitoring.cpu_series[record.node_id]
    assert len(series) >= 5                      # polled repeatedly
    assert max(series.values) > 0.5              # the burn shows up
    quiet = [n for n in cloud.node_names if n != record.node_id][0]
    assert max(monitoring.cpu_series[quiet].values) < 0.5
    print(f"\n{record.node_id} load samples: "
          f"{[f'{v:.2f}' for v in series.values[-5:]]}")


def test_fig4_soft_resource_limits():
    """Use case 3: set per-VM soft limits through the control plane."""
    cloud = build_small_cloud()
    cloud.spawn_and_wait("webserver", name="limited")

    def set_limits():
        signal = cloud.pimaster.set_limits(
            "limited", cpu_shares=512, cpu_quota=0.25
        )
        cloud.sim.run(until=cloud.sim.now + 600.0)
        return signal.value

    body = set_limits()
    assert body["cpu_shares"] == 512
    container = cloud.container("limited")
    assert container.cgroup.cpu_quota == 0.25

    # The quota bites: 1s of CPU now takes 4s of wall clock.
    task = container.execute(700e6)
    cloud.run_for(600.0)
    assert task.triggered
    elapsed = task.duration
    assert 3.5 <= elapsed <= 4.5
    print(f"\nquota 0.25 => 1s of cycles took {elapsed:.2f}s")

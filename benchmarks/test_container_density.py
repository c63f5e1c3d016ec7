"""Experiment C1 -- container density (§II-B).

Paper: "we can run three containers on a single Pi, each consuming 30MB
RAM when idle", on the 256 MB Model B; §IV notes the RAM later doubled
at the same price.  Density must be *emergent* from the memory model --
we start containers until OOM and count.
"""

from repro.core import PiCloud, PiCloudConfig
from repro.errors import OutOfMemoryError
from repro.hardware import RASPBERRY_PI_MODEL_B, RASPBERRY_PI_MODEL_B_512
from repro.telemetry.stats import format_table
from repro.units import mib


def fill_node(spec_name):
    """Start containers on one node until OOM; return the count."""
    config = PiCloudConfig.small(
        racks=1, pis=1, start_monitoring=False, routing="shortest",
        machine_spec={"raspberry-pi-model-b": RASPBERRY_PI_MODEL_B,
                      "raspberry-pi-model-b-512": RASPBERRY_PI_MODEL_B_512}[spec_name],
    )
    cloud = PiCloud(config)
    cloud.boot()
    started = 0
    for index in range(20):
        signal = cloud.spawn("base", name=f"c{index}", node_id="pi-r0-n0")
        cloud.sim.run(until=cloud.sim.now + 7200.0)
        if signal.ok:
            started += 1
        else:
            break
    return cloud, started


def test_density_three_containers_on_256mb():
    cloud, started = fill_node("raspberry-pi-model-b")
    # The paper's number, exactly.
    assert started == 3
    # Each idle container holds ~30 MB.
    daemon = cloud.daemons["pi-r0-n0"]
    for container in daemon.runtime.containers():
        if container.is_running:
            assert container.memory_bytes == mib(30)


def test_density_doubles_with_512mb():
    cloud_256, started_256 = fill_node("raspberry-pi-model-b")
    cloud_512, started_512 = fill_node("raspberry-pi-model-b-512")
    assert started_256 == 3
    # The doubled RAM all goes to guests: +256 MB => +8 x 30 MB containers.
    assert started_512 >= 2 * started_256
    print("\nC1 -- container density vs node RAM\n")
    print(format_table(
        ["model", "RAM", "idle containers @30MB"],
        [["Model B (orig)", "256 MiB", started_256],
         ["Model B (2012 rev)", "512 MiB", started_512]],
    ))


def test_density_failure_is_oom():
    """The fourth start fails with OOM specifically (not a generic error)."""
    cloud, started = fill_node("raspberry-pi-model-b")
    daemon = cloud.daemons["pi-r0-n0"]

    def overflow():
        create = daemon.runtime.lxc_create("overflow", daemon._images["base:v1"])
        cloud.sim.run(until=cloud.sim.now + 600.0)
        start = daemon.runtime.lxc_start(create.value)
        cloud.sim.run(until=cloud.sim.now + 600.0)
        return start.exception

    exc = overflow()
    assert isinstance(exc, OutOfMemoryError)

"""Experiment F1 -- Fig. 1: the four PiCloud racks.

The photo shows 4 Lego racks of 14 Raspberry Pis.  We reproduce the
physical inventory: the built cloud has exactly that shape, every board
is a Model B, and the rack diagram renders from the live topology.
"""

from repro.hardware import RASPBERRY_PI_MODEL_B

from conftest import build_paper_cloud


def render_racks(cloud) -> str:
    """ASCII rendering of the Fig. 1 rack layout."""
    lines = ["Fig. 1 -- Four PiCloud racks (Lego), 14 Model B boards each", ""]
    racks = cloud.rack_inventory()
    for rack_name in sorted(racks):
        members = racks[rack_name]
        lines.append(f"  {rack_name}  ({len(members)} boards)")
        for node in members:
            machine = cloud.machines[node]
            lines.append(
                f"    [{machine.spec.name:24s}] {node}  slot {machine.slot:2d}"
            )
        lines.append("")
    return "\n".join(lines)


def test_fig1_rack_inventory():
    cloud = build_paper_cloud()
    racks = cloud.rack_inventory()

    # 4 racks x 14 Pis = 56 boards.
    assert len(racks) == 4
    assert all(len(members) == 14 for members in racks.values())
    assert sum(len(m) for m in racks.values()) == 56

    # Every board is a Model B, slotted 0..13 within its rack.
    for rack_name, members in racks.items():
        slots = sorted(cloud.machines[n].slot for n in members)
        assert slots == list(range(14))
        for node in members:
            assert cloud.machines[node].spec is RASPBERRY_PI_MODEL_B
            assert cloud.machines[node].rack == rack_name

    diagram = render_racks(cloud)
    assert diagram.count("raspberry-pi-model-b") == 56
    print("\n" + "\n".join(diagram.splitlines()[:12]) + "\n    ...")


def test_fig1_all_booted_and_inventoried():
    cloud = build_paper_cloud()

    def inventory():
        return [m.describe() for m in cloud.machines.values()]

    rows = inventory()
    assert len(rows) == 57  # 56 Pis + pimaster
    assert sum(1 for r in rows if r["state"] == "on") == 57

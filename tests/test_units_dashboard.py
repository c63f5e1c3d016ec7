"""Unit tests for unit conversions, formatting and the dashboard helpers."""

from repro import units
from repro.mgmt.dashboard import load_bar


class TestDataSizes:
    def test_binary_prefixes(self):
        assert units.kib(1) == 1024
        assert units.mib(1) == 1024 ** 2
        assert units.gib(1) == 1024 ** 3
        assert units.mib(0.5) == 512 * 1024

    def test_constants_consistent(self):
        assert units.MIB == units.kib(1024)


class TestBandwidth:
    def test_bits_to_bytes(self):
        assert units.mbit_per_s(100) == 12.5e6
        assert units.gbit_per_s(1) == 125e6


class TestTime:
    def test_conversions(self):
        assert units.msec(1500) == 1.5
        assert units.usec(1e6) == 1.0


class TestCpuUnits:
    def test_clock_rates(self):
        assert units.mhz(700) == 700e6
        assert units.mcycles(5) == 5e6


class TestFormatting:
    def test_fmt_bytes(self):
        assert units.fmt_bytes(512) == "512 B"
        assert units.fmt_bytes(units.kib(2)) == "2.0 KiB"
        assert units.fmt_bytes(units.mib(30)) == "30.0 MiB"
        assert units.fmt_bytes(units.gib(16)) == "16.0 GiB"


class TestLoadBar:
    def test_empty_and_full(self):
        assert load_bar(0.0) == "[--------------------]   0%"
        assert load_bar(1.0) == "[####################] 100%"

    def test_half(self):
        bar = load_bar(0.5)
        assert bar.count("#") == 10
        assert bar.endswith(" 50%")

    def test_clamps_out_of_range(self):
        assert load_bar(-1.0) == load_bar(0.0)
        assert load_bar(2.0) == load_bar(1.0)

    def test_custom_width(self):
        assert load_bar(1.0, width=5) == "[#####] 100%"

"""Tests for the command-line interface (repro.cli)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fly"])

    def test_routing_choices_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["info", "--routing", "rip"])

    def test_defaults_are_paper_scale(self):
        args = build_parser().parse_args(["info"])
        assert args.racks == 4 and args.pis == 14


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "$112,000 (@$2,000)" in out
        assert "$1,960 (@$35)" in out
        assert "capex ratio 57.1x" in out

    def test_table1_custom_count(self, capsys):
        assert main(["table1", "--count", "10"]) == 0
        out = capsys.readouterr().out
        assert "$20,000" in out
        assert "$350" in out

    def test_info_small(self, capsys):
        assert main(["info", "--racks", "1", "--pis", "2",
                     "--routing", "shortest"]) == 0
        out = capsys.readouterr().out
        assert "pis" in out and "2" in out
        assert "multi-root-tree" in out

    def test_dashboard_small(self, capsys):
        assert main(["dashboard", "--racks", "1", "--pis", "3",
                     "--routing", "shortest", "--runtime", "5"]) == 0
        out = capsys.readouterr().out
        assert "PiCloud control panel" in out
        assert "web-1" in out and "db-1" in out

    def test_dashboard_budget_trip_in_spawn_wait(self, capsys):
        assert main(["dashboard", "--racks", "1", "--pis", "3",
                     "--routing", "shortest", "--max-events", "50"]) == 3
        err = capsys.readouterr().err
        assert "run budget exceeded" in err
        assert "spawn:web-1" in err

    def test_storm_small(self, capsys):
        assert main(["storm", "--racks", "2", "--pis", "2",
                     "--routing", "sdn-least-congested",
                     "--flows", "4", "--mb", "1"]) == 0
        out = capsys.readouterr().out
        assert "completion" in out
        assert "agg" in out

    def test_storm_rejects_single_rack(self, capsys):
        assert main(["storm", "--racks", "1", "--pis", "2",
                     "--routing", "shortest"]) == 2

    def test_storm_profile_covers_the_command(self, tmp_path, capsys):
        import pstats

        out_path = tmp_path / "storm.pstats"
        assert main(["storm", "--racks", "2", "--pis", "2",
                     "--routing", "shortest", "--flows", "2", "--mb", "1",
                     "--profile", str(out_path)]) == 0
        assert "profile written to" in capsys.readouterr().err
        stats = pstats.Stats(str(out_path))
        assert any(func == "cmd_storm" for (_, _, func) in stats.stats)

    def test_profile_written_when_budget_trips(self, tmp_path, capsys):
        out_path = tmp_path / "storm.pstats"
        assert main(["storm", "--racks", "2", "--pis", "2",
                     "--routing", "shortest", "--max-events", "10",
                     "--profile", str(out_path)]) == 3
        assert "run budget exceeded" in capsys.readouterr().err
        assert out_path.is_file()

    def test_load_smoke(self, capsys):
        assert main(["load", "--racks", "1", "--pis", "3",
                     "--routing", "shortest", "--replicas", "2",
                     "--duration", "20", "--rate", "5", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "p99" in out
        assert "node faults injected" not in out  # no --mtbf, no injector

    def test_load_mtbf_runs_fault_injector(self, capsys):
        assert main(["load", "--racks", "2", "--pis", "2",
                     "--routing", "shortest", "--replicas", "2",
                     "--duration", "40", "--rate", "5",
                     "--mtbf", "15", "--mttr", "10",
                     "--self-healing", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "node faults injected" in out
        assert "node repairs" in out
        assert "containers evacuated" in out

    def test_load_mtbf_deterministic_per_seed(self, capsys):
        argv = ["load", "--racks", "1", "--pis", "3",
                "--routing", "shortest", "--replicas", "2",
                "--duration", "30", "--rate", "5",
                "--mtbf", "10", "--mttr", "5", "--seed", "9"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first


@pytest.mark.usefixtures("short_scale_windows")
class TestScaleCommand:
    """The ``scale`` command."""

    def test_unknown_scale_rejected(self, capsys):
        assert main(["scale", "--nodes", "57"]) == 2
        assert "unknown scale" in capsys.readouterr().err

    def test_pairs_below_one_rejected(self, capsys):
        assert main(["scale", "--nodes", "56", "--pairs", "-1"]) == 2
        assert "error: pairs must be >= 1" in capsys.readouterr().err

    def test_scale_runs(self, capsys):
        assert main(["scale", "--nodes", "56", "--pairs", "2"]) == 0
        out = capsys.readouterr().out
        assert "events" in out and "wall_s" in out

    def test_profile_dumps_measure_scale_frames(self, tmp_path, capsys):
        import pstats

        out_path = tmp_path / "scale.pstats"
        assert main(["scale", "--nodes", "56", "--pairs", "2",
                     "--profile", str(out_path)]) == 0
        assert "profile written to" in capsys.readouterr().err
        stats = pstats.Stats(str(out_path))
        assert any(func == "measure_scale"
                   for (_, _, func) in stats.stats), stats.stats
        assert [p.name for p in tmp_path.iterdir()] == ["scale.pstats"]

"""compare.py verdicts on synthetic result sets."""

import json

import pytest

import compare

BASE = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]


@pytest.mark.parametrize("b, lower, expected", [
    ([v * 1.03 for v in BASE], True, "within"),
    ([v * 1.20 for v in BASE], True, "worse"),
    ([v * 0.80 for v in BASE], True, "better"),
    ([v * 0.80 for v in BASE], False, "worse"),
    ([v * 1.20 for v in BASE], False, "better"),
    ([0.7, 1.3, 0.8, 1.2, 1.0, 0.6, 1.4, 1.0, 0.9, 1.1], True, "unresolved"),
])
def test_verdict(b, lower, expected):
    assert compare.verdict(BASE, b, bound=0.10, lower_is_better=lower) \
        == expected


def test_wide_spread_is_better_only_when_every_run_beats_every_parent_run():
    noisy = [1.0, 1.5, 0.8, 1.4, 0.9, 1.3]
    assert compare.verdict(noisy, [v * 0.7 for v in noisy], 0.10) \
        == "unresolved"
    assert compare.verdict(noisy, [0.3, 0.5, 0.35, 0.45, 0.4, 0.3], 0.10) \
        == "better"


def _write_runs(root, workload, values, failed=0.0):
    for i, value in enumerate(values):
        run = root / f"run{i}"
        run.mkdir(parents=True)
        (run / "results.json").write_text(json.dumps({workload: {
            "metrics": {"run_s": {"value": value, "unit": "s"}},
            "failed_frac": failed,
        }}))


def test_cli_reports_each_workload_metric_and_failed_frac(tmp_path, capsys):
    benchmark = tmp_path / "BENCHMARK.json"
    benchmark.write_text(json.dumps({"end_to_end": [
        {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.1},
    ]}))
    _write_runs(tmp_path / "a", "w", BASE)
    _write_runs(tmp_path / "b", "w", BASE)
    _write_runs(tmp_path / "c", "w", BASE, failed=0.01)
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "b"),
                         "--benchmark", str(benchmark)]) == 0
    out = capsys.readouterr().out
    assert "run_s" in out and "failed_frac" in out and "worse" not in out
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "c"),
                         "--benchmark", str(benchmark)]) == 1
    assert "worse" in capsys.readouterr().out

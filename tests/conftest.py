"""Failure-trace capture for the tier-1 suite.

The per-test hang guard lives in the repository's root ``conftest.py``.

When a test fails while causal tracing is active (``repro.trace``), every
live tracer's spans are exported as Chrome trace JSON under
``$PICLOUD_TRACE_DUMP_DIR`` (default ``test-traces/``); CI uploads that
directory as an artifact so a red test ships its own timeline.

``short_scale_windows`` trims ``measure_scale``'s simulated windows for
tests that run the consolidation workload.
"""

from __future__ import annotations

import os
import re
from pathlib import Path

import pytest

TRACE_DUMP_DIR = Path(os.environ.get("PICLOUD_TRACE_DUMP_DIR", "test-traces"))


@pytest.hookimpl(wrapper=True)
def pytest_runtest_makereport(item, call):
    report = yield
    if report.when == "call" and report.failed:
        _dump_live_traces(item.nodeid)
    return report


def _dump_live_traces(nodeid: str) -> None:
    # Best-effort: trace capture must never mask the real test failure.
    try:
        from repro.trace import live_tracers

        tracers = [t for t in live_tracers() if t.spans]
        if not tracers:
            return
        TRACE_DUMP_DIR.mkdir(parents=True, exist_ok=True)
        stem = re.sub(r"[^A-Za-z0-9_.-]+", "_", nodeid).strip("_")[:150]
        for index, tracer in enumerate(tracers):
            tracer.finish_open_spans()
            suffix = f"-{index}" if len(tracers) > 1 else ""
            tracer.write_chrome(str(TRACE_DUMP_DIR / f"{stem}{suffix}.json"))
    except Exception:  # noqa: BLE001 -- diagnostics only, never fatal
        pass


@pytest.fixture
def short_scale_windows(monkeypatch):
    # The real workload simulates 120 s; 6 s exercises the same code path.
    import repro.campaign.scenarios as scenarios

    monkeypatch.setattr(scenarios, "WARMUP_S", 2.0)
    monkeypatch.setattr(scenarios, "SETTLE_S", 2.0)
    monkeypatch.setattr(scenarios, "MEASURE_S", 2.0)

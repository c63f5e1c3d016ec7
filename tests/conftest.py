"""Suite-wide hang protection and failure-trace capture.

``[tool.pytest.ini_options] timeout`` in pyproject.toml gives every test a
120 s budget.  When the ``pytest-timeout`` plugin is installed it enforces
that directly.  This conftest provides a SIGALRM fallback for
environments without the plugin (e.g. minimal containers), so a
non-terminating test still fails loudly with a traceback at the hang site
instead of wedging the whole run.  ``@pytest.mark.timeout(N)`` tightens or
relaxes the budget per test in both modes.

When a test fails while causal tracing is active (``repro.trace``), every
live tracer's spans are exported as Chrome trace JSON under
``$PICLOUD_TRACE_DUMP_DIR`` (default ``test-traces/``); CI uploads that
directory as an artifact so a red test ships its own timeline.

``short_scale_windows`` trims ``measure_scale``'s simulated windows for
tests that run the consolidation workload.
"""

from __future__ import annotations

import importlib.util
import os
import re
import signal
from pathlib import Path

import pytest

TRACE_DUMP_DIR = Path(os.environ.get("PICLOUD_TRACE_DUMP_DIR", "test-traces"))

HAVE_PYTEST_TIMEOUT = importlib.util.find_spec("pytest_timeout") is not None
HAVE_SIGALRM = hasattr(signal, "SIGALRM")
FALLBACK_DEFAULT_TIMEOUT_S = 120.0


def pytest_addoption(parser):
    if not HAVE_PYTEST_TIMEOUT:
        # Register the ini key pytest-timeout would own, so the pyproject
        # setting neither warns nor errors when the plugin is absent.
        parser.addini(
            "timeout",
            "per-test timeout in seconds (SIGALRM fallback)",
            default=str(FALLBACK_DEFAULT_TIMEOUT_S),
        )


def pytest_configure(config):
    if not HAVE_PYTEST_TIMEOUT:
        config.addinivalue_line(
            "markers",
            "timeout(seconds): per-test timeout (enforced by the SIGALRM "
            "fallback in tests/conftest.py)",
        )


def _timeout_for(item) -> float:
    marker = item.get_closest_marker("timeout")
    if marker is not None and marker.args:
        return float(marker.args[0])
    try:
        return float(item.config.getini("timeout"))
    except (KeyError, TypeError, ValueError):
        return FALLBACK_DEFAULT_TIMEOUT_S


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


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    if HAVE_PYTEST_TIMEOUT or not HAVE_SIGALRM:
        return (yield)
    seconds = _timeout_for(item)
    if seconds <= 0:
        return (yield)

    def on_alarm(signum, frame):
        raise TimeoutError(
            f"{item.nodeid} exceeded the {seconds:.0f}s per-test timeout "
            "(SIGALRM fallback; install pytest-timeout for richer output)"
        )

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return (yield)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)

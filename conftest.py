"""Per-test hang guard shared by every pytest suite in the repository.

``[tool.pytest.ini_options] timeout`` in pyproject.toml gives every test a
120 s budget.  When the ``pytest-timeout`` plugin is installed it enforces
that directly.  This conftest provides a SIGALRM fallback for
environments without the plugin (e.g. minimal containers), so a
non-terminating test still fails loudly with a traceback at the hang site
instead of wedging the whole run.  ``@pytest.mark.timeout(N)`` tightens or
relaxes the budget per test in both modes.  It sits at the repository root
so ``tests/``, ``benchmarks/`` and ``bench/`` all get it.
"""

from __future__ import annotations

import importlib.util
import signal

import pytest

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
            "fallback in the root conftest.py)",
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

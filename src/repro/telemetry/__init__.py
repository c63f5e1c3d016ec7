"""Telemetry: time series, summary statistics, periodic samplers and
the declared metrics plane (:mod:`repro.telemetry.metrics`).

Every layer of the PiCloud records what it does -- CPU utilisation, link
throughput, request latency, power draw -- into these primitives so that
experiments and the management dashboard read from one consistent source.
"""

from repro.telemetry.monitor import PeriodicSampler
from repro.telemetry.series import Counter, Gauge, TimeSeries
from repro.telemetry.stats import Summary, summarize

__all__ = [
    "Counter",
    "Gauge",
    "PeriodicSampler",
    "Summary",
    "TimeSeries",
    "summarize",
]

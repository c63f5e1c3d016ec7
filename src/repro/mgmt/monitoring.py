"""The pimaster's monitoring poller.

"Typical use-case scenarios include remote monitoring of the CPU load on
some/all Pi nodes" (§II-C).  The poller GETs every node's ``/metrics``
endpoint over the real fabric (so monitoring traffic is part of the
workload) and keeps both the latest snapshot and a CPU-load time series
per node -- the data behind the Fig. 4 dashboard.

Two scale optimisations over the naive fixed-interval loop:

* **Batched polling** -- all due nodes are polled concurrently each tick
  (one gather barrier) instead of serially awaiting each response, so a
  slow node does not stretch the whole sweep.
* **Idle backoff** -- a node whose metrics did not change since the last
  poll has its next poll pushed out by :data:`IDLE_BACKOFF`× (capped at
  :data:`IDLE_MAX_INTERVALS` base intervals); the first changed sample
  snaps it back to the base interval.  A mostly-idle fleet stops
  generating O(nodes) REST round trips (each of which is many kernel
  events) per base interval.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.errors import ConfigurationError
from repro.mgmt.rest import RestClient
from repro.sim.kernel import Simulator
from repro.sim.process import Signal, Timeout
from repro.telemetry.series import TimeSeries

_DUE_EPSILON = 1e-9
# Idle backoff: each quiet poll multiplies a node's interval by
# IDLE_BACKOFF, up to IDLE_MAX_INTERVALS x the base interval.
IDLE_BACKOFF = 2.0
IDLE_MAX_INTERVALS = 8


def _gather(sim: Simulator, signals: Iterable[Signal]) -> Signal:
    """Succeed once every child signal triggered, success or failure.

    Unlike :class:`~repro.sim.process.AllOf` this never fails fast: a
    poll sweep must ingest every response, including the errors.
    """
    children = list(signals)
    done = Signal(sim, name="monitoring.gather")
    remaining = len(children)
    if remaining == 0:
        done.succeed([])
        return done

    def on_child(_sig: Signal) -> None:
        nonlocal remaining
        remaining -= 1
        if remaining == 0:
            done.succeed(children)

    for child in children:
        child.add_done_callback(on_child)
    return done


class MonitoringService:
    """Periodic metrics collection from registered node daemons."""

    def __init__(
        self,
        sim: Simulator,
        client: RestClient,
        interval_s: float = 5.0,
        daemon_port: int = 8600,
    ) -> None:
        if interval_s <= 0:
            raise ConfigurationError("monitoring interval must be positive")
        self.sim = sim
        self.client = client
        self.interval_s = interval_s
        self.daemon_port = daemon_port
        self.max_interval_s = interval_s * IDLE_MAX_INTERVALS
        self._targets: Dict[str, str] = {}  # node_id -> management IP
        self.latest: Dict[str, dict] = {}
        self.cpu_series: Dict[str, TimeSeries] = {}
        self.poll_errors = 0
        self.polls = 0
        self._stopped = False
        self._process: Optional[object] = None
        # Adaptive schedule: when each node is next due and its current
        # (possibly backed-off) polling interval.
        self._next_poll: Dict[str, float] = {}
        self._intervals: Dict[str, float] = {}

    def watch(self, node_id: str, ip: str) -> None:
        self._targets[node_id] = ip
        self.cpu_series.setdefault(node_id, TimeSeries(f"{node_id}.cpu"))
        # Deterministic phase stagger: spread first polls across the base
        # interval (16 buckets, by registration order) so a large fleet's
        # sweeps do not all align into one burst of concurrent flows.
        phase = (len(self._intervals) % 16) / 16.0
        self._next_poll[node_id] = self.sim.now + phase * self.interval_s
        self._intervals[node_id] = self.interval_s

    def unwatch(self, node_id: str) -> None:
        self._targets.pop(node_id, None)
        self.latest.pop(node_id, None)
        self._next_poll.pop(node_id, None)
        self._intervals.pop(node_id, None)

    def start(self) -> None:
        if self._process is None:
            self._process = self.sim.process(self._poll_loop(), name="monitoring")

    def stop(self) -> None:
        self._stopped = True
        if self._process is not None:
            self._process.interrupt("monitoring stopped")

    def _poll_loop(self):
        while not self._stopped:
            now = self.sim.now
            due = sorted(
                node_id
                for node_id, when in self._next_poll.items()
                if when <= now + _DUE_EPSILON
            )
            if due:
                requests = {
                    node_id: self.client.get(
                        self._targets[node_id], self.daemon_port, "/metrics"
                    )
                    for node_id in due
                }
                yield _gather(self.sim, requests.values())
                for node_id in due:
                    self._ingest(node_id, requests[node_id])
            # Sleep until the earliest due node, but never past one base
            # interval, so newly watched nodes are picked up promptly.
            horizon = min(self._next_poll.values(), default=self.sim.now)
            delay = min(max(horizon - self.sim.now, self.interval_s * 0.01),
                        self.interval_s)
            yield Timeout(self.sim, delay)

    def _ingest(self, node_id: str, response: Signal) -> None:
        if node_id not in self._targets:
            return  # unwatched while the request was in flight
        if response.exception is not None or not response.value.ok:
            self.poll_errors += 1
            # Errors keep the base cadence: a down node should be seen
            # coming back within one interval.
            self._intervals[node_id] = self.interval_s
            self._next_poll[node_id] = self.sim.now + self.interval_s
            return
        metrics = response.value.body
        changed = metrics != self.latest.get(node_id)
        self.latest[node_id] = metrics
        self.polls += 1
        self.cpu_series[node_id].record(self.sim.now, metrics["cpu_load"])
        if changed:
            interval = self.interval_s
        else:
            interval = min(
                self._intervals.get(node_id, self.interval_s) * IDLE_BACKOFF,
                self.max_interval_s,
            )
        self._intervals[node_id] = interval
        self._next_poll[node_id] = self.sim.now + interval

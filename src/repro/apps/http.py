"""Lightweight HTTP: the paper's "lightweight httpd servers" (§IV).

The server lives in a container: per-request CPU cost is charged to the
container's cgroup (so a noisy co-tenant stretches service time) and the
response crosses the fabric from the container's IP (so placement
decides whether it stays on the ToR or crosses the aggregation layer).

Clients come in the two canonical flavours:

* **closed-loop** -- N workers, each send -> wait -> think; models a fixed
  user population.
* **open-loop** -- Poisson arrivals regardless of completions; models
  internet-facing load and exposes queueing collapse.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.errors import PiCloudError
from repro.hostos.netstack import Message, NetStack
from repro.sim.process import AllOf, Signal, Timeout
from repro.telemetry.series import Counter, TimeSeries
from repro.units import kib, mcycles
from repro.virt.container import Container, ContainerState

HTTP_PORT = 80
# Service cost: base request parsing plus per-KiB response rendering.
DEFAULT_BASE_CYCLES = mcycles(5)
DEFAULT_CYCLES_PER_KIB = mcycles(0.5)
# Size of one client GET on the wire.
REQUEST_BYTES = 512


class HttpServerApp:
    """A static-content httpd inside a container."""

    def __init__(
        self,
        container: Container,
        port: int = HTTP_PORT,
        default_response_bytes: int = kib(16),
    ) -> None:
        if not container.is_running:
            raise PiCloudError(
                f"container {container.name!r} must be running to serve HTTP"
            )
        self.container = container
        self.sim = container.runtime.sim
        self.port = port
        self.default_response_bytes = default_response_bytes
        self.requests_served = Counter(self.sim, f"{container.name}.http.requests")
        self.service_times = TimeSeries(f"{container.name}.http.service")
        container.app = self
        self._inbox = container.listen(port)
        self._stopped = False
        self._process = self.sim.process(
            self._serve(), name=f"httpd:{container.name}"
        )

    def stop(self) -> None:
        self._stopped = True
        if self.container.state in (ContainerState.RUNNING, ContainerState.FROZEN):
            self.container.runtime.kernel.netstack.close(
                self.port, ip=self.container.ip
            )
        self._process.interrupt("httpd stopped")

    def _serve(self):
        while not self._stopped:
            message: Message = yield self._inbox.get()
            self.sim.process(
                self._handle(message), name=f"httpd:{self.container.name}:req"
            )

    def _handle(self, message: Message):
        start = self.sim.now
        request = message.payload or {}
        response_bytes = int(request.get("response_bytes", self.default_response_bytes))
        cycles = DEFAULT_BASE_CYCLES + DEFAULT_CYCLES_PER_KIB * (response_bytes / kib(1))
        # CPU work inside the container (frozen/stopped container drops it).
        try:
            yield self.container.execute(cycles, name="http-request")
        except Exception:
            return
        try:
            yield self.container.runtime.kernel.netstack.reply(
                message,
                {"status": 200, "path": request.get("path", "/")},
                size=response_bytes,
                tag="http-response",
            )
        except Exception:
            return  # client went away
        self.requests_served.add()
        self.service_times.record(self.sim.now, self.sim.now - start)


class HttpClientApp:
    """Load generator aimed at one HTTP server address."""

    def __init__(
        self,
        netstack: NetStack,
        server_ip: str,
        server_port: int = HTTP_PORT,
        response_bytes: int = kib(16),
        rng: Optional[random.Random] = None,
        src_ip: Optional[str] = None,
    ) -> None:
        self.netstack = netstack
        self.sim = netstack.sim
        self.server_ip = server_ip
        self.server_port = server_port
        self.response_bytes = response_bytes
        self.rng = rng or random.Random(0)
        self.src_ip = src_ip
        self.latencies = TimeSeries("http.client.latency")
        self.errors = Counter(self.sim, "http.client.errors")
        self.completed = Counter(self.sim, "http.client.completed")

    # -- one request ----------------------------------------------------------

    def fetch(self, path: str = "/") -> Signal:
        """Issue a single GET; Signal -> latency seconds."""
        return self.sim.process(self._fetch(path), name="http.fetch")

    def _fetch(self, path: str):
        start = self.sim.now
        reply_ip = self.src_ip or self.netstack.primary_ip
        port = self.netstack.ephemeral_port()
        inbox = self.netstack.listen(port, ip=reply_ip)
        try:
            try:
                yield self.netstack.send(
                    self.server_ip, self.server_port,
                    {"path": path, "response_bytes": self.response_bytes},
                    size=REQUEST_BYTES,
                    src_ip=reply_ip, src_port=port, tag="http-request",
                )
                yield inbox.get()
            except Exception as exc:
                self.errors.add()
                if isinstance(exc, PiCloudError):
                    raise
                raise PiCloudError(str(exc)) from exc
            latency = self.sim.now - start
            self.latencies.record(self.sim.now, latency)
            self.completed.add()
            return latency
        finally:
            self.netstack.close(port, ip=reply_ip)

    # -- closed loop --------------------------------------------------------------

    def run_closed_loop(
        self,
        workers: int,
        duration_s: float,
        think_time_s: float = 0.1,
    ) -> Signal:
        """N users: request -> wait -> think, for ``duration_s``."""
        if workers < 1:
            raise ValueError("need at least one worker")
        deadline = self.sim.now + duration_s

        def worker(index: int):
            while self.sim.now < deadline:
                try:
                    yield self.fetch(f"/w{index}")
                except Exception:
                    yield Timeout(self.sim, min(1.0, think_time_s or 1.0))
                    continue
                if think_time_s > 0:
                    think = self.rng.expovariate(1.0 / think_time_s)
                    yield Timeout(self.sim, think)

        processes = [
            self.sim.process(worker(i), name=f"http.worker{i}")
            for i in range(workers)
        ]

        def waiter():
            yield AllOf(self.sim, processes)
            return self.summary()

        return self.sim.process(waiter(), name="http.closed-loop")

    # -- open loop ------------------------------------------------------------------

    def run_open_loop(self, rate_per_s: float, duration_s: float) -> Signal:
        """Poisson arrivals at ``rate_per_s`` for ``duration_s``."""
        if rate_per_s <= 0:
            raise ValueError("rate must be positive")
        deadline = self.sim.now + duration_s

        def generator():
            pending = []
            while self.sim.now < deadline:
                pending.append(self.fetch("/"))
                yield Timeout(self.sim, self.rng.expovariate(rate_per_s))
            # Drain: wait for outstanding requests (ignore failures).
            for signal in pending:
                if not signal.triggered:
                    try:
                        yield signal
                    except Exception:
                        pass
            return self.summary()

        return self.sim.process(generator(), name="http.open-loop")

    def summary(self) -> dict[str, float]:
        from repro.telemetry.stats import summarize

        stats = summarize(self.latencies.values)
        return {
            "completed": self.completed.total,
            "errors": self.errors.total,
            "latency_mean": stats.mean,
            "latency_p50": stats.p50,
            "latency_p99": stats.p99,
        }

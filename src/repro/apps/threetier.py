"""A three-tier web service: web -> app -> database across containers.

The canonical cloud service shape: a front-end web container renders
pages, calling an application-logic container, which queries a key-value
database container.  Per-tier latency is recorded, so placement
experiments can see exactly where time goes when tiers land in different
racks (the §III "file management and migration" and locality questions).
"""

from __future__ import annotations

from typing import Optional

from repro.errors import PiCloudError
from repro.hostos.netstack import Message
from repro.telemetry.series import Counter, TimeSeries
from repro.units import kib, mcycles
from repro.virt.container import Container, ContainerState

WEB_PORT = 80
APP_PORT = 8800
DB_PORT = 6379

WEB_CYCLES = mcycles(3)
APP_CYCLES = mcycles(6)
DB_CYCLES = mcycles(1.5)


class _TierServer:
    """Internal: a tier that does CPU work then either calls on or replies."""

    def __init__(self, service: "ThreeTierService", container: Container,
                 port: int, cycles: float, downstream: Optional[str],
                 downstream_port: Optional[int], response_bytes: int) -> None:
        self.service = service
        self.container = container
        self.sim = container.runtime.sim
        self.port = port
        self.cycles = cycles
        self.downstream = downstream
        self.downstream_port = downstream_port
        self.response_bytes = response_bytes
        self.latencies = TimeSeries(f"{container.name}.tier.latency")
        self._inbox = container.listen(port)
        self._stopped = False
        self._process = self.sim.process(
            self._serve(), name=f"tier:{container.name}"
        )

    def stop(self) -> None:
        self._stopped = True
        if self.container.state in (ContainerState.RUNNING, ContainerState.FROZEN):
            self.container.runtime.kernel.netstack.close(
                self.port, ip=self.container.ip
            )
        self._process.interrupt("tier stopped")

    def _serve(self):
        while not self._stopped:
            message: Message = yield self._inbox.get()
            self.sim.process(self._handle(message),
                             name=f"tier:{self.container.name}:req")

    def _handle(self, message: Message):
        start = self.sim.now
        kernel = self.container.runtime.kernel
        try:
            yield self.container.execute(self.cycles, name=f"tier-{self.port}")
        except Exception:
            return
        if self.downstream is not None:
            # RPC to the next tier, then relay its answer upstream.
            port = kernel.netstack.ephemeral_port()
            inbox = kernel.netstack.listen(port, ip=self.container.ip)
            try:
                try:
                    yield kernel.netstack.send(
                        self.downstream, self.downstream_port,
                        message.payload, size=kib(1),
                        src_ip=self.container.ip, src_port=port,
                        tag="tier-rpc",
                    )
                    yield inbox.get()
                except Exception:
                    return
            finally:
                kernel.netstack.close(port, ip=self.container.ip)
        try:
            yield kernel.netstack.reply(
                message, {"status": 200}, size=self.response_bytes,
                tag="tier-response",
            )
        except Exception:
            return
        self.latencies.record(self.sim.now, self.sim.now - start)


class ThreeTierService:
    """Deploy the web/app/db chain over three running containers."""

    def __init__(
        self,
        web: Container,
        app: Container,
        db: Container,
        page_bytes: int = kib(32),
    ) -> None:
        for tier in (web, app, db):
            if not tier.is_running:
                raise PiCloudError(f"tier container {tier.name!r} is not running")
        self.sim = web.runtime.sim
        self.web = web
        self.app = app
        self.db = db
        self.db_tier = _TierServer(
            self, db, DB_PORT, DB_CYCLES, None, None, response_bytes=kib(4)
        )
        self.app_tier = _TierServer(
            self, app, APP_PORT, APP_CYCLES, db.ip, DB_PORT, response_bytes=kib(8)
        )
        self.web_tier = _TierServer(
            self, web, WEB_PORT, WEB_CYCLES, app.ip, APP_PORT,
            response_bytes=page_bytes,
        )
        self.requests = Counter(self.sim, "threetier.requests")

    def stop(self) -> None:
        for tier in (self.web_tier, self.app_tier, self.db_tier):
            tier.stop()

    @property
    def entry_ip(self) -> str:
        return self.web.ip

    @property
    def entry_port(self) -> int:
        return WEB_PORT

    def tier_latency_breakdown(self) -> dict[str, float]:
        """Mean in-tier latency per tier (seconds)."""
        def mean(series: TimeSeries) -> float:
            return sum(series.values) / len(series) if len(series) else 0.0

        return {
            "web": mean(self.web_tier.latencies),
            "app": mean(self.app_tier.latencies),
            "db": mean(self.db_tier.latencies),
        }

    def spans_racks(self) -> bool:
        """Do the tiers live in more than one rack?"""
        racks = {
            t.runtime.kernel.machine.rack for t in (self.web, self.app, self.db)
        }
        return len(racks) > 1

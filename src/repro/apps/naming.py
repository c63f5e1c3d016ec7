"""Name-based senders: the §III "IP-less routing" study apparatus.

"We are researching IP-less routing in order to support more flexible
and efficient migration."  The pain being solved: when a VM's address is
bound to its subnet, migration re-addresses it and every peer holding
the old address breaks until it re-resolves.  Two senders capture the
design space:

* :class:`CachedIpSender` -- the conventional scheme: resolve the name
  through DNS once, cache the address for ``cache_ttl_s``, send to the
  cached address.  Fast, but stale after an address change.
* :class:`FlatNameSender` -- the IP-less scheme: every message resolves
  the *current* location through the (logically centralised) directory,
  paying a small per-message resolution latency, and therefore follows
  migrations immediately.

Both count delivery failures so experiments can quantify the outage
window each scheme suffers across migrations.
"""

from __future__ import annotations

from typing import Any, Tuple

from repro.errors import NameError_, PiCloudError
from repro.hostos.netstack import NetStack
from repro.mgmt.dns import DnsServer
from repro.sim.process import Signal, Timeout
from repro.telemetry.series import Counter

# Directory lookup cost for the flat scheme (a small control-plane RPC).
DEFAULT_RESOLVE_LATENCY_S = 0.5e-3


class _SenderBase:
    def __init__(self, netstack: NetStack, dns: DnsServer) -> None:
        self.netstack = netstack
        self.sim = netstack.sim
        self.dns = dns
        self.sent = Counter(self.sim, "named.sent")
        self.delivered = Counter(self.sim, "named.delivered")
        self.failed = Counter(self.sim, "named.failed")

    def _transmit(self, ip: str, port: int, payload: Any, size: int):
        try:
            message = yield self.netstack.send(ip, port, payload, size)
        except Exception as exc:
            self.failed.add()
            if isinstance(exc, PiCloudError):
                raise
            raise PiCloudError(str(exc)) from exc
        self.delivered.add()
        return message

    @property
    def failure_rate(self) -> float:
        return self.failed.total / self.sent.total if self.sent.total else 0.0


class CachedIpSender(_SenderBase):
    """Resolve once, cache for ``cache_ttl_s``, send to the cached IP."""

    def __init__(self, netstack: NetStack, dns: DnsServer,
                 cache_ttl_s: float = 60.0) -> None:
        super().__init__(netstack, dns)
        if cache_ttl_s <= 0:
            raise ValueError("cache TTL must be positive")
        self.cache_ttl_s = cache_ttl_s
        self._cache: dict[str, Tuple[str, float]] = {}
        self.cache_hits = 0
        self.resolutions = 0

    def _resolve(self, name: str) -> str:
        cached = self._cache.get(name)
        if cached is not None and self.sim.now - cached[1] < self.cache_ttl_s:
            self.cache_hits += 1
            return cached[0]
        ip = self.dns.resolve(name)  # raises NameError_ on NXDOMAIN
        self.resolutions += 1
        self._cache[name] = (ip, self.sim.now)
        return ip

    def send(self, name: str, port: int, payload: Any, size: int) -> Signal:
        self.sent.add()

        def run():
            try:
                ip = self._resolve(name)
            except NameError_:
                self.failed.add()
                raise
            try:
                return (yield from self._transmit(ip, port, payload, size))
            except PiCloudError:
                # Delivery failed: drop the (likely stale) cache entry so
                # the *next* send re-resolves -- standard client behaviour.
                self._cache.pop(name, None)
                raise

        return self.sim.process(run(), name=f"cached-send:{name}")


class FlatNameSender(_SenderBase):
    """Resolve the current location on *every* send (IP-less routing)."""

    def __init__(self, netstack: NetStack, dns: DnsServer) -> None:
        super().__init__(netstack, dns)
        self.resolutions = 0

    def send(self, name: str, port: int, payload: Any, size: int) -> Signal:
        self.sent.add()

        def run():
            yield Timeout(self.sim, DEFAULT_RESOLVE_LATENCY_S)
            try:
                ip = self.dns.resolve(name)
            except NameError_:
                self.failed.add()
                raise
            self.resolutions += 1
            return (yield from self._transmit(ip, port, payload, size))

        return self.sim.process(run(), name=f"flat-send:{name}")

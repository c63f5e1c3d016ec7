"""DHCP: the pimaster's IP-assignment policy service.

"A system administrator can implement customised IP and naming policies
through DHCP and DNS services running on the pimaster" (§II-A).  Leases
have lifetimes; each grant schedules its own expiry event, so addresses
of clients that did not renew are reclaimed -- and the event queue stays
finite (the simulation terminates when real work does).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import LeaseError
from repro.netsim.addresses import Ipv4Pool
from repro.sim.kernel import Simulator

DEFAULT_LEASE_TTL_S = 3600.0


@dataclass
class Lease:
    """One DHCP lease."""

    client_id: str
    ip: str
    hostname: str
    granted_at: float
    expires_at: float

    def active(self, now: float) -> bool:
        return now < self.expires_at


class DhcpServer:
    """Lease management over an :class:`~repro.netsim.addresses.Ipv4Pool`."""

    def __init__(
        self,
        sim: Simulator,
        pool: Ipv4Pool,
    ) -> None:
        self.sim = sim
        self.pool = pool
        self._by_client: Dict[str, Lease] = {}
        self.leases_granted = 0
        self.leases_expired = 0

    # -- protocol operations ----------------------------------------------------

    def request_lease(self, client_id: str, hostname: str = "",
                      ttl_s: Optional[float] = None) -> Lease:
        """DISCOVER/REQUEST: grant (or renew) a lease for ``client_id``.

        ``ttl_s`` overrides the server default; ``float('inf')`` makes an
        effectively-static assignment (used for infrastructure nodes).
        """
        existing = self._by_client.get(client_id)
        if existing is not None and existing.active(self.sim.now):
            return self.renew(client_id)
        if existing is not None:
            self._reclaim(existing)
        ip = self.pool.allocate()  # raises AddressError when exhausted
        ttl = ttl_s if ttl_s is not None else DEFAULT_LEASE_TTL_S
        lease = Lease(
            client_id=client_id,
            ip=ip,
            hostname=hostname or client_id,
            granted_at=self.sim.now,
            expires_at=self.sim.now + ttl,
        )
        self._by_client[client_id] = lease
        self.leases_granted += 1
        self._schedule_expiry(lease)
        return lease

    def renew(self, client_id: str) -> Lease:
        lease = self._by_client.get(client_id)
        if lease is None or not lease.active(self.sim.now):
            raise LeaseError(f"no active lease for client {client_id!r}")
        lease.expires_at = self.sim.now + DEFAULT_LEASE_TTL_S
        # The previously-scheduled expiry check will see the new deadline
        # and re-arm itself; no extra bookkeeping needed.
        return lease

    def release(self, client_id: str) -> None:
        lease = self._by_client.pop(client_id, None)
        if lease is None:
            raise LeaseError(f"no lease for client {client_id!r}")
        self.pool.release(lease.ip)

    def lookup(self, client_id: str) -> Optional[Lease]:
        lease = self._by_client.get(client_id)
        if lease is not None and lease.active(self.sim.now):
            return lease
        return None

    # -- expiry ---------------------------------------------------------------------

    def _schedule_expiry(self, lease: Lease) -> None:
        if math.isinf(lease.expires_at):
            return  # static assignment; never expires
        self.sim.schedule_at(lease.expires_at, self._check_expiry, lease)

    def _check_expiry(self, lease: Lease) -> None:
        current = self._by_client.get(lease.client_id)
        if current is not lease:
            return  # released or replaced meanwhile
        if lease.active(self.sim.now):
            # Renewed since this check was scheduled: re-arm for the new
            # deadline.
            self._schedule_expiry(lease)
            return
        self._reclaim(lease)

    def _reclaim(self, lease: Lease) -> None:
        self._by_client.pop(lease.client_id, None)
        self.pool.release(lease.ip)
        self.leases_expired += 1

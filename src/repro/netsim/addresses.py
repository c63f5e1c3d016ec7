"""IPv4 address management.

The pimaster's DHCP service (:mod:`repro.mgmt.dhcp`) allocates from an
:class:`Ipv4Pool`.  Built on the stdlib :mod:`ipaddress` module.
"""

from __future__ import annotations

import ipaddress
from typing import Iterator, Set

from repro.errors import AddressError


class Ipv4Pool:
    """A subnet's worth of assignable host addresses.

    Network and broadcast addresses are never handed out; specific
    addresses can be reserved (the gateway, pimaster's static address).
    """

    def __init__(self, cidr: str) -> None:
        try:
            self.network = ipaddress.ip_network(cidr, strict=True)
        except ValueError as exc:
            raise AddressError(f"bad CIDR {cidr!r}: {exc}") from exc
        if self.network.version != 4:
            raise AddressError(f"only IPv4 pools are supported, got {cidr!r}")
        self._assigned: Set[ipaddress.IPv4Address] = set()
        self._cursor: Iterator[ipaddress.IPv4Address] = self.network.hosts()

    @property
    def cidr(self) -> str:
        return str(self.network)

    @property
    def assigned_count(self) -> int:
        return len(self._assigned)

    @property
    def capacity(self) -> int:
        return self.network.num_addresses - 2 if self.network.prefixlen < 31 else 2

    def reserve(self, address: str) -> str:
        """Claim a specific address (static assignment)."""
        addr = self._parse(address)
        if addr in self._assigned:
            raise AddressError(f"{address} already assigned in {self.cidr}")
        self._assigned.add(addr)
        return str(addr)

    def allocate(self) -> str:
        """Hand out the next free address in the pool."""
        for candidate in self._cursor:
            if candidate not in self._assigned:
                self._assigned.add(candidate)
                return str(candidate)
        # The cursor is exhausted; look for addresses released earlier.
        for candidate in self.network.hosts():
            if candidate not in self._assigned:
                self._assigned.add(candidate)
                return str(candidate)
        raise AddressError(f"pool {self.cidr} exhausted ({self.capacity} hosts)")

    def release(self, address: str) -> None:
        addr = self._parse(address)
        try:
            self._assigned.remove(addr)
        except KeyError:
            raise AddressError(f"{address} not assigned in {self.cidr}") from None

    def is_assigned(self, address: str) -> bool:
        return self._parse(address) in self._assigned

    def _parse(self, address: str) -> ipaddress.IPv4Address:
        try:
            addr = ipaddress.ip_address(address)
        except ValueError as exc:
            raise AddressError(f"bad address {address!r}: {exc}") from exc
        if addr not in self.network:
            raise AddressError(f"{address} not in {self.cidr}")
        if self.network.prefixlen < 31 and addr in (
            self.network.network_address,
            self.network.broadcast_address,
        ):
            raise AddressError(f"{address} is the network/broadcast address")
        return addr

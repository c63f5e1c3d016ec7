"""Per-host IP networking over the fabric: addresses, ports, messages.

The :class:`IpFabric` is the glue between IP-level endpoints (hosts and
bridged containers, each with an address) and the flow-level
:class:`~repro.netsim.fabric.Network`.  A container's veth interface is
bridged onto its host's physical NIC (paper §II-B: "bridging or NATing
the virtual hosts to the physical network"), so container traffic shares
the host's access link -- which is exactly how consolidation pressure
turns into link congestion.

The socket model is message-oriented: ``send(msg)`` creates one fabric
flow of the message's size; delivery lands the message in the listener's
mailbox.  REST, HTTP workloads, MapReduce shuffles and migration streams
are all built from these messages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.errors import AddressError, ConnectionRefusedError, NetworkError
from repro.netsim.fabric import Network
from repro.sim.kernel import Simulator
from repro.sim.process import Signal
from repro.sim.resources import Store

EPHEMERAL_PORT_START = 32768


@dataclass
class Message:
    """One application message (request or response)."""

    src_ip: str
    src_port: int
    dst_ip: str
    dst_port: int
    payload: Any
    size: int
    sent_at: float = 0.0
    delivered_at: float = 0.0

    @property
    def reply_address(self) -> Tuple[str, int]:
        return (self.src_ip, self.src_port)


@dataclass
class _Endpoint:
    """Registry row: where an IP address physically lives."""

    stack: "NetStack"
    node_id: str


class IpFabric:
    """The IP address registry spanning the whole PiCloud."""

    def __init__(self, sim: Simulator, network: Network) -> None:
        self.sim = sim
        self.network = network
        self._endpoints: Dict[str, _Endpoint] = {}

    def register(self, ip: str, stack: "NetStack", node_id: str) -> None:
        if ip in self._endpoints:
            raise AddressError(f"IP {ip} already registered")
        if node_id not in self.network.topology.graph:
            raise NetworkError(f"node {node_id!r} not in the fabric")
        self._endpoints[ip] = _Endpoint(stack, node_id)

    def unregister(self, ip: str) -> None:
        self._endpoints.pop(ip, None)

    def locate(self, ip: str) -> _Endpoint:
        try:
            return self._endpoints[ip]
        except KeyError:
            raise AddressError(f"no endpoint with IP {ip}") from None


class NetStack:
    """One host's (or container's) IP stack: bound addresses + port table."""

    def __init__(self, sim: Simulator, fabric: IpFabric, node_id: str, name: str = "") -> None:
        self.sim = sim
        self.fabric = fabric
        self.node_id = node_id
        self.name = name or node_id
        self.addresses: list[str] = []
        self._listeners: Dict[Tuple[str, int], Store] = {}
        self._next_ephemeral = EPHEMERAL_PORT_START
        # Per-source-IP egress shaping (tc-style soft limits), bytes/s.
        self._rate_caps: Dict[str, float] = {}

    # -- addressing ---------------------------------------------------------

    def bind_address(self, ip: str) -> None:
        """Attach an IP to this stack (host address or bridged container)."""
        self.fabric.register(ip, self, self.node_id)
        self.addresses.append(ip)

    def unbind_address(self, ip: str) -> None:
        if ip in self.addresses:
            self.addresses.remove(ip)
            self.fabric.unregister(ip)

    def reset(self) -> None:
        """Tear the stack down: unbind every address, drop ports and caps.

        Used when a failed node is re-imaged -- its old stack must stop
        claiming fabric addresses so the replacement kernel can bind
        fresh ones without collisions.
        """
        for ip in list(self.addresses):
            self.unbind_address(ip)
        self._listeners.clear()
        self._rate_caps.clear()

    @property
    def primary_ip(self) -> str:
        if not self.addresses:
            raise AddressError(f"stack {self.name!r} has no bound address")
        return self.addresses[0]

    def ephemeral_port(self) -> int:
        port = self._next_ephemeral
        self._next_ephemeral += 1
        return port

    # -- egress shaping -------------------------------------------------------

    def set_rate_cap(self, ip: str, bytes_per_s: Optional[float]) -> None:
        """Cap (or uncap, with None) traffic *sent from* ``ip``.

        The tc-equivalent behind per-VM network limits: every flow whose
        source is ``ip`` is rate-limited at the sender, regardless of how
        much fabric capacity is free.
        """
        if bytes_per_s is None:
            self._rate_caps.pop(ip, None)
            return
        if bytes_per_s <= 0:
            raise NetworkError(f"rate cap for {ip} must be positive")
        self._rate_caps[ip] = bytes_per_s

    def rate_cap(self, ip: str) -> Optional[float]:
        return self._rate_caps.get(ip)

    # -- listening -----------------------------------------------------------

    def listen(self, port: int, ip: Optional[str] = None) -> Store:
        """Open a mailbox for ``(ip, port)``; returns the inbox Store."""
        address = ip or self.primary_ip
        if address not in self.addresses:
            raise AddressError(f"stack {self.name!r} does not own {address}")
        key = (address, port)
        if key in self._listeners:
            raise AddressError(f"{address}:{port} already has a listener")
        inbox = Store(self.sim, name=f"{self.name}:{port}")
        self._listeners[key] = inbox
        return inbox

    def close(self, port: int, ip: Optional[str] = None) -> None:
        address = ip or self.primary_ip
        self._listeners.pop((address, port), None)

    def listener_for(self, ip: str, port: int) -> Optional[Store]:
        return self._listeners.get((ip, port))

    def transfer_listeners(self, ip: str, to_stack: "NetStack") -> int:
        """Move every mailbox bound to ``ip`` onto another stack.

        Live migration uses this at switchover: the container's open
        server sockets (and any queued messages in them) travel with it.
        Returns the number of listeners moved.
        """
        moved = 0
        for key in [k for k in self._listeners if k[0] == ip]:
            to_stack._listeners[key] = self._listeners.pop(key)
            moved += 1
        return moved

    def rekey_listeners(self, old_ip: str, new_ip: str) -> int:
        """Re-address every mailbox from ``old_ip`` to ``new_ip`` in place.

        Used when a running container is re-leased (the IP-full migration
        mode): its server sockets keep their ports under the new address.
        """
        moved = 0
        for ip, port in [k for k in self._listeners if k[0] == old_ip]:
            self._listeners[(new_ip, port)] = self._listeners.pop((old_ip, port))
            moved += 1
        return moved

    # -- sending ----------------------------------------------------------------

    def send(
        self,
        dst_ip: str,
        dst_port: int,
        payload: Any,
        size: int,
        src_ip: Optional[str] = None,
        src_port: Optional[int] = None,
        flow_key: Any = None,
        tag: str = "",
        parent=None,
    ) -> Signal:
        """Transmit a message; the Signal fires with it once delivered.

        Fails with :class:`ConnectionRefusedError` if nothing listens on
        the destination, or a :class:`~repro.errors.NetworkError` if the
        fabric cannot carry the flow.  ``parent`` attributes the carrying
        flow to a causal trace (see :mod:`repro.trace`).
        """
        message = Message(
            src_ip=src_ip or self.primary_ip,
            src_port=src_port if src_port is not None else self.ephemeral_port(),
            dst_ip=dst_ip,
            dst_port=dst_port,
            payload=payload,
            size=size,
            sent_at=self.sim.now,
        )
        done = Signal(self.sim, name=f"{self.name}.send")
        try:
            destination = self.fabric.locate(dst_ip)
        except AddressError as exc:
            done.fail(exc)
            return done
        inbox = destination.stack.listener_for(dst_ip, dst_port)
        if inbox is None:
            done.fail(
                ConnectionRefusedError(f"nothing listening on {dst_ip}:{dst_port}")
            )
            return done

        key = flow_key if flow_key is not None else (
            message.src_ip, message.src_port, dst_ip, dst_port
        )
        flow = self.fabric.network.transfer(
            self.node_id,
            destination.node_id,
            size,
            flow_key=key,
            rate_cap=self._rate_caps.get(message.src_ip),
            tag=tag or f"msg:{dst_ip}:{dst_port}",
            parent=parent,
        )

        def on_flow(sig: Signal) -> None:
            exc = sig.exception
            if exc is not None:
                done.fail(exc)
                return
            message.delivered_at = self.sim.now
            # Listener may have closed while in flight.
            live_inbox = destination.stack.listener_for(dst_ip, dst_port)
            if live_inbox is None:
                done.fail(
                    ConnectionRefusedError(
                        f"listener on {dst_ip}:{dst_port} closed mid-flight"
                    )
                )
                return
            live_inbox.put(message)
            done.succeed(message)

        flow.add_done_callback(on_flow)
        return done

    def reply(self, request: Message, payload: Any, size: int, tag: str = "",
              parent=None) -> Signal:
        """Send a response back to a request's source address."""
        dst_ip, dst_port = request.reply_address
        return self.send(
            dst_ip, dst_port, payload, size,
            src_ip=request.dst_ip, src_port=request.dst_port, tag=tag,
            parent=parent,
        )

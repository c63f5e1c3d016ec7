"""Peer-to-peer cloud management: the §III "radical departure".

"The flexibility of owning our own testbed allows us to consider radical
departures to the norm, such as a peer-to-peer Cloud management system."
This module is that departure: no pimaster.  Every Pi runs a
:class:`P2pAgent` that

* maintains **membership** by anti-entropy gossip (heartbeat counters,
  periodic exchange with ``FANOUT`` random peers, suspicion after
  ``suspect_timeout_s`` without heartbeat progress);
* serves **decentralised placement**: a spawn request submitted to *any*
  agent is routed by consistent hashing of the container name over the
  live membership ring -- the owner (or its successors, walking the ring
  on lack of capacity) creates and starts the container locally from its
  own image cache and its own local address block.

There is no single point of failure: killing any node merely shrinks the
ring, and names re-hash to live owners -- the property the experiment
suite contrasts with the pimaster architecture.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import RestError
from repro.hostos.kernelhost import HostKernel
from repro.mgmt.images import cache_path
from repro.mgmt.rest import RestClient, RestRequest, RestServer
from repro.netsim.addresses import Ipv4Pool
from repro.sim.process import Timeout
from repro.virt.image import ContainerImage
from repro.virt.lxc import LxcRuntime

P2P_PORT = 8700
# Random peers each gossip round reaches.
FANOUT = 2


def ring_hash(key: str) -> int:
    """Stable 64-bit position on the ring."""
    return int.from_bytes(hashlib.sha256(key.encode()).digest()[:8], "big")


@dataclass
class MemberInfo:
    """What an agent believes about one peer."""

    node_id: str
    ip: str
    heartbeat: int
    updated_at: float  # local time the heartbeat last advanced

    @property
    def digest(self) -> Tuple[str, int]:
        return (self.ip, self.heartbeat)


class P2pAgent:
    """One node's membership + placement agent."""

    def __init__(
        self,
        kernel: HostKernel,
        runtime: LxcRuntime,
        container_subnet: str,
        seeds: Optional[List[Tuple[str, str]]] = None,
        gossip_interval_s: float = 2.0,
        suspect_timeout_s: float = 10.0,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.kernel = kernel
        self.sim = kernel.sim
        self.runtime = runtime
        self.node_id = kernel.node_id
        self.ip = kernel.netstack.primary_ip
        self.gossip_interval_s = gossip_interval_s
        self.suspect_timeout_s = suspect_timeout_s
        self.rng = rng or random.Random(ring_hash(self.node_id) & 0xFFFF)
        self.pool = Ipv4Pool(container_subnet)
        self._images: Dict[str, ContainerImage] = {}
        self._heartbeat = 0
        self.members: Dict[str, MemberInfo] = {
            self.node_id: MemberInfo(self.node_id, self.ip, 0, self.sim.now)
        }
        for node_id, ip in seeds or []:
            if node_id != self.node_id:
                self.members[node_id] = MemberInfo(node_id, ip, 0, self.sim.now)
        self.client = RestClient(kernel.netstack, timeout_s=60.0)
        self.server = RestServer(kernel, P2P_PORT, name=f"p2p:{self.node_id}")
        self.server.add_route("POST", "/p2p/gossip", self._handle_gossip)
        self.server.add_route("POST", "/p2p/spawn", self._handle_spawn)
        self.server.add_route("GET", "/p2p/members", self._handle_members)
        self.gossip_rounds = 0
        self.spawns_handled = 0
        self.spawns_forwarded = 0
        self._stopped = False
        self._process = self.sim.process(self._gossip_loop(), name=f"p2p:{self.node_id}")

    # -- image seeding (out-of-band for the P2P study) -------------------------

    def seed_image(self, image: ContainerImage) -> None:
        """Install an image into the local cache (metadata only)."""
        path = cache_path(image)
        if not self.kernel.filesystem.exists(path):
            self.kernel.filesystem.create(path, image.rootfs_bytes)
        self._images[image.qualified_name] = image

    # -- membership -----------------------------------------------------------------

    def alive_members(self) -> List[MemberInfo]:
        """Members whose heartbeat advanced within the suspicion window."""
        now = self.sim.now
        return sorted(
            (
                m for m in self.members.values()
                if m.node_id == self.node_id
                or now - m.updated_at <= self.suspect_timeout_s
            ),
            key=lambda m: m.node_id,
        )

    def _digest_table(self) -> Dict[str, Tuple[str, int]]:
        return {node_id: info.digest for node_id, info in self.members.items()}

    def _merge(self, table: Dict[str, Tuple[str, int]]) -> None:
        for node_id, (ip, heartbeat) in table.items():
            if node_id == self.node_id:
                continue
            known = self.members.get(node_id)
            if known is None or heartbeat > known.heartbeat:
                self.members[node_id] = MemberInfo(node_id, ip, heartbeat, self.sim.now)

    def stop(self) -> None:
        self._stopped = True
        self.server.stop()
        self._process.interrupt("agent stopped")

    def _gossip_loop(self):
        while not self._stopped:
            yield Timeout(self.sim, self.gossip_interval_s)
            self._heartbeat += 1
            me = self.members[self.node_id]
            me.heartbeat = self._heartbeat
            me.updated_at = self.sim.now
            peers = [m for m in self.members.values() if m.node_id != self.node_id]
            self.rng.shuffle(peers)
            for peer in peers[: FANOUT]:
                try:
                    response = yield self.client.post(
                        peer.ip, P2P_PORT, "/p2p/gossip",
                        body={"from": self.node_id, "table": {
                            k: list(v) for k, v in self._digest_table().items()
                        }},
                    )
                except Exception:  # noqa: BLE001 - peer down; gossip survives
                    continue
                if response.ok:
                    self._merge({
                        k: tuple(v) for k, v in response.body["table"].items()
                    })
            self.gossip_rounds += 1

    def _handle_gossip(self, request: RestRequest):
        body = request.body or {}
        self._merge({k: tuple(v) for k, v in body.get("table", {}).items()})
        return 200, {"table": {k: list(v) for k, v in self._digest_table().items()}}

    def _handle_members(self, request: RestRequest):
        return 200, [
            {"node": m.node_id, "ip": m.ip, "heartbeat": m.heartbeat}
            for m in self.alive_members()
        ]

    # -- decentralised placement ----------------------------------------------------

    def owners_for(self, name: str) -> List[MemberInfo]:
        """The ring walk order for a container name: owner then successors."""
        alive = self.alive_members()
        if not alive:
            return []
        positions = sorted(alive, key=lambda m: ring_hash(m.node_id))
        key = ring_hash(name)
        start = next(
            (i for i, m in enumerate(positions) if ring_hash(m.node_id) >= key),
            0,
        )
        return positions[start:] + positions[:start]

    def _handle_spawn(self, request: RestRequest):
        body = request.body or {}
        for field in ("name", "image"):
            if field not in body:
                raise RestError(400, f"missing field {field!r}")
        name = body["name"]
        hops = body.get("hops", 0)
        owners = self.owners_for(name)
        if not owners:
            raise RestError(503, "no live members")
        owner = owners[0]
        if owner.node_id != self.node_id:
            if hops >= 2:
                raise RestError(508, "spawn forwarding loop")
            # Forward to the ring owner (one hop).
            self.spawns_forwarded += 1
            response = yield self.client.post(
                owner.ip, P2P_PORT, "/p2p/spawn",
                body={**body, "hops": hops + 1},
            )
            return response.status, response.body
        # We own the name: place locally.
        image = self._images.get(body["image"])
        if image is None:
            raise RestError(409, f"image {body['image']!r} not seeded on {self.node_id}")
        try:
            container = yield self.runtime.lxc_create(name, image)
            ip = self.pool.allocate()
            yield self.runtime.lxc_start(container, ip=ip)
        except Exception as exc:
            raise RestError(507, f"local spawn failed: {exc}") from exc
        self.spawns_handled += 1
        return 201, {"name": name, "node": self.node_id, "ip": ip}

"""Peer-assisted image distribution: §III "file management ... techniques".

"By operating an actual infrastructure, we can empirically evaluate
improvements to file management and migration techniques."  The baseline
file-management technique is pimaster unicasting every image to every
node -- N full-size transfers out of one uplink.  The improvement this
module provides is swarm-style distribution:

1. pimaster seeds the image to one node per rack (in parallel);
2. every remaining node pulls from an already-seeded *peer*, preferring
   a rack-local one (so most traffic never leaves the ToR), with a bounded
   number of concurrent uploads per seeder.

Nodes receive pushes through their ordinary ``POST /images`` endpoint in
both schemes -- the techniques differ only in who sends the bytes, which
is exactly the file-management question the paper poses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import ImageError
from repro.mgmt.node_daemon import NODE_DAEMON_PORT
from repro.mgmt.pimaster import PiMaster
from repro.mgmt.rest import RestClient
from repro.sim.process import Signal
from repro.virt.image import ContainerImage


@dataclass
class DistributionReport:
    """How one fleet-wide image distribution went."""

    image: str
    scheme: str
    nodes: int = 0
    succeeded: List[str] = field(default_factory=list)
    failed: List[str] = field(default_factory=list)
    started_at: float = 0.0
    finished_at: float = 0.0
    pimaster_bytes_sent: float = 0.0
    peer_bytes_sent: float = 0.0

    @property
    def duration_s(self) -> float:
        return self.finished_at - self.started_at


class ImageDistributor:
    """Fleet-wide image distribution with selectable scheme."""

    def __init__(self, pimaster: PiMaster,
                 uploads_per_seeder: int = 2) -> None:
        if uploads_per_seeder < 1:
            raise ValueError("uploads_per_seeder must be >= 1")
        self.pimaster = pimaster
        self.sim = pimaster.sim
        self.uploads_per_seeder = uploads_per_seeder

    # -- shared plumbing ------------------------------------------------------

    def _push(self, client: RestClient, node_id: str,
              image: ContainerImage) -> Signal:
        """One image push over REST (used by both schemes)."""
        return self.pimaster.images.push(
            client, node_id, self.pimaster.node_ip(node_id), NODE_DAEMON_PORT,
            image,
        )

    def _rack_of(self, node_id: str) -> Optional[str]:
        return self.pimaster.daemon(node_id).kernel.machine.rack

    # -- scheme 1: unicast from pimaster -----------------------------------------

    def distribute_unicast(self, image_name: str,
                           nodes: Optional[List[str]] = None) -> Signal:
        """Baseline: pimaster sends the full image to every node in parallel."""
        image = self.pimaster.images.get(image_name)
        targets = nodes if nodes is not None else self.pimaster.node_ids()
        report = DistributionReport(
            image=image.qualified_name, scheme="unicast",
            nodes=len(targets), started_at=self.sim.now,
        )

        def run():
            pushes = [
                (node, self._push(self.pimaster.client, node, image))
                for node in targets
                if not self.pimaster.images.node_has(node, image)
            ]
            already = [n for n in targets
                       if self.pimaster.images.node_has(n, image)]
            report.succeeded.extend(already)
            for node, push in pushes:
                try:
                    yield push
                except ImageError:
                    report.failed.append(node)
                    continue
                report.succeeded.append(node)
                report.pimaster_bytes_sent += image.rootfs_bytes
            report.finished_at = self.sim.now
            return report

        return self.sim.process(run(), name="dist:unicast")

    # -- scheme 2: peer-assisted swarm ----------------------------------------------

    def distribute_peer_assisted(self, image_name: str,
                                 nodes: Optional[List[str]] = None) -> Signal:
        """Seed one node per rack, then fan out from peers, rack-local first."""
        image = self.pimaster.images.get(image_name)
        targets = list(nodes if nodes is not None else self.pimaster.node_ids())
        report = DistributionReport(
            image=image.qualified_name, scheme="peer-assisted",
            nodes=len(targets), started_at=self.sim.now,
        )

        by_rack: Dict[Optional[str], List[str]] = {}
        for node in targets:
            by_rack.setdefault(self._rack_of(node), []).append(node)

        def run():
            seeded: List[str] = [
                n for n in targets if self.pimaster.images.node_has(n, image)
            ]
            report.succeeded.extend(seeded)
            # Phase 1: pimaster seeds the first node of each rack (parallel).
            seeds = []
            for rack_nodes in by_rack.values():
                candidate = next(
                    (n for n in rack_nodes if n not in seeded), None
                )
                if candidate is not None:
                    seeds.append((candidate,
                                  self._push(self.pimaster.client, candidate, image)))
            for node, push in seeds:
                try:
                    yield push
                except ImageError:
                    report.failed.append(node)
                    continue
                seeded.append(node)
                report.succeeded.append(node)
                report.pimaster_bytes_sent += image.rootfs_bytes

            # Phase 2: waves of peer pulls until everyone has the image.
            remaining = [n for n in targets
                         if n not in seeded and n not in report.failed]
            while remaining:
                wave: List[Tuple[str, Signal]] = []
                upload_slots = {seeder: self.uploads_per_seeder
                                for seeder in seeded}
                for node in list(remaining):
                    seeder = self._pick_seeder(node, seeded, upload_slots)
                    if seeder is None:
                        continue  # every seeder busy this wave
                    upload_slots[seeder] -= 1
                    client = RestClient(
                        self.pimaster.daemon(seeder).kernel.netstack,
                        timeout_s=1800.0,
                    )
                    wave.append((node, self._push(client, node, image)))
                    remaining.remove(node)
                    report.peer_bytes_sent += image.rootfs_bytes
                if not wave:
                    # No seeders at all (everything failed): give up.
                    report.failed.extend(remaining)
                    break
                for node, push in wave:
                    try:
                        yield push
                    except ImageError:
                        report.failed.append(node)
                        report.peer_bytes_sent -= image.rootfs_bytes
                        continue
                    seeded.append(node)
                    report.succeeded.append(node)
            report.finished_at = self.sim.now
            return report

        return self.sim.process(run(), name="dist:peer")

    def _pick_seeder(self, node: str, seeded: List[str],
                     slots: Dict[str, int]) -> Optional[str]:
        """Prefer a rack-local seeder with a free upload slot."""
        rack = self._rack_of(node)
        local = [s for s in seeded if self._rack_of(s) == rack and slots.get(s, 0) > 0]
        if local:
            return local[0]
        remote = [s for s in seeded if slots.get(s, 0) > 0]
        return remote[0] if remote else None

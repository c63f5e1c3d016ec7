"""Rolling image upgrades: the pimaster's fleet-patching tool.

§II-A: the pimaster "hosts image management tools providing image
upgrading, patching, and spawning".  A :class:`RollingUpgrade` moves
every managed container of an image onto the image's latest version,
``batch_size`` containers at a time: push the new image to the node
(real bytes), destroy the old container, respawn under the same name on
the same node, re-registering DHCP/DNS -- so at most ``batch_size``
replicas are ever down, and the upgrade's network/SD cost is borne on
the fabric.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.mgmt.pimaster import PiMaster
from repro.sim.process import Signal


@dataclass
class UpgradeReport:
    """Outcome of one rolling upgrade."""

    image: str
    from_versions: List[str] = field(default_factory=list)
    to_version: str = ""
    upgraded: List[str] = field(default_factory=list)
    failed: List[str] = field(default_factory=list)
    started_at: float = 0.0
    finished_at: float = 0.0
    max_simultaneously_down: int = 0

    @property
    def duration_s(self) -> float:
        return self.finished_at - self.started_at


class RollingUpgrade:
    """Upgrade all containers of ``image_name`` to the library's latest."""

    def __init__(self, pimaster: PiMaster, image_name: str,
                 batch_size: int = 1) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.pimaster = pimaster
        self.sim = pimaster.sim
        self.image_name = image_name
        self.batch_size = batch_size

    def targets(self) -> list:
        """Container records currently running an older version."""
        latest = self.pimaster.images.get(self.image_name)
        return [
            record
            for record in self.pimaster.container_records()
            if record.image.split(":")[0] == self.image_name
            and record.image != latest.qualified_name
        ]

    def run(self) -> Signal:
        """Execute the upgrade; Signal -> :class:`UpgradeReport`."""
        latest = self.pimaster.images.get(self.image_name)
        report = UpgradeReport(
            image=self.image_name,
            to_version=latest.qualified_name,
            started_at=self.sim.now,
        )
        targets = self.targets()
        report.from_versions = sorted({record.image for record in targets})

        def upgrade_one(record):
            """Child process: replace one container in place."""
            name, node = record.name, record.node_id
            try:
                yield self.pimaster.destroy_container(name)
                yield self.pimaster.spawn_container(
                    self.image_name, name=name, node_id=node,
                    group=record.group,
                )
            except Exception:
                report.failed.append(name)
                return
            report.upgraded.append(name)

        def run():
            batch: list = []
            for record in targets:
                batch.append(record)
                if len(batch) == self.batch_size:
                    yield from self._run_batch(batch, upgrade_one, report)
                    batch = []
            if batch:
                yield from self._run_batch(batch, upgrade_one, report)
            report.finished_at = self.sim.now
            return report

        return self.sim.process(run(), name=f"rolling:{self.image_name}")

    def _run_batch(self, batch, upgrade_one, report):
        from repro.sim.process import AllOf

        report.max_simultaneously_down = max(
            report.max_simultaneously_down, len(batch)
        )
        children = [
            self.sim.process(upgrade_one(record), name=f"upgrade:{record.name}")
            for record in batch
        ]
        yield AllOf(self.sim, children)

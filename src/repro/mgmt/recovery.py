"""Container evacuation: respawn the workload of a dead node elsewhere.

When the :class:`~repro.mgmt.health.FailureDetector` declares a node
dead, every container the registry recorded on it is gone -- the paper's
point about failures having cross-layer consequences.  The
:class:`RecoveryManager` turns that loss into an availability mechanism:

1. the dead node's container records are *forgotten* (registry row,
   DHCP lease, DNS record, fabric address) so their names and addresses
   can be reused;
2. each lost container is queued (bounded) for respawn through the
   normal placement policy -- so rack anti-affinity and group spreading
   hold for the replacement too;
3. respawns that fail are retried up to a per-container budget with
   linear backoff, then degrade gracefully to a logged *unschedulable*
   record instead of looping forever against a full cloud.

Every action is traced under the ``mgmt.evacuate`` span, itself parented
on the ``health.node-dead`` transition -- so the causal chain
fault -> detection -> evacuation -> respawn is assertable from an
exported trace.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Deque, Dict, List, Optional

from repro import trace
from repro.mgmt.health import NodeHealth
from repro.sim.process import Timeout

if TYPE_CHECKING:  # pragma: no cover
    from repro.mgmt.pimaster import ContainerRecord, PiMaster

log = logging.getLogger("repro.recovery")

# A failed respawn waits RETRY_BACKOFF_S x its attempt number before the
# next try; after RETRY_BUDGET retries the container is unschedulable.
RETRY_BACKOFF_S = 5.0
RETRY_BUDGET = 2
# Respawns queued at once; containers lost beyond it go unschedulable.
QUEUE_LIMIT = 64


@dataclass
class UnschedulableContainer:
    """A container the recovery plane gave up on (capacity exhausted)."""

    name: str
    image: str
    group: Optional[str]
    lost_from: str
    reason: str
    at: float


@dataclass
class _EvacuationItem:
    record: "ContainerRecord"
    lost_from: str
    span: object
    attempts: int = 0


@dataclass
class _Evacuation:
    """Book-keeping for one node's evacuation span."""

    span: object
    pending: int = 0
    failed: int = 0
    respawned: List[str] = field(default_factory=list)


class RecoveryManager:
    """Respawn containers lost to dead nodes via the placement policy.

    At most :data:`QUEUE_LIMIT` respawns wait in the queue, and each
    failed respawn is retried up to :data:`RETRY_BUDGET` times.
    """

    def __init__(self, pimaster: "PiMaster") -> None:
        self.pimaster = pimaster
        self.sim = pimaster.sim
        self._queue: Deque[_EvacuationItem] = deque()
        self._worker = None
        self._evacuations: Dict[int, _Evacuation] = {}
        self._evac_seq = 0
        self.evacuations = 0
        self.containers_evacuated = 0
        self.containers_respawned = 0
        self.respawn_retries = 0
        self.unschedulable: List[UnschedulableContainer] = []

    # -- entry points -----------------------------------------------------

    def on_transition(self, node_id: str, old: NodeHealth, new: NodeHealth,
                      context) -> None:
        """FailureDetector listener: death triggers evacuation.

        Deliberately *only* DEAD: an UNREACHABLE node (gen-2 detector)
        may be alive behind a partition with its containers still
        serving, so evacuating it would start the split-brain double-run.
        Evacuation waits until the grace period expires and no witness
        can reach the node either -- i.e. the UNREACHABLE -> DEAD
        transition.
        """
        if new is NodeHealth.DEAD:
            self.evacuate(node_id, parent=context)

    def evacuate(self, node_id: str, parent=None) -> int:
        """Queue every container recorded on ``node_id`` for respawn.

        Returns the number of containers queued.  ``parent`` (normally
        the ``health.node-dead`` transition context) roots the evacuation
        trace.
        """
        records = [
            record for record in self.pimaster.container_records()
            if record.node_id == node_id
        ]
        span = trace.start_span(
            self.sim, "mgmt.evacuate", parent=parent, kind="mgmt",
            attributes={"node": node_id, "containers": len(records)},
        )
        self.evacuations += 1
        if not records:
            span.end("ok", "nothing to evacuate")
            return 0
        self._evac_seq += 1
        evacuation = _Evacuation(span=span)
        self._evacuations[self._evac_seq] = evacuation
        queued = 0
        for record in records:
            self.pimaster.forget_container(record.name)
            self.containers_evacuated += 1
            if len(self._queue) >= QUEUE_LIMIT:
                self._mark_unschedulable(
                    record, node_id, "recovery queue full", span,
                )
                evacuation.failed += 1
                continue
            item = _EvacuationItem(record=record, lost_from=node_id, span=span)
            item.evac_key = self._evac_seq  # type: ignore[attr-defined]
            evacuation.pending += 1
            self._queue.append(item)
            queued += 1
        log.info("evacuating %d container(s) from dead node %s (%d queued)",
                 len(records), node_id, queued)
        if evacuation.pending == 0:
            self._finish(self._evac_seq)
        elif self._worker is None:
            self._worker = self.sim.process(self._drain(), name="recovery.drain")
        return queued

    def retry_unschedulable(self) -> int:
        """Re-queue every unschedulable container (capacity came back)."""
        from repro.mgmt.pimaster import ContainerRecord

        retried, remaining = self.unschedulable, []
        requeued = 0
        for entry in retried:
            if len(self._queue) >= QUEUE_LIMIT:
                remaining.append(entry)
                continue
            record = ContainerRecord(
                name=entry.name, node_id=entry.lost_from, image=entry.image,
                ip="", fqdn="", group=entry.group,
            )
            self._evac_seq += 1
            self._evacuations[self._evac_seq] = _Evacuation(
                span=trace.start_span(
                    self.sim, "mgmt.evacuate", kind="mgmt",
                    attributes={"node": entry.lost_from, "containers": 1,
                                "retry": True},
                ),
                pending=1,
            )
            item = _EvacuationItem(record=record, lost_from=entry.lost_from,
                                   span=self._evacuations[self._evac_seq].span)
            item.evac_key = self._evac_seq  # type: ignore[attr-defined]
            self._queue.append(item)
            requeued += 1
        self.unschedulable = remaining
        if requeued and self._worker is None:
            self._worker = self.sim.process(self._drain(), name="recovery.drain")
        return requeued

    # -- the recovery worker ----------------------------------------------

    def _drain(self):
        while self._queue:
            item = self._queue.popleft()
            yield from self._recover_one(item)
        self._worker = None

    def _recover_one(self, item: _EvacuationItem):
        record = item.record
        evac_key = getattr(item, "evac_key", None)
        evacuation = self._evacuations.get(evac_key)
        while True:
            signal = self.pimaster.spawn_container(
                record.image, name=record.name, group=record.group,
                parent=item.span,
            )
            try:
                yield signal
            except Exception as exc:  # noqa: BLE001 - placement/transport
                if item.attempts >= RETRY_BUDGET:
                    self._mark_unschedulable(record, item.lost_from,
                                             str(exc), item.span)
                    if evacuation is not None:
                        evacuation.failed += 1
                        evacuation.pending -= 1
                        if evacuation.pending == 0:
                            self._finish(evac_key)
                    return
                item.attempts += 1
                self.respawn_retries += 1
                yield Timeout(self.sim, RETRY_BACKOFF_S * item.attempts)
                continue
            self.containers_respawned += 1
            if evacuation is not None:
                evacuation.respawned.append(record.name)
                evacuation.pending -= 1
                if evacuation.pending == 0:
                    self._finish(evac_key)
            return

    def _finish(self, evac_key) -> None:
        evacuation = self._evacuations.pop(evac_key, None)
        if evacuation is None:
            return
        if evacuation.failed:
            evacuation.span.end(
                "error", f"{evacuation.failed} container(s) unschedulable"
            )
        else:
            evacuation.span.end("ok")

    def _mark_unschedulable(self, record: "ContainerRecord", lost_from: str,
                            reason: str, parent) -> None:
        entry = UnschedulableContainer(
            name=record.name, image=record.image, group=record.group,
            lost_from=lost_from, reason=reason, at=self.sim.now,
        )
        self.unschedulable.append(entry)
        trace.instant(
            self.sim, "recovery.unschedulable", parent=parent, kind="mgmt",
            attributes={"container": record.name, "reason": reason},
            status="error",
        )
        log.warning("container %s from dead node %s is unschedulable: %s",
                    record.name, lost_from, reason)

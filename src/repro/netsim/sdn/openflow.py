"""OpenFlow data-plane state: flow tables on programmable switches.

Matching is at the granularity the fluid fabric works at: (src endpoint,
dst endpoint).  Entries carry an idle timeout, exactly like OpenFlow 1.0
reactive rules: a quiet pair's entries age out, and the next flow between
them pays the controller round trip again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.sim.kernel import Simulator

# (src endpoint, dst endpoint, discriminator).  The discriminator is None
# for pair-granularity rules (one rule covers all traffic between the two
# endpoints) or a flow key for 5-tuple-style per-flow rules.
MatchKey = Tuple[str, str, object]


@dataclass
class FlowEntry:
    """One reactive rule: forward (src, dst) traffic to ``next_hop``."""

    match: MatchKey
    next_hop: str
    installed_at: float
    idle_timeout: float
    priority: int = 0
    last_used: float = field(default=0.0)
    hit_count: int = 0

    def expired(self, now: float) -> bool:
        return now - self.last_used > self.idle_timeout

    def touch(self, now: float) -> None:
        self.last_used = now
        self.hit_count += 1


class FlowTable:
    """The rule table of one switch, with lazy idle-expiry."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._entries: Dict[MatchKey, FlowEntry] = {}
        self.misses = 0
        self.hits = 0
        self.evictions = 0

    def __len__(self) -> int:
        self._expire()
        return len(self._entries)

    def _expire(self) -> None:
        now = self.sim.now
        dead = [key for key, entry in self._entries.items() if entry.expired(now)]
        for key in dead:
            del self._entries[key]
            self.evictions += 1

    def lookup(self, src: str, dst: str, key: object = None) -> Optional[FlowEntry]:
        """Match a flow; touches the entry on hit."""
        match = (src, dst, key)
        entry = self._entries.get(match)
        if entry is None or entry.expired(self.sim.now):
            if entry is not None:
                del self._entries[match]
                self.evictions += 1
            self.misses += 1
            return None
        entry.touch(self.sim.now)
        self.hits += 1
        return entry

    def install(self, match: MatchKey, next_hop: str, idle_timeout: float,
                priority: int = 0) -> FlowEntry:
        """FlowMod: add or replace a rule."""
        entry = FlowEntry(
            match=match,
            next_hop=next_hop,
            installed_at=self.sim.now,
            idle_timeout=idle_timeout,
            priority=priority,
            last_used=self.sim.now,
        )
        self._entries[match] = entry
        return entry

    def remove(self, match: MatchKey) -> bool:
        """FlowMod delete; True if a rule was removed."""
        return self._entries.pop(match, None) is not None

    def remove_via(self, next_hop: str) -> int:
        """Remove every rule forwarding towards ``next_hop`` (link failure)."""
        doomed = [k for k, e in self._entries.items() if e.next_hop == next_hop]
        for key in doomed:
            del self._entries[key]
        return len(doomed)

    def clear(self) -> None:
        self._entries.clear()



class OpenFlowSwitch:
    """Control-plane state of one OpenFlow-enabled switch."""

    def __init__(self, sim: Simulator, node_id: str) -> None:
        self.sim = sim
        self.node_id = node_id
        self.table = FlowTable(sim)
        self.packet_ins_sent = 0

    def match(self, src: str, dst: str, key: object = None) -> Optional[str]:
        """Data-plane lookup; returns the next hop or None (table miss)."""
        entry = self.table.lookup(src, dst, key)
        return entry.next_hop if entry is not None else None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<OpenFlowSwitch {self.node_id} rules={len(self.table)}>"

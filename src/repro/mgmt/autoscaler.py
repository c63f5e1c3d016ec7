"""A monitoring-driven autoscaler: elastic replica counts for a service.

The CCRM framing of the paper is *resource management*: provisioning
virtualised resources against incoming demand (§I).  The autoscaler
closes that loop on the PiCloud: it watches the CPU load of the hosts
running a replica group (via the pimaster's monitoring cache -- real
polled data, not privileged peeking) and adds or removes replicas within
``[min_replicas, max_replicas]``.

Scale-out spawns with the group's anti-affinity tag so replicas spread;
scale-in removes the newest replica first.  A cooldown prevents flapping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.errors import ConfigurationError
from repro.mgmt.pimaster import PiMaster
from repro.sim.process import Timeout


@dataclass(frozen=True)
class ScaleEvent:
    time: float
    action: str          # "out" | "in"
    replica: str
    observed_load: float


@dataclass
class AutoscalerConfig:
    image: str
    group: str
    min_replicas: int = 1
    max_replicas: int = 4
    high_watermark: float = 0.8   # mean host CPU load to scale out
    low_watermark: float = 0.2    # mean host CPU load to scale in
    interval_s: float = 10.0
    cooldown_s: float = 30.0

    def __post_init__(self) -> None:
        if not (1 <= self.min_replicas <= self.max_replicas):
            raise ConfigurationError("need 1 <= min_replicas <= max_replicas")
        if not (0.0 <= self.low_watermark < self.high_watermark <= 1.0):
            raise ConfigurationError("need 0 <= low < high <= 1")
        if self.interval_s <= 0 or self.cooldown_s < 0:
            raise ConfigurationError("bad interval/cooldown")


class Autoscaler:
    """The control loop.  Start with :meth:`start`, stop with :meth:`stop`."""

    def __init__(self, pimaster: PiMaster, config: AutoscalerConfig) -> None:
        self.pimaster = pimaster
        self.sim = pimaster.sim
        self.config = config
        self.events: List[ScaleEvent] = []
        self._replica_seq = 0
        self._last_action_at = -1e18
        self._stopped = False
        self._process = None

    # -- replica bookkeeping -------------------------------------------------

    def replicas(self) -> list:
        return [
            record for record in self.pimaster.container_records()
            if record.group == self.config.group
        ]

    def observed_load(self) -> Optional[float]:
        """Mean last-polled CPU load across hosts running replicas."""
        replicas = self.replicas()
        if not replicas:
            return None
        loads = []
        for record in replicas:
            metrics = self.pimaster.monitoring.latest.get(record.node_id)
            if metrics is not None:
                loads.append(metrics["cpu_load"])
        if not loads:
            return None
        return sum(loads) / len(loads)

    # -- lifecycle ----------------------------------------------------------------

    def start(self) -> None:
        if self._process is None:
            self._process = self.sim.process(self._loop(), name="autoscaler")

    def stop(self) -> None:
        self._stopped = True
        if self._process is not None:
            self._process.interrupt("autoscaler stopped")

    def _loop(self):
        config = self.config
        # Ensure the floor before regulating.
        while len(self.replicas()) < config.min_replicas and not self._stopped:
            yield from self._scale_out(observed=0.0)
        while not self._stopped:
            yield Timeout(self.sim, config.interval_s)
            if self.sim.now - self._last_action_at < config.cooldown_s:
                continue
            load = self.observed_load()
            if load is None:
                continue
            count = len(self.replicas())
            if load >= config.high_watermark and count < config.max_replicas:
                yield from self._scale_out(load)
            elif load <= config.low_watermark and count > config.min_replicas:
                yield from self._scale_in(load)

    def _scale_out(self, observed: float):
        self._replica_seq += 1
        name = f"{self.config.group}-r{self._replica_seq}"
        try:
            yield self.pimaster.spawn_container(
                self.config.image, name=name, group=self.config.group,
            )
        except Exception:
            return  # e.g. cloud full; try again next tick
        self._last_action_at = self.sim.now
        self.events.append(ScaleEvent(self.sim.now, "out", name, observed))

    def _scale_in(self, observed: float):
        replicas = self.replicas()
        victim = replicas[-1].name  # newest first (records sorted by name)
        try:
            yield self.pimaster.destroy_container(victim)
        except Exception:
            return
        self._last_action_at = self.sim.now
        self.events.append(ScaleEvent(self.sim.now, "in", victim, observed))

"""Reusable experiment scenarios for the PiCloud.

The benchmark suite reproduces the paper's artefacts; this module packages
the same scenario machinery as a public API, so downstream users can run
parameterised studies without copying bench internals::

    from repro.core.experiments import elephant_storm, chatty_pairs

Each scenario takes a booted :class:`~repro.core.cloud.PiCloud`, drives
it, and returns a plain-dict result row -- ready for tabulation.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Dict, List, Optional, Sequence

from repro.apps.traffic import OnOffTrafficSource
from repro.core.cloud import PiCloud, run_until_triggered
from repro.errors import DeadlineExceeded, SimBudgetExceeded
from repro.sim.budget import SimBudgetConfig
from repro.sim.process import Signal
from repro.units import kib, mib

# Default wall-clock guard per experiment phase: generous for real studies,
# tight enough that a non-terminating scenario fails in CI instead of
# eating the job's whole time limit.
DEFAULT_PHASE_WALL_S = 120.0
# The C3 storm crosses from rack 0 to rack 1 under a day of simulated time.
STORM_SRC_RACK = 0
STORM_DST_RACK = 1
STORM_SIM_DEADLINE_S = 24 * 3600.0
# Mean ON and OFF period of a chatty pair's sender.
CHATTY_ON_MEAN_S = 2.0
CHATTY_OFF_MEAN_S = 0.5


def run_phase(
    cloud: PiCloud,
    name: str,
    *,
    signal: Optional[Signal] = None,
    sim_seconds: Optional[float] = None,
    wall_s: Optional[float] = DEFAULT_PHASE_WALL_S,
) -> float:
    """Drive one experiment phase under sim-time and wall-clock deadlines.

    Runs the simulator until ``signal`` triggers (if given) and/or
    ``sim_seconds`` of simulated time elapse -- whichever is satisfied
    first; at least one of the two must be provided.  A signal that is
    still pending when the deadline passes or the event queue drains
    raises :class:`DeadlineExceeded`.  The phase runs under the installed
    run budget with its wall-clock axis set to ``wall_s`` (unless the
    installed one is tighter), so a stuck scenario fails loudly with the
    phase's name instead of hanging the experiment driver.

    Returns the simulated seconds the phase consumed.
    """
    if signal is None and sim_seconds is None:
        raise ValueError(f"phase {name!r}: need a signal and/or sim_seconds")
    sim = cloud.sim
    started_sim = sim.now
    sim_deadline = None if sim_seconds is None else started_sim + sim_seconds
    installed = sim.budget or SimBudgetConfig()
    watchdog = wall_s is not None and (
        installed.max_wall_s is None or wall_s <= installed.max_wall_s
    )
    budget = replace(installed, max_wall_s=wall_s) if watchdog else None
    try:
        if signal is None:
            sim.run(until=sim_deadline, budget=budget)
        else:
            run_until_triggered(sim, signal, sim_deadline, budget)
    except SimBudgetExceeded as exc:
        if not watchdog or exc.snapshot.reason != "wall_clock":
            raise
        raise DeadlineExceeded(
            f"experiment phase {name!r} exceeded its {wall_s}s wall-clock "
            f"watchdog\n{exc.snapshot.describe()}",
            deadline_s=wall_s,
        ) from exc
    if signal is not None and not signal.triggered:
        if sim.peek() is None:
            raise DeadlineExceeded(
                f"experiment phase {name!r}: event queue drained at "
                f"t={sim.now:.3f} with the phase signal untriggered",
                deadline_s=float(sim_seconds or 0.0),
            )
        raise DeadlineExceeded(
            f"experiment phase {name!r} did not complete within "
            f"{sim_seconds} simulated seconds",
            deadline_s=float(sim_seconds),
        )
    return sim.now - started_sim


def elephant_storm(
    cloud: PiCloud,
    flows: int = 6,
    size_bytes: float = mib(10),
) -> Dict[str, object]:
    """Parallel inter-rack elephants; returns completion time and paths.

    The canonical C3 workload: exposes how the routing mode uses (or
    wastes) the multi-root redundancy.  The storm phase runs under a
    sim-time deadline and a wall-clock watchdog; a storm that cannot
    finish raises :class:`DeadlineExceeded` instead of hanging.
    """
    racks = cloud.rack_inventory()
    src_hosts = racks[f"rack{STORM_SRC_RACK}"]
    dst_hosts = racks[f"rack{STORM_DST_RACK}"]
    transfers = []
    for index in range(flows):
        transfers.append(cloud.network.transfer(
            src_hosts[index % len(src_hosts)],
            dst_hosts[index % len(dst_hosts)],
            size_bytes, flow_key=index, tag=f"elephant{index}",
        ))
    # Completion signal that fires when every flow settles (success OR
    # failure) -- AllOf would fail fast on the first broken flow, but the
    # storm wants to count failures in the result row.
    settled = Signal(cloud.sim, name="storm.settled")
    remaining = len(transfers)

    def on_flow_done(_sig) -> None:
        nonlocal remaining
        remaining -= 1
        if remaining == 0:
            settled.succeed()

    for t in transfers:
        t.add_done_callback(on_flow_done)
    run_phase(cloud, "elephant-storm", signal=settled,
              sim_seconds=STORM_SIM_DEADLINE_S)
    failed = [t for t in transfers if not t.ok]
    completed = [t for t in transfers if t.ok]
    return {
        "completion_s": max((t.completed_at for t in completed), default=0.0),
        "failed": len(failed),
        "roots_used": sorted({t.path[2] for t in completed if len(t.path) > 2}),
        "mean_throughput": (
            sum(t.throughput for t in completed) / len(completed)
            if completed else 0.0
        ),
    }


def chatty_pairs(
    cloud: PiCloud,
    pairs: Sequence[tuple],
    message_bytes: int = kib(256),
    rate_per_s: float = 15.0,
    seed: int = 17,
    port: int = 9000,
) -> List[OnOffTrafficSource]:
    """Wire ON/OFF senders between container pairs ``(src_name, dst_name)``.

    Containers must already be running.  Returns the sources (call
    ``stop()`` to end the chatter).
    """
    rng = random.Random(seed)
    sources = []
    for src_name, dst_name in pairs:
        src = cloud.container(src_name)
        dst = cloud.container(dst_name)
        dst.listen(port)

        def make_send(s=src, ip=dst.ip):
            return lambda: s.send(ip, port, "chunk", size=message_bytes)

        sources.append(OnOffTrafficSource(
            cloud.sim, rng, make_send(),
            on_mean_s=CHATTY_ON_MEAN_S, off_mean_s=CHATTY_OFF_MEAN_S,
            rate_per_s=rate_per_s,
        ))
    return sources

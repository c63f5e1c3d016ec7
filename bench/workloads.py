"""The benchmark's workloads and the one-rep entry point.

Each workload drives the ``repro`` library through a set-up phase and a
driven phase, records host-time spans around its library calls in a
:class:`Recorder`, and returns the simulated outputs the output check
digests.  Defaults are the benchmark's shapes; the self-tests pass
smaller ones.

Run one rep in a fresh interpreter (``run.py`` does this per rep)::

    python3 bench/workloads.py consolidation_896 --seed 896 [--profile DIR]

It prints one JSON record: phase times, spans, layer counts, the
outputs digest and the process's peak RSS.

The host this runs on is shared, and its speed drifts by tens of
percent over minutes.  So while an unprofiled rep runs, a timer signal
every ``SAMPLE_EVERY_S`` runs a fixed reference loop and times it, and
each phase's time is also reported scaled to one host speed: the one at
which the loop takes ``REFERENCE_LOOP_S``.  Every span's own time
excludes the loops'.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import heapq
import json
import math
import random
import resource
import signal
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))


SAMPLE_EVERY_S = 0.005
WINDOW_S = 0.2
# The reference loop's time at the host speed the scaled times assume,
# chosen so that scaled and host times about agree on an idle 2-vCPU
# Intel Xeon VM at 2.0 GHz.
REFERENCE_LOOP_S = 2.0e-4


def reference_loop(n: int = 200) -> float:
    """Fixed interpreter work of the simulator's kind: heap pushes and
    pops of tuples, dict updates and float arithmetic."""
    heap: List[tuple] = []
    table: Dict[int, float] = {}
    x = 0.0
    for i in range(n):
        heapq.heappush(heap, ((i * 7919) % 1009 * 0.001, i))
        table[i & 63] = table.get(i & 63, 0.0) + x
        x = x * 0.5 + i
    while heap:
        heapq.heappop(heap)
    return x


class HostSpeed:
    """Times ``reference_loop`` from a timer signal while it is active.

    ``loops`` holds each loop's start and duration; ``seconds``, their
    total, only grows, and a span reads it at its start and end.
    """

    def __init__(self) -> None:
        self.seconds = 0.0
        self.loops: List[Tuple[float, float]] = []

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        reference_loop()
        took = time.perf_counter() - start
        self.seconds += took
        self.loops.append((start, took))

    def scaled(self, start: float, end: float) -> float:
        """Host time of ``[start, end)``, loops excluded, at the speed
        where the loop takes ``REFERENCE_LOOP_S``.

        The host's speed changes within a second, so each ``WINDOW_S``
        is scaled by the loops timed in it; a window without one by all
        of the interval's.  Without any loop, this is the host time.
        """
        windows: Dict[int, List[float]] = {}
        for at, took in self.loops:
            if start <= at < end:
                window = windows.setdefault(int((at - start) / WINDOW_S),
                                            [0, 0.0])
                window[0] += 1
                window[1] += took
        if not windows:
            return end - start
        count = sum(n for n, _ in windows.values())
        loop_s = sum(s for _, s in windows.values())
        total = 0.0
        for index in range(math.ceil((end - start) / WINDOW_S)):
            lo = start + index * WINDOW_S
            n, took = windows.get(index, (0, 0.0))
            total += ((min(end, lo + WINDOW_S) - lo - took) * REFERENCE_LOOP_S
                      * (n / took if n else count / loop_s))
        return total

    def __enter__(self) -> "HostSpeed":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


class Recorder:
    """Host-time spans of one rep, with an optional profiler per phase.

    A span is ``{"name", "start", "end", "parent", "sampled_s"}`` with
    ``parent`` the index of the enclosing span and ``sampled_s`` the time
    the reference loops run inside it took.  ``ops`` counts the operations a rep attempts: each deploy
    (``spawn_and_wait``), each driven slice and the consolidation round.
    """

    def __init__(self, profile: bool = False) -> None:
        self.profile = profile
        self.speed = HostSpeed()
        self.spans: List[Dict[str, Any]] = []
        self.profiles: Dict[str, cProfile.Profile] = {}
        self.ops = 0
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, op: bool = False):
        index = len(self.spans)
        sampled = self.speed.seconds
        self.spans.append({
            "name": name, "start": time.perf_counter(), "end": None,
            "parent": self._stack[-1] if self._stack else None,
        })
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].update(end=time.perf_counter(),
                                     sampled_s=self.speed.seconds - sampled)
        self.ops += op

    @contextmanager
    def phase(self, name: str):
        """A top-level phase (``setup`` or ``run``), profiled if asked."""
        profiler = cProfile.Profile() if self.profile else None
        with self.span(name):
            if profiler is not None:
                profiler.enable()
            try:
                yield
            finally:
                if profiler is not None:
                    profiler.disable()
                    self.profiles[name] = profiler

    def drive(self, run_for: Callable[[float], None], seconds: float,
              slice_s: float) -> None:
        """Advance the simulation ``seconds`` in fixed slices, each timed.

        Slicing keeps the kernel's heap order, so outputs do not depend
        on the slice length.
        """
        slices = round(seconds / slice_s)
        for _ in range(slices):
            with self.span("slice", op=True):
                run_for(slice_s)


def host_seconds(span: Dict[str, Any]) -> float:
    """The span's host time, reference loops excluded."""
    return span["end"] - span["start"] - span["sampled_s"]


def span_seconds(spans: List[Dict[str, Any]], name: str) -> List[float]:
    """Host time of the spans called ``name``."""
    return [host_seconds(s) for s in spans if s["name"] == name]


# -- shared pieces ------------------------------------------------------------


def _placements(cloud) -> Dict[str, str]:
    return {r.name: r.node_id for r in cloud.pimaster.container_records()}


def _deploy(rec: Recorder, cloud, image: str, names: List[str],
            node_ids: Optional[List[str]] = None, **kwargs) -> list:
    """A closed loop of one client: each spawn waits for the previous."""
    records = []
    with rec.span("deploy"):
        for name, node_id in zip(names, node_ids or [None] * len(names)):
            with rec.span("deploy_op", op=True):
                records.append(cloud.spawn_and_wait(
                    image, name=name, node_id=node_id, **kwargs,
                ))
    return records


def _net_outputs(net) -> Dict[str, Any]:
    return {
        "flows_started": net.flows_started.total,
        "flows_completed": net.flows_completed.total,
        "flows_failed": net.flows_failed.total,
        "bytes_delivered": net.bytes_delivered.total,
    }


def _net_counts(sim, net, setup_events: int) -> Dict[str, float]:
    return {
        "sim.events": sim.events_executed - setup_events,
        "sim.setup_events": setup_events,
        "sim.heap_compactions": sim.heap_compactions,
        "netsim.flows_started": net.flows_started.total,
        "netsim.recomputes": net.recomputes,
        "netsim.flows_solved": net.flows_solved,
        "netsim.flows_per_recompute":
            net.flows_solved / net.recomputes if net.recomputes else 0.0,
    }


def _cloud_counts(cloud, setup_events: int,
                  load_epochs: int = 0) -> Dict[str, float]:
    pimaster = cloud.pimaster
    daemons = cloud.daemons.values()
    served = sum(d.server.requests_served for d in daemons)
    failed = sum(d.server.requests_failed for d in daemons)
    counts = _net_counts(cloud.sim, cloud.network, setup_events)
    counts.update({
        "mgmt.rest_requests": served,
        "mgmt.rest_failed_frac":
            failed / (served + failed) if served + failed else 0.0,
        "mgmt.monitoring_polls": pimaster.monitoring.polls,
        "mgmt.monitoring_poll_errors": pimaster.monitoring.poll_errors,
        "mgmt.spawns": pimaster.spawns,
        "mgmt.spawn_failures": pimaster.spawn_failures,
        "mgmt.op_retries": pimaster.op_retries,
        "mgmt.image_pushes": pimaster.images.pushes,
        "mgmt.heartbeats_sent": pimaster.health.heartbeats_sent,
        "mgmt.heartbeats_missed": pimaster.health.heartbeats_missed,
        "load.epochs": load_epochs,
        "virt.containers_created":
            sum(d.runtime.containers_created for d in daemons),
    })
    return counts


def _problems(*checks) -> List[str]:
    """The messages of the ``(ok, message)`` checks that failed."""
    return [message for ok, message in checks if not ok]


COUNT_NAMES = (
    "sim.events", "sim.setup_events", "sim.heap_compactions",
    "netsim.flows_started", "netsim.recomputes", "netsim.flows_solved",
    "netsim.flows_per_recompute", "mgmt.rest_requests",
    "mgmt.rest_failed_frac", "mgmt.monitoring_polls",
    "mgmt.monitoring_poll_errors", "mgmt.spawns", "mgmt.spawn_failures",
    "mgmt.op_retries", "mgmt.image_pushes", "mgmt.heartbeats_sent",
    "mgmt.heartbeats_missed", "load.epochs", "virt.containers_created",
)


# -- the workloads ----------------------------------------------------------------


def consolidation_896(rec: Recorder, seed: int, *, racks: int = 64,
                      pis: int = 14, k: int = 16, pairs: int = 2,
                      warmup_s: float = 20.0, settle_s: float = 40.0,
                      slice_s: float = 0.5):
    """Monitored fleet: a sequential deploy, then ON/OFF churn around a
    consolidation round (the ``measure_scale`` shape)."""
    from repro import PiCloud, PiCloudConfig
    from repro.apps import OnOffTrafficSource
    from repro.placement import Consolidator, WorstFit

    with rec.phase("setup"):
        with rec.span("construct"):
            cloud = PiCloud(PiCloudConfig(
                num_racks=racks, pis_per_rack=pis, topology="fat-tree",
                fat_tree_k=k, routing="ecmp", seed=seed,
                start_monitoring=True,
            ))
        with rec.span("boot"):
            cloud.boot()
        records = _deploy(rec, cloud, "base",
                          [f"c{i}" for i in range(2 * pairs)],
                          policy=WorstFit())
        deployed = _placements(cloud)
        setup_events = cloud.sim.events_executed
        rng = random.Random(seed)
        sources = []
        for sender, receiver in zip(records[:pairs], records[pairs:]):
            cloud.container(receiver.name).listen(9000)
            src = cloud.container(sender.name)

            def send(src=src, dst_ip=receiver.ip):
                return src.send(dst_ip, 9000, "chunk", size=64 * 1024)

            sources.append(OnOffTrafficSource(
                cloud.sim, rng, send, on_mean_s=2.0, off_mean_s=0.5,
                rate_per_s=20.0,
            ))

    with rec.phase("run"):
        rec.drive(cloud.run_for, warmup_s, slice_s)
        with rec.span("consolidate", op=True):
            runtimes = {n: d.runtime for n, d in cloud.daemons.items()}
            Consolidator(cloud.sim, runtimes, power_off_empty=True).run_round()
        rec.drive(cloud.run_for, settle_s, slice_s)

    outputs = {
        "deployed": deployed,
        "consolidated": {
            name: daemon_name
            for daemon_name, daemon in sorted(cloud.daemons.items())
            for name in sorted(c.name for c in daemon.runtime.containers()
                               if c.is_running)
        },
        "powered_on": sum(1 for n in cloud.node_names
                          if cloud.machines[n].is_on),
        "messages_sent": [s.messages_sent for s in sources],
        "monitoring_polls": cloud.pimaster.monitoring.polls,
        "sim_time": cloud.sim.now,
        **_net_outputs(cloud.network),
    }
    problems = _problems(
        (len(set(deployed.values())) == 2 * pairs,
         "WorstFit put two containers on one Pi"),
        (len(outputs["consolidated"]) == 2 * pairs,
         "consolidation lost a container"),
        (outputs["flows_failed"] == 0, "fabric flows failed"),
    )
    return outputs, _cloud_counts(cloud, setup_events), problems


def flashcrowd_224(rec: Recorder, seed: int, *, racks: int = 16,
                   pis: int = 14, k: int = 10, replicas: int = 50,
                   base_rate: float = 200.0, peak_rate: float = 10_000.0,
                   hold_s: float = 260.0, slice_s: float = 1.0):
    """An open-loop flash crowd through the session-level load engine."""
    from repro import (
        FlashCrowdArrivals, LoadEngine, PiCloud, PiCloudConfig, Service,
        ServiceProfile, SloObjective,
    )

    with rec.phase("setup"):
        with rec.span("construct"):
            cloud = PiCloud(PiCloudConfig(
                num_racks=racks, pis_per_rack=pis, topology="fat-tree",
                fat_tree_k=k, routing="ecmp", seed=seed,
                uplink_bandwidth=100e6 / 8, start_monitoring=False,
            ))
        with rec.span("boot"):
            cloud.boot()
        _deploy(rec, cloud, "webserver",
                [f"web{i}" for i in range(replicas)], group="web")
        setup_events = cloud.sim.events_executed
        service = Service(
            "web",
            profile=ServiceProfile(response_bytes=2048.0,
                                   requests_per_session_per_s=0.1,
                                   session_duration_s=120.0),
            slo=SloObjective(threshold_s=0.25, objective=0.999),
        )
        arrivals = FlashCrowdArrivals(
            base_rate_per_s=base_rate, peak_rate_per_s=peak_rate,
            start_s=10.0, ramp_s=10.0, hold_s=hold_s, decay_s=20.0,
        )
        # Clients at two edge switches per pod: every pod's uplinks carry
        # load, with two fifths of the aggregates that all 50 edges
        # would give (and two fifths of the rates, so each edge sees the
        # same demand).  SLO cost grows with the square of the aggregate
        # count, so this keeps a rep short with the 300 s window filled.
        engine = LoadEngine(cloud, [service], arrivals, client_edges=[
            f"p{p}-edge{e}" for p in range(k) for e in range(2)
        ])
        duration_s = 10.0 + 10.0 + hold_s + 20.0

    with rec.phase("run"):
        engine.start(duration_s)
        rec.drive(cloud.run_for,
                  duration_s + engine.backlog_epochs * engine.epoch_s, slice_s)

    report = engine.report()
    outputs = {
        "deployed": _placements(cloud),
        "load": report.metrics(),
        "sim_time": cloud.sim.now,
        **_net_outputs(cloud.network),
    }
    problems = _problems(
        (len(outputs["deployed"]) == replicas, "a replica did not deploy"),
        (outputs["flows_failed"] == 0, "fabric flows failed"),
    )
    return outputs, _cloud_counts(cloud, setup_events, report.epochs), problems


def partition_64(rec: Recorder, seed: int, *, racks: int = 8,
                 pis: int = 8, k: int = 8, arrival_rate: float = 200.0,
                 load_s: float = 120.0,
                 cuts=((0, 10.0, 40.0), (2, 45.0, 75.0)),
                 slice_s: float = 0.5):
    """Two pod partitions under Poisson session load, gen-2 detector with
    fencing: heartbeats, witness probes, evacuation and reconcile.

    ``cuts`` are ``(pod, cut_s, heal_s)`` after the load starts.  One
    replica sits in each cut pod, so each cut darkens one replica while
    the other serves, and the evacuee lands in a pod no cut touches.
    """
    from repro import (
        FaultSchedule, HealthConfig, LoadEngine, PiCloud, PiCloudConfig,
        PoissonArrivals, Service, SloObjective,
    )
    from repro.mgmt.distribution import ImageDistributor

    with rec.phase("setup"):
        with rec.span("construct"):
            cloud = PiCloud(PiCloudConfig(
                num_racks=racks, pis_per_rack=pis, topology="fat-tree",
                fat_tree_k=k, routing="ecmp", seed=seed,
                start_monitoring=False,
                health=HealthConfig(
                    enabled=True, heartbeat_interval_s=2.0,
                    heartbeat_timeout_s=1.0, suspect_after_misses=2,
                    dead_after_misses=3, unreachable_grace_s=15.0,
                    fencing=True,
                ),
            ))
        with rec.span("boot"):
            cloud.boot()
        with rec.span("warm"):
            warmed = ImageDistributor(cloud.pimaster) \
                .distribute_peer_assisted("webserver")
            cloud.run_until_signal(warmed)
        pods: Dict[str, List[str]] = {}
        for node, data in cloud.topology.graph.nodes(data=True):
            pods.setdefault(data.get("rack"), []).append(node)
        hosts = set(cloud.node_names)
        _deploy(rec, cloud, "webserver", [f"web{i}" for i in range(len(cuts))],
                node_ids=[min(hosts.intersection(pods[f"pod{pod}"]))
                          for pod, _, _ in cuts],
                group="web")
        deployed = _placements(cloud)
        setup_events = cloud.sim.events_executed
        # Clients at one edge switch per pod keep the SLO accounting small
        # next to the control plane this workload is about.
        engine = LoadEngine(
            cloud, [Service("web", slo=SloObjective(threshold_s=0.25,
                                                    objective=0.999))],
            PoissonArrivals(arrival_rate),
            client_edges=[f"p{p}-edge0" for p in range(k)],
        )
        t0 = cloud.sim.now
        schedule = FaultSchedule(cloud)
        for pod, cut, heal in cuts:
            schedule.partition(t0 + cut, [sorted(pods[f"pod{pod}"])])
            schedule.heal_partition(t0 + heal)
        schedule.arm()

    with rec.phase("run"):
        engine.start(load_s)
        rec.drive(cloud.run_for,
                  load_s + engine.backlog_epochs * engine.epoch_s, slice_s)

    pimaster = cloud.pimaster
    report = engine.report()
    outputs = {
        "deployed": deployed,
        "final": _placements(cloud),
        "warmed": len(warmed.value.succeeded),
        "load": report.metrics(),
        "duplicate_container_epochs": pimaster.duplicate_container_epochs,
        "false_dead_evacuations": pimaster.false_dead_evacuations,
        "reconciles": pimaster.reconciles,
        "fencing_epoch": pimaster.fencing_epoch,
        "evacuations": pimaster.recovery.evacuations,
        "containers_respawned": pimaster.recovery.containers_respawned,
        "witness_probes": pimaster.health.witness_probes,
        "sim_time": cloud.sim.now,
        **_net_outputs(cloud.network),
    }
    problems = _problems(
        (outputs["warmed"] == len(hosts), "the warm missed a Pi"),
        (outputs["duplicate_container_epochs"] == 0,
         "fencing left a duplicate container running"),
        (sorted(outputs["final"]) == sorted(deployed),
         "a replica was not restored after the heals"),
    )
    return outputs, _cloud_counts(cloud, setup_events, report.epochs), problems


def incast_dctcp_224(rec: Recorder, seed: int, *, k: int = 10,
                     hosts: int = 224, senders: int = 64,
                     flow_bytes: float = 0.25e6, jitter_s: float = 0.005,
                     duration_s: float = 2.0, slice_s: float = 0.01):
    """Many-to-one DCTCP incast on a bare fabric: no control plane."""
    from repro import RateModelConfig
    from repro.netsim.fabric import Network
    from repro.netsim.routing import EcmpRouting
    from repro.netsim.topology import fat_tree
    from repro.sim.kernel import Simulator

    with rec.phase("setup"):
        with rec.span("construct"):
            names = [f"h{i:03d}" for i in range(hosts)]
            sim = Simulator()
            topo = fat_tree(k, hosts=names)
            net = Network(
                sim, topo, path_service=EcmpRouting(sim, topo),
                rate_model=RateModelConfig(model="cc",
                                           protocol="dctcp").build(),
            )
        flows = []
        rng = random.Random(seed)
        for src in names[1:senders + 1]:
            sim.schedule(
                rng.uniform(0.0, jitter_s),
                lambda src=src: flows.append(net.transfer(
                    src, names[0], flow_bytes, flow_key=f"cc:{src}", tag="cc",
                )),
            )
        setup_events = sim.events_executed

    with rec.phase("run"):
        rec.drive(lambda s: sim.run(until=sim.now + s), duration_s, slice_s)
        net.sync()

    outputs = {
        "flows": [[f.remaining, f.completed_at] for f in flows],
        "queues": net.queue_metrics(),
        "recomputes": net.recomputes,
        "sim_time": sim.now,
        **_net_outputs(net),
    }
    counts = dict.fromkeys(COUNT_NAMES, 0)
    counts.update(_net_counts(sim, net, setup_events))
    problems = _problems(
        (all(f.remaining <= 0.0 for f in flows) and len(flows) == senders,
         "incast flows did not finish"),
        (outputs["bytes_delivered"] == senders * flow_bytes,
         "delivered bytes differ from bytes sent"),
    )
    return outputs, counts, problems


WORKLOADS = {
    "consolidation_896": (consolidation_896, 896),
    "flashcrowd_224": (flashcrowd_224, 1),
    "partition_64": (partition_64, 42),
    "incast_dctcp_224": (incast_dctcp_224, 42),
}


# -- one rep ----------------------------------------------------------------------


def digest(outputs: Dict[str, Any]) -> str:
    """SHA-256 of the outputs' canonical JSON."""
    blob = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def run_rep(name: str, seed: int, profile_dir: Optional[Path] = None,
            **shape) -> Dict[str, Any]:
    """Run one rep of workload ``name`` in this process; return its record."""
    fn, _ = WORKLOADS[name]
    rec = Recorder(profile=profile_dir is not None)
    if profile_dir is None:
        with rec.speed:
            outputs, counts, problems = fn(rec, seed, **shape)
    else:
        outputs, counts, problems = fn(rec, seed, **shape)
        profile_dir.mkdir(parents=True, exist_ok=True)
        for phase, profiler in rec.profiles.items():
            profiler.dump_stats(str(profile_dir / f"{name}.{phase}.pstats"))
    phases = {s["name"]: s for s in rec.spans if s["parent"] is None}
    return {
        "workload": name,
        "seed": seed,
        "setup_s": rec.speed.scaled(phases["setup"]["start"],
                                    phases["setup"]["end"]),
        "run_s": rec.speed.scaled(phases["run"]["start"],
                                  phases["run"]["end"]),
        "host_setup_s": host_seconds(phases["setup"]),
        "host_run_s": host_seconds(phases["run"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "ops": rec.ops,
        "spans": rec.spans,
        "counts": counts,
        "problems": problems,
        "outputs_sha256": digest(outputs),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--profile", type=Path, default=None,
                        help="profile each phase; write DIR/<workload>."
                             "<phase>.pstats")
    args = parser.parse_args(argv)
    print(json.dumps(run_rep(args.workload, args.seed, args.profile)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

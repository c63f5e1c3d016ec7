"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``info``       -- build the configured cloud and print its architecture.
* ``table1``     -- regenerate the paper's Table I.
* ``dashboard``  -- boot a cloud, spawn demo containers, print the Fig. 4
  control panel.
* ``scale``      -- the consolidation-vs-congestion workload at 56 to
  3456 nodes, with host timings.
* ``storm``      -- run the inter-rack elephant storm under a routing mode
  and report completion time (experiment C3's workload).
* ``load``       -- drive session-level user load (optionally a flash
  crowd) through the fabric and report latency percentiles + SLO burn.

All commands accept ``--racks`` / ``--pis`` / ``--routing`` / ``--seed``
so paper-scale and toy runs use the same entry point.
"""

from __future__ import annotations

import argparse
import cProfile
import sys
from pathlib import PurePath
from typing import Optional, Sequence

from repro.core.cloud import PiCloud
from repro.core.comparison import testbed_comparison
from repro.core.config import (
    CC_PROTOCOLS,
    RATE_MODELS,
    ROUTING_MODES,
    HealthConfig,
    PiCloudConfig,
    RateModelConfig,
    SimBudgetConfig,
    TraceConfig,
)
from repro.core.experiments import elephant_storm
from repro.errors import PiCloudError, SimBudgetExceeded
from repro.load import (
    FlashCrowdArrivals,
    LoadEngine,
    PoissonArrivals,
    Service,
    ServiceProfile,
    SloObjective,
)
from repro.telemetry.stats import format_table
from repro.units import mbit_per_s


def _add_cloud_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--racks", type=int, default=4,
                        help="number of racks (paper: 4)")
    parser.add_argument("--pis", type=int, default=14,
                        help="Pis per rack (paper: 14)")
    parser.add_argument("--routing", choices=ROUTING_MODES,
                        default="sdn-shortest", help="fabric control plane")
    parser.add_argument("--seed", type=int, default=0, help="RNG master seed")
    parser.add_argument("--max-events", type=int, default=None, metavar="N",
                        help="run budget: abort after N kernel events")
    parser.add_argument("--max-sim-time", type=float, default=None, metavar="T",
                        help="run budget: abort past simulated time T (s)")
    parser.add_argument("--wall-timeout", type=float, default=None, metavar="S",
                        help="watchdog: abort a run after S wall-clock seconds")
    parser.add_argument("--trace-out", type=str, default=None, metavar="PATH",
                        help="record a causal trace and write it to PATH "
                             "(.jsonl = span records, anything else = "
                             "Chrome trace-viewer JSON)")
    parser.add_argument("--rate-model", choices=RATE_MODELS, default="maxmin",
                        help="fabric rate assignment: instantaneous max-min "
                             "fair share (default) or per-flow congestion "
                             "control with queue/ECN dynamics")
    parser.add_argument("--cc-protocol", choices=CC_PROTOCOLS, default="reno",
                        help="congestion-control update rule when "
                             "--rate-model=cc (ignored under maxmin)")
    parser.add_argument("--self-healing", action="store_true",
                        help="start the pimaster's heartbeat failure "
                             "detector: dead nodes are detected, their "
                             "containers evacuated, repaired nodes rejoin")
    parser.add_argument("--profile", nargs="?", const="", default=None,
                        metavar="PATH",
                        help="profile the whole command (build + boot + "
                             "run) with cProfile and write a pstats dump "
                             "to PATH (default: next to --trace-out, else "
                             "repro-profile.pstats)")


def _resolve_profile_out(args: argparse.Namespace) -> Optional[str]:
    """Where the pstats dump goes; None when --profile was not given."""
    profile = getattr(args, "profile", None)
    if profile is None:
        return None
    if profile:
        return profile
    if getattr(args, "trace_out", None):
        return str(PurePath(args.trace_out).with_suffix(".pstats"))
    return "repro-profile.pstats"


def _build_cloud(args: argparse.Namespace, monitoring: bool = False) -> PiCloud:
    extra = {}
    if getattr(args, "topology", None) is not None:
        extra["topology"] = args.topology
        extra["fat_tree_k"] = args.fat_tree_k
    if getattr(args, "uplink_mbps", None) is not None:
        extra["uplink_bandwidth"] = mbit_per_s(args.uplink_mbps)
    config = PiCloudConfig(
        num_racks=args.racks, pis_per_rack=args.pis,
        routing=args.routing, seed=args.seed,
        start_monitoring=monitoring,
        **extra,
        budget=SimBudgetConfig(
            max_events=args.max_events,
            max_sim_time_s=args.max_sim_time,
            max_wall_s=args.wall_timeout,
        ),
        trace=TraceConfig(enabled=args.trace_out is not None),
        health=HealthConfig(enabled=args.self_healing),
        rate_model=RateModelConfig(
            model=getattr(args, "rate_model", "maxmin"),
            protocol=getattr(args, "cc_protocol", "reno"),
        ),
    )
    cloud = PiCloud(config)
    # Remembered so main() can export the trace even when the command
    # aborts (e.g. a tripped run budget).
    args._cloud = cloud
    cloud.boot()
    return cloud


def _export_trace(args: argparse.Namespace) -> None:
    cloud = getattr(args, "_cloud", None)
    if cloud is None or getattr(args, "trace_out", None) is None:
        return
    if cloud.tracer is None:
        return
    path = cloud.write_trace(args.trace_out)
    print(f"trace written to {path}", file=sys.stderr)


def cmd_info(args: argparse.Namespace) -> int:
    cloud = _build_cloud(args)
    description = cloud.describe()
    rows = [[key, value] for key, value in sorted(description.items())]
    print(format_table(["property", "value"], rows))
    return 0


def cmd_table1(args: argparse.Namespace) -> int:
    comparison = testbed_comparison(count=args.count)
    print(f"Table I: cost breakdown of a testbed consisting "
          f"{args.count} servers\n")
    print(format_table(
        ["", "Server", "Power", "Needs Cooling?"],
        [[row["testbed"], row["server"], row["power"], row["needs_cooling"]]
         for row in comparison.table()],
    ))
    print(f"\ncapex ratio {comparison.cost_ratio:.1f}x | "
          f"power ratio {comparison.power_ratio:.1f}x")
    return 0


def cmd_dashboard(args: argparse.Namespace) -> int:
    cloud = _build_cloud(args, monitoring=True)
    for image, name in (("webserver", "web-1"), ("database", "db-1")):
        signal = cloud.spawn(image, name=name)
        cloud.run_until_signal(signal)
        if not signal.ok:
            print(f"spawn of {name} failed: {signal.exception}",
                  file=sys.stderr)
            return 1
    cloud.run_for(args.runtime)
    print(cloud.dashboard().render())
    return 0


def cmd_campaign_run(args: argparse.Namespace) -> int:
    from repro.campaign import load_spec, run_campaign

    spec = load_spec(args.spec)
    out_dir = args.out or str(PurePath("campaign-out") / spec.name)
    result = run_campaign(
        spec, out_dir,
        workers=args.workers,
        baseline=args.baseline,
        dashboard=not args.no_dashboard,
        verbose=not args.quiet,
    )
    rows = [["campaign", spec.name],
            ["scenario", spec.scenario],
            ["grid cells", spec.cell_count],
            ["runs", len(result.records)],
            ["wall clock", f"{result.wall_s:.1f} s"]]
    for status, count in sorted(result.summary().items()):
        rows.append([f"runs {status}", count])
    rows.append(["result store", str(result.store.path)])
    if result.dashboard_path is not None:
        rows.append(["dashboard", str(result.dashboard_path)])
    print(format_table(["metric", "value"], rows))
    if not result.ok:
        print("campaign completed with failed runs (see the result store)",
              file=sys.stderr)
        return 1
    return 0


def cmd_campaign_report(args: argparse.Namespace) -> int:
    from repro.campaign import ResultStore, render_dashboard

    store = ResultStore.load(args.store)
    baseline = ResultStore.load(args.baseline) if args.baseline else None
    out = args.out or str(PurePath(str(store.directory)) / "dashboard.html")
    path = render_dashboard(store, out, baseline=baseline)
    ok = sum(1 for record in store if record.ok)
    print(f"{len(store)} runs ({ok} ok) -> {path}")
    return 0


def cmd_scale(args: argparse.Namespace) -> int:
    """The scale workload (:func:`~repro.campaign.scenarios.measure_scale`)."""
    from repro.campaign.scenarios import measure_scale

    result = measure_scale(args.nodes, seed=args.seed, pairs=args.pairs)
    rows = [[key, result[key]] for key in sorted(result)]
    print(format_table(["metric", "value"], rows))
    return 0


def cmd_storm(args: argparse.Namespace) -> int:
    if args.racks < 2:
        print("storm needs at least 2 racks", file=sys.stderr)
        return 2
    cloud = _build_cloud(args)
    result = elephant_storm(cloud, flows=args.flows,
                            size_bytes=args.mb * 1e6)
    print(format_table(
        ["metric", "value"],
        [["routing", args.routing],
         ["flows", args.flows],
         ["size each", f"{args.mb} MB"],
         ["completion", f"{result['completion_s']:.2f} s"],
         ["failed", result["failed"]],
         ["aggregation roots used", ", ".join(result["roots_used"])],
         ["mean throughput", f"{result['mean_throughput'] / 1e6:.2f} MB/s"]],
    ))
    return 0


def cmd_load(args: argparse.Namespace) -> int:
    cloud = _build_cloud(args)
    for index in range(args.replicas):
        cloud.spawn_and_wait("webserver", name=f"{args.service}{index}",
                             group=args.service)
    rerouter = None
    if args.te:
        if cloud.controller is None:
            print("--te needs an SDN routing mode (--routing sdn-*)",
                  file=sys.stderr)
            return 2
        from repro.netsim.sdn import ElephantRerouter

        rerouter = ElephantRerouter(
            cloud.sim, cloud.network, cloud.controller,
            interval=0.5, congestion_threshold=0.7, min_flow_bytes=1e5,
        )
    service = Service(
        args.service,
        profile=ServiceProfile(
            response_bytes=args.response_kib * 1024.0,
            requests_per_session_per_s=args.request_rate,
            session_duration_s=args.session_s,
        ),
        slo=SloObjective(threshold_s=args.slo_ms / 1e3,
                         objective=args.objective),
    )
    if args.crowd_peak is not None:
        arrivals = FlashCrowdArrivals(
            base_rate_per_s=args.rate, peak_rate_per_s=args.crowd_peak,
            start_s=args.crowd_start,
        )
    else:
        arrivals = PoissonArrivals(args.rate)
    injector = None
    if args.mtbf is not None:
        import random

        from repro.faults import MtbfFaultInjector

        injector = MtbfFaultInjector(
            cloud, rng=random.Random(args.seed),
            node_mtbf_s=args.mtbf, mttr_s=args.mttr,
            duration_s=args.duration,
        )
    engine = LoadEngine(cloud, [service], arrivals)
    report = engine.run(args.duration)
    if rerouter is not None:
        rerouter.stop()
    if injector is not None:
        injector.stop()
    print(report.format())
    fleet = report.fleet_summary()
    _, worst = report.worst_burn()
    rows = [
        ["routing", args.routing + (" + TE rerouter" if args.te else "")],
        ["peak concurrent sessions",
         f"{report.peak_concurrent_sessions:,.0f}"],
        ["epochs", report.epochs],
        ["fleet p50", f"{fleet.p50 * 1e3:.1f} ms"],
        ["fleet p99", f"{fleet.p99 * 1e3:.1f} ms"],
        ["fleet p999", f"{fleet.p999 * 1e3:.1f} ms"],
        ["fleet error rate", f"{report.fleet_error_rate():.2e}"],
        ["worst SLO burn", f"{worst:.2f}x"],
        ["kernel events", cloud.sim.events_executed],
    ]
    if args.rate_model == "cc":
        queue = cloud.network.queue_metrics()
        rows.append(["rate model", f"cc/{args.cc_protocol}"])
        rows.append(["queue depth p99",
                     f"{queue['queue_depth_p99'] / 1024.0:.1f} KiB"])
        rows.append(["ECN mark fraction", f"{queue['ecn_mark_frac']:.3f}"])
        rows.append(["queue drops", f"{queue['dropped_bytes']:,.0f} B"])
    if injector is not None:
        rows.append(["node faults injected", sum(
            1 for e in injector.log if e.kind == "node-fail"
        )])
        rows.append(["node repairs", sum(
            1 for e in injector.log if e.kind == "node-repair"
        )])
        if cloud.pimaster is not None and cloud.pimaster.recovery is not None:
            rows.append(["containers evacuated",
                         cloud.pimaster.recovery.containers_evacuated])
            rows.append(["containers respawned",
                         cloud.pimaster.recovery.containers_respawned])
    print()
    print(format_table(["metric", "value"], rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PiCloud: a scale model of the Glasgow Raspberry Pi Cloud",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    info = commands.add_parser("info", help="print the built architecture")
    _add_cloud_arguments(info)
    info.set_defaults(handler=cmd_info)

    table1 = commands.add_parser("table1", help="regenerate the paper's Table I")
    table1.add_argument("--count", type=int, default=56,
                        help="machines per testbed (paper: 56)")
    table1.set_defaults(handler=cmd_table1)

    dashboard = commands.add_parser(
        "dashboard", help="boot, spawn demo containers, print the panel"
    )
    _add_cloud_arguments(dashboard)
    dashboard.add_argument("--runtime", type=float, default=30.0,
                           help="simulated seconds to run before the snapshot")
    dashboard.set_defaults(handler=cmd_dashboard)

    scale = commands.add_parser(
        "scale", help="consolidation workload at 56-3456 nodes "
                      "(docs/performance.md)",
    )
    scale.add_argument("--nodes", type=int, default=224,
                       help="cloud size; must be a known scale")
    scale.add_argument("--pairs", type=int, default=None,
                       help="chatty pair count (default: per-scale)")
    scale.add_argument("--seed", type=int, default=None,
                       help="RNG master seed (default: the node count)")
    scale.add_argument("--profile", nargs="?", const="", default=None,
                       metavar="PATH",
                       help="profile with cProfile and write a pstats "
                            "dump to PATH (default: repro-profile.pstats)")
    scale.set_defaults(handler=cmd_scale)

    storm = commands.add_parser(
        "storm", help="inter-rack elephant storm (experiment C3 workload)"
    )
    _add_cloud_arguments(storm)
    storm.add_argument("--flows", type=int, default=6)
    storm.add_argument("--mb", type=float, default=10.0,
                       help="size of each elephant in MB")
    storm.set_defaults(handler=cmd_storm)

    load = commands.add_parser(
        "load",
        help="session-level user load with SLO accounting (docs/load.md)",
    )
    _add_cloud_arguments(load)
    load.add_argument("--topology", choices=("multi-root-tree", "fat-tree"),
                      default=None, help="fabric topology (default: config)")
    load.add_argument("--fat-tree-k", type=int, default=4,
                      help="fat-tree arity when --topology fat-tree")
    load.add_argument("--uplink-mbps", type=float, default=None,
                      help="uplink bandwidth in Mb/s (default: 1000)")
    load.add_argument("--duration", type=float, default=60.0,
                      help="simulated seconds of load")
    load.add_argument("--rate", type=float, default=50.0,
                      help="baseline session arrivals per second")
    load.add_argument("--crowd-peak", type=float, default=None, metavar="RATE",
                      help="flash crowd peak arrival rate (sessions/s); "
                           "omit for steady Poisson arrivals")
    load.add_argument("--crowd-start", type=float, default=10.0,
                      help="flash crowd start, seconds into the run")
    load.add_argument("--service", default="web",
                      help="service/placement-group name")
    load.add_argument("--replicas", type=int, default=8,
                      help="webserver replicas to spawn")
    load.add_argument("--request-rate", type=float, default=0.2,
                      help="requests per session per second")
    load.add_argument("--session-s", type=float, default=60.0,
                      help="mean session duration (s)")
    load.add_argument("--response-kib", type=float, default=8.0,
                      help="response size (KiB)")
    load.add_argument("--slo-ms", type=float, default=250.0,
                      help="SLO latency threshold (ms)")
    load.add_argument("--objective", type=float, default=0.999,
                      help="SLO objective fraction (default 99.9%%)")
    load.add_argument("--mtbf", type=float, default=None, metavar="SECONDS",
                      help="inject node faults during the load run with "
                           "this exponential mean time between failures "
                           "(pair with --self-healing to watch the "
                           "recovery plane absorb them)")
    load.add_argument("--mttr", type=float, default=60.0, metavar="SECONDS",
                      help="mean time to repair for --mtbf node faults")
    load.add_argument("--te", action="store_true",
                      help="run the elephant-rerouter TE app alongside "
                           "the SDN controller")
    load.set_defaults(handler=cmd_load)

    campaign = commands.add_parser(
        "campaign",
        help="declarative experiment campaigns (see docs/campaigns.md)",
    )
    campaign_commands = campaign.add_subparsers(
        dest="campaign_command", required=True
    )

    campaign_run = campaign_commands.add_parser(
        "run", help="expand a spec's grid and run it across workers"
    )
    campaign_run.add_argument("spec", help="campaign spec (.yaml/.json)")
    campaign_run.add_argument("--out", default=None, metavar="DIR",
                              help="output directory (default: "
                                   "campaign-out/<campaign-name>)")
    campaign_run.add_argument("--workers", type=int, default=None,
                              help="worker processes (default: from spec)")
    campaign_run.add_argument("--baseline", default=None, metavar="STORE",
                              help="baseline result store for dashboard "
                                   "regression deltas")
    campaign_run.add_argument("--no-dashboard", action="store_true",
                              help="skip rendering dashboard.html")
    campaign_run.add_argument("--quiet", action="store_true",
                              help="suppress per-run progress lines")
    campaign_run.set_defaults(handler=cmd_campaign_run)

    campaign_report = campaign_commands.add_parser(
        "report", help="render a dashboard from an existing result store"
    )
    campaign_report.add_argument(
        "store", help="result store: directory, results.jsonl, or .sqlite"
    )
    campaign_report.add_argument("--out", default=None, metavar="PATH",
                                 help="dashboard path (default: "
                                      "<store>/dashboard.html)")
    campaign_report.add_argument("--baseline", default=None, metavar="STORE",
                                 help="baseline store for regression deltas")
    campaign_report.set_defaults(handler=cmd_campaign_report)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    profile_out = _resolve_profile_out(args)
    profiler = None if profile_out is None else cProfile.Profile()
    try:
        if profiler is None:
            return args.handler(args)
        return profiler.runcall(args.handler, args)
    except SimBudgetExceeded as exc:
        print("simulation aborted: run budget exceeded", file=sys.stderr)
        if exc.snapshot is not None:
            print(exc.snapshot.describe(), file=sys.stderr)
        return 3
    except PiCloudError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        _export_trace(args)
        if profiler is not None:
            profiler.dump_stats(profile_out)
            print(f"profile written to {profile_out} "
                  f"(inspect with: python -m pstats {profile_out})",
                  file=sys.stderr)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

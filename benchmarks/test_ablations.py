"""Ablation benchmarks for the design choices DESIGN.md §4 calls out.

1. GPS fair-share CPU vs a FIFO run-to-completion model: FIFO destroys
   interactive latency when a batch task co-locates -- the reason the
   host model must be fair-share for co-location studies to be credible.
2. OpenFlow reactive vs proactive rule installation: proactive
   pre-installs every pair's rules, trading table space for zero setup
   latency and zero PacketIns.

(Max-min vs equal-split lives in test_sdn_routing.py; consolidation
aggressiveness in test_consolidation_congestion.py.)
"""

from repro.hardware import Cpu, CpuSpec
from repro.hostos.scheduler import FairShareScheduler, FifoScheduler
from repro.netsim import Network
from repro.netsim.sdn import OpenFlowPathService, SdnController, ShortestPathApp
from repro.netsim.topology import multi_root_tree, rack_host_names
from repro.sim import Simulator
from repro.telemetry.stats import format_table, summarize


def interactive_latency(scheduler_cls):
    """10 short requests arriving behind one long batch task."""
    sim = Simulator()
    cpu = Cpu(sim, CpuSpec(clock_hz=100.0))
    scheduler = scheduler_cls(sim, cpu)
    scheduler.submit(1000.0, name="batch")  # 10 s of work
    latencies = []
    for index in range(10):
        def submit(i=index):
            task = scheduler.submit(1.0, name=f"req{i}")
            task.add_done_callback(
                lambda done: latencies.append(done.duration)
            )
        sim.schedule(0.5 * index, submit)
    sim.run()
    return summarize(latencies)


def test_ablation_gps_vs_fifo_scheduler():
    gps = interactive_latency(FairShareScheduler)
    fifo = interactive_latency(FifoScheduler)

    print("\nAblation -- 10 short requests behind a 10s batch task\n")
    print(format_table(
        ["CPU model", "req latency p50 (s)", "p99 (s)"],
        [["GPS fair-share", f"{gps.p50:.2f}", f"{gps.p99:.2f}"],
         ["FIFO run-to-completion", f"{fifo.p50:.2f}", f"{fifo.p99:.2f}"]],
    ))
    # Under GPS the requests share the CPU immediately; under FIFO every
    # request waits for the whole batch: p50 is an order worse.
    assert fifo.p50 > 5 * gps.p50
    assert gps.p99 < 2.0


def _sdn_world(proactive: bool):
    sim = Simulator()
    topo = multi_root_tree(
        rack_host_names(2, 2), num_roots=2,
        host_bandwidth=1e6, uplink_bandwidth=1e7, latency=0.0,
    )
    controller = SdnController(sim, topo, ShortestPathApp())
    service = OpenFlowPathService(sim, controller, control_latency=2e-3)
    network = Network(sim, topo, path_service=service)
    controller.attach_network(network)
    hosts = topo.hosts()
    if proactive:
        # Pre-install pair rules for every host pair (both directions).
        import networkx as nx

        for src in hosts:
            for dst in hosts:
                if src == dst:
                    continue
                path = nx.shortest_path(topo.graph, src, dst)
                controller.install_path(path, idle_timeout=1e9)
                service._installed_paths[(src, dst, None)] = list(path)
    return sim, network, controller, hosts


def run_flow_burst(proactive: bool):
    sim, network, controller, hosts = _sdn_world(proactive)
    flows = []
    for index in range(12):
        src = hosts[index % len(hosts)]
        dst = hosts[(index + 2) % len(hosts)]
        flows.append(network.transfer(src, dst, 1000.0, flow_key=index))
    sim.run(until=600.0)
    assert all(f.ok for f in flows)
    return {
        "packet_ins": controller.packet_in_count,
        "flow_mods": controller.flow_mod_count,
        "mean_duration": sum(f.duration for f in flows) / len(flows),
        "rules": sum(len(s.table) for s in controller.switches.values()),
    }


def test_ablation_reactive_vs_proactive_openflow():
    reactive = run_flow_burst(proactive=False)
    proactive = run_flow_burst(proactive=True)

    print("\nAblation -- OpenFlow reactive vs proactive rule install\n")
    print(format_table(
        ["mode", "PacketIns", "FlowMods", "mean flow time (s)", "table rules"],
        [["reactive", reactive["packet_ins"], reactive["flow_mods"],
          f"{reactive['mean_duration']:.4f}", reactive["rules"]],
         ["proactive", proactive["packet_ins"], proactive["flow_mods"],
          f"{proactive['mean_duration']:.4f}", proactive["rules"]]],
    ))
    # Proactive: no control-plane involvement at flow time, faster flows,
    # but a much bigger rule footprint.
    assert proactive["packet_ins"] == 0
    assert reactive["packet_ins"] > 0
    assert proactive["mean_duration"] < reactive["mean_duration"]
    assert proactive["rules"] > reactive["rules"]

"""Property-based tests (hypothesis) for core invariants.

Covers the algorithms whose correctness everything rests on: max-min
fairness, the GPS scheduler's conservation laws, packing plans, address
pools, gauge integrals, the event queue's ordering and SLO peak burns.
"""

import math

from hypothesis import example, given, settings, strategies as st

from repro.hardware import Cpu, CpuSpec
from repro.hostos.scheduler import FairShareScheduler
from repro.load.slo import SloObjective, SloTracker
from repro.netsim.addresses import Ipv4Pool
from repro.netsim.fairness import max_min_rates
from repro.placement.consolidation import plan_packing
from repro.sim import Simulator
from repro.telemetry.series import Gauge
from tests.slo_reference import BruteForceSlo

# ---------------------------------------------------------------------------
# max-min fairness
# ---------------------------------------------------------------------------

flow_paths_strategy = st.dictionaries(
    keys=st.integers(0, 20),
    values=st.lists(st.sampled_from(["l0", "l1", "l2", "l3", "l4"]),
                    max_size=4, unique=True),
    min_size=1, max_size=12,
)
capacity_strategy = st.fixed_dictionaries(
    {name: st.floats(1.0, 1000.0) for name in ["l0", "l1", "l2", "l3", "l4"]}
)


@given(flow_paths=flow_paths_strategy, capacities=capacity_strategy)
@settings(max_examples=200, deadline=None)
def test_maxmin_never_exceeds_capacity(flow_paths, capacities):
    rates = max_min_rates(flow_paths, capacities)
    for link, capacity in capacities.items():
        load = sum(
            rates[f] for f, path in flow_paths.items()
            if link in path and math.isfinite(rates[f])
        )
        assert load <= capacity * (1 + 1e-6)


@given(flow_paths=flow_paths_strategy, capacities=capacity_strategy)
@settings(max_examples=200, deadline=None)
def test_maxmin_rates_nonnegative_and_complete(flow_paths, capacities):
    rates = max_min_rates(flow_paths, capacities)
    assert set(rates) == set(flow_paths)
    assert all(r >= 0 for r in rates.values())


@given(flow_paths=flow_paths_strategy, capacities=capacity_strategy)
@settings(max_examples=100, deadline=None)
def test_maxmin_is_work_conserving(flow_paths, capacities):
    """Every flow with a path is bottlenecked somewhere (no leftover both
    in the flow's rate and on every link it uses)."""
    rates = max_min_rates(flow_paths, capacities)
    loads = {link: 0.0 for link in capacities}
    for flow, path in flow_paths.items():
        if not math.isfinite(rates[flow]):
            continue
        for link in path:
            loads[link] += rates[flow]
    for flow, path in flow_paths.items():
        if not path:
            assert math.isinf(rates[flow])
            continue
        # At least one link on the path is (nearly) saturated.
        assert any(
            loads[link] >= capacities[link] * (1 - 1e-6) for link in path
        )


@given(
    n=st.integers(1, 10),
    capacity=st.floats(1.0, 1000.0),
)
def test_maxmin_identical_flows_get_equal_shares(n, capacity):
    flow_paths = {i: ["link"] for i in range(n)}
    rates = max_min_rates(flow_paths, {"link": capacity})
    expected = capacity / n
    for rate in rates.values():
        assert rate == (
            __import__("pytest").approx(expected, rel=1e-9)
        )


# ---------------------------------------------------------------------------
# GPS scheduler
# ---------------------------------------------------------------------------


@given(
    cycles=st.lists(st.floats(1.0, 1e6), min_size=1, max_size=8),
)
@settings(max_examples=50, deadline=None)
def test_scheduler_conserves_work(cycles):
    """Total executed cycles equals total submitted, and the last finish
    time equals total work / capacity (work conservation)."""
    sim = Simulator()
    cpu = Cpu(sim, CpuSpec(clock_hz=1e6))
    scheduler = FairShareScheduler(sim, cpu)
    tasks = [scheduler.submit(c) for c in cycles]
    sim.run()
    assert all(t.triggered for t in tasks)
    total = sum(cycles)
    assert cpu.cycles_executed == __import__("pytest").approx(total, rel=1e-6)
    assert sim.now == __import__("pytest").approx(total / 1e6, rel=1e-6)


@given(
    cycles=st.lists(st.floats(100.0, 1e5), min_size=2, max_size=6),
)
@settings(max_examples=50, deadline=None)
def test_scheduler_equal_tasks_finish_in_size_order(cycles):
    sim = Simulator()
    cpu = Cpu(sim, CpuSpec(clock_hz=1e6))
    scheduler = FairShareScheduler(sim, cpu)
    tasks = [scheduler.submit(c) for c in cycles]
    sim.run()
    finish = [t.completed_at for t in tasks]
    order = sorted(range(len(cycles)), key=lambda i: cycles[i])
    for earlier, later in zip(order, order[1:]):
        assert finish[earlier] <= finish[later] + 1e-9


# ---------------------------------------------------------------------------
# packing plans
# ---------------------------------------------------------------------------


class _Box:
    def __init__(self, name, memory_bytes):
        self.name = name
        self.memory_bytes = memory_bytes

    def __hash__(self):
        return hash(self.name)

    def __eq__(self, other):
        return isinstance(other, _Box) and other.name == self.name


@given(
    sizes=st.lists(st.integers(1, 100), min_size=0, max_size=12),
    host_capacity=st.integers(50, 300),
    hosts=st.integers(1, 6),
)
@settings(max_examples=200, deadline=None)
def test_packing_respects_capacity(sizes, host_capacity, hosts):
    host_names = [f"h{i}" for i in range(hosts)]
    containers = [
        (_Box(f"c{i}", size), host_names[i % hosts]) for i, size in enumerate(sizes)
    ]
    free = {h: host_capacity for h in host_names}
    plan = plan_packing(containers, free, host_names)
    # Every container assigned; capacity respected for *moved* placements.
    assert set(plan) == {f"c{i}" for i in range(len(sizes))}
    load = {h: 0 for h in host_names}
    current = {c.name: h for c, h in containers}
    for container, __ in containers:
        target = plan[container.name]
        if target != current[container.name]:
            load[target] += container.memory_bytes
    for host in host_names:
        # Moved-in load never exceeds the host's free-if-empty capacity.
        assert load[host] <= host_capacity


@given(
    sizes=st.lists(st.integers(1, 50), min_size=1, max_size=10),
)
@settings(max_examples=100, deadline=None)
def test_packing_never_uses_more_hosts_than_trivial(sizes):
    """FFD uses no more hosts than one-container-per-host."""
    hosts = [f"h{i}" for i in range(len(sizes))]
    containers = [(_Box(f"c{i}", s), hosts[i]) for i, s in enumerate(sizes)]
    free = {h: 100 for h in hosts}
    plan = plan_packing(containers, free, hosts)
    assert len(set(plan.values())) <= len(sizes)


# ---------------------------------------------------------------------------
# IPv4 pools
# ---------------------------------------------------------------------------


@given(count=st.integers(1, 60))
@settings(max_examples=50, deadline=None)
def test_pool_allocations_unique_and_in_subnet(count):
    pool = Ipv4Pool("192.168.7.0/26")  # 62 hosts
    addresses = [pool.allocate() for _ in range(min(count, 62))]
    assert len(set(addresses)) == len(addresses)
    for address in addresses:
        assert address.startswith("192.168.7.")


@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_pool_release_reuse_invariant(data):
    pool = Ipv4Pool("10.9.0.0/28")  # 14 hosts
    live = []
    for _ in range(30):
        if live and data.draw(st.booleans()):
            victim = data.draw(st.sampled_from(live))
            pool.release(victim)
            live.remove(victim)
        elif pool.assigned_count < pool.capacity:
            live.append(pool.allocate())
        assert pool.assigned_count == len(live)
        assert len(set(live)) == len(live)


# ---------------------------------------------------------------------------
# gauges
# ---------------------------------------------------------------------------


@given(
    steps=st.lists(
        st.tuples(st.floats(0.01, 10.0), st.floats(0.0, 100.0)),
        min_size=1, max_size=20,
    )
)
@settings(max_examples=100, deadline=None)
def test_gauge_integral_matches_manual_sum(steps):
    sim = Simulator()
    gauge = Gauge(sim, initial=0.0)
    t = 0.0
    expected = 0.0
    previous_value = 0.0
    for delta, value in steps:
        expected += previous_value * delta
        t += delta
        sim.schedule_at(t, gauge.set, value)
        previous_value = value
    sim.schedule_at(t + 1.0, lambda: None)
    sim.run()
    expected += previous_value * 1.0
    assert gauge.integral() == __import__("pytest").approx(expected, rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------------------
# event queue ordering
# ---------------------------------------------------------------------------


@given(times=st.lists(st.floats(0.0, 1000.0), min_size=1, max_size=50))
@settings(max_examples=100, deadline=None)
def test_simulator_executes_in_time_order(times):
    sim = Simulator()
    fired = []
    for t in times:
        sim.schedule(t, fired.append, t)
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(times)


# ---------------------------------------------------------------------------
# SLO peak burns
# ---------------------------------------------------------------------------

slo_mass = st.one_of(
    st.just(0.0),
    st.floats(5e-324, 2.2e-308),                 # subnormals
    st.floats(1e-300, 1e300),
    st.just(1.5e308),                            # sums overflow
    st.sampled_from([0.1, 0.2, 0.3, 1.0 / 3.0, 1.0, 3.0, 7.0]),  # near ties
)
slo_step = st.tuples(
    st.sampled_from([0.0, 0.0, 0.25, 1.0, 3.0, 50.0]),  # 50 s empties windows
    slo_mass,
    slo_mass,
    st.booleans(),                               # read peaks after it?
)


@given(
    windows=st.lists(st.sampled_from([0.5, 1.0, 2.0, 10.0]), min_size=1,
                     max_size=3, unique=True),
    objective=st.sampled_from([0.5, 0.9, 0.999, 1.0 - 2.0 ** -52]),
    t0=st.sampled_from([0.0, 3.7, 1e17]),
    steps=st.lists(slo_step, max_size=60),
)
@example(  # the fold rounds above the exact ratio: the bound needs slack
    windows=[1.0], objective=0.5, t0=0.0,
    steps=[(0.0, 0.1, 0.1, True), (0.0, 0.2, 0.1, True),
           (0.0, 0.2, 0.0, True), (0.0, 0.0, 0.3, True),
           (0.0, 1.0, 1.0, True)],
)
@example(  # 30 tiny good masses the fold drops: the slack must grow with m
    windows=[1.0], objective=0.5, t0=0.0,
    steps=([(0.0, 1.0, 0.5 - 2.0 ** -52, True), (5.0, 2.0 ** -54, 0.0, False)]
           + [(0.0, 2.0 ** -54, 0.0, False)] * 29
           + [(0.0, 1.0, 0.5, True)]),
)
@settings(max_examples=300, deadline=None)
def test_slo_peak_burns_match_brute_force(windows, objective, t0, steps):
    """Filtered peaks equal folding every window on every record, bit for
    bit, whether peaks are read after every record or only now and then."""
    slo = SloObjective(objective=objective, windows=tuple(windows))
    eager, lazy, ref = SloTracker(slo), SloTracker(slo), BruteForceSlo(slo)
    t = t0
    for dt, good, bad, read in steps:
        t += dt
        for tracker in (eager, lazy, ref):
            tracker.record(t, good, bad)
        checked = (eager, lazy) if read else (eager,)
        for tracker in checked:
            for window in windows:
                assert (tracker.peak_burn_rate(window).hex()
                        == ref.peak[window].hex())
    for window in windows:
        assert lazy.peak_burn_rate(window).hex() == ref.peak[window].hex()

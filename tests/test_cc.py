"""The pluggable congestion-control rate model (repro.netsim.cc).

Four layers of assurance:

* **Window arithmetic** -- hand-computed cwnd sequences drive
  :class:`CcFlowState.update` directly for each protocol (Reno AIMD,
  DCTCP's alpha EWMA, the delay-based variant), including the
  once-per-RTT decrease gate and the min-cwnd floor.
* **Default-path safety** -- ``rate_model="maxmin"`` allocates no queue
  state and exports byte-identical traces whether the config says
  nothing or says ``maxmin`` explicitly (fresh interpreters).
* **Determinism** -- the seeded incast cell reproduces byte-identically
  across fresh interpreters; there is no RNG in the cc path.
* **The headline contrast** -- on the paper-scale 224-host fat-tree,
  DCTCP holds p99 queue depth under a third of Reno's while giving up
  less than 10% goodput (the acceptance bar for this subsystem;
  ``specs/cc_contrast.yaml`` sweeps the same workload).
"""

import dataclasses
import gc
import hashlib
import json
import math
import subprocess
import sys
import types
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import example, given, settings, strategies as st

import repro
from repro.campaign.scenarios import run_cc_contrast
from repro.core.config import PiCloudConfig, RateModelConfig
from repro.errors import ConfigurationError, NetworkError, RateModelError
from repro.netsim.cc import (
    AI_MSS_PER_RTT, DCTCP_G, DELAY_SMOOTHING, DELAY_THRESHOLD,
    ECN_THRESHOLD_FRAC, EPOCH_S, INIT_CWND_BYTES, MD_FACTOR, MIN_CWND_BYTES,
    MSS_BYTES, PARK_BACKLOG, QUEUE_LIMIT_BYTES, _IDLE_SIGNAL,
    CcFlowState, CcRateModel, MaxMinRateModel, _EpochPlan,
)
from repro.netsim.fabric import FlowState, FlowTransfer, Network
from repro.netsim.link import Link, QueueState
from repro.netsim.routing import EcmpRouting
from repro.netsim.topology import fat_tree
from repro.sim.kernel import Simulator

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _state(protocol):
    return CcFlowState(protocol, rtt_base_s=0.1)


def test_window_constants_are_the_hand_arithmetic_inputs():
    """The literals in the DCTCP and delay tests assume these values."""
    assert (INIT_CWND_BYTES, MIN_CWND_BYTES, MSS_BYTES) == (
        15_000.0, 1_500.0, 1_500.0)
    assert (AI_MSS_PER_RTT, MD_FACTOR, DCTCP_G) == (1.0, 0.5, 0.0625)
    assert (DELAY_THRESHOLD, DELAY_SMOOTHING) == (1.25, 0.1)


def _cc(protocol="reno"):
    return RateModelConfig(model="cc", protocol=protocol).build()


class TestRenoWindow:
    def test_additive_increase_is_one_mss_per_rtt(self):
        state = _state("reno")
        state.update(now=0.1, dt=0.1, rtt_s=0.1, ecn_frac=0.0, loss=False)
        assert state.cwnd == INIT_CWND_BYTES + MSS_BYTES
        state.update(now=0.2, dt=0.1, rtt_s=0.1, ecn_frac=0.0, loss=False)
        assert state.cwnd == INIT_CWND_BYTES + 2 * MSS_BYTES

    def test_partial_epoch_grows_proportionally(self):
        state = _state("reno")
        state.update(now=0.05, dt=0.05, rtt_s=0.1, ecn_frac=0.0, loss=False)
        assert state.cwnd == INIT_CWND_BYTES + MSS_BYTES / 2

    def test_reno_is_ecn_blind(self):
        """Marks alone never shrink Reno -- that's the whole contrast."""
        state = _state("reno")
        state.update(now=0.1, dt=0.1, rtt_s=0.1, ecn_frac=1.0, loss=False)
        assert state.cwnd == INIT_CWND_BYTES + MSS_BYTES
        assert state.ecn_signals == 1
        assert state.decreases == 0

    def test_loss_halves_gated_once_per_rtt(self):
        state = _state("reno")
        state.update(now=0.1, dt=0.1, rtt_s=0.1, ecn_frac=0.0, loss=True)
        assert state.cwnd == INIT_CWND_BYTES * MD_FACTOR
        assert state.decreases == 1
        # A second loss within the same RTT is the same congestion event.
        state.update(now=0.15, dt=0.05, rtt_s=0.1, ecn_frac=0.0, loss=True)
        assert state.cwnd == INIT_CWND_BYTES * MD_FACTOR
        assert state.decreases == 1
        # One RTT later it counts again.
        state.update(now=0.25, dt=0.1, rtt_s=0.1, ecn_frac=0.0, loss=True)
        assert state.cwnd == INIT_CWND_BYTES * MD_FACTOR * MD_FACTOR
        assert state.decreases == 2

    def test_min_cwnd_floor(self):
        state = _state("reno")
        for i in range(20):
            state.update(now=float(i + 1), dt=1.0, rtt_s=0.1,
                         ecn_frac=0.0, loss=True)
        assert state.cwnd == MIN_CWND_BYTES


class TestDctcpWindow:
    # g = 1/16 keeps the EWMA arithmetic exact in binary floating point.
    def test_alpha_ewma_and_proportional_backoff(self):
        state = _state("dctcp")
        state.update(now=0.1, dt=0.1, rtt_s=0.1, ecn_frac=1.0, loss=False)
        assert state.alpha == 0.0625                   # g*0 + g*1
        assert state.cwnd == 14_531.25                 # x (1 - 0.0625/2)
        state.update(now=0.2, dt=0.1, rtt_s=0.1, ecn_frac=1.0, loss=False)
        assert state.alpha == 0.12109375               # (1-g)*g + g
        assert state.cwnd == 14_531.25 * (1.0 - 0.12109375 / 2.0)

    def test_alpha_decays_and_growth_resumes_when_marks_stop(self):
        state = _state("dctcp")
        state.update(now=0.1, dt=0.1, rtt_s=0.1, ecn_frac=1.0, loss=False)
        state.update(now=0.2, dt=0.1, rtt_s=0.1, ecn_frac=1.0, loss=False)
        backed_off = state.cwnd
        state.update(now=0.3, dt=0.1, rtt_s=0.1, ecn_frac=0.0, loss=False)
        assert state.alpha == 0.12109375 * 0.9375      # (1-g) x alpha
        assert state.cwnd == backed_off + MSS_BYTES

    def test_loss_still_halves(self):
        state = _state("dctcp")
        state.update(now=0.1, dt=0.1, rtt_s=0.1, ecn_frac=1.0, loss=True)
        assert state.cwnd == INIT_CWND_BYTES * MD_FACTOR  # md, not 1-alpha/2

    def test_gentle_when_marks_rare(self):
        state = _state("dctcp")
        state.update(now=0.1, dt=0.1, rtt_s=0.1, ecn_frac=0.1, loss=False)
        assert state.alpha == pytest.approx(0.00625)   # g x 0.1
        assert state.cwnd == pytest.approx(
            INIT_CWND_BYTES * (1.0 - 0.00625 / 2.0))


class TestDelayWindow:
    def test_srtt_seeds_then_smooths(self):
        state = _state("delay")
        state.update(now=0.1, dt=0.1, rtt_s=0.1, ecn_frac=0.0, loss=False)
        assert state.srtt == 0.1                       # first sample seeds
        assert state.cwnd == INIT_CWND_BYTES + MSS_BYTES   # below: grow
        state.update(now=0.2, dt=0.1, rtt_s=0.2, ecn_frac=0.0, loss=False)
        assert state.srtt == pytest.approx(0.11)       # 0.9*0.1 + 0.1*0.2
        # Still under 1.25 x 0.1: grow one MSS per (0.2 s) RTT.
        assert state.cwnd == INIT_CWND_BYTES + 1.5 * MSS_BYTES

    def test_backs_off_when_srtt_crosses_threshold(self):
        state = _state("delay")
        state.update(now=0.1, dt=0.1, rtt_s=0.1, ecn_frac=0.0, loss=False)
        grown = INIT_CWND_BYTES + MSS_BYTES
        state.update(now=0.2, dt=0.1, rtt_s=0.4, ecn_frac=0.0, loss=False)
        assert state.srtt == pytest.approx(0.13)       # > 1.25 * 0.1
        assert state.cwnd == grown * MD_FACTOR
        # srtt decays back under the threshold -> growth resumes.
        state.update(now=0.5, dt=0.1, rtt_s=0.1, ecn_frac=0.0, loss=False)
        assert state.srtt == pytest.approx(0.127)      # still above
        assert state.cwnd == grown * MD_FACTOR * MD_FACTOR
        state.update(now=0.6, dt=0.1, rtt_s=0.1, ecn_frac=0.0, loss=False)
        assert state.srtt == pytest.approx(0.1243)     # not above
        assert state.cwnd == grown * MD_FACTOR * MD_FACTOR + MSS_BYTES


class TestValidation:
    def test_unknown_protocol(self):
        """The config rejects it; a ValueError, as RateModelError was."""
        with pytest.raises(ValueError):
            RateModelConfig(model="cc", protocol="cubic")
        with pytest.raises(RateModelError):
            CcFlowState("reno", rtt_base_s=0.0)

    @pytest.mark.parametrize("knobs", [
        {"epoch_s": 0.0},
        {"queue_limit_bytes": -1.0},
        {"ecn_threshold_frac": 0.0},
        {"ecn_threshold_frac": 1.5},
        {"min_cwnd_bytes": 0.0},
        {"init_cwnd_bytes": 100.0, "min_cwnd_bytes": 200.0},
        {"mss_bytes": 0.0},
        {"ai_mss_per_rtt": 0.0},
        {"md_factor": 1.0},
        {"dctcp_g": 0.0},
        {"delay_threshold": 1.0},
        {"delay_smoothing": 0.0},
    ])
    def test_bad_knobs_raise(self, knobs):
        """These are constants of repro.netsim.cc, not config fields:
        passing one at all is a TypeError."""
        with pytest.raises(TypeError, match="unexpected keyword"):
            RateModelConfig(model="cc", **knobs)

    def test_rate_model_error_is_network_and_value_error(self):
        assert issubclass(RateModelError, NetworkError)
        assert issubclass(RateModelError, ValueError)
        assert repro.RateModelError is RateModelError
        assert repro.RateModelConfig is RateModelConfig

    def test_config_validates_with_configuration_error(self):
        with pytest.raises(ConfigurationError):
            RateModelConfig(model="bbr")
        with pytest.raises(ConfigurationError):
            RateModelConfig(protocol="cubic")

    def test_config_is_keyword_only(self):
        with pytest.raises(TypeError):
            RateModelConfig("cc")  # noqa: positional args rejected

    def test_model_attaches_to_one_network_only(self):
        sim = Simulator()
        topo = fat_tree(4)
        model = _cc()
        Network(sim, topo, path_service=EcmpRouting(sim, topo),
                rate_model=model)
        sim2 = Simulator()
        topo2 = fat_tree(4)
        with pytest.raises(RateModelError):
            Network(sim2, topo2, path_service=EcmpRouting(sim2, topo2),
                    rate_model=model)


class TestConfigDefaultsInSync:
    """RateModelConfig picks the model and the protocol; the constants of
    repro.netsim.cc reach the model, its queues and every flow's window."""

    def test_built_model_carries_config_knobs(self):
        fields = {f.name for f in dataclasses.fields(RateModelConfig)}
        assert fields == {"model", "protocol"}

        model = RateModelConfig(model="cc", protocol="delay").build()
        assert isinstance(model, CcRateModel)
        assert model.describe() == {
            "model": "cc", "protocol": "delay", "epoch_s": 0.001,
            "queue_limit_bytes": 300_000.0, "ecn_threshold_frac": 0.15,
        }
        sim = Simulator()
        topo = fat_tree(4)
        net = Network(sim, topo, path_service=EcmpRouting(sim, topo),
                      rate_model=model)
        queue = net.direction("p0-edge0", "h0").queue
        assert queue.limit_bytes == QUEUE_LIMIT_BYTES
        assert queue.ecn_threshold_bytes == QUEUE_LIMIT_BYTES * 0.15
        flow = net.transfer("h1", "h0", 1e9)
        sim.run(until=0.9 * EPOCH_S)
        state = flow.cc
        assert (state.protocol, state.cwnd) == ("delay", INIT_CWND_BYTES)
        assert state.srtt is None          # no epoch tick yet
        sim.run(until=1.1 * EPOCH_S)
        assert state.srtt is not None

    def test_maxmin_builds_to_none(self):
        """None means the fabric installs its zero-cost default."""
        assert RateModelConfig().build() is None
        assert RateModelConfig(model="maxmin").build() is None

    def test_picloud_config_carries_rate_model(self):
        config = PiCloudConfig(rate_model=RateModelConfig(model="cc"))
        assert config.rate_model.model == "cc"
        assert PiCloudConfig().rate_model.model == "maxmin"


def _flows_held_by(model):
    """The flows reachable from a rate model's own state, not counting
    what it reaches through the fabric or simulator it is attached to."""
    skip = (Network, Simulator, type, types.ModuleType, types.FunctionType,
            types.MethodType)
    seen, found = set(), []
    stack = [value for name, value in vars(model).items() if name != "network"]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, skip):
            continue
        seen.add(id(obj))
        if isinstance(obj, FlowTransfer):
            found.append(obj)
        else:
            stack.extend(gc.get_referents(obj))
    return found


class TestMaxminDefaultPath:
    def test_default_network_uses_maxmin_without_queue_state(self):
        sim = Simulator()
        topo = fat_tree(4)
        net = Network(sim, topo, path_service=EcmpRouting(sim, topo))
        assert isinstance(net.rate_model, MaxMinRateModel)
        for link in net.links():
            assert link.forward.queue is None
            assert link.reverse.queue is None
        metrics = net.queue_metrics()
        assert metrics["queue_depth_p99"] == 0.0
        assert metrics["ecn_mark_frac"] == 0.0
        assert metrics["drop_events"] == 0

    def test_rate_caps_maintained_incrementally(self):
        sim = Simulator()
        topo = fat_tree(4)
        net = Network(sim, topo, path_service=EcmpRouting(sim, topo))
        hosts = sorted(topo.hosts())
        capped = net.transfer(hosts[0], hosts[1], 1e6, rate_cap=2e6)
        uncapped = net.transfer(hosts[2], hosts[3], 1e6)
        sim.run(until=0.01)
        assert net._rate_caps == {capped: 2e6}
        assert uncapped.rate > 0.0
        assert capped.rate <= 2e6 + 1e-6
        sim.run(until=30.0)      # both complete; the dict empties itself
        assert net._rate_caps == {}

    def test_cc_honours_rate_cap(self):
        sim = Simulator()
        topo = fat_tree(4)
        net = Network(sim, topo, path_service=EcmpRouting(sim, topo),
                      rate_model=_cc("reno"))
        hosts = sorted(topo.hosts())
        flow = net.transfer(hosts[0], hosts[1], 1e9, rate_cap=1e5)
        sim.run(until=2.0)
        net.sync()
        assert 0.0 < flow.rate <= 1e5 + 1e-6

    def test_cc_flows_expose_window_state(self):
        sim = Simulator()
        topo = fat_tree(4)
        net = Network(sim, topo, path_service=EcmpRouting(sim, topo),
                      rate_model=_cc("dctcp"))
        hosts = sorted(topo.hosts())
        flow = net.transfer(hosts[0], hosts[1], 1e9)
        sim.run(until=1.0)
        assert flow.cc is not None
        assert flow.cc.protocol == "dctcp"
        assert flow.cc.cwnd > 0.0

    def test_model_releases_flows_once_the_last_one_finishes(self):
        sim = Simulator()
        topo = fat_tree(4)
        model = _cc("dctcp")
        net = Network(sim, topo, path_service=EcmpRouting(sim, topo),
                      rate_model=model)
        flows = [net.transfer(f"h{i}", "h0", 50e3) for i in (1, 4, 8)]
        # Runs until the first tick after the last flow finished, which
        # finds no cc flow and does not re-arm.
        sim.run()
        assert all(flow.state is FlowState.DONE for flow in flows)
        assert _flows_held_by(model) == []

    def test_path_queue_delay_zero_under_maxmin(self):
        sim = Simulator()
        topo = fat_tree(4)
        net = Network(sim, topo, path_service=EcmpRouting(sim, topo))
        hosts = sorted(topo.hosts())
        flow = net.transfer(hosts[0], hosts[1], 1e6)
        sim.run(until=0.01)
        assert net.path_queue_delay(flow.directions) == 0.0


_TRACE_SCRIPT = """
import sys
from repro import PiCloud, PiCloudConfig, RateModelConfig, TraceConfig

explicit = sys.argv[2] == "explicit"
kwargs = dict(seed=3, routing="ecmp", trace=TraceConfig(enabled=True))
if explicit:
    kwargs["rate_model"] = RateModelConfig(model="maxmin")
config = PiCloudConfig.small(**kwargs)
cloud = PiCloud(config)
cloud.boot()
cloud.network.transfer("pi-r0-n0", "pi-r1-n2", 5e6)
cloud.run_for(120.0)
cloud.write_trace(sys.argv[1])
"""


class TestMaxminByteIdentity:
    def test_explicit_maxmin_config_is_byte_identical_to_default(
        self, tmp_path
    ):
        """Saying ``rate_model=maxmin`` out loud must change nothing:
        fresh interpreters, same seed, identical trace bytes."""
        outputs = []
        for variant in ("default", "explicit"):
            out = tmp_path / f"trace-{variant}.jsonl"
            subprocess.run(
                [sys.executable, "-c", _TRACE_SCRIPT, str(out), variant],
                capture_output=True, text=True, check=True,
                env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
            )
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert len(outputs[0]) > 0


_INCAST_SCRIPT = """
import json, sys
from repro.campaign.scenarios import run_cc_contrast

out = run_cc_contrast(
    rate_model="cc", protocol=sys.argv[2], hosts=16, fat_tree_k=4,
    senders=12, flow_bytes=2e6, duration_s=3.0, start_jitter_s=0.005,
    seed=int(sys.argv[3]),
)
with open(sys.argv[1], "w") as fh:
    json.dump(out, fh, sort_keys=True)
"""


class TestSeededIncastDeterminism:
    @pytest.mark.parametrize("protocol", ["reno", "dctcp"])
    def test_same_seed_reproduces_across_interpreters(
        self, tmp_path, protocol
    ):
        outputs = []
        for run in ("a", "b"):
            out = tmp_path / f"incast-{run}.json"
            subprocess.run(
                [sys.executable, "-c", _INCAST_SCRIPT,
                 str(out), protocol, "7"],
                capture_output=True, text=True, check=True,
                env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
            )
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        metrics = json.loads(outputs[0])
        assert metrics["delivered_bytes"] > 0.0

    def test_different_seeds_jitter_the_incast(self):
        kwargs = dict(
            rate_model="cc", protocol="dctcp", hosts=16, fat_tree_k=4,
            senders=12, flow_bytes=2e6, duration_s=3.0, start_jitter_s=0.005,
        )
        a = run_cc_contrast(seed=7, **kwargs)
        b = run_cc_contrast(seed=8, **kwargs)
        assert a != b


class TestDctcpVsRenoContrast:
    """The acceptance bar, on the paper-scale 224-host fat-tree."""

    @pytest.fixture(scope="class")
    def arms(self):
        results = {}
        for protocol in ("reno", "dctcp"):
            results[protocol] = run_cc_contrast(
                rate_model="cc", protocol=protocol,
                hosts=224, fat_tree_k=10,
                senders=8, flow_bytes=60e6, duration_s=12.0,
            )
        return results

    def test_reno_fills_the_buffer(self, arms):
        reno = arms["reno"]
        assert reno["netsim.queue_depth_p99"] >= (
            0.9 * QUEUE_LIMIT_BYTES)
        assert reno["netsim.drop_events"] > 0     # loss is Reno's only signal

    def test_dctcp_keeps_queues_below_a_third_of_reno(self, arms):
        assert arms["dctcp"]["netsim.queue_depth_p99"] < (
            arms["reno"]["netsim.queue_depth_p99"] / 3.0
        )

    def test_dctcp_goodput_within_ten_percent_of_reno(self, arms):
        assert arms["dctcp"]["goodput_bytes_per_s"] >= (
            0.9 * arms["reno"]["goodput_bytes_per_s"]
        )

    def test_dctcp_marks_instead_of_dropping(self, arms):
        dctcp = arms["dctcp"]
        assert dctcp["netsim.ecn_mark_frac"] > 0.0
        assert (dctcp["netsim.dropped_bytes"]
                <= arms["reno"]["netsim.dropped_bytes"])

    def test_maxmin_arm_reports_no_queue_state(self):
        out = run_cc_contrast(
            rate_model="maxmin", hosts=16, fat_tree_k=4,
            senders=8, flow_bytes=1e6, duration_s=2.0,
        )
        assert out["netsim.queue_depth_p99"] == 0.0
        assert out["netsim.ecn_mark_frac"] == 0.0
        assert out["delivered_bytes"] > 0.0


class TestQueueStateModel:
    """The fluid queue integration, driven directly."""

    def _queue(self, capacity=1e6, limit=100.0, threshold=50.0):
        from repro.netsim.link import QueueState

        class _Sim:
            now = 0.0

        class _Dir:
            pass

        direction = _Dir()
        direction.sim = _Sim()
        direction.capacity = capacity
        direction.name = "test"
        queue = QueueState(direction, limit_bytes=limit,
                           ecn_threshold_bytes=threshold)
        return queue

    def test_builds_and_drains_linearly(self):
        queue = self._queue(capacity=100.0, limit=1000.0, threshold=500.0)
        queue.offered = 150.0          # +50 B/s net inflow
        queue.advance(2.0)
        assert queue.occupancy == pytest.approx(100.0)
        queue.offered = 50.0           # -50 B/s net
        queue.advance(3.0)
        assert queue.occupancy == pytest.approx(50.0)
        queue.advance(10.0)            # drains to empty, clamps at zero
        assert queue.occupancy == 0.0

    def test_overflow_books_drops_and_clamps(self):
        queue = self._queue(capacity=100.0, limit=100.0, threshold=50.0)
        queue.offered = 200.0          # +100 B/s net into a 100 B buffer
        queue.advance(2.0)
        assert queue.occupancy == 100.0
        assert queue.dropped_bytes == pytest.approx(100.0)  # 1s of overflow
        frac, dropped, delay = queue.close_epoch(2.0)
        assert dropped is True
        assert queue.observed_seconds == pytest.approx(2.0)
        # Above the 50 B threshold from t=0.5 onward.
        assert queue.marked_seconds == pytest.approx(1.5)
        assert frac == pytest.approx(0.75)
        assert delay == pytest.approx(1.0)   # 100 B at 100 B/s
        # The epoch's accumulators reset; the queue itself does not.
        assert queue.close_epoch(2.0) == (0.0, False, delay)

    def test_time_above_threshold_is_exact_at_the_crossing(self):
        queue = self._queue(capacity=100.0, limit=1000.0, threshold=100.0)
        queue.offered = 200.0          # +100 B/s: crosses 100 B at t=1
        queue.advance(2.0)
        frac, _, _ = queue.close_epoch(2.0)
        assert queue.marked_seconds == pytest.approx(1.0)
        assert queue.observed_seconds == pytest.approx(2.0)
        assert frac == pytest.approx(0.5)
        assert queue.mark_fraction() == pytest.approx(0.5)


def _reference_advance(queue, now):
    """``QueueState.advance``'s body before the idle branch landed in
    ``close_epoch``, verbatim: the reference both are checked against."""
    dt = now - queue._last_update
    if dt <= 0.0:
        return
    queue._last_update = now
    net = queue.offered - queue.direction.capacity
    q0 = queue.occupancy
    raw = q0 + net * dt
    limit = queue.limit_bytes
    if raw > limit:
        q1 = limit
        overflow = raw - limit
        queue.dropped_bytes += overflow
        queue._interval_dropped += overflow
        queue.drop_events += 1
    elif raw < 0.0:
        q1 = 0.0
    else:
        q1 = raw
    k = queue.ecn_threshold_bytes
    if net == 0.0:
        above = dt if q0 > k else 0.0
    elif net > 0.0:
        if q0 >= k:
            above = dt
        else:
            above = dt - (k - q0) / net
            if not above > 0.0:
                above = 0.0
    elif q0 <= k:
        above = 0.0
    else:
        above = (q0 - k) / -net
        if not above < dt:
            above = dt
    queue.marked_seconds += above
    queue.observed_seconds += dt
    queue._interval_marked_s += above
    queue._interval_observed_s += dt
    queue.occupancy = q1
    if q1 > queue.peak_bytes:
        queue.peak_bytes = q1
    queue.depth_hist.record(q1, dt)


def _reference_close_epoch(queue, now):
    """``QueueState.close_epoch`` as the tick did it before its idle
    branch: advance, collect the interval, read the delay."""
    _reference_advance(queue, now)
    marked_s = queue._interval_marked_s
    observed_s = queue._interval_observed_s
    dropped = queue._interval_dropped > 0.0
    queue._interval_marked_s = 0.0
    queue._interval_observed_s = 0.0
    queue._interval_dropped = 0.0
    cap = queue.direction.capacity
    return (marked_s / observed_s if observed_s > 0.0 else 0.0, dropped,
            queue.occupancy / cap if cap > 0 else 0.0)


def _queue_slots(queue):
    """Every float and count of a queue (and its histogram), as hex."""
    hist = queue.depth_hist
    floats = [getattr(queue, slot) for slot in (
        "limit_bytes", "ecn_threshold_bytes", "occupancy", "offered",
        "_last_update", "marked_seconds", "observed_seconds",
        "dropped_bytes", "_interval_marked_s", "_interval_observed_s",
        "_interval_dropped", "peak_bytes")]
    floats += [hist.total, hist._sum, hist._sum_sq, hist._min_seen,
               hist._max_seen] + hist._counts
    return [value.hex() for value in floats] + [queue.drop_events]


# The cc model's ECN threshold, in bytes.
_K = QUEUE_LIMIT_BYTES * ECN_THRESHOLD_FRAC


def _advance_both(occupancy, offered_frac, steps, bandwidth_frac=1.0):
    """Drive queues and reference twins from the same state through
    ``steps`` (absolute times), comparing every slot after each step:
    ``advance`` against ``_reference_advance``, and ``close_epoch``
    (with its idle branch) against ``_reference_close_epoch``.

    ``offered_frac`` sets the inflow as a multiple of the (possibly
    degraded) capacity of a 100 Mb/s link."""
    link = Link(Simulator(), "a", "b", bandwidth=12.5e6)
    if bandwidth_frac != 1.0:
        link.degrade(bandwidth_frac=bandwidth_frac)
    queues = [QueueState(link.forward, QUEUE_LIMIT_BYTES, _K)
              for _ in range(4)]
    for queue in queues:
        queue.occupancy = occupancy
        queue.offered = link.forward.capacity * offered_frac
    advanced, advanced_ref, closed, closed_ref = queues
    for now in steps:
        advanced.advance(now)
        _reference_advance(advanced_ref, now)
        assert _queue_slots(advanced) == _queue_slots(advanced_ref), (now,)
        frac, dropped, delay = closed.close_epoch(now)
        frac_ref, dropped_ref, delay_ref = _reference_close_epoch(
            closed_ref, now)
        assert (frac.hex(), dropped, delay.hex()) == (
            frac_ref.hex(), dropped_ref, delay_ref.hex()), (now,)
        assert _queue_slots(closed) == _queue_slots(closed_ref), (now,)


_STEPS = [0.001, 0.0017, 0.0017, 0.0031, 0.5, 0.5000001]


class TestQueueMatchesReference:
    """``QueueState.advance`` and ``close_epoch`` keep the pre-change
    arithmetic bit for bit, on the idle branch (empty queue, inflow
    within capacity) and off it."""

    @pytest.mark.parametrize("offered_frac", [0.0, 0.3, 1.0, 1.0 + 2**-52,
                                              1.7])
    def test_empty_queue(self, offered_frac):
        _advance_both(0.0, offered_frac, _STEPS)

    @pytest.mark.parametrize("occupancy", [
        math.nextafter(_K, 0.0), _K, math.nextafter(_K, math.inf),
        1.0, QUEUE_LIMIT_BYTES])
    @pytest.mark.parametrize("offered_frac", [0.0, 0.999, 1.0, 1.001])
    def test_around_the_ecn_threshold(self, occupancy, offered_frac):
        _advance_both(occupancy, offered_frac, _STEPS)

    @pytest.mark.parametrize("occupancy", [0.0, _K])
    @pytest.mark.parametrize("offered_frac", [0.5, 1.0, 1.5])
    def test_degraded_capacity(self, occupancy, offered_frac):
        _advance_both(occupancy, offered_frac, _STEPS, bandwidth_frac=0.25)

    @pytest.mark.parametrize("occupancy", [0.0, _K])
    @pytest.mark.parametrize("offered_frac", [0.5, 1.0, 1.5])
    def test_tiny_dt(self, occupancy, offered_frac):
        start = 1.0
        _advance_both(occupancy, offered_frac, [
            start, math.nextafter(start, 2.0),
            math.nextafter(math.nextafter(start, 2.0), 2.0), start + 1e-12])

    @given(
        occupancy=st.one_of(st.just(0.0), st.floats(0.0, QUEUE_LIMIT_BYTES)),
        offered_frac=st.one_of(st.sampled_from([0.0, 1.0]),
                               st.floats(0.0, 3.0)),
        gaps=st.lists(st.floats(0.0, 0.01), min_size=1, max_size=8),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_reference(self, occupancy, offered_frac, gaps):
        steps, now = [], 0.0
        for gap in gaps:
            now += gap
            steps.append(now)
        _advance_both(occupancy, offered_frac, steps)


def _signal_hex(signal):
    frac, dropped, delay = signal
    return frac.hex(), dropped, delay.hex()


def _park_and_replay(occupancy, observed, steps):
    """Drive a queue the epoch plan's way next to a twin that closes
    every tick; compare them at every tick and every barrier.

    Both queues start with ``occupancy`` bytes and ``observed`` seconds
    of idle history.  Each step is ``(gap, offered_frac, event)``: the
    tick ``gap`` seconds after the last closes the epoch, then sets the
    inflow to ``offered_frac`` of the link's capacity.  ``event``, if
    any, comes halfway through the gap: ``"read"`` (a read barrier) or
    a new bandwidth fraction for the link (a gray failure, or at 1.0
    its repair), which integrates both queues up to it first.

    The queue lives in an epoch plan of its own, which parks it while it
    is idle, hands the tick the idle signal meanwhile, and replays it
    when its inflow outgrows the link, at each barrier and at the end.
    The twin calls ``close_epoch`` at every tick.  Their signals must
    match at every tick, and every slot (by ``float.hex``) whenever the
    queue is not parked.  Returns the number of ticks the queue spent
    parked.
    """
    link = Link(Simulator(), "a", "b", bandwidth=12.5e6)
    direction = link.forward
    queue, twin = (QueueState(direction, QUEUE_LIMIT_BYTES, _K)
                   for _ in range(2))
    for q in (queue, twin):
        q.occupancy = occupancy
        if observed > 0.0:
            q.observed_seconds = observed
            q.depth_hist.record(0.0, observed)
    plan = _EpochPlan(0, 0, {})          # no flows; one queue, by hand
    plan.directions, plan.queues, plan.parked = [direction], [queue], [None]
    plan.read_capacities(0)
    capacity_version = 0

    def same(where):
        assert _queue_slots(queue) == _queue_slots(twin), where

    last, parked_ticks = 0.0, 0
    for gap, offered_frac, event in steps:
        now = last + gap
        if event is not None:
            plan.catch_up(last)
            same(("barrier", now))
            if event != "read":
                mid = last + gap / 2
                queue.advance(mid)
                twin.advance(mid)
                if event == 1.0:
                    link.restore()
                else:
                    link.degrade(bandwidth_frac=event)
                capacity_version += 1
                plan.read_capacities(capacity_version)
        dt = now - last
        last = now
        if dt > 0.0:
            plan.epochs.append(dt)
        if plan.parked[0] is None:
            signal = queue.close_epoch(now)
        else:
            signal = _IDLE_SIGNAL
            parked_ticks += 1
        assert _signal_hex(signal) == _signal_hex(twin.close_epoch(now)), now
        offered = direction.capacity * offered_frac
        plan.set_inflows([offered], now)
        twin.offered = offered
        if plan.parked[0] is None:
            same(("tick", now))
    plan.catch_up(last)
    same("end")
    return parked_ticks


# Twelve ticks of a 1 ms clock from 0: eight epochs of
# 0x1.0624dd2f1a9fcp-10 s, then 0x1.0624dd2f1aa00p-10 s.
_MS_TICKS = [(0.001, 0.5, None)] * 12


class TestParkedQueueReplaysExactly:
    """A queue the epoch plan parks while idle and replays later ends
    every epoch, barrier and run with the same bits as one closed at
    every tick."""

    def test_the_1ms_epochs_park_and_would_not_batch(self):
        assert _park_and_replay(0.0, 1.0, _MS_TICKS) == 11
        # Both epoch lengths occur, and after a second of history one
        # record of their sum would round differently from one record
        # per epoch: replaying them one by one is what keeps the bits.
        now, epochs = 0.0, []
        for _ in range(12):
            epochs.append((now + 0.001) - now)
            now += 0.001
        assert {e.hex() for e in epochs} == {
            "0x1.0624dd2f1a9fcp-10", "0x1.0624dd2f1aa00p-10"}
        one_by_one, batched = (
            QueueState(Link(Simulator(), "a", "b", 12.5e6).forward,
                       QUEUE_LIMIT_BYTES, _K).depth_hist for _ in range(2))
        for hist in (one_by_one, batched):
            hist.record(0.0, 1.0 + epochs[0])
        one_by_one.record_each(0.0, epochs[1:])
        batched.record(0.0, sum(epochs[1:]))
        assert one_by_one.total.hex() != batched.total.hex()

    @given(
        occupancy=st.one_of(st.just(0.0), st.floats(0.0, QUEUE_LIMIT_BYTES)),
        observed=st.one_of(st.just(0.0), st.floats(0.0, 10.0)),
        steps=st.lists(st.tuples(
            st.one_of(st.just(0.001), st.floats(0.0, 0.01)),
            st.one_of(st.sampled_from([0.0, 0.5, 1.0, 1.0 + 2**-52, 1.5]),
                      st.floats(0.0, 3.0)),
            st.one_of(st.none(), st.just("read"),
                      st.sampled_from([0.25, 0.5, 1.0])),
        ), min_size=1, max_size=30),
    )
    @example(occupancy=0.0, observed=1.0, steps=_MS_TICKS)
    @settings(max_examples=200, deadline=None)
    def test_matches_a_queue_closed_every_tick(self, occupancy, observed,
                                              steps):
        _park_and_replay(occupancy, observed, steps)


def _set_inflows_never_parking(plan, offered, now):
    """``_EpochPlan.set_inflows`` without parking: every queue stays
    live, so the tick closes each of them at every epoch."""
    for queue, demand in zip(plan.queues, offered):
        queue.offered = demand


_READ_AT = 0.0205   # between two ticks; every flow is still active


def _barrier_scenario(barrier):
    """A fat_tree(4) DCTCP incast (8 senders into h0, plus h9->h14), run
    to ``_READ_AT``; then ``barrier`` reads or moves the queues.

    Returns every direction's queue slots right after the barrier, in
    name order, the number of queues the plan had parked before it, and
    what the barrier returned.  ``"backlog"`` instead runs one flow,
    rate-capped below every link, past ``PARK_BACKLOG`` ticks and reads
    through ``sync()``.  ``"rebuild"`` reads through ``sync()`` after a
    plan rebuild that no churn solve came before: a zero-byte loopback
    flow activates and completes (``_churn`` moves twice) on no
    direction, so the solve it arms has nothing to allocate.
    """
    sim = Simulator()
    topo = fat_tree(4)
    net = Network(sim, topo, path_service=EcmpRouting(sim, topo),
                  rate_model=_cc("dctcp"))
    model = net.rate_model
    if barrier == "backlog":
        net.transfer("h1", "h0", 2e6, flow_key="h1", rate_cap=1e6)
        read_at, active = 1.5, 1
    else:
        for i in range(1, 9):
            net.transfer(f"h{i}", "h0", 5e6, flow_key=f"h{i}")
        net.transfer("h9", "h14", 5e6, flow_key="h9")
        read_at, active = _READ_AT, 9
    if barrier == "restore_link":
        sim.schedule(0.0103, net.degrade_link, "h0", "p0-edge0", 0.5)
    elif barrier == "rebuild":
        sim.run(until=read_at - 0.001)
        plan, churn = model._plan, net._churn
        loopback = net.transfer("h14", "h14", 0.0, flow_key="h14")
    sim.run(until=read_at)
    if barrier == "rebuild":
        assert loopback.state is FlowState.DONE
        assert net._churn == churn + 2
        assert model._plan is not plan and model._plan.churn == net._churn
    assert net.active_flow_count == active
    last_tick = model._last_tick
    assert last_tick < sim.now
    parked = sum(start is not None for start in model._plan.parked)
    assert len(model._plan.epochs) <= PARK_BACKLOG
    result = None
    if barrier in ("sync", "backlog", "rebuild"):
        net.sync()
    elif barrier == "queue_metrics":
        result = net.queue_metrics()
    elif barrier == "degrade_link":
        net.degrade_link("h0", "p0-edge0", bandwidth_frac=0.5)
    elif barrier == "restore_link":
        net.restore_link("h0", "p0-edge0")
    else:
        # A new flow's activation and the churn solve it arms, with no
        # tick in between.
        flow = net.transfer("h12", "h3", 1e6, flow_key="h12")
        while flow.state is not FlowState.ACTIVE or net._solve_event:
            sim.run(max_events=1)
        assert model._last_tick == last_tick
        result = flow.rate.hex()
    directions = sorted(
        (d for link in net.links() for d in (link.forward, link.reverse)),
        key=lambda d: d.name)
    return [_queue_slots(d.queue) for d in directions], parked, result


class TestParkedQueuesAtReadBarriers:
    """Each read barrier catches every parked queue up before it reads
    or moves one, while flows are still active: right after it, every
    direction's queue holds the floats of a run that never parks."""

    @pytest.mark.parametrize("barrier", [
        "sync", "queue_metrics", "degrade_link", "restore_link", "churn",
        "rebuild", "backlog"])
    def test_matches_a_run_that_never_parks(self, barrier, monkeypatch):
        slots, parked, result = _barrier_scenario(barrier)
        assert parked > 0
        monkeypatch.setattr(_EpochPlan, "set_inflows",
                            _set_inflows_never_parking)
        never_slots, never_parked, never_result = _barrier_scenario(barrier)
        assert never_parked == 0
        assert result == never_result
        assert slots == never_slots


def _gray_incast(fault_at):
    """8 Reno flows into h0; gray-fail h0's edge cable at ``fault_at``."""
    sim = Simulator()
    topo = fat_tree(4)
    net = Network(sim, topo, path_service=EcmpRouting(sim, topo),
                  rate_model=_cc("reno"))
    for i in range(1, 9):
        net.transfer(f"h{i}", "h0", 5e6, flow_key=f"h{i}")
    queue = net.direction("p0-edge0", "h0").queue
    sim.run(until=fault_at)
    return sim, net, queue


class TestGrayFailureUnderCc:
    """A capacity change must not reach back into the running epoch:
    the queue integrates at the old capacity up to the fault."""

    def test_degrade_integrates_pre_fault_time_at_old_capacity(self):
        _, _, twin_queue = _gray_incast(0.0203)
        twin_queue.advance(0.0203)       # old capacity up to the fault
        expected = twin_queue.occupancy

        _, net, queue = _gray_incast(0.0203)
        net.degrade_link("h0", "p0-edge0", bandwidth_frac=0.25)
        net.sync()
        assert queue.occupancy == expected
        # The 0.2 ms since the last epoch drain at 12.5 MB/s; integrating
        # them at the degraded 3.125 MB/s would queue 1,875 B more.
        assert queue.occupancy == pytest.approx(122_972.71, abs=0.01)

    def test_restore_integrates_pre_repair_time_at_degraded_capacity(self):
        sim, twin_net, twin_queue = _gray_incast(0.0203)
        twin_net.degrade_link("h0", "p0-edge0", bandwidth_frac=0.25)
        sim.run(until=0.0307)
        twin_queue.advance(0.0307)       # degraded capacity up to repair
        expected = twin_queue.occupancy

        sim, net, queue = _gray_incast(0.0203)
        net.degrade_link("h0", "p0-edge0", bandwidth_frac=0.25)
        sim.run(until=0.0307)
        net.restore_link("h0", "p0-edge0")
        net.sync()
        assert queue.occupancy == expected


# Pinned at the release before the cc epoch plan landed (the wide
# scenario: before the plan owned its hop indices and fill layout), with
# ``float.hex`` so any change in float arithmetic or its order shows.
# Per scenario/protocol: every flow's (completed_at, remaining,
# cc.cwnd) in start order, the fabric's queue_metrics(), recomputes and
# flows_solved.
_CC_PINS = {
    "staggered/reno": {
        "flows": [
            ("0x1.048e14de8e94ap-3", "0x0.0p+0", "0x1.23ed77532d14ep+15"),
            ("0x1.982f94c4048bap-5", "0x0.0p+0", "0x1.5f40303b10258p+15"),
            ("0x1.284eea2d10c19p-4", "0x0.0p+0", "0x1.e33b3f5491096p+14"),
            ("0x1.41d00b159b761p-4", "0x0.0p+0", "0x1.99a5e42e5710fp+15"),
            ("0x1.1ede107c1f0c3p-3", "0x0.0p+0", "0x1.675aa560d50d8p+15"),
            ("0x1.f07394a6117b8p-6", "0x0.0p+0", "0x1.1652016df828ap+15"),
            ("0x1.a04776d4eb84bp-4", "0x0.0p+0", "0x1.0a6273005b400p+15"),
            ("0x1.5c14c7c955e6fp-5", "0x0.0p+0", "0x1.3545a250d2acap+15"),
            ("0x1.2b12e70c31a5bp-4", "0x0.0p+0", "0x1.950feb33ae8fdp+14"),
        ],
        "queues": {
            "queue_depth_p99": "0x1.d9fc9ebff2f00p+16",
            "queue_depth_peak": "0x1.d9fc9ebff2f00p+16",
            "ecn_mark_frac": "0x1.cce0a6fdad230p-1",
            "dropped_bytes": "0x0.0p+0",
            "drop_events": 0,
        },
        "recomputes": 157,
        "flows_solved": 724,
    },
    "staggered/dctcp": {
        "flows": [
            ("0x1.11a6698e28711p-3", "0x0.0p+0", "0x1.a1eb5e9fed156p+14"),
            ("0x1.982f94c4048bap-5", "0x0.0p+0", "0x1.5f40303b10258p+15"),
            ("0x1.1f589a4bcd298p-4", "0x0.0p+0", "0x1.a377c6bce52a9p+13"),
            ("0x1.3859dfd5fc02cp-4", "0x0.0p+0", "0x1.54f142b01e074p+15"),
            ("0x1.1cbacc9ba3fe0p-3", "0x0.0p+0", "0x1.0f5c3ad974b30p+15"),
            ("0x1.f07394a6117b8p-6", "0x0.0p+0", "0x1.1652016df828ap+15"),
            ("0x1.99f6ff07d91f7p-4", "0x0.0p+0", "0x1.1aa5a0373ac94p+14"),
            ("0x1.5c14c7c955e6fp-5", "0x0.0p+0", "0x1.3545a250d2acap+15"),
            ("0x1.122334805fe32p-4", "0x0.0p+0", "0x1.8dd20947a52cep+13"),
        ],
        "queues": {
            "queue_depth_p99": "0x1.c02c167b62266p+15",
            "queue_depth_peak": "0x1.c02c167b62266p+15",
            "ecn_mark_frac": "0x1.bd7373aec5ce6p-3",
            "dropped_bytes": "0x0.0p+0",
            "drop_events": 0,
        },
        "recomputes": 156,
        "flows_solved": 716,
    },
    "staggered/delay": {
        "flows": [
            ("0x1.6edc53b0f8963p-3", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.a17c1bda51198p-4", "0x0.0p+0", "0x1.1940000000004p+12"),
            ("0x1.d1331dd69de80p-5", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.1e64a5665f6e6p-3", "0x0.0p+0", "0x1.1db68a19b5cefp+12"),
            ("0x1.77a6ff6cfc7c8p-3", "0x0.0p+0", "0x1.1940000000004p+11"),
            ("0x1.aa64c2f837b47p-5", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.dbfb770b6dc9bp-4", "0x0.0p+0", "0x1.f400000000005p+11"),
            ("0x1.5643728d2ceb9p-4", "0x0.0p+0", "0x1.f400000000005p+11"),
            ("0x1.53af3cb9accb3p-4", "0x0.0p+0", "0x1.7700000000000p+10"),
        ],
        "queues": {
            "queue_depth_p99": "0x1.c98154c450f78p+14",
            "queue_depth_peak": "0x1.4c7f0c30c30c5p+15",
            "ecn_mark_frac": "0x0.0p+0",
            "dropped_bytes": "0x0.0p+0",
            "drop_events": 0,
        },
        "recomputes": 201,
        "flows_solved": 1003,
    },
    "reroute/reno": {
        "flows": [
            ("0x1.f28a9360bfda7p-4", "0x0.0p+0", "0x1.292721f2d414fp+15"),
            ("0x1.982f94c4048bap-5", "0x0.0p+0", "0x1.5f40303b10258p+15"),
            ("0x1.3511b25ae0fbdp-4", "0x0.0p+0", "0x1.e15a673cd358ap+14"),
            ("0x1.22d4cae496462p-4", "0x0.0p+0", "0x1.9b3db3ef431ccp+15"),
            ("0x1.202ad1c48f717p-3", "0x0.0p+0", "0x1.676afb2fa70fcp+15"),
            ("0x1.f07394a6117b8p-6", "0x0.0p+0", "0x1.1652016df828ap+15"),
            ("0x1.b514e55645e9cp-4", "0x0.0p+0", "0x1.097dd1c94c8e0p+15"),
            ("0x1.5c14c7c955e6fp-5", "0x0.0p+0", "0x1.3545a250d2acap+15"),
            ("0x1.390b179a7eb20p-4", "0x0.0p+0", "0x1.960e5b7da252bp+14"),
        ],
        "queues": {
            "queue_depth_p99": "0x1.fd05aa82e967ap+16",
            "queue_depth_peak": "0x1.fd05aa82e967ap+16",
            "ecn_mark_frac": "0x1.b542bde36e1ddp-1",
            "dropped_bytes": "0x0.0p+0",
            "drop_events": 0,
        },
        "recomputes": 159,
        "flows_solved": 723,
    },
    "reroute/dctcp": {
        "flows": [
            ("0x1.f3250f17773b8p-4", "0x0.0p+0", "0x1.71f95c2085004p+14"),
            ("0x1.982f94c4048bap-5", "0x0.0p+0", "0x1.5f40303b10258p+15"),
            ("0x1.336d76b8397a1p-4", "0x0.0p+0", "0x1.6576750392761p+13"),
            ("0x1.22cde9a888acap-4", "0x0.0p+0", "0x1.9b4dcd470754ep+15"),
            ("0x1.1fbea6c28c6e2p-3", "0x0.0p+0", "0x1.1244da2a069d1p+15"),
            ("0x1.f07394a6117b8p-6", "0x0.0p+0", "0x1.1652016df828ap+15"),
            ("0x1.bbf79dade9681p-4", "0x0.0p+0", "0x1.16aac58f651a9p+14"),
            ("0x1.5c14c7c955e6fp-5", "0x0.0p+0", "0x1.3545a250d2acap+15"),
            ("0x1.231753959060dp-4", "0x0.0p+0", "0x1.4e141892b7879p+13"),
        ],
        "queues": {
            "queue_depth_p99": "0x1.d9a72d536f8dep+15",
            "queue_depth_peak": "0x1.d9a72d536f8dep+15",
            "ecn_mark_frac": "0x1.d5bc1cc89e569p-3",
            "dropped_bytes": "0x0.0p+0",
            "drop_events": 0,
        },
        "recomputes": 159,
        "flows_solved": 718,
    },
    "reroute/delay": {
        "flows": [
            ("0x1.47b63cea5cf4ep-3", "0x0.0p+0", "0x1.9640000000005p+12"),
            ("0x1.a17c1bda51198p-4", "0x0.0p+0", "0x1.1940000000004p+12"),
            ("0x1.bf953affcfce4p-5", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.2fc081548deecp-3", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.72f57f5ab4894p-3", "0x0.0p+0", "0x1.9640000000005p+12"),
            ("0x1.aa64c2f837b47p-5", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.1539b2acb945dp-3", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.5643728d2ceb9p-4", "0x0.0p+0", "0x1.f400000000005p+11"),
            ("0x1.59c29a9e89f31p-4", "0x0.0p+0", "0x1.7700000000000p+10"),
        ],
        "queues": {
            "queue_depth_p99": "0x1.cbecfd306a8d0p+14",
            "queue_depth_peak": "0x1.4c7f0c30c30c5p+15",
            "ecn_mark_frac": "0x0.0p+0",
            "dropped_bytes": "0x0.0p+0",
            "drop_events": 0,
        },
        "recomputes": 199,
        "flows_solved": 1009,
    },
    "fail_link/reno": {
        "flows": [
            (None, "0x1.5e4f2527fc2e5p+18", "0x1.1bba97ac00d40p+14"),
            ("0x1.982f94c4048bap-5", "0x0.0p+0", "0x1.5f40303b10258p+15"),
            ("0x1.8f0a5061eb005p-5", "0x0.0p+0", "0x1.d92f26facf761p+14"),
            ("0x1.219c032de0b21p-4", "0x0.0p+0", "0x1.9a7872085a936p+15"),
            (None, "0x1.139a7d2213ea1p+19", "0x1.27f9942fc57b9p+14"),
            ("0x1.f07394a6117b8p-6", "0x0.0p+0", "0x1.1652016df828ap+15"),
            ("0x1.03ea5d29f7895p-4", "0x0.0p+0", "0x1.091cff6521292p+15"),
            ("0x1.5c14c7c955e6fp-5", "0x0.0p+0", "0x1.3545a250d2acap+15"),
            ("0x1.aca8bf35defc4p-5", "0x0.0p+0", "0x1.976702f6b7161p+14"),
        ],
        "queues": {
            "queue_depth_p99": "0x1.1e2a0af8b2387p+16",
            "queue_depth_peak": "0x1.1e2a0af8b2387p+16",
            "ecn_mark_frac": "0x1.83db14c41b79bp-1",
            "dropped_bytes": "0x0.0p+0",
            "drop_events": 0,
        },
        "recomputes": 87,
        "flows_solved": 381,
    },
    "fail_link/dctcp": {
        "flows": [
            (None, "0x1.5eee7723547d2p+18", "0x1.feaeba51eab34p+13"),
            ("0x1.982f94c4048bap-5", "0x0.0p+0", "0x1.5f40303b10258p+15"),
            ("0x1.9914bdf0fa5d4p-5", "0x0.0p+0", "0x1.0dd2ae76f27d4p+14"),
            ("0x1.21c64ff886201p-4", "0x0.0p+0", "0x1.9a91a5b5718bap+15"),
            (None, "0x1.1375bf9a2a52dp+19", "0x1.b79d0abdc5250p+13"),
            ("0x1.f07394a6117b8p-6", "0x0.0p+0", "0x1.1652016df828ap+15"),
            ("0x1.02bbbc9d0c1bcp-4", "0x0.0p+0", "0x1.8fe8b72cd43c1p+14"),
            ("0x1.5c14c7c955e6fp-5", "0x0.0p+0", "0x1.3545a250d2acap+15"),
            ("0x1.8ec2ecc6992f5p-5", "0x0.0p+0", "0x1.222d8eddfba81p+14"),
        ],
        "queues": {
            "queue_depth_p99": "0x1.9df7868c5d557p+15",
            "queue_depth_peak": "0x1.9df7868c5d557p+15",
            "ecn_mark_frac": "0x1.ac0469af06d15p-3",
            "dropped_bytes": "0x0.0p+0",
            "drop_events": 0,
        },
        "recomputes": 87,
        "flows_solved": 377,
    },
    "fail_link/delay": {
        "flows": [
            (None, "0x1.6aac83dbb186ep+18", "0x1.7700000000000p+10"),
            ("0x1.a17c1bda51198p-4", "0x0.0p+0", "0x1.1940000000004p+12"),
            ("0x1.410b88dba7051p-5", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.2fc081548deecp-3", "0x0.0p+0", "0x1.7700000000000p+10"),
            (None, "0x1.1a84a6281ff32p+19", "0x1.7700000000000p+10"),
            ("0x1.aa64c2f837b47p-5", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.39d14188e0987p-4", "0x0.0p+0", "0x1.f400000000005p+11"),
            ("0x1.5643728d2ceb9p-4", "0x0.0p+0", "0x1.f400000000005p+11"),
            ("0x1.1eb960d683d58p-4", "0x0.0p+0", "0x1.f400000000005p+11"),
        ],
        "queues": {
            "queue_depth_p99": "0x1.2488607c8e540p+15",
            "queue_depth_peak": "0x1.4c7f0c30c30c5p+15",
            "ecn_mark_frac": "0x0.0p+0",
            "dropped_bytes": "0x0.0p+0",
            "drop_events": 0,
        },
        "recomputes": 165,
        "flows_solved": 593,
    },
    "wide/reno": {
        "flows": [
            ("0x1.6759375485350p-2", "0x0.0p+0", "0x1.b1c5e8a6a85d9p+12"),
            ("0x1.ae89c66222a58p-2", "0x0.0p+0", "0x1.094741f2b22d4p+13"),
            ("0x1.cdf2427e14eb9p-2", "0x0.0p+0", "0x1.659320bfea995p+13"),
            ("0x1.443ac2b9bc2e6p-2", "0x0.0p+0", "0x1.1982558fab38ep+12"),
            ("0x1.95607cf271026p-2", "0x0.0p+0", "0x1.917603a55cbdap+12"),
            ("0x1.c12b466cf018cp-2", "0x0.0p+0", "0x1.3b803ebd4e35fp+13"),
            ("0x1.0ddb44cbef5b4p-2", "0x0.0p+0", "0x1.efcdaf9fa138dp+11"),
            ("0x1.4154cdfadc295p-2", "0x0.0p+0", "0x1.10e7f4907147fp+12"),
            ("0x1.94747348fe81ep-2", "0x0.0p+0", "0x1.9040ead67e3d3p+12"),
            ("0x1.c1a47dddd53e5p-2", "0x0.0p+0", "0x1.3b8033e68d539p+13"),
            ("0x1.0f8b17f62d975p-2", "0x0.0p+0", "0x1.f88fc5cc5d496p+11"),
            ("0x1.5e7a896475f5cp-2", "0x0.0p+0", "0x1.911627c6df475p+12"),
            ("0x1.af2e9a60ff940p-2", "0x0.0p+0", "0x1.09474ec8efe51p+13"),
            ("0x1.ce38abd809342p-2", "0x0.0p+0", "0x1.69c400af76bb2p+13"),
            ("0x1.45a7f119f2111p-2", "0x0.0p+0", "0x1.1dfe374228a1ep+12"),
            ("0x1.6c13a15d8cdf3p-2", "0x0.0p+0", "0x1.c9da94c636b2fp+12"),
            ("0x1.ae28c27f5a898p-2", "0x0.0p+0", "0x1.0954223b3a3d4p+13"),
            ("0x1.c9ecaf50917f2p-2", "0x0.0p+0", "0x1.57052b9ed28eep+13"),
            ("0x1.465f624311600p-2", "0x0.0p+0", "0x1.22784b18adaefp+12"),
            ("0x1.96bb2cf7cbb26p-2", "0x0.0p+0", "0x1.967e8d9ab7acfp+12"),
            ("0x1.c1da09c8e442ep-2", "0x0.0p+0", "0x1.3e819c5d02723p+13"),
            ("0x1.10668af67dc6bp-2", "0x0.0p+0", "0x1.00a53dcc461b0p+12"),
            ("0x1.6f16eb18861d3p-2", "0x0.0p+0", "0x1.cd1fe426d9de4p+12"),
            ("0x1.41723dfc63c36p-4", "0x0.0p+0", "0x1.b3cfe65bfffe7p+15"),
            ("0x1.93f4f9ac0481fp-2", "0x0.0p+0", "0x1.9429ef8ce837cp+12"),
            ("0x1.c0bff8e3f5f6dp-2", "0x0.0p+0", "0x1.3ec4e21b471c9p+13"),
            ("0x1.10f7f664917b1p-2", "0x0.0p+0", "0x1.04ff201c17823p+12"),
            ("0x1.6f7f8df47675ep-2", "0x0.0p+0", "0x1.cd1e9c6cca688p+12"),
            ("0x1.afb174a1aad20p-2", "0x0.0p+0", "0x1.0bde28f91928cp+13"),
            ("0x1.ce7df6de3dee2p-2", "0x0.0p+0", "0x1.69c30b5691fcep+13"),
            ("0x1.46d9a4ada1906p-2", "0x0.0p+0", "0x1.227817bfb6cf9p+12"),
            ("0x1.96fa753e3c74fp-2", "0x0.0p+0", "0x1.9b864e1f312f0p+12"),
            ("0x1.a52c48f7f2f7dp-2", "0x0.0p+0", "0x1.eab3bbe8d30ebp+12"),
            ("0x1.cd7cc811b5bc2p-2", "0x0.0p+0", "0x1.697de6d6192b9p+13"),
            ("0x1.4734939d433c7p-2", "0x0.0p+0", "0x1.26f0e80db341bp+12"),
            ("0x1.9742e2cddc4e9p-2", "0x0.0p+0", "0x1.9b84636d67b27p+12"),
            ("0x1.c21fd5094fdcep-2", "0x0.0p+0", "0x1.3e81ee4b864fap+13"),
            ("0x1.1163ba3e81595p-2", "0x0.0p+0", "0x1.04ff201c17823p+12"),
            ("0x1.6fdb3ed3530f5p-2", "0x0.0p+0", "0x1.d0eacb950f84ep+12"),
            ("0x1.afdccfa09f252p-2", "0x0.0p+0", "0x1.0bde28f91928cp+13"),
            ("0x1.31d47013c6befp-4", "0x0.0p+0", "0x1.a971eda141d76p+15"),
            ("0x1.ba57bf3356e9fp-2", "0x0.0p+0", "0x1.2b262e2607487p+13"),
            ("0x1.109e36b159bc2p-2", "0x0.0p+0", "0x1.073db66346b00p+12"),
            ("0x1.70466ec28a8ecp-2", "0x0.0p+0", "0x1.d0e03dcf8c4aep+12"),
            ("0x1.b0202f7a3a843p-2", "0x0.0p+0", "0x1.0bdb458c78d1ap+13"),
            ("0x1.ceacd0908c2eap-2", "0x0.0p+0", "0x1.69c0da9b15997p+13"),
            ("0x1.47bba0d29854ep-2", "0x0.0p+0", "0x1.26e65a483007ap+12"),
            ("0x1.978ec364a02fdp-2", "0x0.0p+0", "0x1.9b808745f080cp+12"),
            ("0x1.c2558cad37396p-2", "0x0.0p+0", "0x1.3e7e7648a1508p+13"),
            ("0x1.2239b6c0d511dp-4", "0x0.0p+0", "0x1.9bd0295afc88cp+15"),
            ("0x1.cdb0f4eb6e726p-2", "0x0.0p+0", "0x1.697a3755b52bdp+13"),
            ("0x1.468231b66527ap-2", "0x0.0p+0", "0x1.251067a10d857p+12"),
            ("0x1.97beee3d0c58ep-2", "0x0.0p+0", "0x1.9b7f49e4c0d30p+12"),
            ("0x1.bb94826a9a3b8p-2", "0x0.0p+0", "0x1.2afc5e6bd008cp+13"),
            ("0x1.1238fa90a78d1p-2", "0x0.0p+0", "0x1.09464afacfd7ep+12"),
            ("0x1.706d599620d77p-2", "0x0.0p+0", "0x1.d0e200a92aa16p+12"),
            ("0x1.b04501d7f6858p-2", "0x0.0p+0", "0x1.0bda922e50717p+13"),
            ("0x1.ceb8625f08e3cp-2", "0x0.0p+0", "0x1.69c11d42d6640p+13"),
            ("0x1.1144d943157c2p-2", "0x0.0p+0", "0x1.0737fbe8f11b3p+12"),
            ("0x1.7095076d99a8ap-2", "0x0.0p+0", "0x1.d0e200a92aa16p+12"),
            ("0x1.a72b7845710fbp-2", "0x0.0p+0", "0x1.f041ec30c7d3ep+12"),
            ("0x1.cec698955ad85p-2", "0x0.0p+0", "0x1.69c07e923e8d2p+13"),
            ("0x1.481b48fcdbe79p-2", "0x0.0p+0", "0x1.2b63e27e84facp+12"),
            ("0x1.97d6af08081b0p-2", "0x0.0p+0", "0x1.a087e5a4a43abp+12"),
            ("0x1.c27f4fe145f90p-2", "0x0.0p+0", "0x1.3e7e1a3fca443p+13"),
            ("0x1.1280b348bcf62p-2", "0x0.0p+0", "0x1.0942c547932adp+12"),
            ("0x1.46eae7abc0b11p-2", "0x0.0p+0", "0x1.299436a92b090p+12"),
            ("0x1.97fcdf8875f41p-2", "0x0.0p+0", "0x1.a086a843748cfp+12"),
            ("0x1.c289db2c4f4e1p-2", "0x0.0p+0", "0x1.3e7eb8f0621b1p+13"),
            ("0x1.12a959619cdfap-2", "0x0.0p+0", "0x1.0d9eb1b6c85e8p+12"),
            ("0x1.70bd8027c98bcp-2", "0x0.0p+0", "0x1.d0e09085ce704p+12"),
            ("0x1.b06e570301fefp-2", "0x0.0p+0", "0x1.0e74aa5d7fd56p+13"),
            ("0x1.ced0a177a78bap-2", "0x0.0p+0", "0x1.69c069e4ae03dp+13"),
            ("0x1.4858a36fa6c8ep-2", "0x0.0p+0", "0x1.2b611505e379ep+12"),
        ],
        "queues": {
            "queue_depth_p99": "0x1.24f8000000000p+18",
            "queue_depth_peak": "0x1.24f8000000000p+18",
            "ecn_mark_frac": "0x1.ff6b24791fc23p-1",
            "dropped_bytes": "0x1.4ebbecd1ac96bp+18",
            "drop_events": 74,
        },
        "recomputes": 546,
        "flows_solved": 30528,
    },
    "wide/dctcp": {
        "flows": [
            ("0x1.60dc69057cba2p-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.a8440441f18b4p-2", "0x0.0p+0", "0x1.1e0164cf797dfp+11"),
            ("0x1.c28a3664afe04p-2", "0x0.0p+0", "0x1.951dee50f5a27p+12"),
            ("0x1.3fdde497ba90cp-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.8cd772a24a67cp-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.ba13e6c0869a3p-2", "0x0.0p+0", "0x1.b3beeb436afbcp+11"),
            ("0x1.0c084e5f4a2b6p-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.37c8d3624a4f8p-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.884932100b626p-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.ba76eefd54216p-2", "0x0.0p+0", "0x1.b3beeb436afbcp+11"),
            ("0x1.0dc17d37fae7ep-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.6a2403d5ad58bp-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.a8eb22288c5f6p-2", "0x0.0p+0", "0x1.1e0164cf797dfp+11"),
            ("0x1.c2bbb289f0215p-2", "0x0.0p+0", "0x1.951dee50f5a27p+12"),
            ("0x1.41536318f683ap-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.629f39cd65fa1p-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.a44769f46e35cp-2", "0x0.0p+0", "0x1.8493a48806112p+10"),
            ("0x1.c2815a6666c3ep-2", "0x0.0p+0", "0x1.951dee50f5a27p+12"),
            ("0x1.4211eb8da0398p-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.8e420cbab17a7p-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.baa6a3d0dfff3p-2", "0x0.0p+0", "0x1.e10c453f38e9ap+11"),
            ("0x1.0ea3012e06fe3p-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.6c52c586f31f9p-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.923def34c7855p-4", "0x0.0p+0", "0x1.e48e7a59f5a39p+15"),
            ("0x1.84740921a33ffp-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.b71d305613d3dp-2", "0x0.0p+0", "0x1.2bdd7841be738p+11"),
            ("0x1.0f3a0f92a637ep-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.6cba739243026p-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.a9839f81150f3p-2", "0x0.0p+0", "0x1.a54cee4aae663p+10"),
            ("0x1.c2e3e412cb253p-2", "0x0.0p+0", "0x1.ac140c7627683p+12"),
            ("0x1.4291a6ecd781ap-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.8e948a0b0b936p-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.a236532b17966p-2", "0x0.0p+0", "0x1.d8b59b4866e59p+10"),
            ("0x1.c10a717e2e8bdp-2", "0x0.0p+0", "0x1.91c9dddcdc3a5p+12"),
            ("0x1.42f2e9ae0c6b5p-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.8ed33b6b7c62cp-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.badb4f3060333p-2", "0x0.0p+0", "0x1.e10c453f38e9ap+11"),
            ("0x1.0fad854c99abap-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.6d097544e4dbap-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.a9b6ed52233d8p-2", "0x0.0p+0", "0x1.a54cee4aae663p+10"),
            ("0x1.82a5b6b714203p-4", "0x0.0p+0", "0x1.dae45ac246019p+15"),
            ("0x1.b4f89e076f81bp-2", "0x0.0p+0", "0x1.ee470c38dbad4p+10"),
            ("0x1.0bcc50c8e7aacp-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.6cf156ad7646bp-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.a9a76955a7530p-2", "0x0.0p+0", "0x1.a54cee4aae9dfp+10"),
            ("0x1.c2ec613a7efeep-2", "0x0.0p+0", "0x1.ac140c7627793p+12"),
            ("0x1.42d553536e450p-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.8ec018397e8a3p-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.bad48f97a8bfap-2", "0x0.0p+0", "0x1.e10c453f390b8p+11"),
            ("0x1.731d0a03398ecp-4", "0x0.0p+0", "0x1.cf4819f2fcc85p+15"),
            ("0x1.c06ff68212118p-2", "0x0.0p+0", "0x1.7a47fef39e9e2p+12"),
            ("0x1.3ea1e051f077dp-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.8ee9ca9164d70p-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.ba0732259ce2cp-2", "0x0.0p+0", "0x1.b3beeb436b1dap+11"),
            ("0x1.0fd6fb792a5f1p-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.6d25ea372f373p-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.a9c9259a84db4p-2", "0x0.0p+0", "0x1.a54cee4aae9dfp+10"),
            ("0x1.c2f47122ede2ap-2", "0x0.0p+0", "0x1.ac140c7627793p+12"),
            ("0x1.0c66699b9637ap-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.6d5345b229691p-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.a90a3ca20d362p-2", "0x0.0p+0", "0x1.1e0164cf7990dp+11"),
            ("0x1.c2fb62e333e39p-2", "0x0.0p+0", "0x1.ac140c7627793p+12"),
            ("0x1.434da356fb403p-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.8f0dbc1eaa19bp-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.baf0114aff928p-2", "0x0.0p+0", "0x1.e10c453f390b8p+11"),
            ("0x1.101918310bdb1p-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.3f11fd5e1cca4p-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.8f2d1309750adp-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.bafb384d8cd36p-2", "0x0.0p+0", "0x1.e10c453f390b8p+11"),
            ("0x1.1052c9eae22e2p-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.6d7ad73dbe401p-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.a9ff76f6ff9dap-2", "0x0.0p+0", "0x1.a54cee4aae9dfp+10"),
            ("0x1.c3016d99a354ap-2", "0x0.0p+0", "0x1.ac140c7627793p+12"),
            ("0x1.437e4fa109276p-2", "0x0.0p+0", "0x1.7700000000000p+10"),
        ],
        "queues": {
            "queue_depth_p99": "0x1.24f8000000000p+18",
            "queue_depth_peak": "0x1.24f8000000000p+18",
            "ecn_mark_frac": "0x1.d9277d2a17ac3p-1",
            "dropped_bytes": "0x1.fcd041bd7b8c8p+19",
            "drop_events": 74,
        },
        "recomputes": 535,
        "flows_solved": 30158,
    },
    "wide/delay": {
        "flows": [
            ("0x1.60720ae20f050p-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.a6de86101a19ep-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.c215b15ab7a09p-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.3fdadd05f1409p-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.8cc1271706f37p-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.b8b35e40e9f7dp-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.0c1268fa9c051p-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.3665263fb36bfp-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.87ec48a1026abp-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.b925e856fd263p-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.0dcab294cd987p-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.6bab279ba4eb6p-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.a790c007d2f61p-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.c247348e3f6d2p-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.414f0b1c22833p-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.6170de2272122p-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.a27eab3d5f6a2p-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.c25e18f5eab3dp-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.420d020a8524cp-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.8e2b47f7a4592p-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.b960afddc550ep-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.0eabb84af6eb4p-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.6c40bd05db8f9p-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.9e16c448de103p-4", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.837f2f7da3b4ap-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.b4e3d51d97bf6p-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.0f428386df4eap-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.6ca8d209691ffp-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.a82956c866431p-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.c2714a2d312c1p-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.428c5d396f106p-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.8e7db647e6f6dp-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.a306093710881p-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.bf763d8785f84p-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.42ed325e44761p-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.8ebc5246bb548p-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.b9a4f2b46f10ep-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.0fb5b7211de85p-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.6cf8154f25b87p-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.a8576b96fa8bep-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.85cf7a60d900dp-4", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.b4f3397bcafaep-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.0b1008d0d7db9p-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.6cb464b3a3c74p-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.a8300bec298ebp-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.c2731bb068396p-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.429a86cddb05dp-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.8e86dbcfdaaa7p-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.b98c0d068088dp-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.51b3756f495a7p-4", "0x0.0p+0", "0x1.1940000000004p+12"),
            ("0x1.bf75ae8cc70e4p-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.3df76522395a4p-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.8eb08c04d67ccp-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.b9a152de63ce3p-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.0fa020c4d1a96p-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.6ce92d65a9ca2p-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.a84ec0e177509p-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.c27b324ff2e63p-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.0baa18ecd101cp-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.6d16bb7d338f7p-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.a86e0ef3bbf2cp-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.c28229d8cf44ep-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.4312aaeb04138p-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.8ed482072d074p-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.b9b0296a9a733p-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.0fe22e9dff950p-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.3e67788fd4e20p-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.8ef3dd788ca7cp-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.b9beb1a8b5173p-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.101bdc1701c07p-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.6d3e7a5b8cf1bp-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.a8803d51568ecp-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.c28820550be98p-2", "0x0.0p+0", "0x1.7700000000000p+10"),
            ("0x1.434334d24a5f9p-2", "0x0.0p+0", "0x1.7700000000000p+10"),
        ],
        "queues": {
            "queue_depth_p99": "0x1.24f8000000000p+18",
            "queue_depth_peak": "0x1.24f8000000000p+18",
            "ecn_mark_frac": "0x1.c6e0a10c8a770p-1",
            "dropped_bytes": "0x1.a62375db60114p+17",
            "drop_events": 41,
        },
        "recomputes": 534,
        "flows_solved": 30113,
    },

}


# (src, dst, bytes, start time): a staggered incast into h0 plus three
# cross-pod flows, so the epoch sees several bottleneck components.
_CC_SCENARIO_FLOWS = [
    ("h4", "h0", 0.4e6, 0.0), ("h1", "h0", 0.2e6, 0.0007),
    ("h8", "h0", 0.6e6, 0.0016), ("h13", "h0", 0.3e6, 0.0041),
    ("h2", "h7", 0.5e6, 0.0003), ("h10", "h6", 0.25e6, 0.0029),
    ("h15", "h5", 0.35e6, 0.0052), ("h9", "h0", 0.15e6, 0.0123),
    ("h5", "h2", 0.8e6, 0.0009),
]


# The wide scenario: 71 senders into h0 on a k=8 fat-tree (2-, 4- and
# 6-hop paths) plus three flows crossing their links, so one bottleneck
# component holds more than VECTORIZE_MIN_FLOWS flows and the epoch
# fill takes the vectorized path.
_WIDE_FLOWS = [
    (f"h{i}", "h0", 40e3 + (i % 7) * 10e3, (i % 9) * 0.0002)
    for i in range(1, 72)
] + [
    ("h20", "h40", 0.3e6, 0.0005), ("h33", "h18", 0.2e6, 0.0011),
    ("h5", "h9", 0.25e6, 0.0008),
]


def _cc_scenario(protocol, scenario):
    sim = Simulator()
    wide = scenario == "wide"
    topo = fat_tree(8 if wide else 4)
    net = Network(sim, topo, path_service=EcmpRouting(sim, topo),
                  rate_model=_cc(protocol))
    flows = []

    def start(src, dst, size):
        flows.append(net.transfer(src, dst, size, flow_key=f"{src}>{dst}"))

    for src, dst, size, at in (_WIDE_FLOWS if wide else _CC_SCENARIO_FLOWS):
        sim.schedule(at, start, src, dst, size)
    if wide:
        def move():
            # h40->h0 moves to a path through another core switch.
            flow = next(f for f in flows if f.src == "h40")
            alternatives = sorted(
                nx.all_shortest_paths(topo.graph, flow.src, flow.dst))
            net.reroute(flow, next(p for p in alternatives
                                   if p[3] != flow.path[3]))
        sim.schedule(0.0105, move)
        # Halve, then restore, the bottleneck h0's access cable.
        sim.schedule(0.02, net.degrade_link, "h0", "p0-edge0", 0.5)
        sim.schedule(0.06, net.restore_link, "h0", "p0-edge0")
    elif scenario == "reroute":
        def move():
            # h4->h0 leaves the p1-agg0 uplink it shares with h5->h2.
            flow = flows[0]
            alternatives = sorted(
                nx.all_shortest_paths(topo.graph, flow.src, flow.dst))
            net.reroute(flow, next(p for p in alternatives
                                   if p[2] != flow.path[2]))
        sim.schedule(0.0105, move)
    elif scenario == "fail_link":
        # Kills h4->h0 and h8->h0; the other flows run on.
        sim.schedule(0.0125, net.fail_link, "core0", "p0-agg0")
    sim.run(until=2.0)
    net.sync()
    return flows, net


def _hex(value):
    return None if value is None else float(value).hex()


class TestCcPinnedAcrossEpochPlan:
    """Staggered churn, a reroute and a link failure under every cc
    protocol reproduce the pinned floats bit for bit."""

    @pytest.mark.parametrize("protocol", ["reno", "dctcp", "delay"])
    @pytest.mark.parametrize("scenario", ["staggered", "reroute",
                                          "fail_link", "wide"])
    def test_matches_pins(self, scenario, protocol):
        flows, net = _cc_scenario(protocol, scenario)
        pins = _CC_PINS[f"{scenario}/{protocol}"]
        assert [
            (_hex(f.completed_at), _hex(f.remaining), _hex(f.cc.cwnd))
            for f in flows
        ] == pins["flows"]
        assert {
            key: value if isinstance(value, int) else _hex(value)
            for key, value in net.queue_metrics().items()
        } == pins["queues"]
        assert net.recomputes == pins["recomputes"]
        assert net.flows_solved == pins["flows_solved"]


def _direction_digests(net):
    """SHA256 (first 16 hex digits) of every direction's floats, by group.

    Each group hashes one ``float.hex`` row per direction, directions in
    name order: the bytes it carried, its congestion accounting, its
    time-weighted utilisation, its queue's observed and marked seconds,
    and its queue's depth histogram (total, sum and every bucket).  A
    digest keeps the pins short; a change to any one direction's float
    changes its group's digest.
    """
    directions = sorted(
        (d for link in net.links() for d in (link.forward, link.reverse)),
        key=lambda d: d.name,
    )
    rows = {"bytes": [], "congestion": [], "utilization": [], "queue": [],
            "depth_hist": []}
    for d in directions:
        queue = d.queue
        hist = queue.depth_hist
        rows["bytes"].append(f"{d.name} {_hex(d.bytes_carried.total)}")
        rows["congestion"].append(
            f"{d.name} {_hex(d.congested_seconds)} {d.congestion_episodes}")
        rows["utilization"].append(f"{d.name} {_hex(d.mean_utilization())}")
        rows["queue"].append(
            f"{d.name} {_hex(queue.observed_seconds)} "
            f"{_hex(queue.marked_seconds)}")
        rows["depth_hist"].append(
            f"{d.name} {_hex(hist.total)} {_hex(hist._sum)} "
            + ",".join(_hex(count) for count in hist._counts))
    return {
        group: hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]
        for group, lines in rows.items()
    }


# Pinned at the release before the epoch reallocation settled, installed
# and summed loads in one indexed pass (see _direction_digests): per
# scenario/protocol, one digest per group of per-direction floats.
_CC_DIRECTION_PINS = {
    'staggered/reno': {
        'bytes': '92e99ec9bd37cf07',
        'congestion': 'efb8fbb911dc57f5',
        'utilization': 'adf90afea8f707ae',
        'queue': '5d9f7b68ab4f0ed0',
        'depth_hist': '0d1ec21a7b873735',
    },
    'staggered/dctcp': {
        'bytes': 'af8b1b5665c0cd4e',
        'congestion': 'd22ae516455d8fe1',
        'utilization': '17cab08ae8859a56',
        'queue': '55be0562af43443a',
        'depth_hist': 'fcec18ac6c38634e',
    },
    'staggered/delay': {
        'bytes': '332b3eecaeabe30a',
        'congestion': 'a8ab5db713132484',
        'utilization': 'cff26a3f6b50134b',
        'queue': '54f7a5e0f8da13b4',
        'depth_hist': 'a9034722d27a4bf0',
    },
    'reroute/reno': {
        'bytes': 'e66815532f702225',
        'congestion': '4777f19ef7d4b967',
        'utilization': 'ddcae3eb11794d42',
        'queue': '3d2314b65b1c50b8',
        'depth_hist': '81ca628f0f457625',
    },
    'reroute/dctcp': {
        'bytes': '5677205e039ecdfa',
        'congestion': '0a81e0aa18fc0a8f',
        'utilization': '5778608745bf7612',
        'queue': 'a83a29ea08b4d830',
        'depth_hist': '5ff3905c55ccd160',
    },
    'reroute/delay': {
        'bytes': '6ba052417df16362',
        'congestion': 'd8228ed11bad7cbb',
        'utilization': '817698afbb38c502',
        'queue': '53d0f404ce9a0708',
        'depth_hist': 'f0956cd05860974e',
    },
    'fail_link/reno': {
        'bytes': 'a250212fd480ba07',
        'congestion': '637ca8debe3ca672',
        'utilization': '98c2ca26371db649',
        'queue': '496ae56e9ab6f536',
        'depth_hist': '346194926e36fbd7',
    },
    'fail_link/dctcp': {
        'bytes': 'b5666cd5d2e54283',
        'congestion': 'd6fdcd81a380075d',
        'utilization': '668b6cf4890a1b9f',
        'queue': 'a75bc68437ab1653',
        'depth_hist': 'e7b5c76b5753c181',
    },
    'fail_link/delay': {
        'bytes': 'f2fad1652361aa03',
        'congestion': '4aaf5cb69767707c',
        'utilization': '44b3777fd99ac5c0',
        'queue': '50659e4c5890122d',
        'depth_hist': '81454544aeae3970',
    },
    'wide/reno': {
        'bytes': '21e7102a5677933f',
        'congestion': 'eed542f97975675d',
        'utilization': '237244b53608ea97',
        'queue': 'efbb297a1589d804',
        'depth_hist': '95721fafe9c0a085',
    },
    'wide/dctcp': {
        'bytes': '9ecba28acc1d0f4a',
        'congestion': '6fca959e3fc1596d',
        'utilization': '9c281ffcec286345',
        'queue': '5bf9527ff8c6fdc9',
        'depth_hist': '6de6500eda01bff1',
    },
    'wide/delay': {
        'bytes': '2e7330f097e95b81',
        'congestion': 'ff4808cff0a8a34b',
        'utilization': 'e040e31010324868',
        'queue': '3e3a8109f1f175a8',
        'depth_hist': '0358b7185caf6235',
    },
}


class TestCcDirectionsPinnedAcrossEpochPlan:
    """The same runs reproduce every direction's byte, congestion,
    utilisation and queue floats bit for bit."""

    @pytest.mark.parametrize("protocol", ["reno", "dctcp", "delay"])
    @pytest.mark.parametrize("scenario", ["staggered", "reroute",
                                          "fail_link", "wide"])
    def test_matches_pins(self, scenario, protocol):
        _, net = _cc_scenario(protocol, scenario)
        assert (_direction_digests(net)
                == _CC_DIRECTION_PINS[f"{scenario}/{protocol}"])

"""Tracing overhead -- the zero-cost-when-off contract, measured.

The kernel's only tracing cost per event dispatch is one attribute load
and an ``is None`` check (see ``Simulator.run``).  This benchmark
measures event-dispatch wall time three ways:

* no tracer installed (the pre-tracing seed behaviour);
* a tracer installed but with kernel event capture off (the state a
  ``TraceConfig(enabled=True)`` cloud runs in);
* kernel event capture on (the explicitly-expensive debug mode).

and asserts the first two are within noise of each other.  Interleaved
best-of-N timing keeps the comparison robust on loaded CI machines.
"""

import time

from repro.sim.kernel import Simulator
from repro.trace import Tracer

EVENTS_PER_RUN = 20_000
REPEATS = 9
# Headroom over a pure is-None check to absorb scheduler jitter on
# shared CI runners; a real per-event regression (dict lookups, logging,
# span creation) costs integer multiples, not fractions.
NOISE_FACTOR = 1.5


def _noop():
    pass


def _dispatch_seconds(install_tracer: bool, kernel_events: bool) -> float:
    sim = Simulator()
    if install_tracer:
        Tracer(sim, kernel_events=kernel_events)
    for index in range(EVENTS_PER_RUN):
        sim.schedule(index * 1e-6, _noop)
    started = time.perf_counter()
    sim.run()
    return time.perf_counter() - started


def _best_of(repeats: int, install_tracer: bool,
             kernel_events: bool = False) -> float:
    return min(
        _dispatch_seconds(install_tracer, kernel_events)
        for _ in range(repeats)
    )


def test_disabled_tracing_dispatch_overhead_is_within_noise():
    # Warm up allocators and code paths before timing anything.
    _dispatch_seconds(False, False)
    _dispatch_seconds(True, False)

    # Interleave the two configurations so slow machine phases hit both.
    baseline_runs, disabled_runs = [], []
    for _ in range(REPEATS):
        baseline_runs.append(_dispatch_seconds(False, False))
        disabled_runs.append(_dispatch_seconds(True, False))
    baseline = min(baseline_runs)
    disabled = min(disabled_runs)

    per_event_ns = (disabled - baseline) / EVENTS_PER_RUN * 1e9
    print(f"\ndispatch best-of-{REPEATS}: no tracer {baseline * 1e3:.2f} ms, "
          f"tracer-off {disabled * 1e3:.2f} ms "
          f"({per_event_ns:+.1f} ns/event) over {EVENTS_PER_RUN} events")

    assert disabled <= baseline * NOISE_FACTOR, (
        f"tracing-disabled dispatch {disabled * 1e3:.2f} ms exceeds "
        f"{NOISE_FACTOR}x the untraced baseline {baseline * 1e3:.2f} ms"
    )


def test_kernel_event_capture_records_but_stays_bounded():
    sim = Simulator()
    tracer = Tracer(sim, kernel_events=True, kernel_event_cap=1_000)
    for index in range(5_000):
        sim.schedule(index * 1e-6, _noop)
    sim.run()
    assert len(tracer.kernel_event_log) == 1_000  # capped, not 5000


def test_untraced_simulator_records_no_spans():
    sim = Simulator()
    assert sim.tracer is None
    for index in range(100):
        sim.schedule(index * 1e-3, _noop)
    sim.run()  # no tracer: nothing to assert beyond "it ran clean"
    assert sim.now > 0

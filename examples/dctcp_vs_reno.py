#!/usr/bin/env python
"""DCTCP vs Reno vs delay-based CC on the paper-scale fat-tree.

The fluid max-min fabric answers "who gets how much bandwidth" but says
nothing about *queues*: every protocol that shares a bottleneck fairly
looks identical.  The pluggable congestion-control rate model
(``rate_model="cc"``) adds the missing axis -- each flow runs a real
window (Reno AIMD, DCTCP's ECN-fraction EWMA, or a delay-based
variant) against shallow per-direction buffers with an ECN marking
threshold, so buffer-filling and buffer-keeping protocols separate.

Eight elephant senders converge on one receiver of a 224-host fat-tree
(the paper's 14-rack scale).  Expected shape, asserted by
``tests/test_cc.py`` and swept by ``specs/cc_contrast.yaml``:

* **Reno** is ECN-blind: it fills the 300 KB buffer until it overflows,
  then halves -- p99 queue depth pins at the limit and drops are its
  only feedback.
* **DCTCP** backs off proportionally to the fraction of marked time:
  p99 queue depth settles near the 45 KB ECN threshold (< 1/3 of
  Reno's) at >= 0.9x Reno's goodput.
* **delay** backs off on smoothed-RTT inflation and holds the shortest
  queues of all, trading a little goodput for them.
* **maxmin** is the default instantaneous fair-share model: no queue
  state exists at all (zero cost, byte-identical to the historic
  fabric).

Run:  python examples/dctcp_vs_reno.py [--hosts 224] [--duration 12]
"""

import argparse

from repro.campaign.scenarios import run_cc_contrast


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--hosts", type=int, default=224,
                        help="fat-tree hosts (fat-tree k is picked to fit)")
    parser.add_argument("--fat-tree-k", type=int, default=None,
                        help="override the fat-tree arity")
    parser.add_argument("--senders", type=int, default=8,
                        help="elephant senders converging on one receiver")
    parser.add_argument("--flow-mb", type=float, default=60.0,
                        help="bytes per elephant (MB)")
    parser.add_argument("--duration", type=float, default=12.0,
                        help="simulated seconds")
    args = parser.parse_args(argv)

    if args.fat_tree_k is None:
        # Smallest even k with k^3/4 >= hosts.
        k = 4
        while k ** 3 // 4 < args.hosts:
            k += 2
    else:
        k = args.fat_tree_k

    arms = {}
    print(f"{args.senders} senders -> 1 receiver, {args.hosts}-host "
          f"fat-tree (k={k}), {args.duration:.0f}s simulated\n")
    header = (f"{'arm':<14} {'goodput MB/s':>12} {'p99 queue KB':>13} "
              f"{'peak KB':>8} {'ECN frac':>9} {'drops':>6}")
    print(header)
    print("-" * len(header))
    for arm, rate_model, protocol in (
        ("maxmin", "maxmin", "reno"),
        ("cc/reno", "cc", "reno"),
        ("cc/dctcp", "cc", "dctcp"),
        ("cc/delay", "cc", "delay"),
    ):
        out = run_cc_contrast(
            rate_model=rate_model, protocol=protocol,
            hosts=args.hosts, fat_tree_k=k, senders=args.senders,
            flow_bytes=args.flow_mb * 1e6, duration_s=args.duration,
        )
        arms[arm] = out
        print(f"{arm:<14} {out['goodput_bytes_per_s'] / 1e6:>12.2f} "
              f"{out['netsim.queue_depth_p99'] / 1e3:>13.1f} "
              f"{out['netsim.queue_depth_peak'] / 1e3:>8.1f} "
              f"{out['netsim.ecn_mark_frac']:>9.3f} "
              f"{out['netsim.drop_events']:>6d}")

    reno, dctcp = arms["cc/reno"], arms["cc/dctcp"]
    p99_ratio = (dctcp["netsim.queue_depth_p99"]
                 / max(reno["netsim.queue_depth_p99"], 1.0))
    goodput_ratio = (dctcp["goodput_bytes_per_s"]
                     / max(reno["goodput_bytes_per_s"], 1.0))
    print(f"\nDCTCP vs Reno: p99 queue ratio {p99_ratio:.2f} "
          f"(want < 0.33), goodput ratio {goodput_ratio:.2f} "
          f"(want >= 0.90)")
    return arms


if __name__ == "__main__":
    main()

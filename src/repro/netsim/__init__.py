"""Network substrate: the PiCloud's data-centre fabric.

Models the paper's Fig. 2 network at flow level:

* :mod:`~repro.netsim.link` -- full-duplex links with bandwidth and latency.
* :mod:`~repro.netsim.fairness` -- max-min fair bandwidth allocation
  (progressive filling), the standard fluid model for DC congestion studies.
* :mod:`~repro.netsim.cc` -- pluggable rate models: the max-min default
  plus per-flow congestion control (Reno / DCTCP / delay-based) with
  per-direction queue occupancy and ECN marking.
* :mod:`~repro.netsim.fabric` -- the live network: active flows, rate
  recomputation, per-link utilisation gauges and congestion accounting.
* :mod:`~repro.netsim.topology` -- builders for the paper's canonical
  multi-root tree, the fat-tree it can be re-cabled into, and test shapes.
* :mod:`~repro.netsim.routing` -- static shortest-path and ECMP path
  services; the OpenFlow/SDN control plane lives in :mod:`repro.netsim.sdn`.
"""

from repro.netsim.addresses import Ipv4Pool
from repro.netsim.cc import CcFlowState, CcRateModel, MaxMinRateModel, RateModel
from repro.netsim.fabric import FlowTransfer, Network
from repro.netsim.fairness import max_min_rates
from repro.netsim.link import Link, LinkDirection, QueueState
from repro.netsim.routing import EcmpRouting, PathService, ShortestPathRouting
from repro.netsim.topology import (
    Topology,
    fat_tree,
    multi_root_tree,
    single_switch,
)

__all__ = [
    "CcFlowState",
    "CcRateModel",
    "EcmpRouting",
    "FlowTransfer",
    "Ipv4Pool",
    "Link",
    "LinkDirection",
    "MaxMinRateModel",
    "Network",
    "PathService",
    "QueueState",
    "RateModel",
    "ShortestPathRouting",
    "Topology",
    "fat_tree",
    "max_min_rates",
    "multi_root_tree",
    "single_switch",
]

"""Discrete-event simulation substrate: kernel, resources, network, cluster.

This package replaces the paper's physical testbed (8 nodes, dual
quad-core Xeon E5620, Gigabit Ethernet switch) with a simulated one:

* :mod:`repro.simnet.kernel` — a from-scratch generator-based DES kernel
  (events, processes, timeouts, composition);
* :mod:`repro.simnet.resources` — slot pools and token-rate devices
  (disks);
* :mod:`repro.simnet.network` — links with fair-share bandwidth and a
  store-and-forward switch;
* :mod:`repro.simnet.cluster` — node/cluster builders, including
  :func:`paper_cluster`, the paper's testbed as the default.
"""

from repro.simnet.kernel import (
    Simulator,
    Process,
    Event,
    Timeout,
    AllOf,
    AnyOf,
    Interrupt,
    SimError,
)
from repro.simnet.resources import SlotPool, RateDevice
from repro.simnet.network import Link, Network, Flow, FlowFailed
from repro.simnet.cluster import Node, Cluster, ClusterSpec, paper_cluster
from repro.simnet.faults import (
    FaultPlan,
    FaultInjector,
    NodeCrash,
    CrashRate,
    DiskDegradation,
    LinkDegradation,
    Straggler,
    LinkFlap,
    NetworkPartition,
    FlowLossRate,
)

__all__ = [
    "Simulator",
    "Process",
    "Event",
    "Timeout",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "SimError",
    "SlotPool",
    "RateDevice",
    "Link",
    "Network",
    "Flow",
    "FlowFailed",
    "Node",
    "Cluster",
    "ClusterSpec",
    "paper_cluster",
    "FaultPlan",
    "FaultInjector",
    "NodeCrash",
    "CrashRate",
    "DiskDegradation",
    "LinkDegradation",
    "Straggler",
    "LinkFlap",
    "NetworkPartition",
    "FlowLossRate",
]

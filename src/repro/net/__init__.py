"""Discrete-event network simulation substrate.

The paper's evaluation ran on a 64-CPU testbed with WAN delays replayed
from a GT-ITM topology (Section 5.2).  This package replaces that testbed
with a discrete-event simulator:

- :mod:`repro.net.sim` -- the virtual clock and event loop;
- :mod:`repro.net.node` -- single-server FIFO processing nodes (broker
  CPUs) with queue-growth saturation detection matching the paper's
  throughput methodology;
- :mod:`repro.net.links` -- fixed-latency links;
- :mod:`repro.net.simnet` -- a timed broker overlay combining the Siena
  routing core with nodes and links, optionally with per-hop acks,
  retries, and a heartbeat failure detector (at-least-once delivery);
- :mod:`repro.net.faults` -- seeded fault plans (broker crashes, lossy
  and partitioned links, latency spikes) replayed deterministically
  against the simulator.
"""

from repro.net.faults import (
    ANY,
    BrokerCrash,
    BrokerSlowdown,
    FaultInjector,
    FaultPlan,
    LinkFault,
    PartitionFault,
)
from repro.net.links import Link
from repro.net.node import ProcessingNode
from repro.net.service import ServiceNetwork, ServiceStats
from repro.net.sim import Simulator
from repro.net.simnet import (
    ReliabilityStats,
    RetryPolicy,
    SimulatedPubSub,
)

__all__ = [
    "ANY",
    "BrokerCrash",
    "BrokerSlowdown",
    "FaultInjector",
    "FaultPlan",
    "Link",
    "LinkFault",
    "PartitionFault",
    "ProcessingNode",
    "ReliabilityStats",
    "RetryPolicy",
    "ServiceNetwork",
    "ServiceStats",
    "SimulatedPubSub",
    "Simulator",
]

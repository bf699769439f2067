"""A content-based publish-subscribe substrate modeled on Siena.

PSGuard (Section 5.1) is layered on an *unmodified* Siena pub-sub core, so
this package re-implements the slice of Siena that PSGuard relies on
(Carzaniga, Rosenblum, Wolf -- ACM TOCS 2001):

- events are sets of typed, named attributes (:mod:`repro.siena.events`);
- subscriptions are conjunctive filters of per-attribute constraints
  (:mod:`repro.siena.filters`) with the *covering* relation of Section 2.1;
- brokers form a hierarchical (tree) overlay, propagate subscriptions
  upward with the covering optimization, and forward events downward only
  on matching interfaces (:mod:`repro.siena.broker`,
  :mod:`repro.siena.network`).
"""

from repro.siena.broker import Broker
from repro.siena.events import Event
from repro.siena.filters import Constraint, Filter
from repro.siena.network import BrokerTree
from repro.siena.operators import Op

__all__ = [
    "Broker",
    "BrokerTree",
    "Constraint",
    "Event",
    "Filter",
    "Op",
]

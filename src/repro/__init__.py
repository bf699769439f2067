"""PSGuard: secure event dissemination in publish-subscribe networks.

A from-scratch reproduction of Srivatsa & Liu, ICDCS 2007.  The blessed
surface is re-exported here: ``System.builder()...build()`` stands up
a fully wired instance (in process, or over localhost TCP with
``.transport("tcp")``), :class:`Event` / :class:`Filter`
express publications and subscriptions, :class:`KDC` /
:class:`Publisher` / :class:`Subscriber` are the key-management
principals, and :class:`Observability` / :class:`MetricsRegistry` /
:class:`Tracer` the metrics/tracing layer.  Deeper machinery stays in
its modules -- :mod:`repro.core` (key derivation, epochs, the
replicated KDC), :mod:`repro.siena` (content-based routing),
:mod:`repro.routing` (probabilistic multi-path), :mod:`repro.net`
(the timed fault-injected overlay), :mod:`repro.flow` (overload
protection: bounded queues and credits -- its headline names are
re-exported here too), :mod:`repro.rtnet` (sockets: the
broker tree and the replicated KDC over TCP; the renewal
:class:`~repro.core.renewal.RenewalPolicy` knob is re-exported here),
:mod:`repro.obs`
(instruments and exporters); ``docs/API.md`` holds a one-page tour and
``python -m repro`` a command-line interface.

Failures raise exceptions from the :mod:`repro.errors` hierarchy --
every package-specific error derives from :class:`ReproError` (and,
where one replaced a stdlib type, still from the original:
:class:`GrantDenied` is a ``PermissionError``, :class:`FrameError` a
``ValueError``), so ``except ReproError`` catches everything PSGuard
raises deliberately.
"""

from repro.api import System, SystemBuilder
from repro.core.renewal import RenewalPolicy
from repro.errors import (
    FrameError,
    GrantDenied,
    GrantExpired,
    KDCUnavailable,
    ReproError,
)
from repro.flow import (
    BEST_EFFORT,
    HIGH,
    NORMAL,
    AIMDRateLimiter,
    FlowControlPolicy,
    priority_of,
    with_priority,
)
from repro.core import (
    KDC,
    AuthorizationGrant,
    CompositeKeySpace,
    NumericKeySpace,
    Publisher,
    SealedEvent,
    StringKeySpace,
    Subscriber,
)
from repro.obs import MetricsRegistry, Observability, Tracer
from repro.siena import BrokerTree, Event, Filter

__version__ = "3.0.0"

__all__ = [
    "AIMDRateLimiter",
    "AuthorizationGrant",
    "BEST_EFFORT",
    "BrokerTree",
    "CompositeKeySpace",
    "Event",
    "Filter",
    "FlowControlPolicy",
    "FrameError",
    "GrantDenied",
    "GrantExpired",
    "HIGH",
    "KDC",
    "KDCUnavailable",
    "MetricsRegistry",
    "NORMAL",
    "NumericKeySpace",
    "Observability",
    "Publisher",
    "RenewalPolicy",
    "ReproError",
    "SealedEvent",
    "StringKeySpace",
    "Subscriber",
    "System",
    "SystemBuilder",
    "Tracer",
    "priority_of",
    "with_priority",
    "__version__",
]

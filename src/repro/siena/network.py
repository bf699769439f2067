"""An in-process hierarchical broker overlay.

``BrokerTree`` wires :class:`~repro.siena.broker.Broker` instances into the
tree topology of the reference model (Section 2.1): the publisher sits at
the root, subscribers attach to leaf brokers, and messages move
synchronously (the discrete-event simulator in :mod:`repro.net` provides
the timed variant used by the throughput/latency experiments).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Hashable, Iterable

from repro.siena.broker import Broker, MatchPredicate, _plain_match

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.lru import LRUCache
    from repro.obs.metrics import MetricsRegistry
from repro.siena.events import Event
from repro.siena.filters import Filter


class BrokerTree:
    """A complete ``arity``-ary tree of brokers with synchronous dispatch.

    >>> tree = BrokerTree(num_brokers=3)
    >>> received = []
    >>> tree.attach_subscriber("s", tree.leaf_ids()[0], received.append)
    >>> tree.subscribe("s", Filter.topic("news"))
    >>> tree.publish(Event({"topic": "news"}))
    1
    >>> len(received)
    1
    """

    def __init__(
        self,
        num_brokers: int = 1,
        arity: int = 2,
        match: MatchPredicate = _plain_match,
        registry: "MetricsRegistry | None" = None,
        match_cache: "LRUCache | None" = None,
    ):
        if num_brokers < 1:
            raise ValueError("a broker tree needs at least one broker (the root)")
        if arity < 1:
            raise ValueError("tree arity must be positive")
        self.arity = arity
        self.registry = registry
        self.match_cache = match_cache
        self.brokers: dict[Hashable, Broker] = {}
        self._subscriber_home: dict[Hashable, Hashable] = {}
        #: Per subscriber, the filters it holds, each once, in issue order.
        self._client_filters: dict[Hashable, dict[Filter, None]] = {}
        self._message_count = 0

        for index in range(num_brokers):
            self.brokers[index] = Broker(
                index, match=match, registry=registry, match_cache=match_cache
            )
        for index in range(1, num_brokers):
            parent_index = (index - 1) // arity
            self._link(parent_index, index)

    # -- construction -----------------------------------------------------

    def _link(self, parent_id: Hashable, child_id: Hashable) -> None:
        parent = self.brokers[parent_id]
        child = self.brokers[child_id]
        parent.attach_child(child_id, self._sender(parent_id, child_id))
        child.attach_parent(parent_id, self._sender(child_id, parent_id))

    def _sender(
        self, from_id: Hashable, to_id: Hashable
    ) -> Callable[[str, object], None]:
        def send(kind: str, payload: object) -> None:
            self._message_count += 1
            target = self.brokers[to_id]
            if kind == "subscribe":
                assert isinstance(payload, Filter)
                target.subscribe(from_id, payload)
            elif kind == "unsubscribe":
                assert isinstance(payload, Filter)
                target.unsubscribe(from_id, payload)
            elif kind == "publish":
                assert isinstance(payload, Event)
                target.publish(payload, arrived_from=from_id)
            else:  # pragma: no cover - defensive
                raise ValueError(f"unknown message kind {kind!r}")

        return send

    # -- topology ----------------------------------------------------------

    @property
    def root(self) -> Broker:
        """The root broker, where publishers inject events."""
        return self.brokers[0]

    def leaf_ids(self) -> list[Hashable]:
        """Ids of brokers with no children (subscriber attachment points)."""
        leaves = [
            broker_id
            for broker_id, broker in self.brokers.items()
            if not broker.children
        ]
        return sorted(leaves)

    def depth(self) -> int:
        """Depth of the tree (root at depth 0)."""
        depth = 0
        frontier: Iterable[Hashable] = [0]
        while True:
            next_frontier = [
                child
                for broker_id in frontier
                for child in self.brokers[broker_id].children
            ]
            if not next_frontier:
                return depth
            frontier = next_frontier
            depth += 1

    # -- client API --------------------------------------------------------

    def attach_subscriber(
        self,
        subscriber_id: Hashable,
        broker_id: Hashable,
        deliver: Callable[[Event], None],
    ) -> None:
        """Attach a subscriber endpoint to *broker_id*."""
        if subscriber_id in self._subscriber_home:
            raise ValueError(f"subscriber {subscriber_id!r} already attached")
        self.brokers[broker_id].attach_client(subscriber_id, deliver)
        self._subscriber_home[subscriber_id] = broker_id

    def detach_subscriber(self, subscriber_id: Hashable) -> None:
        """Detach a subscriber endpoint for good.

        Whatever filters it still holds are withdrawn at its broker (and,
        through covering, upstream), and the tree forgets the endpoint:
        its delivery callable, its home and its filter list.  Leaving --
        unsubscribing every filter -- does not detach: a subscriber with
        no filters may subscribe again.  The id may be attached again
        afterwards.
        """
        broker_id = self._subscriber_home.get(subscriber_id)
        if broker_id is None:
            raise KeyError(f"subscriber {subscriber_id!r} is not attached")
        self.brokers[broker_id].detach_client(subscriber_id)
        del self._subscriber_home[subscriber_id]
        self._client_filters.pop(subscriber_id, None)

    def subscribe(self, subscriber_id: Hashable, subscription_filter: Filter) -> None:
        """Issue a subscription on behalf of an attached subscriber."""
        broker_id = self._subscriber_home.get(subscriber_id)
        if broker_id is None:
            raise KeyError(f"subscriber {subscriber_id!r} is not attached")
        # Once, however often it is issued: one unsubscribe withdraws it,
        # so a restart replay must not find a second copy.
        self._client_filters.setdefault(subscriber_id, {})[
            subscription_filter
        ] = None
        self.brokers[broker_id].subscribe(subscriber_id, subscription_filter)

    def unsubscribe(
        self, subscriber_id: Hashable, subscription_filter: Filter
    ) -> None:
        """Withdraw a previously issued subscription."""
        broker_id = self._subscriber_home.get(subscriber_id)
        if broker_id is None:
            raise KeyError(f"subscriber {subscriber_id!r} is not attached")
        held = self._client_filters.get(subscriber_id)
        if held is not None:
            held.pop(subscription_filter, None)
            if not held:
                del self._client_filters[subscriber_id]
        self.brokers[broker_id].unsubscribe(subscriber_id, subscription_filter)

    def publish(self, event: Event) -> int:
        """Inject *event* at the root; returns the root's fan-out."""
        return self.root.publish(event)

    # -- failure lifecycle ---------------------------------------------------

    def crash_broker(self, broker_id: Hashable) -> None:
        """Take one broker down; messages through it are silently lost."""
        self.brokers[broker_id].crash()

    def restart_broker(self, broker_id: Hashable, replay: bool = True) -> None:
        """Restart a crashed broker with empty routing state.

        With *replay* (the default), the recovery protocol runs
        synchronously: surviving children re-announce their forwarded
        filter tables and locally attached subscribers re-issue their
        subscriptions, which the restarted broker re-forwards upstream
        as usual.  ``replay=False`` models the window before neighbours
        notice the restart.
        """
        broker = self.brokers[broker_id]
        broker.restart()
        if not replay:
            return
        for child_id in broker.children:
            self.brokers[child_id].replay_upstream()
        for subscriber_id, home in self._subscriber_home.items():
            if home != broker_id:
                continue
            for subscription_filter in self._client_filters.get(
                subscriber_id, ()
            ):
                broker.subscribe(subscriber_id, subscription_filter)

    # -- accounting ----------------------------------------------------------

    @property
    def message_count(self) -> int:
        """Total number of broker-to-broker messages exchanged so far."""
        return self._message_count

    def reset_stats(self) -> None:
        """Zero all broker counters and the global message count."""
        self._message_count = 0
        for broker in self.brokers.values():
            broker.stats.reset()

    def total_deliveries(self) -> int:
        """Events delivered to subscriber endpoints across all brokers."""
        return sum(broker.stats.deliveries for broker in self.brokers.values())

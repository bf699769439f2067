"""The in-process workloads: ``inproc-match``, ``inproc-keys``, ``churn``.

One secure pipeline, driven closed-loop from this thread::

    Publisher.publish (seal) -> tokenize_event -> DisseminationEngine
      -> BrokerTree with the PRF-memoized tokenized match
      -> delivery callback -> Subscriber.receive (derive + open)

Every call into a layer goes through an attribute of :class:`InprocSystem`
that is the layer's own callable on untraced runs and a span-recording
wrapper of it on the traced repeat, so both run the same loop.
"""

from __future__ import annotations

import gc
import heapq
import random
from time import perf_counter

from fixture import (
    PUBLISHER, SEQ, Fixture, Ledger, Member, event_index, ktid_elements,
)
from repro.core.publisher import Publisher
from repro.core.renewal import RenewalManager
from repro.core.subscriber import Subscriber
from repro.engine import DisseminationEngine, EngineCaches, EngineConfig
from repro.routing.tokens import grant_routing_filters, tokenize_event
from repro.siena.network import BrokerTree
from tracing import NAME, Tracer

BATCH = 32
#: ``churn``: one subscriber leaves and one joins per this many events.
CHURN_EVERY = 8
#: Logical seconds an expired grant stays usable: events sealed just
#: before an epoch boundary may still sit in the engine's pending batch
#: when a later event's clock renews (and would drop) the old grant.
GRACE = 4.0 * BATCH


class Endpoint:
    """One joined subscriber: key ring, renewal, routing state, opens."""

    def __init__(
        self, system: "InprocSystem", member: Member, at_time: float
    ):
        self.system = system
        self.member = member
        self.subscriber = Subscriber(member.subscriber_id, grace_period=GRACE)
        self.manager = RenewalManager(self.subscriber, system.grant_source)
        self.routing_filters: list = []
        self.opened = system.ledger.join(member, at_time)

    def deliver(self, routable) -> None:
        system = self.system
        index = routable.attributes[SEQ]
        sealed, at_time, started = system.in_flight[index]
        result = self.subscriber.receive(
            sealed, system.fixture.schema_lookup, at_time
        )
        if result is not None:
            self.opened.append(index)
            system.opens += 1
            system.latencies.append(perf_counter() - started)

    def deliver_traced(self, routable) -> None:
        tracer = self.system.tracer
        span = tracer.begin("core.open", routable.attributes[SEQ])
        opens = len(self.opened)
        try:
            self.deliver(routable)
        finally:
            if len(self.opened) == opens:
                tracer.spans[span][NAME] = "core.reject"
            tracer.end(span)


class InprocSystem:
    """Tree, engine, publisher and joined subscribers for one fixture."""

    def __init__(
        self,
        fixture: Fixture,
        churn: bool = False,
        tracer: Tracer | None = None,
    ):
        shape = fixture.shape
        self.fixture = fixture
        self.churn = churn
        self.tracer = tracer
        self.ledger = Ledger(fixture, logical_clock=churn)
        wrap = tracer.wrap if tracer else (lambda _name, call, *_: call)

        config = EngineConfig(batch_size=BATCH)
        self.caches = EngineCaches(config)
        self.authority = self.caches.token_authority(fixture.master_key)
        self.tree = BrokerTree(
            num_brokers=shape.num_brokers,
            arity=2,
            match=wrap(
                "routing.match", self.caches.tokenized_match(), event_index
            ),
            # The seed's MatchResultCache reuses a live filter's id after
            # an invalidation (ids are ``len`` of a dict that shrinks), so
            # under unsubscription it misroutes and then raises KeyError;
            # ``churn`` runs without it until that is fixed.
            match_cache=None if churn else self.caches.match_results,
        )
        self.engine = DisseminationEngine(self.tree, config)
        self.publisher = Publisher(PUBLISHER, fixture.kdc)
        self.seal = wrap("core.seal", self.publisher.publish)
        self.tokenize = wrap("routing.tokenize", tokenize_event)
        self.dispatch = wrap("siena.dispatch", self.engine.publish)
        self.grant_filters = wrap(
            "routing.grant_filters", grant_routing_filters
        )
        self.subscribe = wrap("siena.subscribe", self.tree.subscribe)
        self.unsubscribe = wrap("siena.unsubscribe", self.tree.unsubscribe)
        self.grant_source = _GrantSource(
            wrap("core.authorize", fixture.kdc.authorize)
        )
        self.renew = wrap("core.renew", RenewalManager.tick)

        self.in_flight: list = [None] * len(fixture.pool)
        self.pending: list[int] = []
        self.latencies: list[float] = []
        self.join_latencies: list[float] = []
        self.grant_keys = 0
        self.joins_total = 0
        self.opens = 0
        self.renewals = 0
        self.next_publication = 0
        self.joined: list[Endpoint] = []
        self._renewal_heap: list[tuple[float, int, Endpoint]] = []
        self._heap_ticket = 0
        self._churn_rng = random.Random(fixture.seed + 1)
        self._leaves = self.tree.leaf_ids()
        for member in fixture.residents:
            self.join(member, at_time=0.0)

    # -- control plane -----------------------------------------------------

    def join(self, member: Member, at_time: float) -> Endpoint:
        """authorize xN -> add_grant -> routing filters -> subscribe."""
        started = perf_counter()
        endpoint = Endpoint(self, member, at_time)
        for plaintext_filter in member.filters:
            grant = endpoint.manager.add_subscription(
                plaintext_filter, at_time=at_time
            )
            self.grant_keys += grant.key_count()
            endpoint.routing_filters += self.grant_filters(
                self.authority, grant
            )
        self.tree.attach_subscriber(
            member.subscriber_id,
            self._leaves[member.slot % len(self._leaves)],
            endpoint.deliver_traced if self.tracer else endpoint.deliver,
        )
        for routing_filter in endpoint.routing_filters:
            self.subscribe(member.subscriber_id, routing_filter)
        self.join_latencies.append(perf_counter() - started)
        self.joins_total += 1
        self.joined.append(endpoint)
        if self.churn:
            self._schedule_renewal(endpoint)
        return endpoint

    def leave(self, position: int) -> Member:
        """Withdraw every routing filter of ``joined[position]``."""
        endpoint = self.joined[position]
        self.joined[position] = self.joined[-1]
        self.joined.pop()
        for routing_filter in endpoint.routing_filters:
            self.unsubscribe(endpoint.member.subscriber_id, routing_filter)
        endpoint.routing_filters = []
        self.ledger.leave(endpoint.member)
        return endpoint.member

    def replace_one(self, position: int, at_time: float) -> None:
        """One churn step: a resident leaves, a fresh principal joins."""
        self.join(self.fixture.joiner_for(self.leave(position)), at_time)

    def _schedule_renewal(self, endpoint: Endpoint) -> None:
        self._heap_ticket += 1
        heapq.heappush(
            self._renewal_heap,
            (endpoint.manager.next_renewal_at(), self._heap_ticket, endpoint),
        )

    def _advance(self, publication: int, at_time: float) -> None:
        """Logical time moved: renew what is due, churn on schedule."""
        heap = self._renewal_heap
        while heap and heap[0][0] <= at_time:
            endpoint = heapq.heappop(heap)[2]
            if endpoint.routing_filters:  # still joined
                self.renewals += self.renew(endpoint.manager, at_time)
                self._schedule_renewal(endpoint)
        if publication % CHURN_EVERY == 0 and publication:
            self.replace_one(
                self._churn_rng.randrange(len(self.joined)), at_time
            )

    # -- data plane --------------------------------------------------------

    def run_repeat(self, seconds: float) -> dict:
        """Publish closed-loop for *seconds*; returns the raw measures."""
        pool, size = self.fixture.pool, len(self.fixture.pool)
        in_flight, pending = self.in_flight, self.pending
        published = self.ledger.published
        seal, tokenize, dispatch = self.seal, self.tokenize, self.dispatch
        authority, churn, tracer = self.authority, self.churn, self.tracer
        self.latencies = []
        self.join_latencies = []
        publication = first = self.next_publication
        gc.collect()
        started = perf_counter()
        deadline = started + seconds
        while True:
            for _ in range(BATCH):
                index = publication % size
                event = pool[index]
                at_time = 0.0
                if tracer is not None:
                    tracer.event_id = index
                if churn:
                    at_time = float(publication)
                    self._advance(publication, at_time)
                begun = perf_counter()
                sealed = seal(event, at_time=at_time)
                in_flight[index] = (sealed, at_time, begun)
                tokenized = tokenize(
                    authority, sealed.routable, ktid_elements(sealed),
                    event.attributes["topic"],
                )
                pending.append(index)
                if dispatch(tokenized) is not None:
                    published += pending
                    pending.clear()
                publication += 1
            if perf_counter() >= deadline:
                break
        if self.engine.flush() is not None:
            published += pending
            pending.clear()
        wall_s = perf_counter() - started
        self.next_publication = publication
        return {
            "events": publication - first,
            "wall_s": wall_s,
            "latencies_s": self.latencies,
            "join_latencies_s": self.join_latencies,
        }

    # -- counters the layers already keep ----------------------------------

    def layer_counters(self) -> dict:
        """Cumulative counts read from the layers' public stats."""
        subscribers = [endpoint.subscriber for endpoint in self.joined]
        hits = sum(s.cache.hits for s in subscribers)
        misses = sum(s.cache.misses for s in subscribers)
        return {
            "publisher_key_cache": _ratio_of(self.publisher.cache.stats()),
            "subscriber_key_cache": hits / (hits + misses or 1),
            "token_cache": _ratio_of(self.authority.cache.stats()),
            "prf_cache": _ratio_of(self.caches.token_prf.cache.stats()),
            "match_cache": _ratio_of(self.caches.match_results.stats()),
            "messages": self.tree.message_count,
            "deliveries": self.tree.total_deliveries(),
            "opened": self.opens,
            "duplicates_suppressed": sum(
                s.stats.duplicates_suppressed for s in subscribers
            ),
        }


class _GrantSource:
    """The object handed to ``RenewalManager`` as its KDC: it needs only
    ``authorize``, which lets the traced repeat time that call."""

    def __init__(self, authorize):
        self.authorize = authorize


def _ratio_of(stats: dict) -> float:
    return stats["hits"] / (stats["hits"] + stats["misses"] or 1)

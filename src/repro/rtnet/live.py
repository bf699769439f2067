"""A synchronous facade over a live TCP cluster.

:class:`LiveSystem` mirrors the :class:`repro.api.System` surface --
``publisher()``, ``subscribe()``, ``roll_epoch()``, ``revoke()``,
``leave()``, ``settle()``, ``close()`` -- but the events flow over real
sockets and the grants over KDC sessions: an asyncio loop runs in a
daemon thread hosting a :class:`~repro.rtnet.cluster.ClusterLauncher`
with its 3 KDC replicas, and every facade call is submitted to it with
``run_coroutine_threadsafe``.  It is what
``System.builder().transport("tcp").build()`` returns, so switching a
session from the in-process tree to a localhost TCP deployment is a
one-line change.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Iterable

from repro.core.envelope import OpenResult
from repro.core.kdc import KDC
from repro.core.renewal import RenewalPolicy
from repro.obs import Observability
from repro.routing.tokens import TokenAuthority
from repro.rtnet.client import RtPublisher, RtSubscriber
from repro.rtnet.cluster import ClusterLauncher
from repro.siena.events import Event
from repro.siena.filters import Filter

_CALL_TIMEOUT = 30.0


async def _join(
    endpoint: RtSubscriber, filters: Iterable[Filter], at_time: float | None
) -> None:
    """Dial *endpoint* and join *filters* in-band; an endpoint that
    fails on the way is dropped, so none of its tasks outlives it."""
    try:
        await endpoint.connect()
        for subscription_filter in filters:
            await endpoint.join(subscription_filter, at_time=at_time)
    except BaseException:
        await _drop(endpoint)
        raise


async def _drop(endpoint: RtSubscriber) -> None:
    """Close *endpoint* and its KDC client's sessions."""
    await endpoint.close()
    endpoint.kdc_client.network.detach(endpoint.kdc_client.client_id)


class LivePublisher:
    """Synchronous wrapper over one :class:`RtPublisher`."""

    def __init__(self, system: "LiveSystem", endpoint: RtPublisher):
        self._system = system
        self.endpoint = endpoint

    @property
    def publisher_id(self) -> str:
        return self.endpoint.peer_id

    @property
    def unacked(self) -> int:
        return self.endpoint.unacked

    def publish(
        self,
        event: Event,
        secret_attributes: set[str] | None = None,
        at_time: float = 0.0,
    ) -> None:
        self._system._call(
            self.endpoint.publish(
                event, secret_attributes=secret_attributes, at_time=at_time
            )
        )

    def settle(self, timeout: float = 10.0) -> None:
        """Block until everything published so far reached the root."""
        self._system._call(self.endpoint.settle(timeout=timeout))


class LiveSubscriber:
    """Synchronous wrapper over one :class:`RtSubscriber`."""

    def __init__(self, system: "LiveSystem", endpoint: RtSubscriber):
        self._system = system
        self.endpoint = endpoint

    @property
    def subscriber_id(self) -> str:
        return self.endpoint.peer_id

    @property
    def opened(self) -> list[OpenResult]:
        return self.endpoint.opened

    @property
    def unreadable(self) -> int:
        return self.endpoint.unreadable

    @property
    def log(self) -> list[tuple[object, object, str]]:
        return self.endpoint.log

    @property
    def renewal_stats(self):
        """The endpoint's :class:`~repro.core.renewal.RenewalStats`."""
        return self.endpoint.renewal.stats

    def settle(self, timeout: float = 10.0) -> None:
        """Block until everything in flight toward this subscriber's
        leaf (as of the barrier's round trip) has been delivered."""
        self._system._call(self.endpoint.settle(timeout=timeout))


class LiveSystem:
    """A PSGuard deployment over localhost TCP, driven synchronously."""

    def __init__(
        self,
        kdc: KDC,
        obs: Observability,
        num_brokers: int,
        arity: int,
        renewal: RenewalPolicy,
        host: str = "127.0.0.1",
    ):
        self.kdc = kdc
        self.obs = obs
        self.registry = obs.registry
        self.authority = TokenAuthority(kdc.master_key)
        #: Key-lifecycle policy of every live subscriber: grants are
        #: leases fetched in-band from the hosted KDC replicas and
        #: renewed at every epoch rollover.
        self.renewal = renewal
        self.cluster = ClusterLauncher(
            num_brokers=num_brokers,
            arity=arity,
            host=host,
            registry=obs.registry,
            kdc=kdc,
        )
        self.publishers: dict[str, LivePublisher] = {}
        self.subscribers: dict[str, LiveSubscriber] = {}
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run_loop, name="rtnet-live", daemon=True
        )
        self._thread.start()
        self._call(self.cluster.start())

    def _run_loop(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.run_forever()

    def _call(self, coroutine, timeout: float = _CALL_TIMEOUT):
        future = asyncio.run_coroutine_threadsafe(coroutine, self._loop)
        return future.result(timeout=timeout)

    # -- principals -----------------------------------------------------------

    def schema_lookup(self, topic: str):
        return self.kdc.config_for(topic).schema

    def publisher(self, publisher_id: str) -> LivePublisher:
        """Get or create a publishing session attached at the root."""
        session = self.publishers.get(publisher_id)
        if session is None:
            host, port = self.cluster.publisher_address()
            endpoint = RtPublisher(
                publisher_id,
                host,
                port,
                self.kdc,
                authority=self.authority,
                registry=self.registry,
            )
            self._call(endpoint.connect())
            session = LivePublisher(self, endpoint)
            self.publishers[publisher_id] = session
        return session

    def subscribe(
        self,
        subscriber_id: str,
        *filters: Filter,
        at_time: float | None = None,
    ) -> LiveSubscriber:
        """Authorize *filters* and attach a live subscriber.

        The subscriber *joins*: a KDC client attached to the hosted
        replicas fetches its grants in-band, anchored at *at_time*
        (default: the latest :meth:`roll_epoch`), and renews them at
        every rollover, failing over between replicas.  As in process,
        a refused filter raises before anything is dialled or attached.
        """
        if subscriber_id in self.subscribers:
            raise ValueError(f"subscriber {subscriber_id!r} already attached")
        for subscription_filter in filters:
            self.kdc.config_for(KDC.clause_topic(subscription_filter))
        kdc_client = self._call(self.cluster.kdc_client(subscriber_id))
        host, port = self.cluster.subscriber_address()
        endpoint = RtSubscriber(
            subscriber_id,
            host,
            port,
            schema_lookup=self.schema_lookup,
            authority=self.authority,
            registry=self.registry,
            kdc_client=kdc_client,
            renewal=self.renewal,
        )
        self._call(_join(endpoint, filters, at_time))
        session = LiveSubscriber(self, endpoint)
        self.subscribers[subscriber_id] = session
        return session

    # -- membership churn ------------------------------------------------------

    def leave(self, subscriber_id: str) -> LiveSubscriber:
        """Detach *subscriber_id* mid-stream: stop renewing, withdraw
        its routing filters, close its endpoint and its KDC sessions."""
        session = self.subscribers.pop(subscriber_id)
        self._call(session.endpoint.leave())
        self._call(_drop(session.endpoint))
        return session

    def revoke(self, subscriber_id: str, topic: str) -> None:
        """Revoke (subscriber, topic) lazily at the hosted cluster's
        primary: the current grant lapses with its epoch, the next
        renewal is denied."""
        self._call(self.cluster.revoke(subscriber_id, topic))

    def roll_epoch(self, topic: str, at_time: float) -> int:
        """Push REKEY for *topic*'s epoch at *at_time* from the hosted
        replicas and wait until every subscriber's renewals settle;
        returns the epoch."""
        epoch = self._call(self.cluster.roll_epoch(topic, at_time))
        for session in self.subscribers.values():
            self._call(session.endpoint.settle_rekey())
        return epoch

    def settle(self, timeout: float = 10.0) -> None:
        """Flush the whole system: publishers first (events reach the
        root), then subscribers (the fan-out drains to the edges)."""
        for publisher in self.publishers.values():
            publisher.settle(timeout=timeout)
        for subscriber in self.subscribers.values():
            subscriber.settle(timeout=timeout)

    # -- teardown -------------------------------------------------------------

    def close(self) -> None:
        """Disconnect every endpoint, stop the cluster, and stop and
        close the loop; a second call returns at once."""
        if self._loop.is_closed():
            return
        for session in list(self.subscribers.values()):
            self._call(session.endpoint.close())
        for session in list(self.publishers.values()):
            self._call(session.endpoint.close())
        self._call(self.cluster.stop())
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=5.0)
        self._loop.close()

    def __enter__(self) -> "LiveSystem":
        return self

    def __exit__(self, *_exc_info) -> None:
        self.close()

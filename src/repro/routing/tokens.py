"""Tokenization of routable attributes (Section 4.1).

Based on Song, Wagner and Perrig's searchable encryption:

- the KDC issues the token ``T(w) = F_{rk(KDC)}(w)`` for topic ``w``;
- a subscriber subscribes with the filter ``<topic, EQ, T(w)>``;
- a publisher attaches the routable attribute ``<r, F_{T(w)}(r)>`` for a
  fresh random nonce ``r``;
- a broker matches by checking ``F_{tok}(r) == match``.

A broker therefore learns only *that* an event matches a subscription it
carries -- never the topic string.  Because ``r`` is fresh per event, two
events under the same topic are unlinkable to a broker that carries no
matching subscription.

Numeric, category and string attributes route by their key-tree element
identifiers (Section 3.1 "we also use the key tree identifier for
tokenization"): every prefix of the event's ktid is tokenized the same
way, and a subscription for a cover element tokenizes that element, so
prefix containment becomes token equality at the right level.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from hmac import compare_digest
from typing import TYPE_CHECKING, Callable

from repro.crypto.prf import F, keyed_F
from repro.core.ktid import KTID
from repro.obs.lru import LRUCache
from repro.siena.events import Event
from repro.siena.filters import Constraint, Filter
from repro.siena.operators import Op

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.kdc import AuthorizationGrant
    from repro.obs.metrics import MetricsRegistry

_NONCE_BYTES = 16


@dataclass(frozen=True)
class RoutableToken:
    """The routable attribute pair ``<r, F_T(r)>`` carried by an event."""

    nonce: bytes
    proof: bytes

    def encode(self) -> str:
        """Hex encoding usable as a Siena string attribute value."""
        return (self.nonce + self.proof).hex()

    @classmethod
    def decode(cls, text: str) -> "RoutableToken":
        return cls(*_split_routable(text))


def _split_routable(text: str) -> tuple[bytes, bytes]:
    """``(nonce, proof)`` of a hex routable value; ValueError if malformed."""
    raw = bytes.fromhex(text)
    if len(raw) < _NONCE_BYTES + 1:
        raise ValueError("routable token too short")
    return raw[:_NONCE_BYTES], raw[_NONCE_BYTES:]


def make_routable(token: bytes, nonce: bytes | None = None) -> RoutableToken:
    """Publisher side: build ``<r, F_{T(w)}(r)>`` for label token ``T(w)``."""
    if nonce is None:
        nonce = os.urandom(_NONCE_BYTES)
    return RoutableToken(nonce, F(token, nonce))


class TokenProbe:
    """One label token with ``F`` keyed under it once.

    The broker-side check ``F_{tok}(r) == match`` -- spelled here and
    nowhere else -- then costs one PRF evaluation without the key
    set-up.  The keyed state lives and dies with the probe; whoever
    holds the token holds the probe.
    """

    __slots__ = ("token", "prf")

    def __init__(self, token: bytes):
        self.token = token
        self.prf = keyed_F(token)

    def matches(self, nonce: bytes, proof: bytes) -> bool:
        """Whether ``<nonce, proof>`` was built under this token, in
        constant time."""
        return compare_digest(self.prf(nonce), proof)


def routable_matches(token: bytes, routable: RoutableToken) -> bool:
    """Broker side: check ``F_{tok}(r) == match`` in constant time."""
    return TokenProbe(token).matches(routable.nonce, routable.proof)


class TokenAuthority:
    """Derives label tokens from the KDC master key.

    Distinct from decryption keys: compromise of a token reveals which
    events carry a label, never their contents.
    """

    def __init__(self, master_key: bytes):
        self.master_key = master_key
        self._prf = keyed_F(master_key)

    def topic_token(self, topic: str) -> bytes:
        """``T(w) = F_{rk}(w)``."""
        return self._prf(b"topic:" + topic.encode("utf-8"))

    def element_token(self, topic: str, attribute: str, element: object) -> bytes:
        """Token for one key-tree element of one attribute.

        Numeric elements are ktids; category/string elements are labels.
        """
        if isinstance(element, KTID):
            material = element.to_bytes()
        elif isinstance(element, str):
            material = element.encode("utf-8")
        else:
            raise TypeError(f"untokenizable element {element!r}")
        label = b"element:" + topic.encode("utf-8") + b"\x00"
        label += attribute.encode("utf-8") + b"\x00" + material
        return self._prf(label)

    def ktid_prefix_tokens(
        self, topic: str, attribute: str, leaf: KTID
    ) -> list[bytes]:
        """Tokens for every prefix of *leaf* (publisher side).

        An event advertises all its prefixes; a cover-element subscription
        matches at exactly one of them.
        """
        prefixes = list(leaf.ancestors()) + [leaf]
        return [
            self.element_token(topic, attribute, prefix) for prefix in prefixes
        ]


class CachingTokenAuthority(TokenAuthority):
    """A :class:`TokenAuthority` that memoizes token pre-computation.

    Label tokens are deterministic PRFs of the master key, so memoization
    is exact: ``T(w)`` and element tokens never change for a fixed KDC.
    The LRU bound keeps hostile topic churn from growing the map without
    limit.  Hit/miss/eviction counters register in *registry* under
    ``token_authority_cache_*`` when one is supplied.
    """

    def __init__(
        self,
        master_key: bytes,
        capacity: int = 4096,
        registry: "MetricsRegistry | None" = None,
        **labels,
    ):
        super().__init__(master_key)
        self.cache = LRUCache(
            capacity, "token_authority_cache", registry, **labels
        )

    def topic_token(self, topic: str) -> bytes:
        return self.cache.get_or_compute(
            ("topic", topic), lambda: TokenAuthority.topic_token(self, topic)
        )

    def element_token(self, topic: str, attribute: str, element: object) -> bytes:
        if isinstance(element, KTID):
            tag: object = ("ktid", element.to_bytes())
        else:
            tag = element
        return self.cache.get_or_compute(
            ("element", topic, attribute, tag),
            lambda: TokenAuthority.element_token(self, topic, attribute, element),
        )


# -- integration with the Siena broker ------------------------------------------

#: Attribute name carrying the tokenized topic of an event.
TOPIC_TOKEN_ATTRIBUTE = "_ttok"
#: Attribute prefix carrying tokenized element labels, one per level.
ELEMENT_TOKEN_ATTRIBUTE = "_etok"


def tokenize_event(
    authority: TokenAuthority,
    routable: Event,
    elements: dict[str, object],
    topic: str,
) -> Event:
    """Replace plaintext routing attributes with tokenized ones.

    The returned event carries only the nonce/proof pairs; brokers with the
    right subscription tokens can match it, and nothing else.
    """
    token_attributes: dict[str, str] = {
        TOPIC_TOKEN_ATTRIBUTE: make_routable(
            authority.topic_token(topic)
        ).encode()
    }
    for attribute, element in elements.items():
        if isinstance(element, KTID):
            prefixes = list(element.ancestors()) + [element]
            for level, prefix in enumerate(prefixes):
                token = authority.element_token(topic, attribute, prefix)
                name = f"{ELEMENT_TOKEN_ATTRIBUTE}:{attribute}:{level}"
                token_attributes[name] = make_routable(token).encode()
        elif isinstance(element, str):
            token = authority.element_token(topic, attribute, element)
            name = f"{ELEMENT_TOKEN_ATTRIBUTE}:{attribute}"
            token_attributes[name] = make_routable(token).encode()
    stripped = routable.without_attributes(
        *(set(routable.attributes) - {"_seq"})
    )
    return stripped.with_attributes(**token_attributes)


def tokenized_subscription(
    authority: TokenAuthority,
    topic: str,
    element_constraints: dict[str, object] | None = None,
) -> Filter:
    """Build the tokenized filter a subscriber registers with its broker.

    ``element_constraints`` maps attribute name to the granted cover
    element (one filter per cover element; a multi-element cover registers
    several filters).
    """
    constraints = [
        Constraint(
            TOPIC_TOKEN_ATTRIBUTE,
            Op.EQ,
            authority.topic_token(topic).hex(),
        )
    ]
    for attribute, element in (element_constraints or {}).items():
        token = authority.element_token(topic, attribute, element)
        if isinstance(element, KTID):
            name = f"{ELEMENT_TOKEN_ATTRIBUTE}:{attribute}:{element.depth}"
        else:
            name = f"{ELEMENT_TOKEN_ATTRIBUTE}:{attribute}"
        constraints.append(Constraint(name, Op.EQ, token.hex()))
    return Filter(constraints)


def grant_routing_filters(
    authority: TokenAuthority, grant: "AuthorizationGrant"
) -> list[Filter]:
    """The tokenized routing filters one authorization grant implies.

    Numeric clauses route on their KTID cover elements (prefix
    containment becomes token equality at the cover's level, one filter
    per element); grants without KTID covers route on the topic token
    alone -- their fine-grained access control stays where it
    cryptographically lives, in the grant's component keys.  This is the
    subscription-side bridge from "what the KDC authorized" to "what the
    broker network routes on", used by the real-network clients
    (:mod:`repro.rtnet`) and the benchmark drivers.
    """
    filters: list[Filter] = []
    seen: set[Filter] = set()
    for clause_grant in grant.clauses:
        for component in clause_grant.components:
            if not isinstance(component.element, KTID):
                continue
            routing_filter = tokenized_subscription(
                authority, grant.topic, {component.attribute: component.element}
            )
            if routing_filter not in seen:
                seen.add(routing_filter)
                filters.append(routing_filter)
    if not filters:
        filters.append(tokenized_subscription(authority, grant.topic))
    return filters


_TOKEN_PREFIXES = (TOPIC_TOKEN_ATTRIBUTE, ELEMENT_TOKEN_ATTRIBUTE)

#: One compiled constraint: ``(name, probe, None)`` for a tokenized one
#: (*probe* is None when its token is not hex: it can never match) or
#: ``(name, None, constraint)`` for a plaintext one.
_Step = tuple[str, "TokenProbe | None", "Constraint | None"]


def _compile(subscription: Filter) -> tuple[_Step, ...]:
    """Everything about matching *subscription* that no event changes."""
    steps: list[_Step] = []
    for constraint in subscription:
        name = constraint.name
        if not name.startswith(_TOKEN_PREFIXES):
            steps.append((name, None, constraint))
            continue
        try:
            probe = TokenProbe(bytes.fromhex(str(constraint.value)))
        except ValueError:
            probe = None
        steps.append((name, probe, None))
    return tuple(steps)


def _token_matcher() -> Callable[[Filter, Event], bool]:
    """Build :func:`tokenized_match`, with the per-event memo it closes over.

    The predicate keeps what is constant out of the per-call path: a
    filter's compiled steps ride on the filter (``Filter._token_steps``,
    which only this module writes), and the ``(nonce, proof)`` split of
    each routable attribute is kept for as long as calls keep naming the
    same event -- a broker tests one event against many unit filters in
    a row -- and dropped with the first call for another.
    """
    unset = object()
    # (event, its parsed routables), swapped as one tuple: the predicate
    # is shared by every broker of a process, so a dict must never be
    # paired with another thread's event.
    current: tuple[Event | None, dict] = (None, {})

    def tokenized_match(subscription: Filter, event: Event) -> bool:
        """Broker match predicate for tokenized subscriptions and events.

        Subscription constraint values are hex label tokens; event
        attribute values are hex-encoded ``<r, F_T(r)>`` pairs.  A
        constraint matches when ``F_{tok}(r) == match``, checked with the
        constraint's :class:`TokenProbe`.  Non-token constraints fall back
        to plain matching (mixed plaintext/tokenized deployments).
        """
        nonlocal current
        steps = subscription._token_steps
        if steps is None:
            steps = subscription._token_steps = _compile(subscription)
        parsed_of, parsed = current
        if parsed_of is not event:
            parsed = {}
            current = (event, parsed)
        for name, probe, constraint in steps:
            if constraint is not None:
                if not constraint.matches(event):
                    return False
                continue
            pair = parsed.get(name, unset)
            if pair is unset:
                value = event.get(name)
                try:
                    pair = (
                        _split_routable(value)
                        if isinstance(value, str)
                        else None
                    )
                except ValueError:
                    pair = None
                parsed[name] = pair
            if pair is None or probe is None:
                return False
            nonce, proof = pair
            if not probe.matches(nonce, proof):
                return False
        return True

    return tokenized_match


tokenized_match = _token_matcher()


class TokenPRFCache:
    """What is left of a deleted memo of ``F_{tok}(r)``: an empty cache.

    The nonce ``r`` is fresh per event, so the memo could only hit while
    one event was being walked, and it cost more than the keyed PRF it
    saved; brokers now check every proof directly.  ``benchmarks/e2e``
    still reports ``cache.stats()`` as ``routing.prf_cache_hit_ratio``
    (always 0).  ROADMAP item 1 drops that read, and then this class.
    """

    def __init__(self):
        self.cache = LRUCache(1, "token_prf_cache")

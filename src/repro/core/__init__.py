"""PSGuard core: key management by hierarchical key derivation.

PSGuard (Section 3) disassociates keys from subscriber groups: an
*authorization key* ``K(f)`` is attached to a subscription filter and an
*encryption key* ``K(e)`` to an event, both embedded in a common key space
so that ``K(e)`` is efficiently derivable from ``K(f)`` **iff** ``e``
matches ``f``.  Key-management cost is therefore independent of the number
of subscribers.

Key spaces (one per matching type, Section 3 and technical report [1]):

- :mod:`repro.core.nakt` -- numeric attribute key tree (range matching);
- :mod:`repro.core.category` -- category/ontology subsumption matching;
- :mod:`repro.core.strings` -- string prefix/suffix matching;
- :mod:`repro.core.topics` -- plain topic (keyword) matching;
- :mod:`repro.core.composite` -- ``AND``/``OR`` combinations.

Services:

- :mod:`repro.core.kdc` -- the stateless key distribution center with
  epoch-based rekeying and per-publisher topic keys;
- :mod:`repro.core.envelope` -- event sealing/opening (AES-128-CBC);
- :mod:`repro.core.publisher` / :mod:`repro.core.subscriber` -- client
  engines;
- :mod:`repro.core.cache` -- the key cache of Section 3.2.3.
"""

from repro.core.cache import KeyCache
from repro.core.category import CategoryKeySpace, CategoryTree
from repro.core.composite import CompositeKeySpace
from repro.core.envelope import SealedEvent, open_event, seal_event
from repro.core.epochs import AdaptiveEpochPolicy, StaticEpochPolicy
from repro.core.kdc import KDC, AuthorizationGrant
from repro.core.kdcclient import KDCClient
from repro.core.kdcservice import KDCCluster, KDCReplica
from repro.core.ktid import KTID
from repro.core.nakt import NumericKeySpace
from repro.core.publisher import Publisher
from repro.core.renewal import RenewalManager
from repro.core.strings import StringKeySpace
from repro.core.subscriber import Subscriber
from repro.core.topics import TopicKeySpace
from repro.core.wire import (
    decode_grant,
    decode_sealed_event,
    encode_grant,
    encode_sealed_event,
)

__all__ = [
    "KDC",
    "KTID",
    "AdaptiveEpochPolicy",
    "AuthorizationGrant",
    "CategoryKeySpace",
    "CategoryTree",
    "CompositeKeySpace",
    "KDCClient",
    "KDCCluster",
    "KDCReplica",
    "KeyCache",
    "NumericKeySpace",
    "Publisher",
    "RenewalManager",
    "SealedEvent",
    "StaticEpochPolicy",
    "StringKeySpace",
    "Subscriber",
    "TopicKeySpace",
    "decode_grant",
    "decode_sealed_event",
    "encode_grant",
    "encode_sealed_event",
    "open_event",
    "seal_event",
]

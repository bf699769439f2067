"""Cache-aware key derivation walks.

Implements the optimization of Section 3.2.3: every intermediate key
computed while walking a key tree is cached, and later derivations start
from the *deepest cached ancestor* of their target instead of from the
authorization key.

All key spaces share one path vocabulary so their entries coexist in one
:class:`~repro.core.cache.KeyCache`:

- numeric trees contribute integer branch digits,
- category trees contribute label strings,
- string tries contribute characters plus the terminator marker.

Entries are namespaced by ``(topic, attribute, key-fingerprint)`` so keys
from different topics, attributes or epochs can never be confused.
"""

from __future__ import annotations

from typing import Hashable, Sequence

from repro.crypto.hashes import H
from repro.core.cache import KeyCache
from repro.core.category import CategoryKeySpace
from repro.core.ktid import KTID
from repro.core.nakt import NumericKeySpace
from repro.core.strings import StringKeySpace

#: Terminator path element for string-space event values.
STRING_END = "\x00end"

PathPart = Hashable


def derivation_step(key: bytes, part: PathPart) -> bytes:
    """One downward derivation step ``H(key || branch)``.

    Integer parts are tree digits (numeric key trees); string parts are
    labels/characters (category trees and string tries).  The walk
    itself derives through :meth:`~repro.core.cache.KeyCache.descend`;
    this is the one-step reference it is tested against.
    """
    if isinstance(part, int):
        return H(key + bytes([part]))
    if isinstance(part, str):
        return H(key + part.encode("utf-8"))
    raise TypeError(f"unsupported path part {part!r}")


def cache_namespace(
    topic: str, attribute: str, scope: Hashable
) -> tuple[PathPart, ...]:
    """Cache namespace for one attribute tree within one epoch.

    *scope* names the key tree the walk descends: publishers pass their
    topic key (a 4-byte fingerprint of it is kept), subscribers their
    grant's epoch and a fingerprint of the granted key, so two trees that
    share topic, attribute and epoch -- per-publisher topic keys -- never
    share an entry.
    """
    if isinstance(scope, (bytes, bytearray)):
        scope = bytes(scope[:4])
    return ("ns", topic, attribute, scope)


def element_path(space: object, element: object) -> tuple[PathPart, ...]:
    """Root-relative path of a *granted* key-space element."""
    if isinstance(space, NumericKeySpace):
        if not isinstance(element, KTID):
            raise TypeError("numeric elements are KTIDs")
        return tuple(element.digits)
    if isinstance(space, CategoryKeySpace):
        return tuple(space.tree.path(space.tree.label_of(str(element))))
    if isinstance(space, StringKeySpace):
        pattern = str(element)
        canonical = pattern[::-1] if space.suffix_mode else pattern
        return tuple(canonical)
    raise TypeError(f"unknown key space type {type(space).__name__}")


def value_path(space: object, value: object) -> tuple[PathPart, ...]:
    """Root-relative path of an *event value*'s leaf key."""
    if isinstance(space, NumericKeySpace):
        if isinstance(value, KTID):
            return tuple(value.digits)
        return tuple(space.ktid(value).digits)
    if isinstance(space, CategoryKeySpace):
        return tuple(space.tree.path(space.tree.label_of(str(value))))
    if isinstance(space, StringKeySpace):
        text = str(value)
        canonical = text[::-1] if space.suffix_mode else text
        return tuple(canonical) + (STRING_END,)
    raise TypeError(f"unknown key space type {type(space).__name__}")


def cached_walk(
    cache: KeyCache | None,
    namespace: tuple[PathPart, ...],
    start_parts: Sequence[PathPart],
    start_key: bytes,
    target_parts: Sequence[PathPart],
) -> tuple[bytes, int]:
    """Derive the key at *target_parts* starting at *start_parts*.

    ``start_parts`` must be a prefix of ``target_parts`` (both
    root-relative).  When a cache is supplied, the walk starts from the
    deepest cached ancestor at or below the start, and every intermediate
    key is cached on the way down.  Returns ``(key, hash_operations)``.

    Cost is one ``H`` per level below that ancestor plus constant cache
    bookkeeping per level: :meth:`~repro.core.cache.KeyCache.descend`
    hashes and inserts each level in one loop, never re-pricing a path,
    so a hash the cache saves is not spent on the cache instead.
    """
    start = tuple(start_parts)
    target = tuple(target_parts)
    if target[: len(start)] != start:
        raise ValueError(
            f"start path {start!r} is not a prefix of target {target!r}"
        )
    if cache is None:
        cache = KeyCache(0)  # derives every level and keeps none
    return cache.descend(
        namespace + target, len(namespace) + len(start), start_key
    )

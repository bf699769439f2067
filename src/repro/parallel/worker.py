"""Worker-process entry points for the parallel execution layer.

Everything here runs inside :class:`concurrent.futures.ProcessPoolExecutor`
workers.  The matcher protocol is *initializer + stateless tasks*: a pool
cannot route a task to a chosen worker, so every worker is initialized
with the FULL filter table (one decode per pool build, amortized over
every subsequent chunk) and each task names the *shard* it evaluates --
the subset of topic pins and unpinned constraints that
:func:`repro.parallel.wire.shard_of` assigns to that shard index.  Any
worker can serve any shard; the parent fans one task out per
``(shard, chunk)`` pair and unions the results.

Workers return *verdicts*, not routing decisions, and exactly the ones
the broker walk reads (:meth:`repro.siena.broker.Broker._matching_entries`):
unit-filter verdicts for the topic pins probed, for the remaining
constraints of the verified pin's bucket, and for the constraints of the
shard's unpinned filters.  The parent seeds the shared
:class:`~repro.siena.index.MatchResultCache` with them, and the normal
(serial, semantics-bearing) broker walk then runs entirely on cache hits
-- which is how the parallel path stays bit-exact with the serial one:
the dissemination code path never changes, only where the pure match
verdicts get computed.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.crypto.prf import F
from repro.core.envelope import SealedEvent, open_event, seal_event
from repro.parallel.wire import decode_events, decode_filters, shard_of
from repro.routing.tokens import TokenPRFCache, cached_tokenized_match
from repro.siena.broker import split_units
from repro.siena.events import Event
from repro.siena.filters import Filter

#: One verdict bundle per event: (index of the verified pin's unit or
#: None, [(unit index, verdict)]), indexes into :attr:`UnitTable.units`.
MatchVerdicts = tuple["int | None", list[tuple[int, bool]]]


class UnitTable:
    """The distinct unit filters of a filter table, bucketed as a broker
    buckets them (:func:`repro.siena.broker.split_units`).

    Parent and workers each build one from the same wire-decoded table,
    so a unit's index means the same filter on both sides.
    """

    def __init__(self, filters: list[Filter]):
        self.units: list[Filter] = []
        #: pin unit index -> distinct unit indexes of the remaining
        #: constraints of the filters carrying that pin
        self.buckets: dict[int, list[int]] = {}
        #: distinct unit indexes of the filters without a topic pin
        self.unpinned: list[int] = []
        self._index_of: dict[Filter, int] = {}
        for subscription_filter in filters:
            pin, rest = split_units(subscription_filter)
            if pin is None:
                target = self.unpinned
            else:
                target = self.buckets.setdefault(self._intern(pin), [])
            for unit in rest:
                index = self._intern(unit)
                if index not in target:
                    target.append(index)

    def _intern(self, unit: Filter) -> int:
        index = self._index_of.get(unit)
        if index is None:
            index = self._index_of[unit] = len(self.units)
            self.units.append(unit)
        return index

    def pin_value(self, pin_index: int) -> str:
        return self.units[pin_index].constraints[0].value


class _WorkerState:
    """Per-process matcher state built once by :func:`init_matcher`."""

    def __init__(self, filters: list[Filter], shards: int, match_mode: str):
        self.table = table = UnitTable(filters)
        #: shard -> pin unit indexes it owns, in table order
        self.pins: dict[int, list[int]] = {}
        for pin_index in table.buckets:
            shard = shard_of(table.pin_value(pin_index), shards)
            self.pins.setdefault(shard, []).append(pin_index)
        #: shard -> unit indexes of unpinned filters it owns
        self.unpinned: dict[int, list[int]] = {}
        for index in table.unpinned:
            shard = shard_of(table.units[index].to_bytes(), shards)
            self.unpinned.setdefault(shard, []).append(index)
        if match_mode == "tokenized":
            self.match: Callable[[Filter, Event], bool] = (
                cached_tokenized_match(TokenPRFCache())
            )
        elif match_mode == "plain":
            self.match = lambda f, e: f.matches(e)
        else:
            raise ValueError(f"unknown match mode {match_mode!r}")


_STATE: _WorkerState | None = None


def init_matcher(filters_wire: bytes, shards: int, match_mode: str) -> None:
    """Pool initializer: decode the filter table, derive shard ownership."""
    global _STATE
    _STATE = _WorkerState(decode_filters(filters_wire), shards, match_mode)


def match_chunk(
    shard: int, events_wire: bytes
) -> tuple[float, list[MatchVerdicts]]:
    """Evaluate one shard's unit filters against one chunk of events.

    Per event: probe the shard's topic pins, stopping at the first
    verified one (an event verifies under at most one pin, and the
    parent's topic-group memo makes the unprobed rest unreachable), then
    the remaining units of that pin's bucket and every unpinned unit the
    shard owns.  Returns worker busy seconds plus the per-event verdict
    bundles.
    """
    state = _STATE
    if state is None:  # pragma: no cover - initializer always ran
        raise RuntimeError("worker used before init_matcher")
    started = time.perf_counter()
    events = decode_events(events_wire)
    units, buckets, match = state.table.units, state.table.buckets, state.match
    owned_pins = state.pins.get(shard, ())
    owned_unpinned = state.unpinned.get(shard, ())
    results: list[MatchVerdicts] = []
    for event in events:
        verified: int | None = None
        to_test = []
        verdicts: list[tuple[int, bool]] = []
        for pin_index in owned_pins:
            ok = match(units[pin_index], event)
            verdicts.append((pin_index, ok))
            if ok:
                verified = pin_index
                to_test += buckets[pin_index]
                break
        to_test += owned_unpinned
        for index in to_test:
            verdicts.append((index, match(units[index], event)))
        results.append((verified, verdicts))
    return time.perf_counter() - started, results


# -- crypto offload tasks -------------------------------------------------------

def prf_chunk(
    pairs: list[tuple[bytes, bytes]]
) -> tuple[float, list[bytes]]:
    """``F(token, nonce)`` for each pair (token-proof evaluation)."""
    started = time.perf_counter()
    proofs = [F(token, nonce) for token, nonce in pairs]
    return time.perf_counter() - started, proofs


def seal_chunk(jobs: list[tuple]) -> tuple[float, list[bytes]]:
    """Seal a chunk of events; results travel back in wire form.

    Each job is ``(event, schema, topic_key, secret_attributes,
    extra_lock_subsets)`` exactly as :func:`repro.core.envelope.seal_event`
    takes them.
    """
    started = time.perf_counter()
    sealed_wire = []
    for event, schema, topic_key, secret_attributes, extra in jobs:
        sealed = seal_event(
            event, schema, topic_key, set(secret_attributes), extra
        )
        sealed_wire.append(sealed.to_bytes())
    return time.perf_counter() - started, sealed_wire


def open_chunk(jobs: list[tuple]) -> tuple[float, list]:
    """Open a chunk of sealed events (wire form in, OpenResult out).

    Each job is ``(sealed_wire, schema, component_keys, hash_operations)``;
    an unsatisfiable or corrupt envelope yields ``None`` in its slot
    instead of failing the whole chunk.
    """
    started = time.perf_counter()
    results = []
    for sealed_wire, schema, component_keys, hash_operations in jobs:
        try:
            sealed = SealedEvent.from_bytes(sealed_wire)
            results.append(
                open_event(sealed, schema, component_keys, hash_operations)
            )
        except ValueError:
            results.append(None)
    return time.perf_counter() - started, results

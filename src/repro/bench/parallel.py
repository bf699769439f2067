"""The ``repro bench --suite parallel`` speedup ladder.

Runs the reference Zipf workload through the **legacy per-event serial
path** once (``BrokerTree.publish`` per event, uncached tokenized match
-- the same baseline as the engine suite), then climbs a worker ladder:
each rung runs the batched engine with the sharded parallel matcher
bound to the tree (workers prime the shared match cache ahead of the
serial broker walk) and the crypto pool batching token-PRF proofs.

The 1-worker rung deliberately exercises the serial-fallback path --
``ParallelPolicy(workers=1)`` never spawns a pool, so its numbers show
the cost of threading the policy through unconditionally.  Every rung's
per-subscriber plaintext delivery streams are checked against the serial
run before any number is reported (bit-exact dissemination is covered
separately by the equivalence test suite).

A note on the speedup semantics: rung speedups are measured against the
*legacy serial path on the same hardware in the same run*, so the ratio
folds together batching, memoization, and parallel priming.  On a
many-core host the priming offload adds real wall-clock wins on top of
the engine's batching gains; on a single-core runner it degrades to
engine-level performance minus pool overhead.  The regression gate
(:func:`check_parallel_regression`) therefore compares rung-for-rung
against the committed baseline document rather than against an absolute
core-count curve.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import Callable

from repro.bench.driver import (
    _SEQ,
    BenchConfig,
    _BenchFixture,
    _PathResult,
    _run_path,
    _streams_equal,
    _wire_subscribers,
)
from repro.core.ktid import KTID
from repro.core.publisher import Publisher
from repro.engine import DisseminationEngine, EngineCaches, EngineConfig
from repro.obs.metrics import MetricsRegistry
from repro.parallel import CryptoPool, ParallelPolicy, ShardedMatcher
from repro.routing.tokens import tokenize_event_batch
from repro.siena.network import BrokerTree

BENCH_PARALLEL_SCHEMA = "repro.bench/parallel.v1"


@dataclass(frozen=True)
class ParallelBenchConfig:
    """Workload shape for the parallel ladder; defaults match the engine
    suite's reference load so numbers are comparable across suites."""

    seed: int = 7
    events: int = 400
    num_brokers: int = 15
    arity: int = 2
    num_subscribers: int = 16
    num_topics: int = 32
    topics_per_subscriber: int = 8
    message_bytes: int = 64
    batch_size: int = 32
    chunk_size: int = 64
    worker_ladder: tuple[int, ...] = (1, 2, 4, 8)

    def __post_init__(self) -> None:
        if self.events < 1:
            raise ValueError("need at least one event")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be positive")
        if not self.worker_ladder:
            raise ValueError("the worker ladder needs at least one rung")
        if any(workers < 1 for workers in self.worker_ladder):
            raise ValueError("every ladder rung needs at least one worker")

    def bench_config(self) -> BenchConfig:
        """The equivalent engine-suite config (shared fixture shape)."""
        return BenchConfig(
            seed=self.seed,
            events=self.events,
            num_brokers=self.num_brokers,
            arity=self.arity,
            num_subscribers=self.num_subscribers,
            num_topics=self.num_topics,
            topics_per_subscriber=self.topics_per_subscriber,
            message_bytes=self.message_bytes,
            batch_size=self.batch_size,
        )


def _run_parallel_path(
    fixture: _BenchFixture,
    label: str,
    config: ParallelBenchConfig,
    workers: int,
    registry: MetricsRegistry | None = None,
    clock: Callable[[], float] = time.perf_counter,
) -> _PathResult:
    """One ladder rung: engine + caches + sharded matcher + crypto pool."""
    caches = EngineCaches(
        EngineConfig(batch_size=config.batch_size), registry
    )
    authority = caches.token_authority(fixture.master_key)
    tree = BrokerTree(
        num_brokers=fixture.config.num_brokers,
        arity=fixture.config.arity,
        match=caches.tokenized_match(),
        registry=registry,
        match_cache=caches.match_results,
    )
    policy = ParallelPolicy(workers=workers, chunk_size=config.chunk_size)
    matcher = ShardedMatcher(policy, match="tokenized", registry=registry)
    crypto = CryptoPool(policy, registry=registry)
    tree.bind_parallel(matcher)

    result = _PathResult(label, 0.0, len(fixture.events), 0, 0, 0, [], {})
    sealed_by_seq: dict[int, tuple] = {}
    endpoints = _wire_subscribers(
        tree, fixture, authority, result, sealed_by_seq, clock
    )

    publisher = Publisher(f"bench-{label}", fixture.kdc)
    engine = DisseminationEngine(
        tree,
        EngineConfig(batch_size=config.batch_size),
        registry,
        parallel=matcher,
    )

    def flush(pending: list[tuple]) -> None:
        for tokenized in tokenize_event_batch(
            authority, pending, prf=crypto.prf_batch
        ):
            engine.publish(tokenized)
        pending.clear()

    try:
        started = clock()
        pending: list[tuple] = []
        for seq, (topic, event) in enumerate(fixture.events):
            published_at = clock()
            sealed = publisher.publish(event)
            sealed_by_seq[seq] = (sealed, published_at)
            elements = {
                attribute: element
                for attribute, element in sealed.elements.items()
                if isinstance(element, KTID)
            }
            routable = sealed.routable.with_attributes(**{_SEQ: seq})
            pending.append((routable, elements, topic.name))
            if len(pending) >= config.batch_size:
                flush(pending)
        if pending:
            flush(pending)
        engine.close()
        result.wall_s = clock() - started
    finally:
        matcher.close()
        crypto.close()

    result.caches = caches.stats()
    result.caches["token_authority"] = authority.cache.stats()
    result.caches["parallel"] = matcher.stats()
    result.caches["crypto_pool"] = crypto.stats()
    del endpoints
    return result


def run_parallel_bench(
    config: ParallelBenchConfig = ParallelBenchConfig(),
    registry: MetricsRegistry | None = None,
    clock: Callable[[], float] = time.perf_counter,
) -> dict:
    """Serial baseline + worker ladder; returns the report document."""
    fixture = _BenchFixture(config.bench_config())
    serial = _run_path(fixture, "serial", None, clock=clock)

    ladder: list[dict] = []
    for workers in config.worker_ladder:
        run = _run_parallel_path(
            fixture, f"parallel-w{workers}", config, workers,
            registry, clock=clock,
        )
        ladder.append(
            {
                "workers": workers,
                "events_per_sec": run.events_per_sec,
                "wall_s": run.wall_s,
                "speedup": run.events_per_sec / serial.events_per_sec,
                "equivalent": _streams_equal(serial, run),
                "latency_s": run.latency_summary(),
                "parallel": run.caches.get("parallel", {}),
                "crypto_pool": run.caches.get("crypto_pool", {}),
                "caches": {
                    name: stats
                    for name, stats in run.caches.items()
                    if name in ("token_prf", "match_results",
                                "token_authority")
                },
            }
        )

    headline = next(
        (rung for rung in ladder if rung["workers"] == 4), ladder[-1]
    )
    return {
        "schema": BENCH_PARALLEL_SCHEMA,
        "config": asdict(config),
        "serial": serial.report(),
        "ladder": ladder,
        "headline": {
            "workers": headline["workers"],
            "events_per_sec": headline["events_per_sec"],
            "speedup": headline["speedup"],
        },
        "equivalence": {
            "checked": True,
            "holds": all(rung["equivalent"] for rung in ladder),
            "subscribers": len(serial.streams),
            "deliveries": serial.deliveries,
        },
    }


def check_parallel_regression(
    report: dict, baseline: dict, tolerance: float = 0.25
) -> list[str]:
    """Compare a fresh parallel *report* against a committed *baseline*.

    Returns a list of human-readable problems (empty = pass):

    - the serial-vs-parallel delivery equivalence must hold;
    - every ladder rung present in both documents must keep its speedup
      within *tolerance* of the committed speedup (machine-independent:
      both paths ran on the same hardware);
    - the headline throughput must clear the committed events/sec with
      *tolerance* plus a 2x hardware-variance allowance (the backstop
      against pipeline-wide collapses that leave ratios intact).
    """
    if not 0 <= tolerance < 1:
        raise ValueError("tolerance must be within [0, 1)")
    problems: list[str] = []
    if report.get("schema") != baseline.get("schema"):
        problems.append(
            f"schema mismatch: report {report.get('schema')!r} "
            f"vs baseline {baseline.get('schema')!r}"
        )
        return problems
    if not report["equivalence"]["holds"]:
        problems.append(
            "parallel deliveries diverge from the serial path"
        )

    committed_by_workers = {
        rung["workers"]: rung for rung in baseline.get("ladder", [])
    }
    for rung in report.get("ladder", []):
        committed = committed_by_workers.get(rung["workers"])
        if committed is None:
            continue
        floor = committed["speedup"] * (1 - tolerance)
        if rung["speedup"] < floor:
            problems.append(
                f"w={rung['workers']} speedup regression: "
                f"{rung['speedup']:.2f}x < {floor:.2f}x "
                f"(baseline {committed['speedup']:.2f}x - {tolerance:.0%})"
            )

    headline = report.get("headline", {})
    committed_headline = baseline.get("headline", {})
    if committed_headline:
        floor_throughput = (
            committed_headline["events_per_sec"] * (1 - tolerance) / 2
        )
        if headline.get("events_per_sec", 0.0) < floor_throughput:
            problems.append(
                f"headline throughput regression: "
                f"{headline.get('events_per_sec', 0.0):.0f} ev/s < "
                f"{floor_throughput:.0f} ev/s "
                f"(baseline {committed_headline['events_per_sec']:.0f} - "
                f"{tolerance:.0%}, /2 hardware allowance)"
            )
    return problems


def render_parallel_report(report: dict) -> str:
    """Human-readable ladder printed by ``repro bench --suite parallel``."""
    serial = report["serial"]
    lines = [
        "bench: parallel ladder vs per-event serial path "
        f"(seed={report['config']['seed']}, "
        f"events={report['config']['events']}, "
        f"brokers={report['config']['num_brokers']}, "
        f"batch={report['config']['batch_size']})",
        f"  serial   : {serial['events_per_sec']:9.1f} ev/s",
    ]
    for rung in report["ladder"]:
        stats = rung.get("parallel", {})
        lines.append(
            f"  w={rung['workers']:<2}     : "
            f"{rung['events_per_sec']:9.1f} ev/s   "
            f"{rung['speedup']:5.2f}x   "
            f"primed={stats.get('primed_verdicts', 0):<6} "
            f"tasks={stats.get('tasks', 0):<4} "
            f"fallbacks={stats.get('serial_fallbacks', 0)}"
        )
    lines.append(
        "  equivalence: "
        + ("ok" if report["equivalence"]["holds"] else "DIVERGED")
        + f" ({report['equivalence']['deliveries']} deliveries to "
        f"{report['equivalence']['subscribers']} subscribers)"
    )
    return "\n".join(lines)

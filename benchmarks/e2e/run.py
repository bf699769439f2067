#!/usr/bin/env python3
"""The PSGuard end-to-end benchmark: one command, five workloads.

``python3 benchmarks/e2e/run.py --seed 7`` runs every workload in a
fresh child process, checks each against the plaintext oracle and prints
every metric by name with its unit; ``--trace`` adds the per-layer pass.
``--workload NAME`` runs one workload in this process and prints, as the
last line of standard output, the JSON object ``BENCHMARK.json``'s
contract asks for (``--trace 0``: end-to-end metrics, ``--trace 1``:
per-layer metrics).  See ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
sys.path.insert(0, str(ROOT / "src"))

try:
    import repro  # noqa: F401
except ImportError:
    sys.exit(
        f"run.py: cannot import the repro package from {ROOT / 'src'}; "
        "run it from a checkout of the repository"
    )

from fixture import Fixture, Shape, Verdict, ktid_elements  # noqa: E402
from inproc import BATCH, InprocSystem  # noqa: E402
from live import PACED_RATE, LiveSystem, PeakRegistry  # noqa: E402
from metrics import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402
from stats import percentile, summary  # noqa: E402
from tracing import Tracer, budget_table  # noqa: E402

#: A run's ``--seconds`` are cut into ``Spec.slices`` slices: warm-up
#: slices until ``WARM_EVENTS`` publications have gone through (at most
#: this share of them), then every remaining slice is one timed repeat.
MAX_WARM_SHARE = 0.4
#: Every subscriber's duplicate-suppression window (1024 sequence
#: numbers) has filled and evicts from here on; until then each event is
#: cheaper than in the steady state, by a sixth on ``inproc-keys``.
WARM_EVENTS = 1100
MIN_SETUPS, MAX_SETUPS = 3, 7
QUICK_SCALE = 10
#: live-paced: a repeat whose generator ran later than this at its 99th
#: percentile (a quarter of the send gap) did not offer the stated load.
LATE_LIMIT_MS = 0.25e3 / PACED_RATE


@dataclass(frozen=True)
class Spec:
    """How one named workload is built and driven."""

    shape: Shape
    kind: str  # "inproc" | "paced" | "saturate"
    churn: bool = False
    #: 0.45-s slices at the default run length: short slices find the
    #: gaps between a busy neighbour's spells on the host (which cost the
    #: open loop, idling between sends, up to half again the CPU per
    #: event).  Workloads whose slice would then hold under three engine
    #: batches, or mostly window ramp-up, take 0.9-s slices.
    slices: int = 40

    @property
    def live(self) -> bool:
        return self.kind != "inproc"


_TREE_7 = dict(num_topics=16, num_subscribers=4, topics_per_subscriber=8,
               num_brokers=7, message_bytes=64, pool_events=4096)
SPECS = {
    "live-paced": Spec(Shape(**_TREE_7), "paced"),
    "live-saturate": Spec(Shape(**_TREE_7), "saturate", slices=20),
    "inproc-match": Spec(
        Shape(num_topics=32, num_subscribers=64, topics_per_subscriber=8,
              num_brokers=15, message_bytes=64, pool_events=4096),
        "inproc",
    ),
    "inproc-keys": Spec(
        Shape(num_topics=4, num_subscribers=24, topics_per_subscriber=1,
              num_brokers=1, message_bytes=16384, pool_events=1024,
              numeric_range=2 ** 20, deep_numeric_only=True),
        "inproc",
        slices=20,
    ),
    # Sized so that a leave costs milliseconds: the seed's unsubscribe
    # re-derives the covering set quadratically at every broker on the
    # path, and at inproc-match's population one leave takes ~20 s.
    "churn": Spec(
        Shape(num_topics=8, num_subscribers=8, topics_per_subscriber=2,
              num_brokers=7, message_bytes=64, pool_events=4096,
              epoch_length=640.0),
        "inproc",
        churn=True,
    ),
}
assert set(SPECS) == set(WORKLOADS)


# -- building and driving one system ---------------------------------------


async def build(spec: Spec, fixture: Fixture, tracer=None, registry=None):
    if not spec.live:
        return InprocSystem(fixture, churn=spec.churn, tracer=tracer)
    system = LiveSystem(fixture, tracer=tracer, registry=registry)
    await system.start()
    return system


async def teardown(spec: Spec, system) -> None:
    if spec.live:
        await system.stop()


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children, so
    work moved into a pool or a thread stays visible (``os.times`` has
    the same fields at a hundredth of a second)."""
    return sum(
        usage.ru_utime + usage.ru_stime
        for usage in map(
            resource.getrusage,
            (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN),
        )
    )


async def run_repeat(spec: Spec, system, seconds: float, expected) -> dict:
    """One repeat, with process CPU and the oracle's verdict attached."""
    before = cpu_seconds()
    if spec.kind == "inproc":
        result = system.run_repeat(seconds)
    elif spec.kind == "paced":
        result = await system.run_paced(seconds, expected)
    else:
        result = await system.run_saturate(seconds, expected)
    result["cpu_s"] = cpu_seconds() - before
    result["verdict"] = system.ledger.check()
    return result


def repeat_metrics(result: dict) -> dict:
    """The end-to-end numbers of one repeat."""
    latencies = result["latencies_s"]
    metrics = {
        "events_per_s": result["events"] / result["wall_s"],
        "latency_p50_ms": percentile(latencies, 0.50) * 1e3,
        "latency_p99_ms": percentile(latencies, 0.99) * 1e3,
        "cpu_us_per_event": result["cpu_s"] / result["events"] * 1e6,
    }
    if "lateness_s" in result:
        metrics["late_p99_ms"] = percentile(result["lateness_s"], 0.99) * 1e3
    return metrics


def join_percentiles(samples: list[list[float]]) -> dict:
    """Median over repeats of each repeat's join p50 / p95, in ms."""
    return {
        f"join_p{share}_ms": statistics.median(
            percentile(sample, share / 100) * 1e3 for sample in samples
        )
        for share in (50, 95)
    }


def steadiest(name: str, values: list[float]) -> float:
    """The repeat least slowed by the host, for metric *name*.

    This host's speed wanders by a fifth over seconds, and only ever
    downwards from its best; the fastest repeat is what the code can do
    and repeats exactly where the median of repeats does not.  The
    median and quartiles over repeats are reported beside it.
    """
    better = PER_LAYER[name][1] if name in PER_LAYER else END_TO_END[name][1]
    return max(values) if better == "higher" else min(values)


# -- the untraced run: end-to-end metrics ----------------------------------


async def measure(spec: Spec, seed: int, seconds: float, quick: bool) -> dict:
    setup_times, system, fixture = [], None, None
    # Three set-ups, or up to seven while they are cheap (under a second
    # in all): a 70-ms set-up needs more than three for a steady median.
    while not setup_times or (not quick and (
        len(setup_times) < MIN_SETUPS
        or len(setup_times) < MAX_SETUPS and sum(setup_times) < 1.0
    )):
        if system is not None:
            await teardown(spec, system)
        gc.collect()
        started = perf_counter()
        fixture = Fixture(spec.shape, seed)
        system = await build(spec, fixture)
        setup_times.append(perf_counter() - started)
    setup_joins = list(system.join_latencies)
    expected = fixture.expected_openers()
    try:
        total = Verdict()
        slice_s, events, warm_slices = seconds / spec.slices, 0, 0
        warm_events = WARM_EVENTS // (QUICK_SCALE if quick else 1)
        while warm_slices < spec.slices * MAX_WARM_SHARE and (
            events < warm_events or not warm_slices
        ):
            warm = await run_repeat(spec, system, slice_s, expected)
            total += warm["verdict"]
            events += warm["events"]
            warm_slices += 1
        repeats, joins = [], []
        for _ in range(spec.slices - warm_slices):
            result = await run_repeat(spec, system, slice_s, expected)
            total += result["verdict"]
            events += result["events"]
            repeats.append(repeat_metrics(result))
            joins.append(result.get("join_latencies_s") or setup_joins)
    finally:
        await teardown(spec, system)

    extras = {
        **join_percentiles(joins),
        "failed_share": total.failed / max(1, total.expected),
    }
    if spec.kind == "paced":
        # A repeat whose generator ran late is invalid, not a number; a
        # host too restless to leave three valid ones is reported as such
        # and judged on its three least-late repeats.
        valid = [r for r in repeats if r["late_p99_ms"] < LATE_LIMIT_MS]
        extras["loadgen.late_p99_ms"] = statistics.median(
            r["late_p99_ms"] for r in repeats
        )
        extras["loadgen.invalid_repeats"] = len(repeats) - len(valid)
        repeats = valid if len(valid) >= 3 else sorted(
            repeats, key=lambda r: r["late_p99_ms"]
        )[:3]
    columns = {name: [r[name] for r in repeats] for name in repeats[0]}
    values = {
        name: steadiest(name, columns[name])
        for name in END_TO_END if name in columns
    }
    values["setup_s"] = statistics.median(setup_times)
    values["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    )
    extras["latency_p99_ms"] = steadiest(
        "latency_p99_ms", columns["latency_p99_ms"]
    )
    return {
        "values": values,
        "extras": extras,
        "repeats": {
            **{name: summary(column) for name, column in columns.items()},
            "setup_s": summary(setup_times),
        },
        "columns": {**columns, "setup_s": setup_times},
        "join_samples": min(len(sample) for sample in joins),
        "warm_slices": warm_slices,
        "verdict": vars(total),
        "attempted": max(1, total.expected),
        "failed": total.failed,
        "events": events,
    }


# -- the traced run: per-layer metrics -------------------------------------


def microbench(call, number: int, rounds: int = 5) -> float:
    """Seconds per call: fastest of *rounds* loops of *number* calls."""
    best = float("inf")
    for _ in range(rounds):
        started = perf_counter()
        for _ in range(number):
            call()
        best = min(best, (perf_counter() - started) / number)
    return best


def crypto_layer() -> dict:
    from repro.crypto import cipher
    from repro.crypto.prf import F

    key, block = bytes(range(16)), os.urandom(16 * 1024)
    sealed = cipher.encrypt(key, block)
    megabytes = len(block) / 1e6
    return {
        "crypto.aes_encrypt_mb_per_s":
            megabytes / microbench(lambda: cipher.encrypt(key, block), 200),
        "crypto.aes_decrypt_mb_per_s":
            megabytes / microbench(lambda: cipher.decrypt(key, sealed), 200),
        "crypto.prf_us": microbench(lambda: F(key, block[:16]), 5000) * 1e6,
    }


def replay_codecs(fixture: Fixture, sample: int = 200) -> dict:
    """One event at a time through every stage, sockets left out.

    The wire and frame codecs are only reachable inside ``src`` on the
    live path, so their cost is measured here, on the same events: seal
    -> tokenize -> PSE2 encode -> frame encode -> frame decode -> PSE2
    decode -> receive, each call timed on its own.
    """
    from dataclasses import replace as with_fields

    from repro.core.publisher import Publisher
    from repro.core.subscriber import Subscriber
    from repro.core.wire import decode_sealed_event, encode_sealed_event
    from repro.routing.tokens import TokenAuthority, tokenize_event
    from repro.rtnet.frames import EventFrame, FrameDecoder, encode_frame

    publisher = Publisher("replay", fixture.kdc)
    authority = TokenAuthority(fixture.master_key)
    member = fixture.residents[0]
    subscriber = Subscriber(member.subscriber_id, dedup_window=0)
    for plaintext_filter in member.filters:
        subscriber.add_grant(
            fixture.kdc.authorize(member.subscriber_id, plaintext_filter)
        )
    decoder = FrameDecoder()
    stages: dict[str, list[float]] = {}
    sizes = {"wire": [], "frame": []}

    def timed(stage, call, *args):
        started = perf_counter()
        result = call(*args)
        stages.setdefault(stage, []).append(perf_counter() - started)
        return result

    for event in fixture.pool[:sample]:
        topic = event["topic"]
        sealed = timed("seal", publisher.publish, event)
        tokenized = timed(
            "tokenize", tokenize_event, authority, sealed.routable,
            ktid_elements(sealed), topic,
        )
        payload = timed(
            "wire_encode", encode_sealed_event,
            with_fields(sealed, routable=tokenized),
        )
        framed = timed("frame_encode", encode_frame, EventFrame(0, 0.0, payload))
        (frame,) = timed("frame_decode", decoder.feed, framed)
        decoded = timed("wire_decode", decode_sealed_event, frame.payload)
        # What RtSubscriber does after resolving the topic token.
        readable = with_fields(
            decoded, routable=decoded.routable.with_attributes(topic=topic)
        )
        started = perf_counter()
        opened = subscriber.receive(readable, fixture.schema_lookup)
        stages.setdefault(
            "open" if opened is not None else "reject", []
        ).append(perf_counter() - started)
        sizes["wire"].append(len(payload))
        sizes["frame"].append(len(framed))
    medians = {
        stage: statistics.median(samples) * 1e6
        for stage, samples in stages.items()
    }
    return {
        "core.seal_us": medians["seal"],
        "routing.tokenize_us": medians["tokenize"],
        "core.wire_encode_us": medians["wire_encode"],
        "core.wire_decode_us": medians["wire_decode"],
        "core.wire_bytes_per_event": statistics.mean(sizes["wire"]),
        "rtnet.frame_encode_us": medians["frame_encode"],
        "rtnet.frame_decode_us": medians["frame_decode"],
        "rtnet.frame_bytes_per_event": statistics.mean(sizes["frame"]),
        "core.open_us": medians.get("open", 0.0),
        "core.reject_us": medians.get("reject", 0.0),
    }


async def settle_rtt_ms(system: LiveSystem, rounds: int = 20) -> float:
    endpoint = system.joined[0][1]
    samples = []
    for _ in range(rounds):
        started = perf_counter()
        await endpoint.settle()
        samples.append(perf_counter() - started)
    return statistics.median(samples) * 1e3


def registry_layer(registry: PeakRegistry, depth: int, events: int) -> dict:
    """What the live cluster's own metrics say; they count from cluster
    start, so *events* is everything the traced system published."""
    frames_out = sum(
        counter.value
        for counter in registry.series("rtnet_frames_total")
        if dict(counter.labels).get("direction") == "out"
        and dict(counter.labels).get("type") == "event"
    )
    relay = [
        histogram.quantile(0.5)
        for histogram in registry.series("rtnet_relay_latency_seconds")
        if histogram.count
    ]
    return {
        "rtnet.frames_out_per_event": frames_out / events,
        # A broker observes now - sent_at, cumulative from the publisher;
        # the deepest brokers see the largest, over depth + 1 hops.
        "rtnet.hop_ms_p50": (max(relay) / (depth + 1) * 1e3) if relay else 0.0,
        "rtnet.ingress_depth_max": max(
            (gauge.peak for gauge in registry.series("rtnet_ingress_depth")),
            default=0.0,
        ),
        "flow.shed_total": registry.total("flow_shed_total"),
        "flow.egress_depth_max": max(
            (gauge.value
             for gauge in registry.series("flow_queue_peak_depth")),
            default=0.0,
        ),
    }


async def trace(
    spec: Spec, name: str, seed: int, seconds: float, quick: bool
) -> dict:
    layers = dict.fromkeys(PER_LAYER, 0.0)
    layers.update(crypto_layer())
    fixture = Fixture(spec.shape, seed)
    expected = fixture.expected_openers()
    layers.update(replay_codecs(fixture, 40 if quick else 200))
    phase = seconds / 2

    async def two_repeats(system) -> tuple[list[dict], Verdict]:
        verdict = Verdict()
        warm = await run_repeat(spec, system, phase * 0.2, expected)
        verdict += warm["verdict"]
        if system.tracer is not None:
            system.tracer.spans.clear()
        results = []
        for _ in range(2):
            results.append(
                await run_repeat(spec, system, phase * 0.4, expected)
            )
            verdict += results[-1]["verdict"]
        return results, verdict

    plain = await build(spec, fixture)
    try:
        plain_results, total = await two_repeats(plain)
    finally:
        await teardown(spec, plain)

    tracer = Tracer()
    registry = PeakRegistry() if spec.live else None
    fixture = Fixture(spec.shape, seed)
    system = await build(spec, fixture, tracer, registry)
    try:
        setup_table = tracer.self_times()
        setup_joins = list(system.join_latencies)
        if spec.live:
            layers["rtnet.settle_rtt_ms"] = await settle_rtt_ms(system)
            layers["rtnet.connect_ms"] = (
                statistics.median(system.connect_latencies) * 1e3
            )
        before = system.layer_counters()
        traced_results, verdict = await two_repeats(system)
        total += verdict
        after = system.layer_counters()
    finally:
        await teardown(spec, system)

    table = tracer.self_times()
    wall_s = sum(r["wall_s"] for r in traced_results)
    events = sum(r["events"] for r in traced_results)
    plain_metrics = [repeat_metrics(r) for r in plain_results]
    traced_metrics = [repeat_metrics(r) for r in traced_results]

    def best(rows, metric):
        return steadiest(metric, [row[metric] for row in rows])

    if spec.kind == "paced":
        layers["trace.overhead_ratio"] = best(
            plain_metrics, "latency_p50_ms"
        ) / best(traced_metrics, "latency_p50_ms")
    else:
        layers["trace.overhead_ratio"] = best(
            traced_metrics, "events_per_s"
        ) / best(plain_metrics, "events_per_s")

    # In situ where the harness makes the call itself; the replay's
    # figures stand for stages only reachable inside src (live: the open
    # happens inside RtSubscriber, ``on_open`` is only the callback).
    in_situ = [
        ("core.seal_us", "core.seal"),
        ("routing.tokenize_us", "routing.tokenize"),
        ("core.reject_us", "core.reject"),
        ("rtnet.publish_call_us", "rtnet.publish_call"),
    ] + ([] if spec.live else [("core.open_us", "core.open")])
    for metric, span in in_situ:
        durations = tracer.durations(span)
        if durations:
            layers[metric] = statistics.median(durations) * 1e6
    for metric, span in (
        ("core.authorize_us", "core.authorize"),
        ("routing.grant_filters_us", "routing.grant_filters"),
        ("siena.subscribe_us", "siena.subscribe"),
        ("siena.unsubscribe_us", "siena.unsubscribe"),
        ("routing.match_us", "routing.match"),
    ):
        row = table.get(span) or setup_table.get(span)
        if row:
            layers[metric] = row["self_s"] / row["calls"] * 1e6
    layers["routing.match_calls_per_event"] = (
        table.get("routing.match", {"calls": 0})["calls"] / events
    )
    layers["siena.messages_per_event"] = (
        after["messages"] - before["messages"]
    ) / events
    layers["siena.delivery_useful_ratio"] = (
        after["opened"] - before["opened"]
    ) / max(1, after["deliveries"] - before["deliveries"])
    layers["recovery.duplicates_suppressed"] = after["duplicates_suppressed"]
    layers["core.publisher_key_cache_hit_ratio"] = after["publisher_key_cache"]
    layers["core.subscriber_key_cache_hit_ratio"] = (
        after["subscriber_key_cache"]
    )
    layers["core.grant_keys"] = system.grant_keys / system.joins_total
    layers.update(join_percentiles([
        r["join_latencies_s"] for r in traced_results
        if r.get("join_latencies_s")
    ] or [setup_joins]))
    layers["failed_share"] = total.failed / max(1, total.expected)
    layers["latency_p99_ms"] = best(plain_metrics, "latency_p99_ms")
    if spec.live:
        layers.update(registry_layer(registry, 2, system.next_publication))
        layers["rtnet.unattributed_ms"] = statistics.median(
            m["latency_p50_ms"] for m in traced_metrics
        ) - attributed_ms(layers, hops=3)
    else:
        layers.update(engine_layer(system, table, after, events))
    if spec.kind == "paced":
        layers["loadgen.late_p99_ms"] = statistics.median(
            m["late_p99_ms"] for m in plain_metrics
        )
        layers["loadgen.offered_per_s"] = statistics.median(
            r["offered_per_s"] for r in plain_results
        )

    OUT.mkdir(exist_ok=True)
    shares = layer_shares(table, wall_s)
    tracer.dump(
        OUT / f"trace-{name}.json", wall_s,
        {"workload": name, "seed": seed, "shares": shares},
    )
    return {
        "values": layers,
        "budget": budget_table(table, wall_s),
        "shares": shares,
        "attempted": max(1, total.expected),
        "failed": total.failed,
    }


def attributed_ms(layers: dict, hops: int) -> float:
    """The stage medians along a *hops*-broker path, publisher to open."""
    per_hop = (
        layers["rtnet.frame_decode_us"]
        + layers["core.wire_decode_us"]
        + layers["routing.match_us"]
        * layers["routing.match_calls_per_event"] / hops
        + layers["rtnet.frame_encode_us"]
    )
    return (
        layers["rtnet.publish_call_us"]
        + hops * per_hop
        + layers["rtnet.frame_decode_us"]
        + layers["core.wire_decode_us"]
        + layers["core.open_us"]
    ) / 1e3


def engine_layer(system, table: dict, counters: dict, events: int) -> dict:
    """The in-process layers: memo hit ratios, engine and dispatch time."""
    dispatch = table["siena.dispatch"]
    flushes = system.engine.registry.total("engine_batches_total")
    layer = {
        "routing.token_cache_hit_ratio": counters["token_cache"],
        "routing.prf_cache_hit_ratio": counters["prf_cache"],
        "siena.match_cache_hit_ratio": counters["match_cache"],
        "siena.dispatch_self_us": dispatch["self_s"] / events * 1e6,
        "engine.batch_fill": system.next_publication / flushes,
        # One whole flush, deliveries included; non-flushing calls only
        # append to the accumulator.
        "engine.flush_us": dispatch["total_s"] / (events / BATCH) * 1e6,
    }
    if system.renewals:
        layer["core.renew_us"] = (
            table["core.renew"]["total_s"] / system.renewals * 1e6
        )
    return layer


def layer_shares(table: dict, wall_s: float) -> dict:
    """Self time by layer as a share of the traced repeats' wall time."""
    shares: dict[str, float] = {}
    for span, row in table.items():
        layer = span.split(".")[0]
        shares[layer] = shares.get(layer, 0.0) + row["self_s"] / wall_s
    control = (
        "core.authorize", "core.renew", "routing.grant_filters",
        "siena.subscribe", "siena.unsubscribe",
    )
    shares["control_plane"] = sum(
        table[span]["self_s"] for span in control if span in table
    ) / wall_s
    shares["routing+siena"] = shares.get("routing", 0.0) + shares.get(
        "siena", 0.0
    )
    shares["core.seal+open"] = sum(
        table[span]["self_s"]
        for span in ("core.seal", "core.open") if span in table
    ) / wall_s
    return shares


# -- entry points -----------------------------------------------------------


def fingerprint(seed: int) -> dict:
    from repro.crypto.cipher import backend_name

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "aes_backend": backend_name(),
        "git_commit": commit,
        "seed": seed,
        "loadavg_1m": os.getloadavg()[0],
    }


def run_one(args) -> int:
    """Driver mode: one workload in this process, result on the last line."""
    spec = SPECS[args.workload]
    seconds = args.seconds
    if args.quick:
        seconds /= QUICK_SCALE
        spec = replace(
            spec,
            slices=spec.slices // 4,
            shape=replace(
                spec.shape,
                pool_events=spec.shape.pool_events // 4,
                num_subscribers=min(spec.shape.num_subscribers, 16),
            ),
        )
    environment = fingerprint(args.seed)
    if args.trace:
        outcome = asyncio.run(
            trace(spec, args.workload, args.seed, seconds, args.quick)
        )
        names, units = PER_LAYER, PER_LAYER
    else:
        outcome = asyncio.run(measure(spec, args.seed, seconds, args.quick))
        names, units = END_TO_END, END_TO_END
    correct = outcome["failed"] == 0
    document = {
        "workload": args.workload,
        "trace": args.trace,
        "quick": args.quick,
        "seconds": seconds,
        "environment": environment,
        "sizes": vars(spec.shape),
        "transport": "host loopback, never a real link; one process, "
                     "one thread, one event loop",
        **outcome,
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"run-{args.workload}-s{args.seed}-t{args.trace}.json"
    path.write_text(json.dumps(document, indent=1, default=str))
    print(json.dumps({
        "correct": correct,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            name: {"value": outcome["values"][name], "unit": units[name][0]}
            for name in names
        },
    }))
    return 0 if correct else 1


def run_child(name: str, seed: int, traced: int, args) -> dict | None:
    """One workload in a fresh process; its result document, or None."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", name,
        "--seed", str(seed), "--seconds", str(args.seconds),
        "--trace", str(traced),
    ] + (["--quick"] if args.quick else [])
    started = perf_counter()
    child = subprocess.run(command, capture_output=True, text=True)
    elapsed = perf_counter() - started
    output = child.stdout.strip()
    if not output:
        print(f"\n{name}: FAILED (exit {child.returncode})\n"
              f"{child.stderr[-2000:]}")
        return None
    line = json.loads(output.splitlines()[-1])
    document = json.loads(
        (OUT / f"run-{name}-s{seed}-t{traced}.json").read_text()
    )
    document["wall_s"] = elapsed
    print(render(name, seed, traced, line, document))
    return document if line["correct"] else None


def run_all(args) -> int:
    """Every workload, each run in a fresh child process."""
    measured = args.seconds / (QUICK_SCALE if args.quick else 1)
    print(
        f"PSGuard e2e benchmark: seeds {args.seed}..{args.seed + args.runs - 1}"
        f", {measured:g} s measured per run; traffic crosses the host "
        "loopback, never a real link; one process, one thread, one event "
        "loop per run"
    )
    failures = 0
    result = {"environment": fingerprint(args.seed), "workloads": {}}
    for name in WORKLOADS:
        runs = [
            run_child(name, args.seed + offset, 0, args)
            for offset in range(args.runs)
        ]
        failures += runs.count(None)
        runs = [run for run in runs if run is not None]
        record = result["workloads"][name] = {
            "sizes": runs[0]["sizes"] if runs else None,
            "seconds": measured,
            "runs": runs,
        }
        if args.trace:
            record["traced"] = run_child(name, args.seed, 1, args)
            failures += record["traced"] is None
    path = Path(args.out) if args.out else OUT / f"result-s{args.seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result, indent=1, default=str))
    print(f"\nresult file: {path}")
    return 1 if failures else 0


def render(name, seed, traced, line, document) -> str:
    lines = [
        f"\n== {name}, seed {seed}, {'traced' if traced else 'untraced'} "
        f"pass ({document['wall_s']:.1f} s wall) -- {WORKLOADS[name]}",
        f"   oracle: {'correct' if line['correct'] else 'WRONG'}; "
        f"{line['failed']} failed of {line['attempted']} expected opens",
    ]
    repeats = document.get("repeats", {})
    for metric, entry in line["metrics"].items():
        text = f"   {metric:<38}{entry['value']:>14.4f} {entry['unit']}"
        if metric in repeats:
            spread = repeats[metric]
            text += (
                f"   (repeats: median {spread['median']:.4f}, quartiles "
                f"{spread['q1']:.4f}..{spread['q3']:.4f}, n={spread['n']})"
            )
        lines.append(text)
    for metric, value in document.get("extras", {}).items():
        unit = PER_LAYER[metric][0] if metric in PER_LAYER else "count"
        lines.append(f"   {metric:<38}{value:>14.4f} {unit}")
    if "budget" in document:
        lines.append("   time budget of the traced repeats (self time):")
        lines.append(document["budget"])
        lines.append("   shares of wall: " + ", ".join(
            f"{layer} {share:.1%}"
            for layer, share in document["shares"].items()
        ))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run "
                             "(default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--quick", action="store_true",
                        help="a tenth of the size: smoke test, not numbers")
    parser.add_argument("--runs", type=int, default=1,
                        help="untraced runs per workload, on seeds "
                             "SEED..SEED+RUNS-1 (all workloads only)")
    parser.add_argument("--out", help="result file (all workloads only; "
                        "default out/result-s<seed>.json)")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(
            json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
        )
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())

"""Table 4: subscriber-side costs, PSGuard vs. SubscriberGroup.

Analytic inventory plus measured event-processing costs from the real
pipeline: PSGuard pays ``D + H log2(phi)`` per event, the group approach a
bare ``D`` -- but PSGuard's storage and join traffic are NS-independent.
"""

import time

from repro.analysis.models import subscriber_cost_table
from repro.core.composite import CompositeKeySpace
from repro.core.kdc import KDC
from repro.core.nakt import NumericKeySpace
from repro.core.publisher import Publisher
from repro.core.subscriber import Subscriber
from repro.harness.reporting import format_table
from repro.harness.timing import measure_crypto_costs
from repro.siena.events import Event
from repro.siena.filters import Filter

NS, RANGE, SPAN = 1000, 10**4, 100


def test_table4_subscriber_costs(benchmark, report):
    costs = measure_crypto_costs()
    table = benchmark.pedantic(
        lambda: subscriber_cost_table(
            NS, RANGE, SPAN,
            hash_cost=costs.hash_s * 1e6,
            decrypt_cost=costs.decrypt_256_s * 1e6,
        ),
        rounds=1,
        iterations=1,
    )
    rows = [
        (
            approach,
            entry["join_keys_new_subscriber"],
            entry["join_keys_active_subscribers"],
            entry["storage_keys"],
            entry["event_processing"],
        )
        for approach, entry in table.items()
    ]
    report(
        "table4_subscriber_costs",
        format_table(
            ["approach", "join keys (new)", "join keys (active)",
             "storage (keys)", "event processing (us)"],
            rows,
            title=f"Table 4: Subscriber Costs (NS={NS}, R={RANGE}, phi={SPAN})",
        ),
    )
    psguard = table["psguard"]
    group = table["subscriber_group"]
    assert psguard["join_keys_active_subscribers"] == 0.0
    assert group["join_keys_active_subscribers"] > 0
    assert psguard["storage_keys"] < group["storage_keys"]
    assert psguard["event_processing"] > group["event_processing"]


def test_table4_measured_event_processing(benchmark):
    """Measured decryption path: D + H*log(phi), a few us per event."""
    kdc = KDC(master_key=bytes(16))
    kdc.register_topic(
        "t", CompositeKeySpace({"v": NumericKeySpace("v", RANGE)})
    )
    publisher = Publisher("P", kdc)
    # No caching: worst case.  No duplicate window: the same sealed event
    # is opened over and over, which the window would suppress as None.
    subscriber = Subscriber("S", cache_bytes=0, dedup_window=0)
    subscriber.add_grant(
        kdc.authorize("S", Filter.numeric_range("t", "v", 0, RANGE - 1))
    )
    sealed = publisher.publish(
        Event({"topic": "t", "v": 5000, "message": "x" * 256})
    )
    lookup = lambda name: kdc.config_for(name).schema  # noqa: E731

    def receive_once():
        result = subscriber.receive(sealed, lookup)
        assert result is not None
        return result

    benchmark(receive_once)
    # Per-event processing must be far below the WAN latencies (~70ms)
    # the paper compares it against.
    start = time.perf_counter()
    for _ in range(50):
        receive_once()
    per_event = (time.perf_counter() - start) / 50
    assert per_event < 0.005

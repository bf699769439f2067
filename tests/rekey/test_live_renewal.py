"""Epoch-boundary renewal under live TCP.

A grant expiring mid-stream must renew within the policy's lead/grace
window with zero dropped and zero unauthorized events -- the focused,
two-epoch version of the full churn harness.
"""

import asyncio
import random

import pytest

from repro.core import KDC, CompositeKeySpace, NumericKeySpace
from repro.core.renewal import RenewalPolicy
from repro.rekey import KdcChannel
from repro.routing.tokens import TokenAuthority
from repro.rtnet.client import RtPublisher, RtSubscriber
from repro.rtnet.cluster import ClusterLauncher
from repro.siena.events import Event
from repro.siena.filters import Filter

TOPIC = "t"
EPOCH = 10.0


def _kdc():
    kdc = KDC(master_key=bytes(range(16)))
    kdc.register_topic(
        TOPIC,
        CompositeKeySpace({"v": NumericKeySpace("v", 16)}),
        epoch_length=EPOCH,
    )
    return kdc


def test_grant_expiring_mid_stream_renews_within_grace():
    kdc = _kdc()
    authority = TokenAuthority(kdc.master_key)
    policy = RenewalPolicy(lead=2.0, grace=1.0)
    rng = random.Random(3)
    opened_records = []

    async def scenario():
        async with ClusterLauncher(
            num_brokers=3, arity=2, kdc=kdc
        ) as cluster:
            channel = KdcChannel("alice-kdc", *cluster.kdc_address())
            await channel.connect()
            subscriber = RtSubscriber(
                "alice",
                *cluster.subscriber_address(),
                schema_lookup=lambda t: kdc.config_for(t).schema,
                authority=authority,
                kdc_channel=channel,
                renewal=policy,
            )
            await subscriber.connect()
            publisher = RtPublisher(
                "press", *cluster.publisher_address(), kdc,
                authority=authority,
            )
            await publisher.connect()

            base = kdc.epoch_of(TOPIC, 0.0) + 1
            start = kdc.epoch_start(TOPIC, base) + EPOCH / 2
            channel.advance(start)
            await subscriber.join(
                Filter.numeric_range(TOPIC, "v", 0, 15), at_time=start
            )

            async def publish(tag, at_time):
                await publisher.publish(
                    Event(
                        {"topic": TOPIC, "v": rng.randrange(16),
                         "rec": tag},
                        publisher="press",
                    ),
                    secret_attributes={"rec"},
                    at_time=at_time,
                )

            # Old-epoch traffic.
            for n in range(4):
                await publish(f"pre{n}", start + 0.1 * n)
            await publisher.settle()
            await subscriber.settle()

            # The grant expires at the next boundary; announce the
            # rollover inside the lead window -- the renewal tick runs
            # from the REKEY handler and fetches next-epoch keys.
            boundary = kdc.epoch_start(TOPIC, base + 1)
            await cluster.kdc_server.roll_epoch(
                TOPIC, boundary - policy.lead / 2
            )
            await subscriber.settle_rekey()

            # New-epoch traffic flows without a delivery gap.
            for n in range(4):
                await publish(f"post{n}", boundary + 0.1 * n)
            await publisher.settle()
            await subscriber.settle()

            opened_records.extend(
                result.event["rec"] for result in subscriber.opened
            )
            stats = subscriber.renewal.stats
            assert stats.renewals == 2  # join + boundary renewal
            assert stats.renewal_failures == 0
            assert stats.renewals_denied == 0
            assert subscriber.unreadable == 0  # nothing dropped as noise
            assert publisher.unacked == 0
            await channel.close()
            await subscriber.close()
            await publisher.close()

    asyncio.run(scenario())
    assert sorted(opened_records) == sorted(
        [f"pre{n}" for n in range(4)] + [f"post{n}" for n in range(4)]
    )


@pytest.mark.parametrize("survivors", [1, 6])
def test_full_churn_harness_passes_its_gates(survivors):
    from dataclasses import replace

    from repro.harness.rekey import (
        SCENARIO,
        RekeyChaosConfig,
        run_rekey_chaos,
    )

    config = RekeyChaosConfig(survivors=survivors)
    result = run_rekey_chaos(config)
    assert SCENARIO.violations(config, result) == []
    assert SCENARIO.violations(
        config, replace(result, rollovers_completed=2, unacked_publications=1)
    ) == [
        ("rollovers", "only 2 live rollovers (need >= 3)"),
        ("acked", "1 publications never acked"),
    ]
    assert len(result.survivor_outcomes) == survivors
    assert result.rollovers_completed == 3
    assert result.unauthorized_opens() == 0
    assert result.survivor_delivery_ratio() == 1.0

"""The adaptive epoch policy (Section 3.1's deferred policy)."""

import pytest

from repro.core.composite import CompositeKeySpace
from repro.core.epochs import AdaptiveEpochPolicy
from repro.core.kdc import KDC
from repro.siena.filters import Filter


class TestAdaptivePolicy:
    def test_defaults_until_history(self):
        policy = AdaptiveEpochPolicy(base_length=1000.0)
        assert policy.current_length() == 1000.0
        policy.observe_subscription(0.0)  # first arrival: no gap yet
        assert policy.current_length() == 1000.0

    def test_hot_topic_gets_short_epochs(self):
        policy = AdaptiveEpochPolicy(base_length=1000.0, target_renewals=16)
        for index in range(50):
            policy.observe_subscription(index * 1.0)  # 1s inter-arrival
        assert policy.current_length() < 1000.0

    def test_cold_topic_gets_long_epochs(self):
        policy = AdaptiveEpochPolicy(base_length=1000.0, target_renewals=16)
        for index in range(10):
            policy.observe_subscription(index * 10_000.0)
        assert policy.current_length() > 1000.0

    def test_length_clamped_to_max_scale(self):
        policy = AdaptiveEpochPolicy(base_length=1000.0, target_renewals=16)
        for index in range(10):
            policy.observe_subscription(index * 1e9)
        assert policy.current_length() == 8000.0
        fast = AdaptiveEpochPolicy(base_length=1000.0, target_renewals=16)
        for index in range(50):
            fast.observe_subscription(index * 1e-6)
        assert fast.current_length() == 125.0

    def test_lengths_quantized_to_powers_of_two(self):
        import math

        policy = AdaptiveEpochPolicy(base_length=1000.0)
        for index in range(40):
            policy.observe_subscription(index * 37.0)
        ratio = policy.current_length() / 1000.0
        assert math.log2(ratio) == round(math.log2(ratio))

    def test_identical_history_gives_identical_schedule(self):
        """Replica determinism: same history, same epoch length."""
        first = AdaptiveEpochPolicy(base_length=1000.0)
        second = AdaptiveEpochPolicy(base_length=1000.0)
        for index in range(30):
            first.observe_subscription(index * 3.0)
            second.observe_subscription(index * 3.0)
        assert first.current_length() == second.current_length()

    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptiveEpochPolicy(base_length=0)
        with pytest.raises(ValueError):
            AdaptiveEpochPolicy(target_renewals=0)


class TestKDCIntegration:
    def test_kdc_feeds_policy_and_retunes(self, master_key):
        policy = AdaptiveEpochPolicy(base_length=1000.0, target_renewals=4)
        kdc = KDC(master_key=master_key)
        kdc.register_topic(
            "hot", CompositeKeySpace({}), epoch_length=1000.0,
            epoch_policy=policy,
        )
        for index in range(40):
            kdc.authorize(f"S{index}", Filter.topic("hot"),
                          at_time=index * 1.0)
        new_length = kdc.retune_epoch("hot")
        assert new_length < 1000.0
        assert kdc.config_for("hot").epoch_length == new_length

    def test_retune_without_policy_is_noop(self, medical_kdc):
        before = medical_kdc.config_for("cancerTrail").epoch_length
        assert medical_kdc.retune_epoch("cancerTrail") == before

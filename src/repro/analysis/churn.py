"""Subscriber-churn simulation: validating the M/M/N model empirically.

Section 3.2.2 analyzes key-management costs under an M/M/N subscriber
population (arrival rate ``lambda`` per inactive subscriber, departure
rate ``mu`` per active one).  This module *simulates* that population on
the discrete-event engine, drives both key-management designs with the
resulting join/leave stream, and measures:

- the active-subscriber count against ``NS = N lambda / (lambda + mu)``;
- the realized join rate against ``N lambda mu / (lambda + mu)``;
- per-epoch key messages for PSGuard vs. the group server, the measured
  counterpart of ``C_psguard`` and ``C_subscribergroup``.

The analytic model in :mod:`repro.analysis.models` is thereby checked
end to end rather than trusted.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from repro.analysis.models import MMNPopulation
from repro.baseline.groups import GroupKeyServer
from repro.core.composite import CompositeKeySpace
from repro.core.kdc import KDC
from repro.core.nakt import NumericKeySpace
from repro.net.sim import Simulator
from repro.siena.filters import Filter


@dataclass
class ChurnResult:
    """Measurements from one churn simulation."""

    duration: float
    joins: int
    leaves: int
    active_samples: list[int] = field(default_factory=list)
    psguard_keys_sent: int = 0
    psguard_hash_operations: int = 0
    group_keys_sent: int = 0
    group_key_generations: int = 0
    epochs_completed: int = 0
    group_epoch_messages: int = 0

    @property
    def join_rate(self) -> float:
        return self.joins / self.duration if self.duration else 0.0


class ChurnSimulation:
    """M/M/N churn over both key-management designs."""

    def __init__(
        self,
        population: MMNPopulation,
        range_size: int = 1024,
        subscription_span: int = 64,
        epoch_length: float = 50.0,
        seed: int = 31,
    ):
        if subscription_span < 1 or subscription_span > range_size:
            raise ValueError("invalid subscription span")
        self.population = population
        self.range_size = range_size
        self.subscription_span = subscription_span
        self.epoch_length = epoch_length
        self.rng = random.Random(seed)

        self.sim = Simulator()
        self.kdc = KDC(master_key=bytes(range(16)))
        self.kdc.register_topic(
            "t",
            CompositeKeySpace({"v": NumericKeySpace("v", range_size)}),
            epoch_length=epoch_length,
        )
        self.group_server = GroupKeyServer(range_size)
        #: subscriber id -> active flag
        self._active: set[str] = set()
        self._result: ChurnResult | None = None

    # -- exponential clocks -------------------------------------------------

    def _exponential(self, rate: float) -> float:
        return self.rng.expovariate(rate) if rate > 0 else math.inf

    def _schedule_next_join(self, result: ChurnResult) -> None:
        inactive = self.population.total_subscribers - len(self._active)
        if inactive <= 0:
            # Re-check after the mean departure time.
            self.sim.schedule(
                1.0 / self.population.departure_rate,
                lambda: self._schedule_next_join(result),
            )
            return
        delay = self._exponential(self.population.arrival_rate * inactive)
        self.sim.schedule(delay, lambda: self._join(result))

    def _join(self, result: ChurnResult) -> None:
        subscriber = f"S{result.joins}"
        result.joins += 1
        low = self.rng.randint(0, self.range_size - self.subscription_span)
        high = low + self.subscription_span - 1

        grant = self.kdc.authorize(
            subscriber,
            Filter.numeric_range("t", "v", low, high),
            at_time=self.sim.now,
        )
        result.psguard_keys_sent += grant.key_count()
        result.psguard_hash_operations += grant.hash_operations

        cost = self.group_server.join(subscriber, low, high)
        result.group_keys_sent += cost.messages
        result.group_key_generations += cost.key_generations

        self._active.add(subscriber)
        departure = self._exponential(self.population.departure_rate)
        self.sim.schedule(departure, lambda: self._leave(subscriber, result))
        self._schedule_next_join(result)

    def _leave(self, subscriber: str, result: ChurnResult) -> None:
        if subscriber not in self._active:
            return
        self._active.discard(subscriber)
        self.group_server.leave(subscriber)
        result.leaves += 1

    def _epoch_boundary(self, result: ChurnResult) -> None:
        generations, messages = self.group_server.rekey_epoch()
        result.group_key_generations += generations
        result.group_epoch_messages += messages
        result.epochs_completed += 1
        # PSGuard: nothing to do -- renewals are client-initiated and the
        # KDC keeps no state to refresh.
        self.sim.schedule(
            self.epoch_length, lambda: self._epoch_boundary(result)
        )

    # -- driver -------------------------------------------------------------

    def run(self, duration: float, sample_interval: float = 1.0) -> ChurnResult:
        """Simulate *duration* seconds of churn and return measurements."""
        result = ChurnResult(duration=duration, joins=0, leaves=0)

        def sample() -> None:
            result.active_samples.append(len(self._active))
            self.sim.schedule(sample_interval, sample)

        self._schedule_next_join(result)
        self.sim.schedule(self.epoch_length, lambda: self._epoch_boundary(result))
        self.sim.schedule(sample_interval, sample)
        self.sim.run(until=duration)
        self._result = result
        return result


def relative_error(measured: float, predicted: float) -> float:
    """|measured - predicted| / predicted (predicted must be nonzero)."""
    if predicted == 0:
        raise ValueError("predicted value must be nonzero")
    return abs(measured - predicted) / abs(predicted)

"""The adaptive subscription-epoch policy.

Section 3.1 ("Unsubscription by Rekeying"): authorizations are valid for
one time epoch; the KDC staggers epoch boundaries per topic to avoid
flash crowds and may "adaptively vary the length of the epoch on a
per-topic basis using the subscription history" (the paper defers the
policy's details).  A topic registered without a policy keeps the fixed
``epoch_length`` of Section 2.1; :class:`AdaptiveEpochPolicy` is a
concrete adaptive one -- exponential-moving-average of observed
subscription inter-arrival times, targeting a configured number of
renewals per epoch.  Hot topics get short epochs (tighter revocation,
both bounded); cold topics get long epochs (less renewal traffic).

Epoch lengths are always quantized to a power-of-two multiple of the
base length so that a replica observing the same history computes the
same schedule without coordination (the statelessness requirement).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

#: EMA weight of the newest subscription inter-arrival gap.
_SMOOTHING = 0.2
#: Adaptive epochs stay within ``[base / _MAX_SCALE, base * _MAX_SCALE]``.
_MAX_SCALE = 8


@dataclass
class AdaptiveEpochPolicy:
    """EMA-driven per-topic epoch sizing.

    ``target_renewals`` is how many subscription renewals the topic
    should see per epoch: the epoch length tracks
    ``target_renewals * mean_interarrival``, clamped to
    ``[base/8, base*8]`` and quantized to powers of two
    times the base so the schedule stays deterministic.
    """

    base_length: float = 3600.0
    target_renewals: float = 16.0
    _mean_interarrival: float | None = field(default=None, init=False)
    _last_subscription: float | None = field(default=None, init=False)

    def __post_init__(self) -> None:
        if self.base_length <= 0:
            raise ValueError("base length must be positive")
        if self.target_renewals <= 0:
            raise ValueError("target renewals must be positive")

    def observe_subscription(self, at_time: float) -> None:
        """Feed one subscription arrival into the history."""
        if self._last_subscription is not None:
            gap = max(1e-9, at_time - self._last_subscription)
            if self._mean_interarrival is None:
                self._mean_interarrival = gap
            else:
                self._mean_interarrival += _SMOOTHING * (
                    gap - self._mean_interarrival
                )
        self._last_subscription = at_time

    def current_length(self) -> float:
        """The epoch length implied by the observed history."""
        if self._mean_interarrival is None:
            return self.base_length
        desired = self.target_renewals * self._mean_interarrival
        scale = desired / self.base_length
        clamped = min(float(_MAX_SCALE), max(1.0 / _MAX_SCALE, scale))
        quantized = 2.0 ** round(math.log2(clamped))
        return self.base_length * quantized

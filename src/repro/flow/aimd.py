"""AIMD adaptive publish-rate pacing.

Publishers cannot see broker queue depths directly; they see explicit
overload signals (shed notifications from the bounded queues).
:class:`AIMDRateLimiter` converts those signals into a publish pace
with TCP's additive-increase / multiplicative-decrease dynamics: each overload signal halves the target rate (at most once per
``cooldown`` so a burst of shed notifications from one congestion event
is a single decrease), and each successful send additively recovers
toward ``max_rate``.  The AIMD shape is what makes degradation graceful
instead of cliff-shaped -- offered load oscillates just above the
sustainable rate rather than thrashing the queues at the storm rate.
The overload scenario's publish pump (:mod:`repro.harness.overload`)
schedules its next send :meth:`~AIMDRateLimiter.interval` seconds out
and feeds every shed into :meth:`~AIMDRateLimiter.on_overload`.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class AIMDRateLimiter:
    """A send rate with AIMD adaptation.

    ``interval()`` is the gap between sends at the current ``rate``;
    ``on_overload(now)`` multiplies the rate by ``decrease`` and
    ``on_success()`` adds ``increase / rate`` (so recovery is roughly
    ``increase`` events/second per second of successful sending,
    independent of the current pace).

    >>> limiter = AIMDRateLimiter(rate=100.0)
    >>> limiter.interval()                  # one send every 10ms
    0.01
    >>> limiter.on_overload(now=0.0)
    >>> limiter.rate, limiter.interval()
    (50.0, 0.02)
    >>> limiter.on_overload(now=0.05)       # inside the cooldown: ignored
    >>> limiter.rate
    50.0
    """

    rate: float = 100.0
    min_rate: float = 1.0
    max_rate: float = 10_000.0
    increase: float = 10.0
    decrease: float = 0.5
    cooldown: float = 0.1
    overloads: int = field(default=0, init=False)
    _last_decrease: float | None = field(
        default=None, init=False, repr=False
    )

    def __post_init__(self) -> None:
        if not 0 < self.min_rate <= self.rate <= self.max_rate:
            raise ValueError(
                "rates must satisfy 0 < min_rate <= rate <= max_rate"
            )
        if not 0 < self.decrease < 1:
            raise ValueError("decrease must be a fraction in (0, 1)")
        if self.increase <= 0:
            raise ValueError("increase must be positive")
        if self.cooldown < 0:
            raise ValueError("cooldown must be non-negative")

    def interval(self) -> float:
        """Seconds between sends at the current rate."""
        return 1.0 / self.rate

    def on_overload(self, now: float) -> None:
        """Multiplicative decrease (at most once per ``cooldown``)."""
        if (
            self._last_decrease is not None
            and now - self._last_decrease < self.cooldown
        ):
            return
        self._last_decrease = now
        self.overloads += 1
        self.rate = max(self.min_rate, self.rate * self.decrease)

    def on_success(self) -> None:
        """Additive increase credited to one successful send."""
        self.rate = min(self.max_rate, self.rate + self.increase / self.rate)

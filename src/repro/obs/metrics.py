"""A zero-dependency metrics substrate: counters, gauges, histograms.

Every runtime layer of the reproduction (brokers, the reliable overlay,
the KDC cluster, routing) tallies what it did; before this module each
layer kept an ad-hoc ``*Stats`` dataclass, invisible to everything else.
``MetricsRegistry`` replaces those internals with shared, exportable
instruments:

- :class:`Counter` -- a monotonically growing tally (``*_total`` names);
- :class:`Gauge` -- a value that moves both ways (view numbers, breaker
  state);
- :class:`Histogram` -- count/sum/min/max plus **streaming quantiles**
  (p50/p95/p99 by default) computed with the P2 (P-squared) algorithm
  (Jain & Chlamtac, CACM 1985), so latency distributions cost O(1)
  memory per tracked quantile instead of storing samples.

Instruments are identified by ``(name, labels)``; ``registry.counter()``
et al. are get-or-create, so independent layers sharing a registry
accumulate into the same series.  :class:`RegistryBackedStats` is the
adapter that lets the legacy ``stats.field`` attribute API (reads *and*
``+=`` writes) keep working as a thin view over registry counters.
"""

from __future__ import annotations

import math
from typing import ClassVar, Iterator

#: The default quantiles a histogram tracks.
DEFAULT_QUANTILES = (0.5, 0.95, 0.99)

LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, object]) -> LabelKey:
    return tuple(sorted((name, str(value)) for name, value in labels.items()))


def series_name(name: str, labels: LabelKey) -> str:
    """Render ``name{k="v",...}`` (Prometheus series notation)."""
    if not labels:
        return name
    rendered = ",".join(f'{key}="{value}"' for key, value in labels)
    return f"{name}{{{rendered}}}"


class Counter:
    """A monotonically growing tally."""

    kind = "counter"
    __slots__ = ("name", "labels", "_value")

    def __init__(self, name: str, labels: LabelKey = ()):
        self.name = name
        self.labels = labels
        self._value: float = 0

    @property
    def value(self) -> float:
        return self._value

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only grow; use a Gauge to go down")
        self._value += amount

    def set(self, value: float) -> None:
        """Overwrite the value (only for stats-view writes and resets)."""
        self._value = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({series_name(self.name, self.labels)}={self._value})"


class Gauge:
    """A value that can move in both directions."""

    kind = "gauge"
    __slots__ = ("name", "labels", "_value")

    def __init__(self, name: str, labels: LabelKey = ()):
        self.name = name
        self.labels = labels
        self._value: float = 0

    @property
    def value(self) -> float:
        return self._value

    def set(self, value: float) -> None:
        self._value = value

    def inc(self, amount: float = 1) -> None:
        self._value += amount

    def dec(self, amount: float = 1) -> None:
        self._value -= amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({series_name(self.name, self.labels)}={self._value})"


class _P2Quantile:
    """One streaming quantile estimate (the P^2 algorithm).

    Five markers track the running estimate; memory and per-observation
    cost are O(1).  Until five observations arrive the exact sorted
    sample is used.
    """

    __slots__ = ("p", "_q", "_n", "_desired", "_rate", "_count")

    def __init__(self, p: float):
        if not 0.0 < p < 1.0:
            raise ValueError("quantile must be strictly inside (0, 1)")
        self.p = p
        self._q: list[float] = []  # marker heights
        self._n = [1.0, 2.0, 3.0, 4.0, 5.0]  # marker positions
        self._desired = [1.0, 1.0 + 2 * p, 1.0 + 4 * p, 3.0 + 2 * p, 5.0]
        self._rate = [0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0]
        self._count = 0

    def observe(self, x: float) -> None:
        self._count += 1
        if self._count <= 5:
            self._q.append(x)
            if self._count == 5:
                self._q.sort()
            return
        q, n = self._q, self._n
        if x < q[0]:
            q[0] = x
            k = 0
        elif x >= q[4]:
            q[4] = x
            k = 3
        else:
            k = 3
            for i in range(1, 4):
                if x < q[i]:
                    k = i - 1
                    break
        for i in range(k + 1, 5):
            n[i] += 1.0
        for i in range(5):
            self._desired[i] += self._rate[i]
        for i in (1, 2, 3):
            drift = self._desired[i] - n[i]
            if (drift >= 1.0 and n[i + 1] - n[i] > 1.0) or (
                drift <= -1.0 and n[i - 1] - n[i] < -1.0
            ):
                step = 1.0 if drift > 0 else -1.0
                candidate = self._parabolic(i, step)
                if not q[i - 1] < candidate < q[i + 1]:
                    candidate = self._linear(i, step)
                q[i] = candidate
                n[i] += step

    def _parabolic(self, i: int, step: float) -> float:
        q, n = self._q, self._n
        return q[i] + step / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + step) * (q[i + 1] - q[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - step) * (q[i] - q[i - 1]) / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, step: float) -> float:
        q, n = self._q, self._n
        j = i + int(step)
        return q[i] + step * (q[j] - q[i]) / (n[j] - n[i])

    @property
    def value(self) -> float:
        if self._count == 0:
            return math.nan
        if self._count < 5:
            ordered = sorted(self._q)
            # Linear interpolation over the exact (small) sample.
            position = self.p * (len(ordered) - 1)
            low = int(position)
            high = min(low + 1, len(ordered) - 1)
            return ordered[low] + (position - low) * (
                ordered[high] - ordered[low]
            )
        return self._q[2]


class Histogram:
    """Count/sum/min/max plus streaming quantiles; no stored samples."""

    kind = "histogram"
    __slots__ = ("name", "labels", "count", "sum", "min", "max", "_quantiles")

    def __init__(
        self,
        name: str,
        labels: LabelKey = (),
        quantiles: tuple[float, ...] = DEFAULT_QUANTILES,
    ):
        self.name = name
        self.labels = labels
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._quantiles = {q: _P2Quantile(q) for q in quantiles}

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        for estimator in self._quantiles.values():
            estimator.observe(value)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else math.nan

    @property
    def tracked_quantiles(self) -> tuple[float, ...]:
        return tuple(self._quantiles)

    def _estimates(self) -> dict[float, float]:
        """Tracked quantile -> estimate, made consistent on the read side.

        The quantiles are tracked by independent estimators, which at
        small counts can cross (p99 under p95) or overshoot an extreme;
        each is reported as no less than the next-lower tracked one and
        within ``[min, max]``.  ``observe`` stays untouched.
        """
        estimates = {}
        floor = self.min
        for q in sorted(self._quantiles):
            value = self._quantiles[q].value
            if self.count:
                floor = value = min(max(value, floor), self.max)
            estimates[q] = value
        return estimates

    def quantile(self, q: float) -> float:
        """The streaming estimate for tracked quantile *q*."""
        if q not in self._quantiles:
            raise KeyError(
                f"quantile {q} is not tracked by {self.name} "
                f"(tracked: {sorted(self._quantiles)})"
            )
        return self._estimates()[q]

    def snapshot(self) -> dict:
        """A JSON-able summary of the distribution."""
        estimates = self._estimates()
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "mean": self.mean if self.count else None,
            "quantiles": {
                f"p{int(q * 100)}": estimates[q] for q in self._quantiles
            },
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Histogram({series_name(self.name, self.labels)} "
            f"count={self.count})"
        )


class MetricsRegistry:
    """Get-or-create registry of named, labelled instruments."""

    def __init__(self):
        self._metrics: dict[tuple[str, LabelKey], object] = {}

    def _get_or_create(self, cls, name: str, labels: dict, **kwargs):
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, key[1], **kwargs)
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise ValueError(
                f"metric {series_name(*key)} already registered as "
                f"{metric.kind}, not {cls.kind}"
            )
        return metric

    def counter(self, name: str, **labels) -> Counter:
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get_or_create(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        quantiles: tuple[float, ...] = DEFAULT_QUANTILES,
        **labels,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, labels, quantiles=quantiles
        )

    # -- queries --------------------------------------------------------------

    def get(self, name: str, **labels):
        """The instrument at ``(name, labels)``, or ``None``."""
        return self._metrics.get((name, _label_key(labels)))

    def collect(self) -> Iterator[object]:
        """Every instrument, ordered by (name, labels)."""
        for key in sorted(self._metrics, key=lambda k: (k[0], k[1])):
            yield self._metrics[key]

    def series(self, name: str) -> list[object]:
        """Every labelled instrument sharing *name*."""
        return [m for m in self.collect() if m.name == name]

    def total(self, name: str) -> float:
        """Sum of counter/gauge values across all label sets of *name*."""
        return sum(
            m.value
            for m in self.series(name)
            if isinstance(m, (Counter, Gauge))
        )

    def snapshot(self) -> dict:
        """A JSON-able snapshot of every instrument."""
        counters: dict[str, float] = {}
        gauges: dict[str, float] = {}
        histograms: dict[str, dict] = {}
        for metric in self.collect():
            key = series_name(metric.name, metric.labels)
            if isinstance(metric, Counter):
                counters[key] = metric.value
            elif isinstance(metric, Gauge):
                gauges[key] = metric.value
            else:
                histograms[key] = metric.snapshot()
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }


class RegistryBackedStats:
    """Base class for ``*Stats`` views over registry counters.

    Subclasses declare ``_int_fields`` (the counter-backed attributes)
    and ``_metric_prefix``; attribute reads return the counter's value
    and attribute writes (including ``stats.field += 1``) update it, so
    existing consumers keep working unchanged while the numbers live in
    a shareable, exportable :class:`MetricsRegistry`.
    """

    _int_fields: ClassVar[tuple[str, ...]] = ()
    _metric_prefix: ClassVar[str] = ""

    def __init__(
        self, registry: MetricsRegistry | None = None, **labels
    ):
        registry = registry if registry is not None else MetricsRegistry()
        counters = {
            field: registry.counter(
                f"{self._metric_prefix}{field}_total", **labels
            )
            for field in self._int_fields
        }
        object.__setattr__(self, "_counters", counters)
        object.__setattr__(self, "registry", registry)

    def __getattr__(self, name: str):
        # Only consulted when normal lookup fails -- i.e. for the
        # counter-backed fields, which are not instance attributes.
        counters = object.__getattribute__(self, "_counters")
        if name in counters:
            value = counters[name].value
            return int(value) if value == int(value) else value
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    def __setattr__(self, name: str, value) -> None:
        counters = self.__dict__.get("_counters")
        if counters is not None and name in counters:
            counters[name].set(value)
        else:
            object.__setattr__(self, name, value)

    def inc(self, field: str, amount: float = 1) -> None:
        """Fast-path increment of one counter-backed field."""
        object.__getattribute__(self, "_counters")[field].inc(amount)

    def reset(self) -> None:
        """Zero every counter-backed field."""
        for counter in object.__getattribute__(self, "_counters").values():
            counter.set(0)

    def as_dict(self) -> dict[str, float]:
        """The counter-backed fields as a plain dict."""
        return {field: getattr(self, field) for field in self._int_fields}

    def __eq__(self, other) -> bool:
        # Value equality, like the dataclasses these views replaced.
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{field}={getattr(self, field)}" for field in self._int_fields
        )
        return f"{type(self).__name__}({fields})"

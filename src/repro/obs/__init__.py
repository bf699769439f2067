"""``repro.obs`` -- unified observability for the reproduction.

One :class:`MetricsRegistry` (counters, gauges, streaming-quantile
histograms) plus one :class:`Tracer` (per-event spans across
publisher, brokers, and subscribers) shared by every runtime layer.
:class:`Observability` bundles the pair so harnesses and the
:mod:`repro.api` facade can thread a single object through the stack.

See ``docs/API.md`` for the public surface and the metrics-name
glossary, and ``DESIGN.md`` ("Observability") for the design rationale.
"""

from __future__ import annotations

from repro.obs.export import snapshot, to_json, to_prometheus
from repro.obs.lru import LRUCache
from repro.obs.metrics import (
    DEFAULT_QUANTILES,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    RegistryBackedStats,
    series_name,
)
from repro.obs.tracing import Span, Trace, Tracer

__all__ = [
    "DEFAULT_QUANTILES",
    "Counter",
    "Gauge",
    "Histogram",
    "LRUCache",
    "MetricsRegistry",
    "Observability",
    "RegistryBackedStats",
    "Span",
    "Trace",
    "Tracer",
    "series_name",
    "snapshot",
    "to_json",
    "to_prometheus",
]


class Observability:
    """A registry + tracer pair threaded through one system instance."""

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ):
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer()

    def snapshot(self) -> dict:
        """JSON-able snapshot of every instrument plus trace accounting."""
        return snapshot(self.registry, self.tracer)

    def to_json(self, indent: int | None = 2) -> str:
        return to_json(self.registry, self.tracer, indent=indent)

    def to_prometheus(self) -> str:
        return to_prometheus(self.registry)

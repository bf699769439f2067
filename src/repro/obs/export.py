"""Snapshot exporters: JSON and Prometheus text exposition format.

The registry's live instruments are rendered into the two formats a
deployment actually consumes: a JSON document (artifacts, dashboards,
the ``repro metrics`` CLI) and the Prometheus text format (scrape
endpoints).  Histograms export as Prometheus *summaries* -- quantile
series plus ``_sum``/``_count`` -- because the streaming estimator keeps
quantiles, not buckets.
"""

from __future__ import annotations

import json
import math

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.tracing import Tracer


def snapshot(
    registry: MetricsRegistry, tracer: Tracer | None = None
) -> dict:
    """One JSON-able document: every instrument plus trace accounting."""
    document = registry.snapshot()
    if tracer is not None:
        document["tracing"] = tracer.summary()
    return document


def json_safe(value):
    """*value* with every non-finite float replaced by ``None``."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {key: json_safe(item) for key, item in value.items()}
    if isinstance(value, list):
        return [json_safe(item) for item in value]
    return value


def to_json(
    registry: MetricsRegistry,
    tracer: Tracer | None = None,
    indent: int | None = 2,
) -> str:
    """The snapshot as a JSON string (NaN-free: NaN renders as null)."""
    return json.dumps(
        json_safe(snapshot(registry, tracer)), indent=indent, sort_keys=True
    )


def _render_labels(labels: tuple[tuple[str, str], ...], extra: str = "") -> str:
    parts = [f'{key}="{value}"' for key, value in labels]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _finite(value: float) -> float:
    return value if math.isfinite(value) else 0.0


def to_prometheus(registry: MetricsRegistry) -> str:
    """The registry in the Prometheus text exposition format."""
    lines: list[str] = []
    seen_types: set[str] = set()
    for metric in registry.collect():
        if isinstance(metric, Counter):
            if metric.name not in seen_types:
                lines.append(f"# TYPE {metric.name} counter")
                seen_types.add(metric.name)
            lines.append(
                f"{metric.name}{_render_labels(metric.labels)} "
                f"{metric.value:g}"
            )
        elif isinstance(metric, Gauge):
            if metric.name not in seen_types:
                lines.append(f"# TYPE {metric.name} gauge")
                seen_types.add(metric.name)
            lines.append(
                f"{metric.name}{_render_labels(metric.labels)} "
                f"{metric.value:g}"
            )
        elif isinstance(metric, Histogram):
            if metric.name not in seen_types:
                lines.append(f"# TYPE {metric.name} summary")
                seen_types.add(metric.name)
            for q in metric.tracked_quantiles:
                quantile_label = 'quantile="%g"' % q
                lines.append(
                    f"{metric.name}"
                    f"{_render_labels(metric.labels, quantile_label)}"
                    f" {_finite(metric.quantile(q)):g}"
                )
            labels = _render_labels(metric.labels)
            lines.append(f"{metric.name}_sum{labels} {metric.sum:g}")
            lines.append(f"{metric.name}_count{labels} {metric.count}")
    return "\n".join(lines) + ("\n" if lines else "")

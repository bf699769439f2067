"""``repro.engine`` -- the batched high-throughput dissemination engine.

See :mod:`repro.engine.engine` for the design overview and
``DESIGN.md`` ("Engine & Benchmarking") for the rationale; its speed is
measured by the ``inproc-match`` workload of ``benchmarks/e2e``.
"""

from __future__ import annotations

from repro.engine.batch import BatchAccumulator, EventBatch
from repro.engine.engine import (
    DisseminationEngine,
    EngineCaches,
    EngineConfig,
)

__all__ = [
    "BatchAccumulator",
    "DisseminationEngine",
    "EngineCaches",
    "EngineConfig",
    "EventBatch",
]

"""``repro.bench`` -- the load and regression drivers.

Three suites, selected with ``repro bench --suite``:

- ``engine`` (:func:`run_bench`): wall-clock throughput of the batched
  dissemination engine against the per-event path;
- ``overload`` (:func:`run_overload_bench`): sustained-storm delivery,
  shedding, and fairness on the simulated flow-controlled overlay;
- ``rekey`` (:func:`run_rekey_bench`): the membership-churn ladder --
  live epoch rollovers, in-band grant renewal, and lazy revocation on a
  loopback TCP cluster, gating rekey/grant latency quantiles and
  delivery completeness.

``repro livebench`` (:func:`run_rtnet_bench`) is the socket-path
throughput suite: the same Zipf workload through a real localhost TCP
broker tree (:mod:`repro.rtnet`), gated on stream equivalence with an
in-process reference run.
"""

from __future__ import annotations

from repro.bench.driver import (
    BENCH_SCHEMA,
    BenchConfig,
    check_regression,
    load_report,
    render_report,
    run_bench,
    write_report,
)
from repro.bench.overload import (
    BENCH_OVERLOAD_SCHEMA,
    OverloadBenchConfig,
    check_overload_regression,
    render_overload_report,
    run_overload_bench,
    write_overload_report,
)
from repro.bench.rekey import (
    BENCH_REKEY_SCHEMA,
    RekeyBenchConfig,
    check_rekey_regression,
    render_rekey_report,
    run_rekey_bench,
)
from repro.bench.rtnet import (
    BENCH_RTNET_SCHEMA,
    RtnetBenchConfig,
    check_rtnet_regression,
    render_rtnet_report,
    run_rtnet_bench,
)

__all__ = [
    "BENCH_OVERLOAD_SCHEMA",
    "BENCH_REKEY_SCHEMA",
    "BENCH_RTNET_SCHEMA",
    "BENCH_SCHEMA",
    "BenchConfig",
    "OverloadBenchConfig",
    "RekeyBenchConfig",
    "RtnetBenchConfig",
    "check_overload_regression",
    "check_regression",
    "check_rekey_regression",
    "check_rtnet_regression",
    "load_report",
    "render_overload_report",
    "render_report",
    "render_rekey_report",
    "render_rtnet_report",
    "run_bench",
    "run_overload_bench",
    "run_rekey_bench",
    "run_rtnet_bench",
    "write_overload_report",
    "write_report",
]

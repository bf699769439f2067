#!/usr/bin/env python3
"""Compare two result files of ``run.py``: ``compare.py A.json B.json``.

One row per workload x end-to-end metric: both medians with their
quartiles, the ratio B/A (A is the base), the bound ``metrics.py``
fixes, and a verdict:

- ``within``     B's median is no worse than A's by more than the bound;
- ``worse``      it is, and the spread is small enough to say so;
- ``unresolved`` the run-to-run spread (quartile distance over median,
  the wider of the two sides) exceeds the bound, so neither can be said
  -- unless every run of B reads better than every run of A.

With three or more runs a side (``run.py --runs N``) the quartiles are
taken over the runs' reported values; with fewer, over the repeats
inside the single run.  Exit status 1 when any row is ``worse`` or
``unresolved``, 2 when the files cannot be compared at all.
"""

from __future__ import annotations

import json
import sys

from metrics import END_TO_END, USER_VISIBLE_EXTRAS
from stats import summary

#: (workload, metric) pairs no issue may stake a claim on: their spread
#: on this host exceeds the cap on bounds however they are estimated.
NOISY = frozenset({("live-paced", "latency_p99_ms")})


def side_summary(record: dict, metric: str) -> dict | None:
    """Median, quartiles and the raw values of *metric* for one side."""
    runs = record["runs"]
    source = "extras" if metric in USER_VISIBLE_EXTRAS else "values"
    values = [run[source][metric] for run in runs if metric in run[source]]
    if not values:
        return None
    if len(values) >= 3 or metric not in runs[0]["repeats"]:
        return {**summary(values), "values": values}
    # One or two runs: the reported value, with the spread of the
    # repeats inside the first run standing in for run-to-run spread.
    inner = runs[0]["repeats"][metric]
    return {**inner, "median": values[0], "values": runs[0]["columns"][metric]}


#: Differences below these are within, whatever their share: a 70-ms
#: set-up moves by a quarter when the host hiccups once.
ABSOLUTE_SLACK = {"setup_s": 0.1}


def judge(
    a: dict, b: dict, better: str, bound: float, slack: float = 0.0
) -> tuple[float, str]:
    sign = 1.0 if better == "lower" else -1.0
    if a["median"] and abs(b["median"] - a["median"]) <= slack:
        return b["median"] / a["median"], "within"
    if a["median"] == 0:
        worse_by = sign * (b["median"] - a["median"])
        return float("nan"), "worse" if worse_by > 0 else "within"
    ratio = b["median"] / a["median"]
    worse_by = sign * (ratio - 1.0)
    spread = max(
        (side["q3"] - side["q1"]) / side["median"] for side in (a, b)
    )
    if spread > bound:
        if better == "lower":
            clean = max(b["values"]) < min(a["values"])
        else:
            clean = min(b["values"]) > max(a["values"])
        return ratio, "within" if clean else "unresolved"
    return ratio, "worse" if worse_by > bound else "within"


def comparable(a: dict, b: dict) -> str | None:
    """Why the two files cannot be compared, or None when they can."""
    backends = [doc["environment"]["aes_backend"] for doc in (a, b)]
    if backends[0] != backends[1]:
        return f"AES backends differ: {backends[0]} vs {backends[1]}"
    for name in a["workloads"]:
        if name not in b["workloads"]:
            return f"workload {name} missing from the second file"
        sizes = [doc["workloads"][name]["sizes"] for doc in (a, b)]
        if sizes[0] != sizes[1]:
            return f"sizes of {name} differ: {sizes[0]} vs {sizes[1]}"
        seconds = [doc["workloads"][name]["seconds"] for doc in (a, b)]
        if seconds[0] != seconds[1]:
            return f"run lengths of {name} differ: {seconds}"
    return None


def compare(a: dict, b: dict) -> tuple[list[str], int]:
    header = (
        f"{'workload':<14}{'metric':<18}{'A median (q1..q3)':>34}"
        f"{'B median (q1..q3)':>34}{'B/A':>8}{'bound':>7}  verdict"
    )
    lines, bad = [header], 0
    for name, record_a in a["workloads"].items():
        record_b = b["workloads"][name]
        metrics = {**END_TO_END, **USER_VISIBLE_EXTRAS}
        if name != "churn":  # joins are timed beside reads only there
            del metrics["join_p50_ms"], metrics["join_p95_ms"]
        for metric, (_unit, better, bound) in metrics.items():
            side_a = side_summary(record_a, metric)
            side_b = side_summary(record_b, metric)
            if side_a is None or side_b is None:
                continue
            ratio, verdict = judge(
                side_a, side_b, better, bound,
                ABSOLUTE_SLACK.get(metric, 0.0),
            )
            if (name, metric) in NOISY and verdict != "within":
                verdict += " (noisy)"
            elif verdict != "within":
                bad += 1
            cells = [
                f"{side['median']:.4g} ({side['q1']:.4g}..{side['q3']:.4g})"
                for side in (side_a, side_b)
            ]
            lines.append(
                f"{name:<14}{metric:<18}{cells[0]:>34}{cells[1]:>34}"
                f"{ratio:>8.3f}{bound:>7.0%}  {verdict}"
            )
    return lines, bad


def main(argv=None) -> int:
    paths = (argv if argv is not None else sys.argv[1:])
    if len(paths) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        return 2
    a, b = (json.load(open(path)) for path in paths)
    problem = comparable(a, b)
    if problem:
        print(f"compare.py: refusing to compare: {problem}", file=sys.stderr)
        return 2
    lines, bad = compare(a, b)
    print("\n".join(lines))
    print(f"\n{bad} row(s) worse or unresolved; base of every ratio is A")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

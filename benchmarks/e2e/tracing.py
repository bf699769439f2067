"""In-memory spans recorded from outside the package.

The harness wraps each call it makes *into* a layer (and each
harness-owned callable a layer calls back: the match predicate, the
delivery callback, the KDC handed to a renewal manager) with
:meth:`Tracer.wrap`.  A span is ``[name, start, end, parent, event_id]``;
``parent`` is the index of the span that was open when this one began,
so a layer's *self time* is its duration minus its direct children's.
Untraced runs never see this module: ``wrap`` is only applied when a
tracer exists, otherwise the raw callable is used.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

NAME, START, END, PARENT, EVENT = range(5)


class Tracer:
    """Span recorder for one traced repeat (single thread, single loop)."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        #: Publication the harness is currently driving; spans that know
        #: better (match and delivery see the event) pass their own.
        self.event_id: int | None = None

    def begin(self, name: str, event_id: int | None = None) -> int:
        index = len(self.spans)
        self.spans.append([
            name,
            perf_counter(),
            None,
            self._open[-1] if self._open else None,
            self.event_id if event_id is None else event_id,
        ])
        self._open.append(index)
        return index

    def end(self, index: int) -> float:
        span = self.spans[index]
        span[END] = perf_counter()
        self._open.pop()
        return span[END] - span[START]

    def wrap(self, name: str, call, event_id_of=None):
        """*call*, recorded as a span named *name* on every invocation.

        *event_id_of* maps the call's arguments to a publication id for
        callables that are handed the event (match, delivery).
        """

        def traced(*args, **kwargs):
            index = self.begin(
                name, event_id_of(*args) if event_id_of else None
            )
            try:
                return call(*args, **kwargs)
            finally:
                self.end(index)

        return traced

    def wrap_async(self, name: str, call):
        """As :meth:`wrap` for a coroutine function.

        Other tasks run while the call is suspended, so its span is kept
        off the parent stack: it neither adopts their spans as children
        nor is it theirs.  Its duration therefore includes its awaits.
        """

        async def traced(*args, **kwargs):
            span = [name, perf_counter(), None, None, self.event_id]
            self.spans.append(span)
            try:
                return await call(*args, **kwargs)
            finally:
                span[END] = perf_counter()

        return traced

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> dict[str, dict]:
        """Per span name: calls, total and self seconds."""
        child_time = defaultdict(float)
        for span in self.spans:
            if span[PARENT] is not None and span[END] is not None:
                child_time[span[PARENT]] += span[END] - span[START]
        table: dict[str, dict] = {}
        for index, span in enumerate(self.spans):
            if span[END] is None:
                continue
            duration = span[END] - span[START]
            row = table.setdefault(
                span[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - child_time.get(index, 0.0)
        return table

    def durations(self, name: str) -> list[float]:
        return [
            span[END] - span[START]
            for span in self.spans
            if span[NAME] == name and span[END] is not None
        ]

    def dump(
        self, path, wall_s: float, extra: dict | None = None,
        limit: int = 50_000,
    ) -> None:
        """Write the self-time table and the first *limit* spans."""
        document = {
            "wall_s": wall_s,
            "self_times": self.self_times(),
            "spans_recorded": len(self.spans),
            "span_fields": ["name", "start", "end", "parent", "event_id"],
            "spans": self.spans[:limit],
        }
        document.update(extra or {})
        with open(path, "w") as handle:
            json.dump(document, handle)


def budget_table(self_times: dict[str, dict], wall_s: float) -> str:
    """A per-layer time budget: self time and its share of the wall."""
    lines = [f"  {'span':<24}{'calls':>9}{'self ms':>11}{'share':>8}"]
    attributed = 0.0
    for name, row in sorted(
        self_times.items(), key=lambda item: -item[1]["self_s"]
    ):
        attributed += row["self_s"]
        lines.append(
            f"  {name:<24}{row['calls']:>9}{row['self_s'] * 1e3:>11.1f}"
            f"{row['self_s'] / wall_s:>8.1%}"
        )
    rest = max(0.0, wall_s - attributed)
    lines.append(
        f"  {'(harness + untraced)':<24}{'':>9}{rest * 1e3:>11.1f}"
        f"{rest / wall_s:>8.1%}"
    )
    return "\n".join(lines)

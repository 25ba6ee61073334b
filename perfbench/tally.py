"""Pure arithmetic of the benchmark: percentiles, medians and span self time.

Nothing here imports the program under test, so the tests of these helpers
run without a fleet.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


def percentile(samples: Iterable[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``q``% of
    the samples at or below it.  ``q`` in (0, 100]; samples must be non-empty."""
    if not 0.0 < q <= 100.0:
        raise ValueError("percentile q must be in (0, 100]")
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


#: One recorded span: thread id, layer name, start and end (seconds).
SpanRecord = Tuple[int, str, float, float]


def covered(interval: Tuple[float, float], children: Sequence[Tuple[float, float]]) -> float:
    """Length of the part of ``interval`` that the union of ``children``
    covers (children are clipped to the interval and may overlap)."""
    start, end = interval
    clipped = sorted(
        (max(start, child_start), min(end, child_end))
        for child_start, child_end in children
        if child_end > start and child_start < end
    )
    total = 0.0
    run_start: Optional[float] = None
    run_end = 0.0
    for child_start, child_end in clipped:
        if run_start is None or child_start > run_end:
            if run_start is not None:
                total += run_end - run_start
            run_start, run_end = child_start, child_end
        else:
            run_end = max(run_end, child_end)
    if run_start is not None:
        total += run_end - run_start
    return total


def self_times(spans: Iterable[SpanRecord]) -> Dict[str, float]:
    """Self time per layer: each span's duration minus the part of it that
    its child spans cover, summed by layer name.

    Spans of one thread nest; the tree is rebuilt per thread by interval
    containment (a span's parent is the innermost earlier-starting span that
    ends no earlier than it does).  Spans of different threads never parent
    one another.
    """
    by_thread: Dict[int, List[Tuple[float, float, str]]] = {}
    for thread, layer, start, end in spans:
        by_thread.setdefault(thread, []).append((start, end, layer))
    totals: Dict[str, float] = {}
    for records in by_thread.values():
        # Parents first: earlier start, and on a tie the longer span.
        records.sort(key=lambda record: (record[0], -record[1]))
        children: List[List[Tuple[float, float]]] = [[] for _ in records]
        stack: List[int] = []
        for index, (start, end, _) in enumerate(records):
            while stack and records[stack[-1]][1] < end:
                stack.pop()
            if stack:
                children[stack[-1]].append((start, end))
            stack.append(index)
        for index, (start, end, layer) in enumerate(records):
            own = (end - start) - covered((start, end), children[index])
            totals[layer] = totals.get(layer, 0.0) + own
    return totals

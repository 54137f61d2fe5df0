"""In-memory span recorder, self-time arithmetic and the tail-percentile rule.

A :class:`Tracer` records one :class:`Span` per call into a wrapped layer:
its name, start, end, the span that was open on the same thread when it
began (its parent) and the thread it ran on. Nothing is written while the
workload runs; :meth:`Tracer.dump` writes the spans out afterwards.

A layer's *self time* is its span's duration minus the part of that interval
its child spans cover, so nested layers are never counted twice. Spans from
different threads never nest, so under a multi-threaded workload the summed
self time of a layer is busy time over all threads and can exceed wall time.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class Span:
    """One timed call into a layer."""

    span_id: int
    parent_id: int | None
    name: str
    start: float
    end: float
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Thread-safe span and counter recorder.

    Args:
        clock: Monotonic time source in seconds (tests inject a fake one).
    """

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self.spans: list[Span] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.samples: dict[str, list[float]] = defaultdict(list)

    def now(self) -> float:
        """The tracer's clock reading."""
        return self._clock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        """Time the enclosed block as one span named ``name``."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            span_id = next(self._ids)
        stack.append(span_id)
        start = self._clock()
        try:
            yield
        finally:
            end = self._clock()
            stack.pop()
            record = Span(span_id, parent, name, start, end,
                          threading.get_ident())
            with self._lock:
                self.spans.append(record)

    def count(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to the counter ``name``."""
        with self._lock:
            self.counters[name] += amount

    def sample(self, name: str, value: float) -> None:
        """Append one observation to the sample list ``name``."""
        with self._lock:
            self.samples[name].append(value)

    def dump(self, path, header: dict) -> None:
        """Write ``header`` then one JSON line per span to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            for record in sorted(self.spans, key=lambda s: s.span_id):
                handle.write(json.dumps(asdict(record), sort_keys=True) + "\n")


def _covered(intervals: list[tuple[float, float]], low: float,
             high: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[low, high]``."""
    clipped = sorted((max(a, low), min(b, high)) for a, b in intervals)
    total = 0.0
    reach = low
    for a, b in clipped:
        a = max(a, reach)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Summed self time per span name.

    Args:
        spans: Recorded spans (any threads, any order).

    Returns:
        ``{name: seconds}``: each span's duration minus the part of its
        interval covered by its direct children, summed per name.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for record in spans:
        if record.parent_id is not None:
            children[record.parent_id].append((record.start, record.end))
    totals: dict[str, float] = defaultdict(float)
    for record in spans:
        covered = _covered(children.get(record.span_id, []),
                           record.start, record.end)
        totals[record.name] += record.duration - covered
    return dict(totals)


def call_counts(spans: list[Span]) -> dict[str, int]:
    """Number of spans per name."""
    counts: dict[str, int] = defaultdict(int)
    for record in spans:
        counts[record.name] += 1
    return dict(counts)


#: Samples a tail percentile must leave beyond it to be reported.
TAIL_BEYOND = 10


def tail_percentile(values: list[float],
                    beyond: int = TAIL_BEYOND) -> tuple[float, float, int] | None:
    """The highest percentile that leaves at least ``beyond`` samples above it.

    With ``n`` samples sorted ascending, the sample at 1-based rank ``r``
    has ``n - r`` samples beyond it; the highest admissible rank is
    ``n - beyond``, which sits at percentile ``100 * r / n``.

    Args:
        values: The samples.
        beyond: Samples that must lie beyond the reported percentile.

    Returns:
        ``(value, percentile, n)``, or ``None`` when there are too few
        samples (``n <= beyond``) for any percentile to qualify.
    """
    n = len(values)
    rank = n - beyond
    if rank < 1:
        return None
    return sorted(values)[rank - 1], 100.0 * rank / n, n

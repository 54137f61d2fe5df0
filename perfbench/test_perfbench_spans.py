"""Self time, thread separation and the tail-percentile rule of ``spans``."""

import threading

import pytest

from spans import Tracer, call_counts, self_times, tail_percentile


class FakeClock:
    """A clock that only moves when told to."""

    def __init__(self):
        self.now = 0.0
        self.lock = threading.Lock()

    def __call__(self):
        with self.lock:
            return self.now

    def advance(self, seconds):
        with self.lock:
            self.now += seconds


def test_nested_spans_subtract_children():
    clock = FakeClock()
    tracer = Tracer(clock)
    with tracer.span("outer"):
        clock.advance(1.0)
        with tracer.span("inner"):
            clock.advance(2.0)
            with tracer.span("leaf"):
                clock.advance(0.5)
        clock.advance(0.25)
        with tracer.span("inner"):
            clock.advance(3.0)
    own = self_times(tracer.spans)
    assert own == pytest.approx({"outer": 1.25, "inner": 5.0, "leaf": 0.5})
    assert call_counts(tracer.spans) == {"outer": 1, "inner": 2, "leaf": 1}
    first_inner = min((s for s in tracer.spans if s.name == "inner"),
                      key=lambda s: s.start)
    leaf, = (s for s in tracer.spans if s.name == "leaf")
    outer, = (s for s in tracer.spans if s.name == "outer")
    assert leaf.parent_id == first_inner.span_id
    assert first_inner.parent_id == outer.span_id
    assert outer.parent_id is None


def test_self_time_sums_of_all_spans_equal_root_wall():
    clock = FakeClock()
    tracer = Tracer(clock)
    with tracer.span("root"):
        for _ in range(3):
            with tracer.span("child"):
                clock.advance(0.1)
            clock.advance(0.2)
    own = self_times(tracer.spans)
    assert sum(own.values()) == pytest.approx(0.9)
    assert own["root"] == pytest.approx(0.6)


def test_concurrent_threads_never_nest_and_sum_busy_time():
    clock = FakeClock()
    tracer = Tracer(clock)
    opened = threading.Barrier(3)
    release = threading.Event()

    def worker():
        with tracer.span("work"):
            opened.wait(timeout=10)
            release.wait(timeout=10)

    threads = [threading.Thread(target=worker) for _ in range(2)]
    with tracer.span("main"):
        for thread in threads:
            thread.start()
        opened.wait(timeout=10)  # both worker spans are open now
        clock.advance(2.0)
        release.set()
        for thread in threads:
            thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)
    work = [span for span in tracer.spans if span.name == "work"]
    assert len(work) == 2
    assert all(span.parent_id is None for span in work)
    assert len({span.thread for span in work}) == 2
    own = self_times(tracer.spans)
    # Spans of other threads are never children: the main span keeps its
    # whole 2 s, and the workers' busy time (4 s) exceeds the wall time.
    assert own == pytest.approx({"main": 2.0, "work": 4.0})


@pytest.mark.parametrize("n, rank, percentile", [
    (11, 1, 100.0 / 11),
    (20, 10, 50.0),
    (30, 20, 100.0 * 20 / 30),
    (100, 90, 90.0),
    (1000, 990, 99.0),
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, rank, percentile):
    values = [float(v) for v in range(n, 0, -1)]  # unsorted on purpose
    value, level, count = tail_percentile(values)
    assert count == n
    assert value == float(rank)
    assert level == pytest.approx(percentile)
    assert sum(1 for v in values if v > value) == 10


@pytest.mark.parametrize("n", [0, 1, 10])
def test_tail_needs_more_than_ten_samples(n):
    assert tail_percentile([1.0] * n) is None


def test_dump_writes_header_then_spans(tmp_path):
    clock = FakeClock()
    tracer = Tracer(clock)
    with tracer.span("a"):
        clock.advance(1.0)
    path = tmp_path / "spans.jsonl"
    tracer.dump(path, {"workload": "census"})
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert '"workload": "census"' in lines[0]
    assert '"name": "a"' in lines[1]

"""Wrap the pipeline's layer entry points with spans, from outside ``src/``.

:func:`traced` installs a wrapper at every binding site the pipeline calls
through and restores the originals on exit. A function the pipeline imports
by name (``negotiate_probe_mss`` in :mod:`repro.core.census`) is wrapped in
the importing module; a method is wrapped on its class; a class the pipeline
instantiates by name (``ColumnarProbeEngine``) is replaced in the importing
module by a subclass whose ``run`` is timed and whose returned
:class:`~repro.core.columnar.ColumnarStats` are kept for the report.

Span names are the per-layer metric prefixes of ``BENCHMARK.json``.
"""

from __future__ import annotations

import dataclasses
import functools
import statistics
from contextlib import contextmanager

import repro.core.census as census_module
import repro.core.training as training_module
import repro.serving.service as service_module
from repro.core.checkpoint import CensusCheckpoint
from repro.core.classifier import CaaiClassifier
from repro.core.columnar import ColumnarProbeEngine, ColumnarStats
from repro.core.features import FeatureExtractor
from repro.core.gather import TraceGatherer
from repro.core.training import TrainingSetBuilder
from repro.ml.random_forest import RandomForestClassifier
from repro.serving.queue import WorkQueue
from repro.web.crawler import PageSearchTool
from repro.web.population import ServerPopulation

from spans import Tracer, call_counts, self_times, tail_percentile


def _timed(tracer: Tracer, name: str, function, after=None):
    """``function`` wrapped in a span; ``after(result, args)`` sees results."""

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = function(*args, **kwargs)
        if after is not None:
            after(result, args)
        return result

    return wrapper


def sum_stats(engines: list[ColumnarStats]) -> ColumnarStats:
    """Field-wise sum of several engines' cumulative numeric stats."""
    total = ColumnarStats()
    for stats in engines:
        for item in dataclasses.fields(ColumnarStats):
            value = getattr(stats, item.name)
            if isinstance(value, (int, float)):
                setattr(total, item.name, getattr(total, item.name) + value)
    return total


@contextmanager
def traced(tracer: Tracer):
    """Install span wrappers on every layer entry point for the block.

    Yields:
        The list that collects each columnar engine's stats object (one per
        engine instance; ``run`` accumulates into it, so the final values
        are read once the block has ended).
    """
    engine_stats: list[ColumnarStats] = []
    leases: dict[tuple[int, int], float] = {}

    class TracedEngine(ColumnarProbeEngine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            engine_stats.append(self.stats)

        def run(self, lanes):
            with tracer.span("columnar.run"):
                return super().run(lanes)

    def on_claim(lease, args):
        if lease is not None:
            tracer.count("queue.claim_useful")
            leases[(lease.shard, lease.generation)] = tracer.now()

    def on_finish(result, args):
        lease = args[1]
        began = leases.pop((lease.shard, lease.generation), None)
        if began is not None:
            tracer.sample("orchestrator.shard_latency", tracer.now() - began)

    def on_classify(result, args):
        tracer.count("classify.rows", len(result))

    def on_build(dataset, args):
        tracer.count("training.rows", len(dataset))

    patches = [
        (ServerPopulation, "generate", "web.population_generate", None),
        (PageSearchTool, "search", "web.crawl", None),
        (census_module, "negotiate_probe_mss", "gather.mss", None),
        (TraceGatherer, "gather_probe", "gather.scalar_probe", None),
        (FeatureExtractor, "extract", "features.extract", None),
        (CaaiClassifier, "classify_vectors", "classify", on_classify),
        (RandomForestClassifier, "fit", "forest.fit", None),
        (TrainingSetBuilder, "build_dataset", "training.build", on_build),
        (CensusCheckpoint, "write_shard", "checkpoint.write_shard", None),
        (CensusCheckpoint, "merge_report", "checkpoint.merge", None),
        (WorkQueue, "claim", "queue.claim", on_claim),
        (WorkQueue, "finish", "queue.finish", on_finish),
        (service_module, "timed_load", "artifact.load", None),
    ]
    originals = []
    for owner, attribute, name, after in patches:
        original = owner.__dict__[attribute]
        originals.append((owner, attribute, original))
        setattr(owner, attribute, _timed(tracer, name, original, after))
    for module in (census_module, training_module):
        originals.append((module, "ColumnarProbeEngine",
                          module.ColumnarProbeEngine))
        module.ColumnarProbeEngine = TracedEngine
    try:
        yield engine_stats
    finally:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)


def layer_metrics(tracer: Tracer, engines: list[ColumnarStats],
                  wall: float, overhead: float) -> dict:
    """Every per-layer metric of ``BENCHMARK.json`` from one traced run.

    Args:
        tracer: The tracer the run recorded into.
        engines: The columnar stats objects :func:`traced` collected.
        wall: Traced wall seconds of the measured jobs.
        overhead: ``wall`` minus the untraced wall of the same jobs.

    Returns:
        ``{metric name: value}``; a layer that did not run reports 0.
    """
    own = self_times(tracer.spans)
    calls = call_counts(tracer.spans)
    stats = sum_stats(engines)
    rounds = stats.columnar_rounds + stats.real_rounds
    claims = calls.get("queue.claim", 0)
    latencies = tracer.samples.get("orchestrator.shard_latency", [])
    tail = tail_percentile(latencies) or (0.0, 0.0, len(latencies))
    metrics = {
        "columnar.kernel_s": stats.kernel_seconds,
        "columnar.scalar_s": stats.scalar_seconds,
        "columnar.real_round_share": stats.real_rounds / rounds if rounds else 0.0,
        "columnar.occupancy": stats.occupancy,
        "columnar.admission_rejects": stats.admission_rejects,
        "columnar.scalar_probes": stats.scalar_probes,
        "columnar.eject_rate": stats.eject_rate,
        "columnar.lanes": stats.lanes,
        "classify.rows": tracer.counters.get("classify.rows", 0),
        "training.rows": tracer.counters.get("training.rows", 0),
        "queue.claim_useful_ratio": (tracer.counters.get("queue.claim_useful", 0)
                                     / claims if claims else 0.0),
        "orchestrator.shard_latency_p50_s": (statistics.median(latencies)
                                             if latencies else 0.0),
        "orchestrator.shard_latency_tail_s": tail[0],
        "orchestrator.shard_latency_tail_pct": tail[1],
        "orchestrator.shard_latency_samples": tail[2],
        "trace.wall_s": wall,
        "trace.overhead_s": overhead,
    }
    for span, metric in _SELF_TIMES.items():
        metrics[metric] = own.get(span, 0.0)
    for span, metric in _CALLS.items():
        metrics[metric] = calls.get(span, 0)
    return metrics


#: Span name -> metric reporting its summed self time.
_SELF_TIMES = {
    "web.population_generate": "web.population_generate_s",
    "web.crawl": "web.crawl_s",
    "gather.mss": "gather.mss_s",
    "gather.scalar_probe": "gather.scalar_probe_s",
    "columnar.run": "columnar.run_s",
    "features.extract": "features.extract_s",
    "classify": "classify.s",
    "forest.fit": "forest.fit_s",
    "training.build": "training.build_s",
    "checkpoint.write_shard": "checkpoint.write_shard_s",
    "checkpoint.merge": "checkpoint.merge_s",
    "queue.claim": "queue.claim_s",
    "queue.finish": "queue.finish_s",
    "artifact.load": "artifact.load_s",
}

#: Span name -> metric reporting its number of calls.
_CALLS = {
    "web.crawl": "web.crawl_calls",
    "gather.mss": "gather.mss_calls",
    "gather.scalar_probe": "gather.scalar_probe_calls",
    "features.extract": "features.extract_calls",
    "classify": "classify.calls",
    "checkpoint.write_shard": "checkpoint.write_shard_calls",
    "queue.claim": "queue.claim_calls",
}

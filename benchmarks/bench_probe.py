"""Probe-engine benchmark: the three engine tiers against each other.

Times the CAAI probe hot paths -- trace gathering, the 100-server census and
the training-set build -- across the engine tiers (the scalar reference,
segment blocks with the batched ACK ladder, columnar cohorts), verifies the
engines produce bit-identical traces, and writes ``BENCH_probe.json`` so the
probe-side performance trajectory can be tracked across commits::

    PYTHONPATH=src python benchmarks/bench_probe.py [output.json]

Besides the end-to-end timings the benchmark records a per-phase breakdown
(emit / ACK engine / gather bookkeeping) and the number of Segment objects
and SegmentBlock records materialised per probe, so a future devectorisation
regression is attributable to the phase that caused it.

The columnar sections time the cohort engine on its designed regime -- wide
cohorts of kernel-admissible sessions whose rounds stay clean -- where the
``columnar_speedup`` tripwire applies, and *also* on the end-to-end lossy
census/training workloads. There a loss draw only thins a round's ACK
ladder and the round stays on the vector step; what still runs on the
(intrinsically scalar) real-round fallback are rounds whose last packet or
last ACK is lost, the round after each emulated timeout, and whole probes
of senders rejected at admission. By Amdahl's law those keep the end-to-end
gain modest, so it is recorded as ``census_columnar_speedup`` /
``training_columnar_speedup`` with no tripwire; the per-scenario stats
(kernel vs scalar-replay seconds, cohort occupancy, eject rate, real-round
share) attribute exactly where the wall time went.

The workload matches ``bench_smoke_inference.py``'s small scale (the same
training-set and census configurations), so the census/training timings here
are directly comparable with the ``BENCH_inference.json`` baselines recorded
before the batched engine existed (census(100) 8.2 s, training set 22.4 s)
and with the PR 2 ``BENCH_probe.json`` baselines recorded before the block
engine existed (census(100) 2.5 s, training set 5.8 s).
"""

from __future__ import annotations

import json
import os
import sys
import time
from contextlib import contextmanager

import numpy as np

from repro.core.census import CensusConfig, CensusRunner
from repro.core.classifier import CaaiClassifier
from repro.core.columnar import (
    COLUMNAR_ENV,
    ColumnarProbeEngine,
    sender_admissible,
)
from repro.core.gather import GatherConfig, ProbeJob, TraceGatherer
from repro.core.training import TrainingSetBuilder
from repro.net.conditions import NetworkCondition, default_condition_database
from repro.tcp.connection import ACK_BATCH_ENV, SenderConfig, TcpSender
from repro.tcp.packet import Segment, SegmentBlock
from repro.tcp.registry import IDENTIFIABLE_ALGORITHMS, create_algorithm
from repro.web.population import PopulationConfig, ServerPopulation

CENSUS_SIZE = 100
N_TREES = 60
#: Pre-batch baselines from BENCH_inference.json (PR 1, scalar engine).
BASELINE_CENSUS_SECONDS = 8.2
BASELINE_TRAINING_SECONDS = 22.4
#: Pre-block baselines from BENCH_probe.json (PR 2, batched-ACK objects).
PR2_CENSUS_SECONDS = 2.504
PR2_TRAINING_SECONDS = 5.762
#: CI tripwire: the default engine (segment blocks with the batched ACK
#: ladder) must beat the scalar reference (``REPRO_ACK_BATCH=0``) by at
#: least this factor on the probe workload. It is the product of the two
#: 2.5x tripwires it replaces (blocks vs batched-ACK objects, batched-ACK
#: objects vs scalar); a block path or ladder batching that silently stopped
#: engaging still fails loudly.
TARGET_ENGINE_SPEEDUP = 6.25
#: CI tripwire: the columnar cohort engine must beat the PR 3 scalar path by
#: at least this factor on the cohort workload (wide clean cohorts, its
#: designed regime; the development machine measures ~6x there).
TARGET_COLUMNAR_SPEEDUP = 4.0
#: Lanes in the headline cohort workload and the sweep's largest cohort.
COHORT_WORKLOAD_LANES = 2048
COHORT_SWEEP_LANES = 4096
COHORT_SWEEP_SIZES = (1, 64, 512, 4096)
#: Lanes per scenario pack in the adversarial-pack sweep.
SCENARIO_SWEEP_LANES = 128


def _make_server(algorithm: str):
    from repro.core.gather import SyntheticServer

    return SyntheticServer(algorithm_name=algorithm,
                           sender_config_factory=lambda mss: SenderConfig(
                               mss=mss, initial_window=3))


def probe_workload() -> list:
    """One full probe per identifiable algorithm at w_timeout = 512."""
    traces = []
    for index, algorithm in enumerate(IDENTIFIABLE_ALGORITHMS):
        gatherer = TraceGatherer(GatherConfig(w_timeout=512, mss=100))
        traces.append(gatherer.gather_probe(
            _make_server(algorithm), NetworkCondition.ideal(),
            np.random.default_rng(100 + index)))
    return traces


def timed(function):
    start = time.perf_counter()
    value = function()
    return time.perf_counter() - start, value


# ------------------------------------------------------------ columnar cohorts
def cohort_algorithms() -> list[str]:
    """The registry algorithms the columnar engine admits to its clean path."""
    names = []
    for algorithm in IDENTIFIABLE_ALGORITHMS:
        sender = TcpSender(create_algorithm(algorithm), SenderConfig(mss=100))
        if sender_admissible(sender):
            names.append(algorithm)
    return names


def cohort_specs(count: int, seed_offset: int) -> list[tuple[str, int]]:
    """``count`` (algorithm, seed) pairs cycling over the admissible mix."""
    algorithms = cohort_algorithms()
    return [(algorithms[index % len(algorithms)], seed_offset + index)
            for index in range(count)]


def scalar_cohort(specs: list[tuple[str, int]], w_timeout: int) -> list:
    """The PR 3 path: one sequential ``gather_probe`` per session."""
    config = GatherConfig(w_timeout=w_timeout, mss=100)
    gatherer = TraceGatherer(config)
    return [gatherer.gather_probe(_make_server(algorithm),
                                  NetworkCondition.ideal(),
                                  np.random.default_rng(seed))
            for algorithm, seed in specs]


def columnar_cohort(specs: list[tuple[str, int]], w_timeout: int,
                    cohort: int) -> tuple[list, "ColumnarProbeEngine"]:
    """The same sessions as cohort-sized chunks of one columnar engine."""
    config = GatherConfig(w_timeout=w_timeout, mss=100)
    engine = ColumnarProbeEngine()
    jobs = [ProbeJob(_make_server(algorithm), NetworkCondition.ideal(),
                     np.random.default_rng(seed), config)
            for algorithm, seed in specs]
    probes = []
    for low in range(0, len(jobs), cohort):
        probes.extend(engine.gather_probes(jobs[low:low + cohort]))
    return probes, engine


def columnar_phase_stats(engine: "ColumnarProbeEngine") -> dict:
    """The engine counters a scenario records: where did the time go."""
    stats = engine.stats
    rounds = stats.columnar_rounds + stats.real_rounds
    return {
        "kernel_seconds": round(stats.kernel_seconds, 3),
        "scalar_replay_seconds": round(stats.scalar_seconds, 3),
        "cohort_occupancy": round(stats.occupancy, 1),
        "eject_rate": round(stats.eject_rate, 4),
        "real_round_share": round(stats.real_rounds / rounds, 4) if rounds else 0.0,
        "admission_rejects": stats.admission_rejects,
    }


def with_columnar(enabled: bool, function):
    os.environ[COLUMNAR_ENV] = "1" if enabled else "0"
    try:
        return timed(function)
    finally:
        os.environ[COLUMNAR_ENV] = "1"


def with_engine(default: bool, function):
    """Time ``function`` on the default engine or the scalar reference."""
    os.environ[ACK_BATCH_ENV] = "1" if default else "0"
    try:
        return timed(function)
    finally:
        os.environ[ACK_BATCH_ENV] = "1"


def assert_trace_parity(label: str, left, right) -> None:
    for probe_left, probe_right in zip(left, right):
        if (probe_left.trace_a != probe_right.trace_a
                or probe_left.trace_b != probe_right.trace_b):
            raise SystemExit(f"FAIL: {label} traces diverge")


# --------------------------------------------------------------- breakdown
#: Sender entry points whose wall time counts as "ACK engine + emit". The
#: depth guard keeps nested calls (``on_ack_ladder`` -> ``on_ack_packet``,
#: legacy wrappers -> native methods) from double-counting.
_SENDER_ENTRY_POINTS = ("start", "start_native", "on_ack", "on_ack_native",
                        "on_ack_packet", "on_ack_run", "on_ack_ladder",
                        "on_timer", "on_timer_native")
_EMIT_POINTS = ("_emit_range", "_build_segment")


@contextmanager
def instrumented():
    """Patch the sender and packet classes with counting/timing wrappers."""
    timers = {"sender": 0.0, "emit": 0.0, "segments": 0, "blocks": 0}
    state = {"depth": 0}
    saved = {}

    def timing_wrapper(original, bucket, guarded):
        def wrapper(self, *args, **kwargs):
            if guarded:
                state["depth"] += 1
                if state["depth"] > 1:
                    try:
                        return original(self, *args, **kwargs)
                    finally:
                        state["depth"] -= 1
            start = time.perf_counter()
            try:
                return original(self, *args, **kwargs)
            finally:
                timers[bucket] += time.perf_counter() - start
                if guarded:
                    state["depth"] -= 1
        return wrapper

    def counting_wrapper(original, bucket):
        def wrapper(self):
            timers[bucket] += 1
            original(self)
        return wrapper

    for name in _SENDER_ENTRY_POINTS:
        saved[name] = getattr(TcpSender, name)
        setattr(TcpSender, name, timing_wrapper(saved[name], "sender", True))
    for name in _EMIT_POINTS:
        saved[name] = getattr(TcpSender, name)
        setattr(TcpSender, name, timing_wrapper(saved[name], "emit", False))
    saved["segment_init"] = Segment.__post_init__
    Segment.__post_init__ = counting_wrapper(saved["segment_init"], "segments")
    saved["block_init"] = SegmentBlock.__post_init__
    SegmentBlock.__post_init__ = counting_wrapper(saved["block_init"], "blocks")
    try:
        yield timers
    finally:
        for name in _SENDER_ENTRY_POINTS + _EMIT_POINTS:
            setattr(TcpSender, name, saved[name])
        Segment.__post_init__ = saved["segment_init"]
        SegmentBlock.__post_init__ = saved["block_init"]


def phase_breakdown(default: bool) -> dict:
    """One instrumented probe-workload pass, split into phases per probe."""
    probes = len(IDENTIFIABLE_ALGORITHMS)
    with instrumented() as timers:
        total_seconds, _ = with_engine(default, probe_workload)
    emit = timers["emit"]
    ack_engine = max(timers["sender"] - emit, 0.0)
    gather = max(total_seconds - timers["sender"], 0.0)
    return {
        "emit_seconds": round(emit, 3),
        "ack_engine_seconds": round(ack_engine, 3),
        "gather_bookkeeping_seconds": round(gather, 3),
        "segment_objects_per_probe": round(timers["segments"] / probes, 1),
        "block_records_per_probe": round(timers["blocks"] / probes, 1),
    }


# ------------------------------------------------------- scenario-pack sweep
def scenario_pack_sweep() -> dict:
    """Probe throughput per adversarial scenario pack (docs/SCENARIOS.md).

    Each pack probes ``SCENARIO_SWEEP_LANES`` servers through one columnar
    engine, with conditions drawn from the pack's own preset and servers
    wrapped by the pack. Wrapped servers are deliberately inadmissible to the
    columnar kernel, so the wrapping packs report ``scalar_probe_share`` 1.0
    and their throughput prices the full scalar path; the honest baselines
    show how much of the remaining columnar time the lossy conditions push
    onto the real-round fallback (``real_round_share``). Recorded without a
    tripwire, like the census/training columnar ratios.
    """
    from repro.net.conditions import condition_database_preset
    from repro.scenarios import SCENARIO_PACKS

    sweep: dict = {}
    for name, pack in SCENARIO_PACKS.items():
        conditions = condition_database_preset(
            pack.condition_preset, size=300, seed=2010)
        config = GatherConfig(w_timeout=64, mss=100)
        engine = ColumnarProbeEngine()

        def run_pack():
            jobs = []
            for index in range(SCENARIO_SWEEP_LANES):
                rng = np.random.default_rng(5000 + index)
                algorithm = IDENTIFIABLE_ALGORITHMS[
                    index % len(IDENTIFIABLE_ALGORITHMS)]
                server = pack.wrap_server(_make_server(algorithm),
                                          f"bench-{index:04d}")
                jobs.append(ProbeJob(server, conditions.sample(rng), rng,
                                     config))
            return engine.gather_probes(jobs)

        seconds, probes_out = timed(run_pack)
        stats = columnar_phase_stats(engine)
        sweep[name] = {
            "probes_per_second": round(len(probes_out) / seconds, 2),
            "real_round_share": stats["real_round_share"],
            "scalar_probe_share": round(
                engine.stats.scalar_probes / SCENARIO_SWEEP_LANES, 4),
            "kernel_seconds": stats["kernel_seconds"],
            "scalar_replay_seconds": stats["scalar_replay_seconds"],
        }
    return sweep


def main() -> None:
    output_path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_probe.json"
    results: dict = {"scale": "small", "census_size": CENSUS_SIZE}
    probes = len(IDENTIFIABLE_ALGORITHMS)

    # ---- probe throughput: default engine vs scalar reference, with parity -
    print("timing probe workload (default engine vs scalar reference) ...",
          flush=True)
    engine_ratios = []
    default_best = scalar_best = float("inf")
    default_traces = scalar_traces = None
    for _ in range(3):
        default_seconds, default_traces = with_engine(True, probe_workload)
        scalar_seconds, scalar_traces = with_engine(False, probe_workload)
        engine_ratios.append(scalar_seconds / default_seconds)
        default_best = min(default_best, default_seconds)
        scalar_best = min(scalar_best, scalar_seconds)
    assert_trace_parity("default vs scalar reference", default_traces,
                        scalar_traces)
    engine_speedup = sorted(engine_ratios)[len(engine_ratios) // 2]
    results["probe_workload_probes"] = probes
    results["probes_per_second"] = round(probes / default_best, 2)
    results["probes_per_second_scalar"] = round(probes / scalar_best, 2)
    results["engine_speedup"] = round(engine_speedup, 2)
    results["engine_speedup_best"] = round(max(engine_ratios), 2)

    # ---- per-phase breakdown (attributes future regressions) --------------
    print("profiling per-phase breakdown ...", flush=True)
    results["phases_blocks"] = phase_breakdown(default=True)
    results["phases_scalar"] = phase_breakdown(default=False)

    # ---- columnar cohort engine vs the PR 3 scalar path -------------------
    print("timing columnar cohort workload "
          f"({COHORT_WORKLOAD_LANES} lanes, w_timeout=512) ...", flush=True)
    specs = cohort_specs(COHORT_WORKLOAD_LANES, seed_offset=300)
    scalar_cohort_best, scalar_probes = timed(
        lambda: scalar_cohort(specs, 512))
    columnar_cohort_best = float("inf")
    cohort_engine = None
    for _ in range(2):
        columnar_seconds, (columnar_probes, cohort_engine) = timed(
            lambda: columnar_cohort(specs, 512, COHORT_WORKLOAD_LANES))
        columnar_cohort_best = min(columnar_cohort_best, columnar_seconds)
    assert_trace_parity("columnar vs scalar cohort", columnar_probes,
                        scalar_probes)
    columnar_speedup = scalar_cohort_best / columnar_cohort_best
    results["columnar_speedup"] = round(columnar_speedup, 2)
    results["columnar_probes_per_second"] = round(
        COHORT_WORKLOAD_LANES / columnar_cohort_best, 2)
    results["columnar_probes_per_second_scalar"] = round(
        COHORT_WORKLOAD_LANES / scalar_cohort_best, 2)
    results["columnar_phases"] = columnar_phase_stats(cohort_engine)

    # ---- cohort-size sweep: occupancy is the engine's lever ---------------
    print(f"sweeping cohort sizes {COHORT_SWEEP_SIZES} "
          f"({COHORT_SWEEP_LANES} lanes, w_timeout=64) ...", flush=True)
    sweep_specs = cohort_specs(COHORT_SWEEP_LANES, seed_offset=9000)
    sweep_scalar_seconds, sweep_scalar_probes = timed(
        lambda: scalar_cohort(sweep_specs, 64))
    sweep: dict = {}
    for cohort in COHORT_SWEEP_SIZES:
        seconds, (probes_out, engine) = timed(
            lambda c=cohort: columnar_cohort(sweep_specs, 64, c))
        assert_trace_parity(f"cohort={cohort} sweep", probes_out,
                            sweep_scalar_probes)
        sweep[str(cohort)] = {
            "speedup": round(sweep_scalar_seconds / seconds, 2),
            "probes_per_second": round(COHORT_SWEEP_LANES / seconds, 2),
            **columnar_phase_stats(engine),
        }
    results["columnar_cohort_sweep"] = sweep
    results["probes_per_second_by_scale"] = {
        "single_probe_w512": results["probes_per_second"],
        f"cohort{COHORT_WORKLOAD_LANES}_w512":
            results["columnar_probes_per_second"],
        **{f"cohort{cohort}_w64": sweep[str(cohort)]["probes_per_second"]
           for cohort in COHORT_SWEEP_SIZES},
    }

    # ---- training set (same workload as bench_smoke_inference) -----------
    print("building training set (block engine) ...", flush=True)
    def build_training_set():
        builder = TrainingSetBuilder(
            conditions_per_pair=6, seed=7,
            condition_database=default_condition_database(size=1000, seed=2010))
        return builder.build_dataset()

    training_seconds, training_set = with_columnar(True, build_training_set)
    results["training_set_seconds"] = round(training_seconds, 3)
    results["training_set_rows"] = len(training_set)
    results["training_set_speedup_vs_baseline"] = round(
        BASELINE_TRAINING_SECONDS / training_seconds, 2)
    results["training_set_speedup_vs_pr2"] = round(
        PR2_TRAINING_SECONDS / training_seconds, 2)

    # The end-to-end build draws every condition from the (100% lossy)
    # database, so most rounds run on the real-round fallback: the honest
    # columnar ratio here is ~1x, recorded without a tripwire.
    print("building training set (columnar disabled) ...", flush=True)
    training_off_seconds, training_off = with_columnar(False, build_training_set)
    if not (np.array_equal(training_set.features, training_off.features)
            and np.array_equal(training_set.labels, training_off.labels)):
        raise SystemExit("FAIL: training set diverges across the columnar knob")
    results["training_columnar_speedup"] = round(
        training_off_seconds / training_seconds, 2)

    # ---- census (same workload as bench_smoke_inference) ------------------
    print("running census ...", flush=True)
    classifier = CaaiClassifier(n_trees=N_TREES, seed=3)
    classifier.train(training_set)

    def run_census():
        # A fresh population per run: Web servers are stateful (ssthresh
        # caches, connection counters), so reusing one would hand the second
        # run different servers than the first.
        population = ServerPopulation(PopulationConfig(size=CENSUS_SIZE,
                                                       seed=2011))
        population.generate()
        return CensusRunner(classifier, CensusConfig(seed=99)).run(population)

    census_seconds, report = with_columnar(True, run_census)
    results["census_seconds"] = round(census_seconds, 3)
    results["census_valid_fraction"] = round(report.valid_fraction(), 3)
    results["census_speedup_vs_baseline"] = round(
        BASELINE_CENSUS_SECONDS / census_seconds, 2)
    results["census_speedup_vs_pr2"] = round(
        PR2_CENSUS_SECONDS / census_seconds, 2)

    print("running census (columnar disabled) ...", flush=True)
    census_off_seconds, report_off = with_columnar(False, run_census)
    if report.outcomes != report_off.outcomes:
        raise SystemExit("FAIL: census outcomes diverge across the columnar knob")
    results["census_columnar_speedup"] = round(
        census_off_seconds / census_seconds, 2)

    # ---- adversarial scenario packs (docs/SCENARIOS.md) -------------------
    print(f"sweeping scenario packs ({SCENARIO_SWEEP_LANES} lanes each) ...",
          flush=True)
    results["scenario_packs"] = scenario_pack_sweep()

    with open(output_path, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(json.dumps(results, indent=2, sort_keys=True))
    print(f"\ndefault engine speedup over the scalar reference: "
          f"{engine_speedup:.2f}x")
    print(f"columnar cohort speedup: {columnar_speedup:.2f}x")
    failures = []
    if engine_speedup < TARGET_ENGINE_SPEEDUP:
        failures.append(f"engine_speedup {engine_speedup:.2f}x is below "
                        f"the {TARGET_ENGINE_SPEEDUP:.2f}x tripwire")
    if columnar_speedup < TARGET_COLUMNAR_SPEEDUP:
        failures.append(f"columnar_speedup {columnar_speedup:.2f}x is below "
                        f"the {TARGET_COLUMNAR_SPEEDUP:.1f}x tripwire")
    if results["phases_blocks"]["segment_objects_per_probe"] > 0:
        failures.append("the block pipeline materialised Segment objects")
    if failures:
        raise SystemExit("FAIL: " + "; ".join(failures))
    print(f"wrote {output_path}")


if __name__ == "__main__":
    main()

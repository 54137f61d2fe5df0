"""Workload inputs are pure functions of the seed; tracing never changes bytes."""

import dataclasses
import json
from pathlib import Path

import pytest

from instrument import layer_metrics, traced
from repro.core.classifier import CaaiClassifier
from repro.core.training import TrainingSetBuilder
from repro.serving.artifact import save_model
from spans import Tracer
from workloads import WORKLOADS, JobInput, Workload, job_input

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_job_input_is_a_pure_function_of_seed_and_index(workload):
    assert job_input(workload, 7, 3) == job_input(workload, 7, 3)
    assert job_input(workload, 7, 3).seed != job_input(workload, 8, 3).seed
    assert job_input(workload, 7, 3).seed != job_input(workload, 7, 4).seed


def test_census_types_probe_one_fixed_server_list():
    # The servers of job i never depend on the seed; the probe randomness
    # (the census seed) always does.
    assert job_input("census", 1, 0).parts == job_input("census", 2, 0).parts
    assert job_input("census", 1, 0).parts != job_input("census", 1, 1).parts
    # serve job i probes the first servers of census job i.
    assert (job_input("serve", 5, 2).parts[0].population_seed
            == job_input("census", 9, 2).parts[0].population_seed)
    packs = [part.pack for part in job_input("census-adversarial", 1, 0).parts]
    assert packs == ["policed", "ack-manipulated", "evasive"]


@pytest.fixture(scope="module")
def tiny_model(tmp_path_factory):
    builder = TrainingSetBuilder(conditions_per_pair=1, seed=3)
    classifier = CaaiClassifier(n_trees=5, seed=0).train(builder.build_dataset())
    path = tmp_path_factory.mktemp("model") / "tiny.caai"
    save_model(classifier, path)
    return path


def tiny_job(workload, size=8, seed=11):
    """Job 0 of ``workload`` with every population cut to ``size`` servers."""
    parts = tuple(dataclasses.replace(part, size=size)
                  for part in job_input(workload, seed, 0).parts)
    return JobInput(seed, parts)


@pytest.mark.parametrize("name", ["census", "census-adversarial", "serve",
                                  "train"])
def test_traced_and_untraced_bytes_are_equal(name, tiny_model, tmp_path):
    def make():
        workload = Workload(name, tiny_model, tmp_path)
        if name == "train":
            workload.spec = dataclasses.replace(workload.spec,
                                                conditions_per_pair=1)
        return workload

    job = tiny_job(name)
    plain = make()
    untraced = plain.run(plain.setup(job))
    tracer = Tracer()
    with traced(tracer) as engines:
        workload = make()
        traced_result = workload.run(workload.setup(job))
    assert untraced.blob and traced_result.blob == untraced.blob
    assert tracer.spans
    metrics = layer_metrics(tracer, engines, 1.0, 0.0)
    if name == "train":
        assert metrics["forest.fit_s"] > 0
        assert metrics["training.rows"] == untraced.units
    else:
        assert metrics["gather.mss_calls"] == untraced.units
        assert metrics["forest.fit_s"] == 0
    serve_only = metrics["checkpoint.write_shard_calls"] + metrics["queue.claim_calls"]
    assert (serve_only > 0) == (name == "serve")


def test_generated_populations_repeat_exactly(tiny_model, tmp_path):
    workload = Workload("census", tiny_model, tmp_path)
    job = tiny_job("census", size=12)

    def servers(prepared):
        _, (population,) = prepared
        return [(record.profile, record.condition) for record in population]

    assert servers(workload.setup(job)) == servers(workload.prepare(job))


def test_serve_report_equals_monolithic_census(tiny_model, tmp_path):
    workload = Workload("serve", tiny_model, tmp_path)
    job = tiny_job("serve", size=12)
    served = workload.run(workload.setup(job))
    assert served.blob == workload.monolithic(workload.prepare(job))
    assert served.first_result_s <= served.wall_s


def test_wrappers_are_removed_after_the_traced_block():
    import repro.core.census as census_module
    from repro.core.gather import TraceGatherer

    before = (census_module.negotiate_probe_mss, TraceGatherer.gather_probe,
              census_module.ColumnarProbeEngine)
    with traced(Tracer()):
        assert census_module.negotiate_probe_mss is not before[0]
    after = (census_module.negotiate_probe_mss, TraceGatherer.gather_probe,
             census_module.ColumnarProbeEngine)
    assert after == before


def test_benchmark_json_matches_emitted_metrics_and_metric_map():
    declared = json.loads(BENCHMARK.read_text())
    per_layer = [metric["name"] for metric in declared["per_layer"]]
    assert set(layer_metrics(Tracer(), [], 1.0, 0.0)) == set(per_layer)
    metric_map = json.loads(
        (BENCHMARK.parent / "perfbench" / "metric_map.json").read_text())
    assert list(metric_map["per_layer"]) == per_layer
    assert list(metric_map["end_to_end"]) == [
        metric["name"] for metric in declared["end_to_end"]]
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    for entry in metric_map["per_layer"].values():
        assert entry["module"] and set(entry["workloads"]) <= set(WORKLOADS)


def test_failures_are_counted_apart_from_invalid_traces():
    from repro.core.results import CensusReport, ServerOutcome
    from repro.core.trace import InvalidReason
    from workloads import _census_result

    def outcome(name, **fields):
        return ServerOutcome(server_id=name, valid=False, **fields)

    report = CensusReport()
    for item in (
            ServerOutcome(server_id="ok", valid=True, category="reno"),
            outcome("short", invalid_reason=InvalidReason.INSUFFICIENT_DATA),
            outcome("dead", invalid_reason=InvalidReason.WORKER_FAILED),
            outcome("slow", invalid_reason=InvalidReason.TOO_FEW_REQUESTS,
                    fault_events=(("task_timeout", 0),)),
            ServerOutcome(server_id="recovered", valid=True, category="bic",
                          attempts=2, fault_events=(("worker_death", 0),))):
        report.add(item)
    result = _census_result([report], 1.0, [1.0])
    assert (result.attempted, result.failed, result.invalid) == (5, 2, 1)

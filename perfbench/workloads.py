"""The benchmark's four workloads: inputs from a seed, and one job each.

Every workload is a closed loop of batch jobs run by one client. A job's
inputs come from :func:`job_input`, a pure function of the workload name,
the run's ``--seed`` and the job's index; the program sees only the
generated population or training configuration.

* ``census`` -- ``CensusRunner.run`` over a fresh population (default quirk
  mix, paper condition preset), serial backend, default columnar tier.
* ``census-adversarial`` -- the same pipeline with the servers split evenly
  over the ``policed``, ``ack-manipulated`` and ``evasive`` scenario packs.
* ``train`` -- ``TrainingSetBuilder.build_dataset`` over every identifiable
  algorithm x the four ``w_timeout`` values, then ``CaaiClassifier.train``.
* ``serve`` -- ``CensusOrchestrator.run(workers=2)`` into a fresh checkpoint
  with shards of about ten servers, classifier loaded from an artifact.

The census-type workloads classify with a model artifact fitted by
``fit_model.py`` from the code under test (the ``repro.model fit`` defaults).
"""

from __future__ import annotations

import json
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.census import CensusConfig, CensusRunner
from repro.core.checkpoint import classifier_fingerprint
from repro.core.classifier import CaaiClassifier
from repro.core.environments import W_TIMEOUT_LADDER
from repro.core.results import CensusReport
from repro.core.trace import InvalidReason
from repro.core.training import TrainingSetBuilder
from repro.net.conditions import condition_database_preset
from repro.serving.orchestrator import CensusOrchestrator
from repro.serving.schema import census_report_payload
from repro.serving.service import CensusService
from repro.tcp.registry import IDENTIFIABLE_ALGORITHMS
from repro.web.population import PopulationConfig, ServerPopulation

#: Model settings of the census artifact: the ``repro.model fit`` defaults.
MODEL_SETTINGS = {"conditions": "paper", "condition_db_size": 1000,
                  "condition_seed": 2010, "training_conditions": 4,
                  "training_seed": 7, "trees": 60, "forest_seed": 0}

#: Entropy of the population seeds: the synthetic Internet the census-type
#: workloads probe is the same for every ``--seed`` (see :func:`job_input`).
POPULATION_ENTROPY = 2011

#: Scenario packs of ``census-adversarial``, one third of the servers each.
ADVERSARIAL_PACKS = ("policed", "ack-manipulated", "evasive")

#: Fault-event kinds that mean a server's measurement itself failed.
FAILURE_EVENTS = frozenset({"worker_failed", "task_timeout", "task_error"})


@dataclass(frozen=True)
class WorkloadSpec:
    """Sizes of one workload's jobs.

    A run cycles through ``job_set`` distinct jobs (indices ``0 ..
    job_set - 1``) until its time is up, so every run weighs the same
    inputs equally however fast the code is; accuracy uses each of them once
    and the traced run the first half. The sets are sized to 15-25 s of work
    on a 2-core x86 VM: per-server cost is heavy-tailed, so the more distinct
    servers a run covers, the less its figures depend on the seed.
    """

    servers_per_part: int
    parts: int
    job_set: int
    shards: int = 0
    conditions_per_pair: int = 0


WORKLOADS = {
    "census": WorkloadSpec(servers_per_part=100, parts=1, job_set=7),
    "census-adversarial": WorkloadSpec(servers_per_part=30,
                                       parts=len(ADVERSARIAL_PACKS),
                                       job_set=6),
    "train": WorkloadSpec(servers_per_part=0, parts=0, job_set=3,
                          conditions_per_pair=6),
    "serve": WorkloadSpec(servers_per_part=100, parts=1, job_set=5,
                          shards=10),
}


@dataclass(frozen=True)
class Part:
    """One generated population and the scenario pack it is probed under."""

    population_seed: int
    size: int
    pack: str | None


@dataclass(frozen=True)
class JobInput:
    """One job's census (or training-set) seed and the populations it probes."""

    seed: int
    parts: tuple[Part, ...]


def job_input(workload: str, seed: int, index: int) -> JobInput:
    """The inputs of job ``index`` of a run with ``--seed seed``.

    The census-type workloads probe a fixed synthetic Internet: job
    ``index`` always gets the same servers (:data:`POPULATION_ENTROPY`),
    like a census re-run over one target list, while ``seed`` drives the
    census seed -- every server's probe randomness (loss draws, retries)
    and the ``serve`` shard assignment. For ``train``, ``seed`` is the
    training-set seed, so it drives every condition draw and server.

    Args:
        workload: A key of :data:`WORKLOADS`.
        seed: The run's ``--seed``.
        index: The job's position in the run.

    Returns:
        A :class:`JobInput` that depends on nothing but the arguments.
    """
    spec = WORKLOADS[workload]
    job_seed = np.random.SeedSequence([seed, index]).generate_state(1)[0]
    population_seeds = np.random.SeedSequence(
        [POPULATION_ENTROPY, index]).generate_state(spec.parts)
    packs = ADVERSARIAL_PACKS if workload == "census-adversarial" else (None,)
    parts = tuple(Part(int(population_seeds[k]), spec.servers_per_part,
                       packs[k]) for k in range(spec.parts))
    return JobInput(int(job_seed), parts)


@dataclass
class JobResult:
    """What one job did, how long it took and what it produced.

    ``result_waits`` are the seconds a user waited for each result the job
    delivered: a census or training job delivers one, at its end; a
    ``serve`` job delivers every shard, each worker's first one
    ``first_result_s`` after ``run()`` and the next ones a wait after its
    previous commit.
    """

    units: int
    wall_s: float
    first_result_s: float
    result_waits: list[float]
    blob: bytes
    attempted: int
    failed: int
    invalid: int = 0
    outcomes: list = field(default_factory=list)
    correct_rows: int = 0


def report_bytes(report: CensusReport) -> bytes:
    """A census report as the stable schema's JSON bytes."""
    return json.dumps(census_report_payload(report), sort_keys=True).encode()


def measurement_failed(outcome) -> bool:
    """Whether a server's measurement failed, as opposed to giving a trace.

    Invalid traces (``insufficient_data`` and the like) are measurement
    results; a server counts as failed only when its worker died or its
    task timed out or raised.
    """
    return (outcome.invalid_reason == InvalidReason.WORKER_FAILED
            or any(kind in FAILURE_EVENTS for kind, _ in outcome.fault_events))


def _census_result(reports: list[CensusReport], wall: float,
                   waits: list[float]) -> JobResult:
    outcomes = [outcome for report in reports for outcome in report.outcomes]
    failed = sum(1 for outcome in outcomes if measurement_failed(outcome))
    invalid = sum(1 for outcome in outcomes
                  if not outcome.valid and not measurement_failed(outcome))
    return JobResult(units=len(outcomes), wall_s=wall,
                     first_result_s=waits[0], result_waits=waits,
                     blob=b"\n".join(report_bytes(r) for r in reports),
                     attempted=len(outcomes), failed=failed,
                     invalid=invalid, outcomes=outcomes)


def accuracy(results: list[JobResult]) -> float:
    """Ground-truth accuracy pooled over the jobs' servers or rows."""
    if any(result.outcomes for result in results):
        pooled = CensusReport()
        for result in results:
            for outcome in result.outcomes:
                pooled.add(outcome)
        return pooled.accuracy_against_ground_truth()
    rows = sum(result.units for result in results)
    return sum(result.correct_rows for result in results) / rows if rows else 0.0


class Workload:
    """Runs one workload's jobs.

    Args:
        name: A key of :data:`WORKLOADS`.
        model_path: The census model artifact (unused by ``train``).
        scratch: Directory for the ``serve`` checkpoints.
    """

    def __init__(self, name: str, model_path: Path | None, scratch: Path):
        self.spec = WORKLOADS[name]
        self.name = name
        self.model_path = model_path
        self.scratch = scratch
        self.conditions = None
        self.service: CensusService | None = None

    # ----------------------------------------------------------------- setup
    def setup(self, job: JobInput):
        """Load the model (census types) and build ``job``'s inputs.

        Returns:
            The prepared inputs :meth:`run` takes.
        """
        self.conditions = condition_database_preset(
            MODEL_SETTINGS["conditions"],
            size=MODEL_SETTINGS["condition_db_size"],
            seed=MODEL_SETTINGS["condition_seed"])
        if self.name != "train":
            self.service = CensusService.from_artifact(self.model_path)
        return self.prepare(job)

    def prepare(self, job: JobInput):
        """Generate ``job``'s populations (servers are stateful: never reuse)."""
        if self.name == "train":
            return job
        populations = []
        for part in job.parts:
            population = ServerPopulation(
                PopulationConfig(size=part.size, seed=part.population_seed),
                condition_database=self.conditions)
            population.generate()
            populations.append(population)
        return job, populations

    def attempts(self, job: JobInput) -> int:
        """Servers (census types) or training pairs ``job`` measures."""
        if self.name == "train":
            return len(IDENTIFIABLE_ALGORITHMS) * len(W_TIMEOUT_LADDER)
        return sum(part.size for part in job.parts)

    # ------------------------------------------------------------------- run
    def run(self, prepared) -> JobResult:
        """Run one job on prepared inputs and time it."""
        if self.name == "train":
            return self._train(prepared)
        job, populations = prepared
        if self.name == "serve":
            return self._serve(job, populations[0])
        reports = []
        start = time.perf_counter()
        for part, population in zip(job.parts, populations):
            config = CensusConfig(seed=job.seed, scenario_pack=part.pack)
            reports.append(CensusRunner(self.service.classifier,
                                        config).run(population))
        wall = time.perf_counter() - start
        return _census_result(reports, wall, [wall])

    def monolithic(self, prepared) -> bytes:
        """``serve`` reference: the same job as one ``CensusRunner.run``."""
        job, populations = prepared
        runner = CensusRunner(self.service.classifier,
                              CensusConfig(seed=job.seed))
        return report_bytes(runner.run(populations[0]))

    def _serve(self, job: JobInput, population: ServerPopulation) -> JobResult:
        runner = CensusRunner(self.service.classifier,
                              CensusConfig(seed=job.seed))
        commits: list[tuple[float, int]] = []
        with tempfile.TemporaryDirectory(dir=self.scratch) as directory:
            start = time.perf_counter()
            orchestrator = CensusOrchestrator(
                runner, population, Path(directory) / "checkpoint",
                num_shards=self.spec.shards,
                on_shard=lambda shard, outcomes: commits.append(
                    (time.perf_counter(), threading.get_ident())))
            began = time.perf_counter()
            report = orchestrator.run(workers=2)
            wall = time.perf_counter() - start
        # The callback runs on the committing worker's thread: each worker's
        # results arrive one wait after run() or after its previous commit.
        waits, last = [], {}
        for moment, worker in sorted(commits):
            waits.append(moment - last.get(worker, began))
            last[worker] = moment
        return _census_result([report], wall, waits)

    def _train(self, job: JobInput) -> JobResult:
        spec = self.spec
        start = time.perf_counter()
        builder = TrainingSetBuilder(
            conditions_per_pair=spec.conditions_per_pair, seed=job.seed,
            condition_database=self.conditions)
        dataset = builder.build_dataset()
        classifier = CaaiClassifier(n_trees=MODEL_SETTINGS["trees"],
                                    seed=job.seed % 1000).train(dataset)
        wall = time.perf_counter() - start
        predicted = classifier.forest.predict(dataset.features)
        blob = b"\n".join([
            dataset.features.tobytes(),
            "\x00".join(map(str, dataset.labels)).encode(),
            classifier_fingerprint(classifier).encode()])
        return JobResult(units=len(dataset), wall_s=wall, first_result_s=wall,
                         result_waits=[wall],
                         blob=blob, attempted=self.attempts(job), failed=0,
                         correct_rows=int(np.sum(predicted == dataset.labels)))


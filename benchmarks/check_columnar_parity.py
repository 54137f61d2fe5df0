"""CI check: no probe-engine tier ever changes a census outcome.

The repository runs every probe on one of three tiers: the columnar cohort
engine (the default), the segment-block engine with its batched ACK ladder
(``REPRO_COLUMNAR=0``) and the scalar reference (``REPRO_ACK_BATCH=0``:
per-packet segments, one engine call per ACK). Their contract is
bit-identical results *and* bit-identical rng stream consumption, so the
tier must be invisible in any report. The parity matrices in
``tests/core/test_columnar_parity.py`` and
``tests/core/test_gather_block_parity.py`` cover the engines unit by unit;
this check exercises the full census pipeline -- crawler, MSS negotiation,
the w_timeout ladder, special cases, classifier -- on every tier, over two
50-server populations: the default quirk mix, and one with the
"Approaching w_timeout" and "Nonincreasing" server quirks raised (both must
be present), which the block tier batches and the columnar tier rejects at
admission. It fails loudly if any outcome's JSON bytes differ::

    PYTHONPATH=src python benchmarks/check_columnar_parity.py
"""

from __future__ import annotations

import json
import os
import sys
import time

from repro.core.census import CensusConfig, CensusRunner
from repro.core.classifier import CaaiClassifier
from repro.core.columnar import COLUMNAR_ENV
from repro.core.training import TrainingSetBuilder
from repro.net.conditions import default_condition_database
from repro.tcp.connection import ACK_BATCH_ENV
from repro.web.population import PopulationConfig, ServerPopulation

CENSUS_SIZE = 50

#: Engine knobs per tier; the first tier is the one the others must match.
TIERS = {
    "reference": {ACK_BATCH_ENV: "0"},
    "blocks": {COLUMNAR_ENV: "0"},
    "columnar": {COLUMNAR_ENV: "1"},
}

#: Population configurations: the default quirk mix, and one where many
#: servers approach a ceiling or freeze in congestion avoidance.
POPULATIONS = {
    "default": dict(size=CENSUS_SIZE, seed=424),
    "quirky": dict(size=CENSUS_SIZE, seed=425, approaching_fraction=0.2,
                   freeze_in_avoidance_fraction=0.2),
}


def make_population(name: str) -> ServerPopulation:
    population = ServerPopulation(PopulationConfig(**POPULATIONS[name]))
    population.generate()
    return population


def run_census(classifier: CaaiClassifier, population_name: str, tier: str):
    # A fresh population per run: web servers are stateful across probes
    # (ssthresh caches, connection counters), so sharing one would leak the
    # first run's state into the second regardless of the engine under test.
    population = make_population(population_name)
    runner = CensusRunner(classifier, CensusConfig(seed=17, backend="serial"))
    os.environ.update(TIERS[tier])
    try:
        start = time.perf_counter()
        report = runner.run(population)
        return report, time.perf_counter() - start
    finally:
        for name in TIERS[tier]:
            os.environ.pop(name, None)


def outcome_bytes(report) -> list[bytes]:
    return [json.dumps(outcome.to_json_dict(), sort_keys=True).encode()
            for outcome in report.outcomes]


def check_quirks_present(population_name: str) -> None:
    profiles = [record.profile for record in make_population(population_name).records]
    ceilings = sum(profile.approach_ceiling is not None for profile in profiles)
    freezes = sum(profile.freeze_in_avoidance for profile in profiles)
    if not (ceilings and freezes):
        raise SystemExit(
            f"FAIL: the {population_name} population lacks a quirk "
            f"({ceilings} approach-ceiling, {freezes} freeze servers)")
    print(f"{population_name} population: {ceilings} approach-ceiling, "
          f"{freezes} freeze servers", flush=True)


def check_population(classifier: CaaiClassifier, population_name: str) -> None:
    print(f"running census({CENSUS_SIZE}, {population_name}) on "
          f"{', '.join(TIERS)} ...", flush=True)
    runs = {tier: run_census(classifier, population_name, tier) for tier in TIERS}
    reference_tier, *other_tiers = TIERS
    reference, _ = runs[reference_tier]
    expected = outcome_bytes(reference)
    for tier in other_tiers:
        report, _ = runs[tier]
        got = outcome_bytes(report)
        if len(got) != len(expected):
            raise SystemExit(f"FAIL: {population_name} report sizes differ "
                             f"between the {tier} and {reference_tier} tiers")
        diverging = [
            (ours.server_id, ours.category, theirs.category)
            for ours, theirs, ours_bytes, theirs_bytes in zip(
                report.outcomes, reference.outcomes, got, expected)
            if ours_bytes != theirs_bytes]
        if diverging:
            raise SystemExit(
                f"FAIL: {len(diverging)} {population_name} outcomes differ "
                f"between the {tier} and {reference_tier} tiers "
                f"(first: {diverging[:3]})")
    timings = ", ".join(f"{tier} {seconds:.2f}s"
                        for tier, (_, seconds) in runs.items())
    print(f"OK: {len(expected)} {population_name} outcomes byte-identical "
          f"on all tiers ({timings})")


def main() -> None:
    check_quirks_present("quirky")
    print("training a small classifier ...", flush=True)
    builder = TrainingSetBuilder(
        conditions_per_pair=2, seed=31, w_timeouts=(64,),
        algorithms=("reno", "cubic-b", "vegas", "westwood"),
        condition_database=default_condition_database(size=200, seed=9))
    classifier = CaaiClassifier(n_trees=20, seed=5)
    classifier.train(builder.build_dataset())
    for population_name in POPULATIONS:
        check_population(classifier, population_name)


if __name__ == "__main__":
    sys.exit(main())

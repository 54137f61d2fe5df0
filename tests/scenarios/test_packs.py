"""Tests for the scenario-pack registry and its census integration."""

import numpy as np
import pytest

from repro.core.census import CensusConfig, CensusRunner
from repro.core.checkpoint import census_fingerprint
from repro.core.training import TrainingSetBuilder
from repro.net.conditions import condition_database_preset, default_condition_database
from repro.scenarios import (
    EvasiveServer,
    MiddleboxServer,
    SCENARIO_PACKS,
    ScenarioPack,
    scenario_pack_by_name,
)
from repro.web.population import PopulationConfig, ServerPopulation
from tests.conftest import make_synthetic_server


class TestRegistry:
    def test_shipped_packs(self):
        assert set(SCENARIO_PACKS) == {"paper-baseline", "cellular-trace",
                                       "policed", "ack-manipulated",
                                       "evasive"}

    def test_lookup_by_name(self):
        assert scenario_pack_by_name("policed").name == "policed"

    def test_unknown_pack_lists_valid_names(self):
        with pytest.raises(ValueError, match="paper-baseline"):
            scenario_pack_by_name("quantum")

    def test_baseline_packs_wrap_nothing(self):
        server = make_synthetic_server("reno")
        for name in ("paper-baseline", "cellular-trace"):
            pack = scenario_pack_by_name(name)
            assert not pack.wraps_servers()
            assert pack.wrap_server(server, "s") is server

    def test_adversarial_packs_wrap(self):
        server = make_synthetic_server("reno")
        assert isinstance(
            scenario_pack_by_name("policed").wrap_server(server, "s"),
            MiddleboxServer)
        assert isinstance(
            scenario_pack_by_name("evasive").wrap_server(server, "s"),
            EvasiveServer)

    def test_layering_order_evasion_innermost(self):
        pack = ScenarioPack(
            name="both", description="",
            middlebox=scenario_pack_by_name("policed").middlebox,
            evasion=scenario_pack_by_name("evasive").evasion)
        wrapped = pack.wrap_server(make_synthetic_server("reno"), "s")
        assert isinstance(wrapped, MiddleboxServer)
        assert isinstance(wrapped._inner, EvasiveServer)

    def test_condition_presets_resolve(self):
        for pack in SCENARIO_PACKS.values():
            database = condition_database_preset(pack.condition_preset,
                                                 size=20, seed=1)
            assert len(database) == 20


class TestCensusIntegration:
    def test_unknown_pack_rejected_eagerly(self):
        with pytest.raises(ValueError, match="unknown scenario pack"):
            CensusConfig(scenario_pack="nope")

    def test_fingerprint_neutral_for_missing_pack(self):
        population = ServerPopulation(PopulationConfig(size=4, seed=23))
        population.generate()
        base = census_fingerprint(CensusConfig(seed=1), population, "clf")
        assert census_fingerprint(CensusConfig(seed=1, scenario_pack=None),
                                  population, "clf") == base
        assert census_fingerprint(
            CensusConfig(seed=1, scenario_pack="policed"),
            population, "clf") != base

    @pytest.mark.parametrize("pack_name", [None, "paper-baseline"])
    def test_baseline_census_identical_to_no_pack(self, trained_classifier,
                                                  pack_name, tmp_path):
        population = ServerPopulation(PopulationConfig(size=12, seed=23))
        population.generate()
        runner = CensusRunner(trained_classifier,
                              CensusConfig(seed=1, scenario_pack=pack_name))
        report = runner.run(population)

        reference_population = ServerPopulation(
            PopulationConfig(size=12, seed=23))
        reference_population.generate()
        reference = CensusRunner(trained_classifier,
                                 CensusConfig(seed=1)).run(
                                     reference_population)
        assert len(report.outcomes) == len(reference.outcomes)
        for outcome, expected in zip(report.outcomes, reference.outcomes):
            assert outcome == expected

    def test_adversarial_census_runs_and_differs(self, trained_classifier):
        population = ServerPopulation(PopulationConfig(size=12, seed=23))
        population.generate()
        report = CensusRunner(
            trained_classifier,
            CensusConfig(seed=1, scenario_pack="ack-manipulated")).run(
                population)

        reference_population = ServerPopulation(
            PopulationConfig(size=12, seed=23))
        reference_population.generate()
        reference = CensusRunner(trained_classifier,
                                 CensusConfig(seed=1)).run(
                                     reference_population)
        assert len(report.outcomes) == len(reference.outcomes)
        assert any(outcome != expected for outcome, expected
                   in zip(report.outcomes, reference.outcomes))


class TestTrainingWrapper:
    def test_server_wrapper_applied_per_attempt(self):
        wrapped_ids = []

        def spy(server, pair_id):
            wrapped_ids.append(pair_id)
            return server

        builder = TrainingSetBuilder(
            conditions_per_pair=2, seed=11, w_timeouts=(64,),
            algorithms=("reno",),
            condition_database=default_condition_database(size=50, seed=4),
            server_wrapper=spy)
        builder.build_examples()
        assert wrapped_ids
        assert len(set(wrapped_ids)) == len(wrapped_ids)  # distinct streams

    def test_no_wrapper_matches_historic_build(self):
        kwargs = dict(conditions_per_pair=2, seed=11, w_timeouts=(64,),
                      algorithms=("reno", "cubic-b"),
                      condition_database=default_condition_database(
                          size=50, seed=4))
        plain = TrainingSetBuilder(**kwargs).build_dataset()
        identity = TrainingSetBuilder(
            server_wrapper=lambda server, pair_id: server,
            **kwargs).build_dataset()
        assert np.array_equal(plain.features, identity.features)
        assert list(plain.labels) == list(identity.labels)

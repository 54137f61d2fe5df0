"""Shared training/population settings for the census-family CLIs.

``python -m repro.census``, ``python -m repro.model`` and
``python -m repro.serve`` all need the same recipe: a seeded condition
database, a seeded training set, a seeded forest, a seeded population. This
module owns that recipe once — the argparse options, the settings dict they
produce (the exact shape stored in checkpoint manifests and model-artifact
metadata), and the builders that turn settings back into a trained
classifier or a generated population. Because everything is keyed by the
settings alone, any CLI rebuilding from the same dict gets bit-identical
objects — the property resume, artifact round-trips and the serving smoke
check all rest on. It also owns the one error-reporting wrapper every
``repro`` CLI (census, model, serve, report) runs its command through.
"""

from __future__ import annotations

import argparse
import sys

from repro.core.classifier import CaaiClassifier
from repro.core.training import TrainingSetBuilder
from repro.net.conditions import CONDITION_DB_PRESETS, condition_database_preset
from repro.store import StoreError
from repro.web.population import PopulationConfig, ServerPopulation

#: Settings keys produced by :func:`add_training_arguments`.
TRAINING_KEYS = ("conditions", "condition_db_size", "condition_seed",
                 "training_conditions", "training_seed", "trees",
                 "forest_seed")

#: Settings keys produced by :func:`add_population_arguments`.
POPULATION_KEYS = ("servers", "population_seed")


def run_command(command, args: argparse.Namespace) -> int:
    """Run one CLI command, reporting store and usage errors as exit 2.

    Args:
        command: The command handler, called as ``command(args)``.
        args: The parsed namespace.

    Returns:
        The command's exit code, or 2 after printing ``error:`` (and, for a
        :class:`~repro.store.StoreError` carrying one, ``hint:``) to stderr.
    """
    try:
        return command(args)
    except (StoreError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        if getattr(error, "hint", None):
            print(f"hint: {error.hint}", file=sys.stderr)
        return 2


def add_training_arguments(parser: argparse.ArgumentParser) -> None:
    """Add the classifier-training options every census-family CLI shares.

    Args:
        parser: The (sub)parser to add the options to.
    """
    parser.add_argument("--conditions", default="paper",
                        choices=sorted(CONDITION_DB_PRESETS),
                        help="network-condition preset for paths and training "
                             "(default: paper)")
    parser.add_argument("--condition-db-size", type=int, default=1000,
                        help="paths in the condition database (default: 1000)")
    parser.add_argument("--condition-seed", type=int, default=2010,
                        help="seed of the condition database draws")
    parser.add_argument("--training-conditions", type=int, default=4,
                        help="training conditions per (algorithm, w_timeout) "
                             "pair (default: 4; the paper uses 100)")
    parser.add_argument("--training-seed", type=int, default=7,
                        help="seed of the training-set builder")
    parser.add_argument("--trees", type=int, default=60,
                        help="random-forest size (default: 60)")
    parser.add_argument("--forest-seed", type=int, default=0,
                        help="seed of the random forest")


def add_population_arguments(parser: argparse.ArgumentParser) -> None:
    """Add the synthetic-population options shared by census and serve.

    Args:
        parser: The (sub)parser to add the options to.
    """
    parser.add_argument("--servers", type=int, default=100,
                        help="population size (default: 100)")
    parser.add_argument("--population-seed", type=int, default=2011,
                        help="seed of the synthetic server population")


def settings_from_args(args: argparse.Namespace,
                       keys: tuple[str, ...]) -> dict:
    """Extract a settings dict from parsed arguments.

    Args:
        args: The parsed namespace.
        keys: Which settings keys to extract (attribute names match keys).

    Returns:
        ``{key: getattr(args, key)}`` for every key.
    """
    return {key: getattr(args, key) for key in keys}


def train_classifier(settings: dict, server_wrapper=None) -> CaaiClassifier:
    """Train the classifier a settings dict describes, deterministically.

    Args:
        settings: A dict carrying :data:`TRAINING_KEYS` (extra keys are
            ignored), e.g. a checkpoint manifest's stored settings.
        server_wrapper: Optional scenario-pack server wrapper so training
            happens under the same adversity the census probes under.

    Returns:
        The trained :class:`~repro.core.classifier.CaaiClassifier` —
        bit-identical across invocations for equal settings.
    """
    conditions = condition_database_preset(settings["conditions"],
                                           size=settings["condition_db_size"],
                                           seed=settings["condition_seed"])
    builder = TrainingSetBuilder(
        conditions_per_pair=settings["training_conditions"],
        seed=settings["training_seed"], condition_database=conditions,
        server_wrapper=server_wrapper)
    classifier = CaaiClassifier(n_trees=settings["trees"],
                                seed=settings["forest_seed"])
    return classifier.train(builder.build_dataset())


def build_population(settings: dict) -> ServerPopulation:
    """Generate the synthetic population a settings dict describes.

    Args:
        settings: A dict carrying :data:`POPULATION_KEYS` plus the
            condition-database keys (extra keys are ignored).

    Returns:
        The generated :class:`~repro.web.population.ServerPopulation`.
    """
    conditions = condition_database_preset(settings["conditions"],
                                           size=settings["condition_db_size"],
                                           seed=settings["condition_seed"])
    population = ServerPopulation(
        PopulationConfig(size=settings["servers"],
                         seed=settings["population_seed"]),
        condition_database=conditions)
    population.generate()
    return population

"""On-disk format freeze for every persistent store.

The committed fixtures under ``tests/fixtures/store_format/`` hold the exact
bytes the census checkpoint, the work queue, the experiment cache and the
model artifact wrote before they shared one store layer
(:mod:`repro.store`). This test writes the same inputs with the current code
and compares byte for byte, so "same on-disk format" is checked rather than
assumed.

Regenerate the fixtures only on a deliberate, versioned format change::

    PYTHONPATH=src python tests/test_store_format.py
"""

from __future__ import annotations

import shutil
from pathlib import Path

import numpy as np

from repro.core.checkpoint import CensusCheckpoint
from repro.core.classifier import CaaiClassifier
from repro.core.results import ServerOutcome
from repro.core.trace import InvalidReason
from repro.experiments.store import ArtifactStore
from repro.ml.decision_tree import DecisionTreeClassifier, FlatTree
from repro.ml.random_forest import RandomForestClassifier
from repro.serving.artifact import save_model
from repro.serving.queue import WorkQueue

FIXTURES = Path(__file__).parent / "fixtures" / "store_format"

#: Every frozen file, relative to the fixture root.
FROZEN_FILES = (
    "checkpoint/manifest.json",
    "checkpoint/shard-0000.jsonl",
    "checkpoint/shard-0001.jsonl",
    "queue/manifest.json",
    "queue/queue.json",
    "experiments/manifest.json",
    "experiments/exp.jsonl",
    "model.caai",
)


def _outcomes() -> list[ServerOutcome]:
    return [
        ServerOutcome(server_id="server-000000", valid=True, w_timeout=64,
                      mss=100, category="CUBIC", confidence=0.75,
                      true_algorithm="CUBIC", software="nginx",
                      region="us"),
        ServerOutcome(server_id="server-000001", valid=False,
                      invalid_reason=InvalidReason.CONNECTION_FAILED,
                      attempts=3, backoff_total=1.5),
        ServerOutcome(server_id="server-000002", valid=True, w_timeout=128,
                      mss=536, category="unsure", confidence=0.25),
    ]


def _tiny_classifier() -> CaaiClassifier:
    """A hand-built one-split forest, independent of the training code."""
    flat = FlatTree(
        feature=np.array([0, -1, -1], dtype=np.intp),
        threshold=np.array([0.5, 0.0, 0.0]),
        left=np.array([1, -1, -1], dtype=np.intp),
        right=np.array([2, -1, -1], dtype=np.intp),
        prediction=np.array([0, 0, 1], dtype=np.intp),
        leaf_class_counts=np.array([[3, 2], [3, 0], [0, 2]], dtype=np.int64))
    classes = ["CUBIC", "RENO"]
    tree = DecisionTreeClassifier.from_flat_tree(flat, classes, max_features=2)
    forest = RandomForestClassifier.from_fitted_trees([tree], classes,
                                                      max_features=2, seed=5)
    return CaaiClassifier.from_trained_forest(forest)


def write_stores(root: Path) -> None:
    """Write every store's fixed inputs under ``root``.

    Args:
        root: An empty directory; one subdirectory per store is created.
    """
    checkpoint = CensusCheckpoint.create(
        root / "checkpoint", seed=7, num_shards=2, fingerprint="f" * 64,
        population_size=3, settings={"servers": 3, "trees": 1})
    outcomes = _outcomes()
    checkpoint.write_shard(0, [(0, outcomes[0]), (2, outcomes[2])])
    checkpoint.write_shard(1, [(1, outcomes[1])])

    queued = CensusCheckpoint.create(
        root / "queue", seed=7, num_shards=3, fingerprint="0" * 64,
        population_size=6)
    WorkQueue(queued, lease_timeout=10.0, clock=lambda: 1000.25).claim(
        "worker-a")

    store = ArtifactStore(root / "experiments", "smoke")
    store.write("exp", "fp1",
                {"rows": [[1, 2], [3, 4]], "metrics": {"accuracy": 0.1 + 0.2}},
                elapsed_seconds=1.2345)

    save_model(_tiny_classifier(), root / "model.caai",
               metadata={"training_settings": {"trees": 1}})


def test_store_bytes_match_the_frozen_fixtures(tmp_path):
    write_stores(tmp_path)
    for name in FROZEN_FILES:
        assert (tmp_path / name).read_bytes() == (FIXTURES / name).read_bytes(), name
    written = sorted(str(path.relative_to(tmp_path))
                     for path in tmp_path.rglob("*") if path.is_file())
    assert written == sorted(FROZEN_FILES)


if __name__ == "__main__":
    shutil.rmtree(FIXTURES, ignore_errors=True)
    write_stores(FIXTURES)

"""Fit the census workloads' model artifact from the code under test.

Usage (from the repository root)::

    python3 perfbench/fit_model.py OUT.caai

Trains a classifier with the ``repro.model fit`` defaults
(:data:`workloads.MODEL_SETTINGS`) and saves it as a model artifact. ``run.py``
calls this in a child process, so the fit never counts towards the measured
process's time or peak memory.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.cli.settings import train_classifier  # noqa: E402
from repro.serving.artifact import save_model  # noqa: E402

from workloads import MODEL_SETTINGS  # noqa: E402


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: fit_model.py OUT.caai", file=sys.stderr)
        return 2
    save_model(train_classifier(MODEL_SETTINGS), argv[0],
               metadata={"settings": MODEL_SETTINGS})
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Historic test ids of the ``REPRO_ACK_BATCH`` gather parity matrix.

With one reference switch, the batched-ACK parity matrix and the
segment-block parity matrix compare the same pair -- the default engine
against the scalar reference -- so the matrix lives in
``tests/core/test_gather_block_parity.py``. This module re-exports its
tests under the ids they have always had here.
"""

from tests.core.test_gather_block_parity import (  # noqa: F401
    test_census_report_identical_across_emitters as test_census_report_identical_across_engines,
    test_parity_at_full_w_timeout,
    test_parity_matrix,
    test_parity_under_heavy_ack_loss,
    test_training_examples_identical_across_emitters as test_training_examples_identical_across_engines,
)

"""Monte-Carlo validation of the reliability model (experiment E7)."""

from dataclasses import astuple

import pytest

from repro.core.blocks import BlockGrid
from repro.reliability.montecarlo import (
    estimate_block_failure_rate,
    validate_against_model,
)


class TestBlockTrials:
    def test_zero_probability_all_restored(self, tiny_grid):
        result = estimate_block_failure_rate(tiny_grid, 0.0, trials=3,
                                             seed=1)
        assert result.blocks_failed == 0
        assert result.blocks_restored == result.total_blocks
        assert result.miscorrections == 0

    def test_single_errors_always_restored(self, tiny_grid):
        """At moderate p, blocks with <= 1 upset must ALWAYS be restored
        — zero tolerance for miscorrection of correctable patterns."""
        result = estimate_block_failure_rate(tiny_grid, 0.02, trials=40,
                                             seed=2)
        assert result.miscorrections == 0

    def test_multi_fault_blocks_counted(self, tiny_grid):
        result = estimate_block_failure_rate(tiny_grid, 0.25, trials=10,
                                             seed=3)
        assert result.blocks_failed > 0
        assert result.empirical_failure_rate > 0

    def test_check_bit_inclusion(self, tiny_grid):
        result = estimate_block_failure_rate(tiny_grid, 0.05, trials=20,
                                             seed=4, include_check_bits=True)
        assert result.miscorrections == 0


#: ``((n, m), p, include_check_bits, seed) -> astuple(BlockTrialResult)``
#: for 70 trials (one full 64-trial word plus a ragged tail), recorded
#: with the original one-byte-per-bit sweep before the estimator moved
#: onto the packed kernels. The per-trial draw order is part of the
#: estimator's contract, so these must never drift.
PINNED = {
    ((9, 3), 0.02, False, 0): (70, 9, 13, 617, 0, 0),
    ((9, 3), 0.02, False, 7): (70, 9, 9, 621, 0, 0),
    ((9, 3), 0.02, True, 0): (70, 9, 23, 608, 0, 1),
    ((9, 3), 0.02, True, 7): (70, 9, 24, 606, 0, 0),
    ((9, 3), 0.05, False, 0): (70, 9, 47, 583, 0, 0),
    ((9, 3), 0.05, False, 7): (70, 9, 45, 585, 0, 0),
    ((9, 3), 0.05, True, 0): (70, 9, 103, 531, 0, 4),
    ((9, 3), 0.05, True, 7): (70, 9, 100, 534, 0, 4),
    ((33, 3), 0.02, False, 0): (70, 121, 102, 8368, 0, 0),
    ((33, 3), 0.02, False, 7): (70, 121, 103, 8367, 0, 0),
    ((33, 3), 0.02, True, 0): (70, 121, 282, 8201, 0, 13),
    ((33, 3), 0.02, True, 7): (70, 121, 268, 8219, 0, 17),
    ((33, 3), 0.05, False, 0): (70, 121, 579, 7891, 0, 0),
    ((33, 3), 0.05, False, 7): (70, 121, 570, 7900, 0, 0),
    ((33, 3), 0.05, True, 0): (70, 121, 1485, 7067, 0, 82),
    ((33, 3), 0.05, True, 7): (70, 121, 1420, 7121, 0, 71),
}


class TestPinnedOutputs:
    @pytest.mark.parametrize("key", sorted(PINNED), ids=str)
    @pytest.mark.parametrize("backend", ["numpy", "tracing"])
    def test_matches_pinned_panel(self, key, backend):
        (n, m), p, include_check_bits, seed = key
        result = estimate_block_failure_rate(
            BlockGrid(n, m), p, trials=70, seed=seed,
            include_check_bits=include_check_bits, backend=backend)
        assert astuple(result) == PINNED[key]


class TestModelValidation:
    @pytest.mark.parametrize("p", [0.01, 0.05])
    def test_empirical_matches_binomial(self, p):
        """The binomial block-failure core of Figure 6's derivation must
        match injected-fault simulation within sampling error."""
        grid = BlockGrid(15, 5)
        report = validate_against_model(grid, p, trials=150, seed=5)
        assert report["consistent"], report

    def test_consistency_at_paper_block_size(self):
        grid = BlockGrid(45, 15)
        report = validate_against_model(grid, 0.01, trials=60, seed=6)
        assert report["consistent"], report
        assert report["miscorrections"] == 0

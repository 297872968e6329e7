"""Differential suite: packed uint64 code kernels vs the scalar oracle.

The bit-sliced encode/syndrome/decode/check kernels must be bit-for-bit
identical to the scalar per-block code run trial by trial over a uint8
stack (:func:`repro.core.registry.check_stack`, the "u8" side below) —
including tail behaviour when the batch is not a multiple of 64.
"""

import numpy as np
import pytest

from repro.core.blocks import BlockGrid
from repro.core.checker import check_all_batched_packed
from repro.core.code import (
    BATCH_CTR_CHECK_ERROR,
    BATCH_DATA_ERROR,
    BATCH_LEAD_CHECK_ERROR,
    BATCH_NO_ERROR,
    BATCH_UNCORRECTABLE,
    CheckBitError,
    DataError,
    DiagonalParityCode,
    NoError,
    Uncorrectable,
)
from repro.core.registry import build_code, check_stack, encode_stack
from repro.utils.bitpack import pack_batch, unpack_batch

GEOMETRIES = [(9, 3), (15, 5)]
#: Batch sizes straddling the word width, incl. B % 64 != 0 tails.
BATCHES = [1, 63, 64, 65, 130]


def _random_stack(grid, batch, seed=0, flip_probability=0.02):
    """(data, lead, ctr, golden triple) with random upsets applied."""
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 2, size=(batch, grid.n, grid.n), dtype=np.uint8)
    code = DiagonalParityCode(grid)
    lead, ctr = encode_stack(build_code("diagonal", grid), data)
    golden = (data.copy(), lead.copy(), ctr.copy())
    data ^= (rng.random(data.shape) < flip_probability).astype(np.uint8)
    lead ^= (rng.random(lead.shape) < flip_probability).astype(np.uint8)
    ctr ^= (rng.random(ctr.shape) < flip_probability).astype(np.uint8)
    return code, data, lead, ctr, golden


class TestEncodePacked:
    @pytest.mark.parametrize("n,m", GEOMETRIES)
    @pytest.mark.parametrize("batch", BATCHES)
    def test_matches_u8_encode(self, n, m, batch):
        grid = BlockGrid(n, m)
        code = DiagonalParityCode(grid)
        rng = np.random.default_rng(1)
        data = rng.integers(0, 2, size=(batch, n, n), dtype=np.uint8)
        lead8, ctr8 = encode_stack(build_code("diagonal", grid), data)
        lead64, ctr64 = code.encode_batch_packed(pack_batch(data))
        assert np.array_equal(unpack_batch(lead64, batch), lead8)
        assert np.array_equal(unpack_batch(ctr64, batch), ctr8)

    def test_rejects_bad_shape(self):
        code = DiagonalParityCode(BlockGrid(9, 3))
        with pytest.raises(ValueError):
            code.encode_batch_packed(np.zeros((2, 9, 8), dtype=np.uint64))


class TestSyndromeDecodePacked:
    @pytest.mark.parametrize("n,m", GEOMETRIES)
    @pytest.mark.parametrize("batch", BATCHES)
    def test_status_matches_u8_decode(self, n, m, batch):
        grid = BlockGrid(n, m)
        code, data, lead, ctr, _ = _random_stack(grid, batch, seed=batch)
        syn64 = code.syndrome_batch_packed(
            pack_batch(data), pack_batch(lead), pack_batch(ctr))
        dec64 = code.decode_batch_packed(*syn64)
        status8 = check_stack(build_code("diagonal", grid), data, (lead, ctr),
                              correct=False)
        assert np.array_equal(dec64.status_codes(batch), status8)

    def test_all_zero_syndromes(self):
        """A clean stack decodes to NO_ERROR everywhere (edge case)."""
        grid = BlockGrid(9, 3)
        code = DiagonalParityCode(grid)
        rng = np.random.default_rng(5)
        data = rng.integers(0, 2, size=(70, 9, 9), dtype=np.uint8)
        lead, ctr = encode_stack(build_code("diagonal", grid), data)
        syn = code.syndrome_batch_packed(
            pack_batch(data), pack_batch(lead), pack_batch(ctr))
        dec = code.decode_batch_packed(*syn)
        assert (dec.status_codes(70) == BATCH_NO_ERROR).all()
        # The scalar reference agrees.
        status = check_stack(build_code("diagonal", grid), data, (lead, ctr))
        assert (status == BATCH_NO_ERROR).all()

    def test_multi_diagonal_uncorrectable_patterns(self):
        """2+ set diagonals in a plane classify uncorrectable (edge case)."""
        grid = BlockGrid(9, 3)
        code = DiagonalParityCode(grid)
        b = grid.blocks_per_side
        scalar_kind = {BATCH_UNCORRECTABLE: Uncorrectable,
                       BATCH_DATA_ERROR: DataError,
                       BATCH_LEAD_CHECK_ERROR: CheckBitError,
                       BATCH_CTR_CHECK_ERROR: CheckBitError,
                       BATCH_NO_ERROR: NoError}
        for lead_bits, ctr_bits, expected in [
            ((0, 1), (), BATCH_UNCORRECTABLE),      # two leading, no counter
            ((0, 1, 2), (1,), BATCH_UNCORRECTABLE),  # three leading
            ((0,), (0, 2), BATCH_UNCORRECTABLE),    # one leading, two counter
            ((0, 1), (0, 1), BATCH_UNCORRECTABLE),  # two in both planes
            ((1,), (2,), BATCH_DATA_ERROR),
            ((2,), (), BATCH_LEAD_CHECK_ERROR),
            ((), (1,), BATCH_CTR_CHECK_ERROR),
            ((), (), BATCH_NO_ERROR),
        ]:
            batch = 66  # straddles the word boundary
            syn_lead = np.zeros((batch, grid.m, b, b), dtype=np.uint8)
            syn_ctr = np.zeros((batch, grid.m, b, b), dtype=np.uint8)
            for d in lead_bits:
                syn_lead[:, d, 0, 0] = 1
            for d in ctr_bits:
                syn_ctr[:, d, 0, 0] = 1
            dec = code.decode_batch_packed(pack_batch(syn_lead),
                                           pack_batch(syn_ctr))
            status = dec.status_codes(batch)
            assert (status[:, 0, 0] == expected).all(), (lead_bits, ctr_bits)
            # Untouched blocks stay NO_ERROR.
            assert (status[:, 1:, :] == BATCH_NO_ERROR).all()
            # Agrees with the scalar decoder on the same syndromes.
            outcome = code.decode(syn_lead[0, :, 0, 0], syn_ctr[0, :, 0, 0])
            assert isinstance(outcome, scalar_kind[expected])


class TestCheckAllPacked:
    @pytest.mark.parametrize("n,m", GEOMETRIES)
    @pytest.mark.parametrize("batch", BATCHES)
    def test_corrections_match_u8_path(self, n, m, batch):
        """Packed correction writes the exact same cells as the scalar
        per-block sweep over the uint8 stack."""
        grid = BlockGrid(n, m)
        code, data, lead, ctr, _ = _random_stack(grid, batch,
                                                 seed=1000 + batch)
        d8, l8, c8 = data.copy(), lead.copy(), ctr.copy()
        status8 = check_stack(build_code("diagonal", grid), d8, (l8, c8),
                              correct=True)

        dw = pack_batch(data)
        lw = pack_batch(lead)
        cw = pack_batch(ctr)
        sweep64 = check_all_batched_packed(grid, code, dw, lw, cw, batch,
                                           correct=True)
        assert np.array_equal(unpack_batch(dw, batch), d8)
        assert np.array_equal(unpack_batch(lw, batch), l8)
        assert np.array_equal(unpack_batch(cw, batch), c8)
        assert np.array_equal(sweep64.status_codes(), status8)
        assert np.array_equal(sweep64.uncorrectable_any,
                              (status8 == BATCH_UNCORRECTABLE).any(
                                  axis=(1, 2)))
        assert np.array_equal(sweep64.clean,
                              (status8 == BATCH_NO_ERROR).all(axis=(1, 2)))
        assert np.array_equal(sweep64.data_corrections,
                              (status8 == BATCH_DATA_ERROR).sum(axis=(1, 2)))
        assert np.array_equal(
            sweep64.check_bit_corrections,
            ((status8 == BATCH_LEAD_CHECK_ERROR)
             | (status8 == BATCH_CTR_CHECK_ERROR)).sum(axis=(1, 2)))

    def test_tail_words_never_written(self):
        """Padding lanes of the last word stay zero through correction."""
        grid = BlockGrid(9, 3)
        batch = 70
        code, data, lead, ctr, _ = _random_stack(grid, batch, seed=3,
                                                 flip_probability=0.05)
        dw = pack_batch(data)
        lw = pack_batch(lead)
        cw = pack_batch(ctr)
        check_all_batched_packed(grid, code, dw, lw, cw, batch, correct=True)
        shift = np.uint64(batch % 64)
        assert (np.asarray(dw)[-1] >> shift == 0).all()
        assert (np.asarray(lw)[-1] >> shift == 0).all()
        assert (np.asarray(cw)[-1] >> shift == 0).all()

    def test_read_only_sweep(self):
        grid = BlockGrid(9, 3)
        batch = 40
        code, data, lead, ctr, _ = _random_stack(grid, batch, seed=4)
        dw = pack_batch(data)
        before = np.asarray(dw).copy()
        sweep = check_all_batched_packed(grid, code, dw, pack_batch(lead),
                                         pack_batch(ctr), batch,
                                         correct=False)
        assert np.array_equal(np.asarray(dw), before)
        assert not sweep.corrected
        assert (sweep.data_corrections == 0).all()
        assert (sweep.check_bit_corrections == 0).all()

    def test_blocks_checked_counts_true_batch(self):
        grid = BlockGrid(9, 3)
        batch = 70
        code, data, lead, ctr, _ = _random_stack(grid, batch, seed=6)
        sweep = check_all_batched_packed(
            grid, code, pack_batch(data), pack_batch(lead),
            pack_batch(ctr), batch)
        b = grid.blocks_per_side
        assert sweep.trials == batch
        assert sweep.blocks_checked == batch * b * b

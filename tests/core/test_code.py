"""Unit tests for the diagonal parity code: encode / syndrome / decode."""

import numpy as np
import pytest

from repro.core.blocks import BlockGrid
from repro.core.code import (
    CheckBitError,
    DataError,
    DecodeStatus,
    DiagonalParityCode,
    NoError,
    Uncorrectable,
)


@pytest.fixture
def code5():
    return DiagonalParityCode(BlockGrid(5, 5))


class TestEncode:
    def test_zero_block_zero_parity(self, code5):
        lead, ctr = code5.encode_block(np.zeros((5, 5)))
        assert lead.sum() == 0 and ctr.sum() == 0

    def test_encode_block_shapes(self, code5, rng):
        lead, ctr = code5.encode_block(rng.integers(0, 2, (5, 5)))
        assert lead.shape == (5,) and ctr.shape == (5,)

    def test_encode_rejects_wrong_shape(self, code5):
        with pytest.raises(ValueError):
            code5.encode_block(np.zeros((3, 3)))

    def test_full_encode_matches_blocks(self, small_grid, rng):
        code = DiagonalParityCode(small_grid)
        data = rng.integers(0, 2, (15, 15), dtype=np.uint8)
        store = code.encode(data)
        for br, bc in small_grid.iter_blocks():
            rs, cs = small_grid.block_slice(br, bc)
            lead, ctr = code.encode_block(data[rs, cs])
            assert (store.lead[:, br, bc] == lead).all()
            assert (store.ctr[:, br, bc] == ctr).all()

    def test_full_encode_rejects_wrong_shape(self, small_grid):
        code = DiagonalParityCode(small_grid)
        with pytest.raises(ValueError):
            code.encode(np.zeros((10, 15)))


class TestSingleErrorCorrection:
    """Every single-bit data error in a block must decode to its exact
    location — the paper's per-block SEC claim (E6)."""

    def test_every_position_decodes(self, code5, rng):
        block = rng.integers(0, 2, (5, 5)).astype(np.uint8)
        lead, ctr = code5.encode_block(block)
        for r in range(5):
            for c in range(5):
                corrupted = block.copy()
                corrupted[r, c] ^= 1
                outcome = code5.decode_block(corrupted, lead, ctr)
                assert isinstance(outcome, DataError)
                assert (outcome.row, outcome.col) == (r, c)

    def test_clean_block_no_error(self, code5, rng):
        block = rng.integers(0, 2, (5, 5)).astype(np.uint8)
        lead, ctr = code5.encode_block(block)
        assert isinstance(code5.decode_block(block, lead, ctr), NoError)

    def test_check_bit_error_identified(self, code5, rng):
        block = rng.integers(0, 2, (5, 5)).astype(np.uint8)
        lead, ctr = code5.encode_block(block)
        for plane_name, bits in (("leading", lead), ("counter", ctr)):
            for d in range(5):
                bad = bits.copy()
                bad[d] ^= 1
                if plane_name == "leading":
                    outcome = code5.decode_block(block, bad, ctr)
                else:
                    outcome = code5.decode_block(block, lead, bad)
                assert isinstance(outcome, CheckBitError)
                assert outcome.plane == plane_name
                assert outcome.index == d


class TestDoubleErrorDetection:
    def test_two_data_errors_detected(self, code5, rng):
        """Any two distinct data errors are flagged uncorrectable: they
        cannot share both diagonals (that would make them the same cell,
        by the odd-m bijection)."""
        block = rng.integers(0, 2, (5, 5)).astype(np.uint8)
        lead, ctr = code5.encode_block(block)
        cells = [(r, c) for r in range(5) for c in range(5)]
        for i, (r1, c1) in enumerate(cells):
            for r2, c2 in cells[i + 1:]:
                corrupted = block.copy()
                corrupted[r1, c1] ^= 1
                corrupted[r2, c2] ^= 1
                outcome = code5.decode_block(corrupted, lead, ctr)
                assert isinstance(outcome, Uncorrectable), \
                    f"double error at {(r1, c1)}, {(r2, c2)} missed"

    def test_data_plus_cancelling_check_error_miscorrects(self, code5, rng):
        """Known SEC limitation: a data error plus the check-bit error on
        its own leading diagonal masks the leading signature, decoding as
        a (wrong) counter check-bit error. Documented, not fixed — the
        reliability model counts any >= 2 errors per block as failure."""
        block = rng.integers(0, 2, (5, 5)).astype(np.uint8)
        lead, ctr = code5.encode_block(block)
        corrupted = block.copy()
        corrupted[2, 1] ^= 1                       # leading diag 3
        bad_lead = lead.copy()
        bad_lead[3] ^= 1                           # cancels the signature
        outcome = code5.decode_block(corrupted, bad_lead, ctr)
        assert isinstance(outcome, CheckBitError)
        assert outcome.plane == "counter"


class TestDecodeClassification:
    def test_zero_syndrome(self, code5):
        out = code5.decode(np.zeros(5, np.uint8), np.zeros(5, np.uint8))
        assert out.status is DecodeStatus.NO_ERROR

    def test_single_pair_syndrome(self, code5):
        lead = np.zeros(5, np.uint8)
        ctr = np.zeros(5, np.uint8)
        lead[2] = 1
        ctr[4] = 1
        out = code5.decode(lead, ctr)
        assert out.status is DecodeStatus.DATA_ERROR
        # inv2 = 3 mod 5: r = (2+4)*3 % 5 = 3; c = (2-4)*3 % 5 = 4
        assert (out.row, out.col) == (3, 4)

    def test_multi_bit_syndrome_uncorrectable(self, code5):
        lead = np.array([1, 1, 0, 0, 0], np.uint8)
        ctr = np.array([1, 1, 0, 0, 0], np.uint8)
        out = code5.decode(lead, ctr)
        assert out.status is DecodeStatus.UNCORRECTABLE
        assert out.lead_syndrome == (1, 1, 0, 0, 0)

    def test_code_parameters(self, code5):
        assert code5.data_bits_per_block == 25
        assert code5.check_bits_per_block == 10
        assert code5.overhead_fraction == pytest.approx(0.4)

    def test_paper_overhead_fraction(self):
        code = DiagonalParityCode(BlockGrid(1020, 15))
        # 2m / m^2 = 2/15 ~ 13.3% of data bits.
        assert code.overhead_fraction == pytest.approx(2 / 15)


class TestDecodeBatchEdgeCases:
    """Edge coverage for the packed batch decoder."""

    def _code(self, n=9, m=3):
        return DiagonalParityCode(BlockGrid(n, m))

    def test_all_zero_syndromes(self):
        """A fully clean stack decodes to NO_ERROR in every block."""
        from repro.core.code import BATCH_NO_ERROR
        from repro.utils.bitpack import pack_batch
        code = self._code()
        b = code.grid.blocks_per_side
        zeros = pack_batch(np.zeros((70, code.grid.m, b, b), dtype=np.uint8))
        dec = code.decode_batch_packed(zeros, zeros)
        assert (dec.status_codes(70) == BATCH_NO_ERROR).all()

    def test_multi_diagonal_patterns_are_uncorrectable(self):
        """Any plane with 2+ set diagonals classifies uncorrectable."""
        from repro.core.code import BATCH_UNCORRECTABLE
        from repro.utils.bitpack import pack_batch
        code = self._code()
        m, b = code.grid.m, code.grid.blocks_per_side
        for lead_bits, ctr_bits in [((0, 1), ()), ((0, 1, 2), (1,)),
                                    ((0,), (0, 2)), ((0, 1), (0, 1))]:
            lead = np.zeros((4, m, b, b), dtype=np.uint8)
            ctr = np.zeros((4, m, b, b), dtype=np.uint8)
            for d in lead_bits:
                lead[:, d, 1, 1] = 1
            for d in ctr_bits:
                ctr[:, d, 1, 1] = 1
            dec = code.decode_batch_packed(pack_batch(lead), pack_batch(ctr))
            assert (dec.status_codes(4)[:, 1, 1]
                    == BATCH_UNCORRECTABLE).all(), (lead_bits, ctr_bits)

    def test_data_error_positions_solve_the_pair(self):
        """A (leading, counter) syndrome pair corrects solve_position's
        cell."""
        from repro.core.checker import check_all_batched_packed
        from repro.core.code import BATCH_DATA_ERROR
        from repro.core.diagonals import solve_position
        from repro.utils.bitpack import pack_batch, unpack_batch
        code = self._code()
        n, m, b = code.grid.n, code.grid.m, code.grid.blocks_per_side
        for dl in range(m):
            for dc in range(m):
                # All-zero data has all-zero parity, so the stored bits
                # below are exactly the syndrome.
                words = pack_batch(np.zeros((1, n, n), dtype=np.uint8))
                lead = np.zeros((1, m, b, b), dtype=np.uint8)
                ctr = np.zeros((1, m, b, b), dtype=np.uint8)
                lead[0, dl, 0, 0] = 1
                ctr[0, dc, 0, 0] = 1
                sweep = check_all_batched_packed(
                    code.grid, code, words, pack_batch(lead),
                    pack_batch(ctr), 1)
                assert sweep.status_codes()[0, 0, 0] == BATCH_DATA_ERROR
                rows, cols = np.nonzero(unpack_batch(words, 1)[0])
                assert list(zip(rows.tolist(), cols.tolist())) == \
                    [solve_position(dl, dc, m)]

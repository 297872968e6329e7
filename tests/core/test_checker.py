"""Unit tests for ECC checking and correction flows."""

import numpy as np
import pytest

from repro.core.checker import BlockChecker, SweepReport
from repro.core.code import DecodeStatus
from repro.errors import UncorrectableError


@pytest.fixture
def checker(small_grid, small_code, protected_memory):
    mem, store, _ = protected_memory
    return mem, BlockChecker(small_grid, small_code, store)


class TestSingleBlockCheck:
    def test_clean_block(self, checker):
        mem, chk = checker
        report = chk.check_block(mem, 0, 0)
        assert report.status is DecodeStatus.NO_ERROR
        assert not report.corrected

    def test_data_error_corrected_in_place(self, checker):
        mem, chk = checker
        golden = mem.snapshot()
        mem.flip(7, 8)
        report = chk.check_block(mem, 1, 1)
        assert report.status is DecodeStatus.DATA_ERROR
        assert report.corrected
        assert (mem.snapshot() == golden).all()

    def test_correction_does_not_disturb_parity(self, checker, small_code):
        mem, chk = checker
        mem.flip(7, 8)
        chk.check_block(mem, 1, 1)
        fresh = small_code.encode(mem.snapshot())
        assert (fresh.lead == chk.store.lead).all()
        assert (fresh.ctr == chk.store.ctr).all()

    def test_check_bit_error_corrected_in_store(self, checker):
        mem, chk = checker
        chk.store.flip("leading", 2, 1, 0)
        report = chk.check_block(mem, 1, 0)
        assert report.status is DecodeStatus.CHECK_BIT_ERROR
        assert report.corrected
        follow_up = chk.check_block(mem, 1, 0)
        assert follow_up.status is DecodeStatus.NO_ERROR

    def test_correct_false_leaves_error(self, checker):
        mem, chk = checker
        mem.flip(0, 0)
        report = chk.check_block(mem, 0, 0, correct=False)
        assert report.status is DecodeStatus.DATA_ERROR
        assert not report.corrected
        assert chk.check_block(mem, 0, 0,
                               correct=False).status is \
            DecodeStatus.DATA_ERROR

    def test_double_error_uncorrectable(self, checker):
        mem, chk = checker
        mem.flip(0, 0)
        mem.flip(1, 3)  # same block (0, 0)
        report = chk.check_block(mem, 0, 0)
        assert report.status is DecodeStatus.UNCORRECTABLE
        assert not report.corrected

    def test_raise_on_uncorrectable(self, small_grid, small_code,
                                    protected_memory):
        mem, store, _ = protected_memory
        chk = BlockChecker(small_grid, small_code, store,
                           raise_on_uncorrectable=True)
        mem.flip(0, 0)
        mem.flip(1, 3)
        with pytest.raises(UncorrectableError):
            chk.check_block(mem, 0, 0)


class TestSweeps:
    def test_check_all_restores_scattered_errors(self, checker):
        """One error per block everywhere: the full sweep must restore
        the memory exactly (each block corrects independently)."""
        mem, chk = checker
        golden = mem.snapshot()
        for br in range(3):
            for bc in range(3):
                mem.flip(br * 5 + (br + bc) % 5, bc * 5 + (br * 2 + bc) % 5)
        sweep = chk.check_all(mem)
        assert sweep.data_corrections == 9
        assert (mem.snapshot() == golden).all()
        assert sweep.blocks_checked == 9

    def test_check_block_row_subset(self, checker):
        mem, chk = checker
        sweep = chk.check_block_row(mem, 1, block_cols=[0, 2])
        assert sweep.blocks_checked == 2
        assert [(r.block_row, r.block_col) for r in sweep.reports] == \
            [(1, 0), (1, 2)]

    def test_check_block_row_full(self, checker):
        mem, chk = checker
        sweep = chk.check_block_row(mem, 2)
        assert sweep.blocks_checked == 3

    def test_sweep_report_aggregates(self, checker):
        mem, chk = checker
        mem.flip(0, 0)                        # data error block (0,0)
        chk.store.flip("counter", 1, 0, 1)    # check error block (0,1)
        mem.flip(10, 10)
        mem.flip(11, 11)                      # double error block (2,2)
        sweep = chk.check_all(mem)
        assert sweep.data_corrections == 1
        assert sweep.check_bit_corrections == 1
        assert len(sweep.uncorrectable) == 1
        assert not sweep.clean

    def test_clean_sweep(self, checker):
        mem, chk = checker
        assert chk.check_all(mem).clean


class TestBatchedSweep:
    @staticmethod
    def _packed(small_grid, small_code, data):
        from repro.core.registry import build_code, encode_stack
        from repro.utils.bitpack import pack_batch
        lead, ctr = encode_stack(build_code("diagonal", small_grid), data)
        return pack_batch(data), pack_batch(lead), pack_batch(ctr)

    def test_correct_false_leaves_state_and_reports_zero(self, small_grid,
                                                         small_code, rng):
        from repro.core.checker import check_all_batched_packed
        from repro.core.code import BATCH_DATA_ERROR
        from repro.utils.bitpack import pack_batch, unpack_batch

        n = small_grid.n
        data = rng.integers(0, 2, (2, n, n)).astype(np.uint8)
        _, lead, ctr = self._packed(small_grid, small_code, data)
        corrupted = data.copy()
        corrupted[0, 3, 4] ^= 1
        corrupted[1, 7, 7] ^= 1
        words = pack_batch(corrupted)
        sweep = check_all_batched_packed(small_grid, small_code, words,
                                         lead, ctr, 2, correct=False)
        # read-only sweep: errors located but nothing rewritten
        assert (sweep.status_codes() == BATCH_DATA_ERROR).sum() == 2
        assert (unpack_batch(words, 2) != data).sum() == 2
        assert (sweep.data_corrections == 0).all()
        assert (sweep.check_bit_corrections == 0).all()

    def test_correct_true_repairs_and_counts(self, small_grid, small_code,
                                             rng):
        from repro.core.checker import check_all_batched_packed
        from repro.utils.bitpack import pack_batch, unpack_batch

        n = small_grid.n
        golden = rng.integers(0, 2, (2, n, n)).astype(np.uint8)
        _, lead, ctr = self._packed(small_grid, small_code, golden)
        golden_lead = unpack_batch(lead, 2)
        data = golden.copy()
        data[0, 3, 4] ^= 1
        lead[0, 2, 0, 0] ^= np.uint64(1 << 1)  # trial 1's bit
        words = pack_batch(data)
        sweep = check_all_batched_packed(small_grid, small_code, words,
                                         lead, ctr, 2)
        assert (unpack_batch(words, 2) == golden).all()
        assert (unpack_batch(lead, 2) == golden_lead).all()
        assert sweep.data_corrections.tolist() == [1, 0]
        assert sweep.check_bit_corrections.tolist() == [0, 1]

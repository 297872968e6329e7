"""Tests for the pluggable block-code registry (repro.core.registry)."""

import numpy as np
import pytest

from repro.arch.area import AreaModel
from repro.core.altcodes import update_cost
from repro.core.blocks import BlockGrid
from repro.core.code import (
    CheckBitError,
    DataError,
    NoError,
    Uncorrectable,
)
from repro.core.registry import (
    CODE_KINDS,
    MatrixBlockCode,
    build_code,
    check_stack,
    code_names,
    encode_stack,
    extended_hamming_patterns,
    hsiao_patterns,
    register_code,
)
from repro.utils.bitpack import pack_batch, unpack_batch

ALL_CODES = ("diagonal", "rowcol", "hsiao", "hamming_ext")
MATRIX_CODES = ("hsiao", "hamming_ext")


def _popcount(v: int) -> int:
    return bin(v).count("1")


class TestRegistry:
    def test_code_names_sorted_and_complete(self):
        names = code_names()
        assert names == tuple(sorted(names))
        assert set(ALL_CODES) <= set(names)

    def test_build_code_unknown_name(self):
        with pytest.raises(ValueError, match="unknown code"):
            build_code("nope", BlockGrid(15, 3))

    def test_register_code_refuses_duplicates(self):
        with pytest.raises(ValueError, match="already registered"):
            register_code("diagonal", lambda grid: None)

    def test_register_code_overwrite_and_extension(self):
        sentinel = object()
        try:
            register_code("_test_code", lambda grid: sentinel)
            assert build_code("_test_code", BlockGrid(15, 3)) is sentinel
            with pytest.raises(ValueError):
                register_code("_test_code", lambda grid: None)
            register_code("_test_code", lambda grid: 42, overwrite=True)
            assert build_code("_test_code", BlockGrid(15, 3)) == 42
        finally:
            CODE_KINDS.pop("_test_code", None)

    @pytest.mark.parametrize("name", ALL_CODES)
    def test_built_code_name_matches(self, name):
        assert build_code(name, BlockGrid(15, 5)).name == name


class TestGeometry:
    @pytest.mark.parametrize("name", ALL_CODES)
    def test_plane_accounting(self, name):
        grid = BlockGrid(15, 5)
        code = build_code(name, grid)
        b = grid.blocks_per_side
        assert len(code.plane_names) == len(code.plane_depths)
        assert code.plane_shapes == tuple(
            (rk, b, b) for rk in code.plane_depths)
        assert code.check_bits_per_block == sum(code.plane_depths)
        assert code.data_bits_per_block == grid.cells_per_block
        assert code.check_overhead_cells() == \
            code.check_bits_per_block * grid.block_count
        assert code.overhead_fraction == pytest.approx(
            code.check_bits_per_block / grid.cells_per_block)

    def test_diagonal_matches_historical_layout(self):
        grid = BlockGrid(15, 5)
        code = build_code("diagonal", grid)
        assert code.plane_names == ("leading", "counter")
        assert code.plane_depths == (grid.m, grid.m)
        assert code.check_bits_per_block == 2 * grid.m
        assert code.check_bits_per_block == grid.check_bits_per_block

    def test_matrix_codes_are_denser(self):
        """r ~ log2(m^2) check bits, far below the diagonal's 2m."""
        grid = BlockGrid(15, 5)
        for name in MATRIX_CODES:
            code = build_code(name, grid)
            assert code.plane_names == ("check",)
            assert code.check_bits_per_block == 6  # k=25 -> r=6
            assert code.check_bits_per_block < 2 * grid.m


class TestPatterns:
    @pytest.mark.parametrize("builder",
                             [hsiao_patterns, extended_hamming_patterns])
    @pytest.mark.parametrize("k", [9, 25])
    def test_odd_weight_distinct(self, builder, k):
        r, pats = builder(k)
        assert pats.shape == (k,)
        assert len(set(int(v) for v in pats)) == k
        for v in (int(x) for x in pats):
            assert 0 < v < (1 << r)
            assert _popcount(v) % 2 == 1 and _popcount(v) >= 3

    def test_check_bit_counts(self):
        assert hsiao_patterns(25)[0] == 6
        assert extended_hamming_patterns(25)[0] == 6
        assert hsiao_patterns(9)[0] == 5
        assert extended_hamming_patterns(9)[0] == 5

    @pytest.mark.parametrize("builder",
                             [hsiao_patterns, extended_hamming_patterns])
    def test_rejects_nonpositive_k(self, builder):
        with pytest.raises(ValueError):
            builder(0)

    def test_matrix_code_validates_invariants(self):
        grid = BlockGrid(15, 3)
        k = grid.cells_per_block
        with pytest.raises(ValueError, match="distinct"):
            MatrixBlockCode(grid, "bad", 5,
                            np.full(k, 7, dtype=np.int64))
        r, pats = hsiao_patterns(k)
        bad = pats.copy()
        bad[0] = 3  # weight 2: violates odd-weight >= 3
        with pytest.raises(ValueError, match="odd-weight"):
            MatrixBlockCode(grid, "bad", r, bad)


class TestScalarDecode:
    """Exhaustive single-error correction, per code, on one block."""

    @pytest.fixture(params=ALL_CODES)
    def code(self, request):
        return build_code(request.param, BlockGrid(15, 3))

    @pytest.fixture
    def block(self, code):
        rng = np.random.default_rng(99)
        return rng.integers(0, 2, size=(3, 3), dtype=np.uint8)

    def test_clean_block(self, code, block):
        planes = code.encode_block(block)
        assert isinstance(code.decode_block(block, *planes), NoError)

    def test_every_single_data_error_corrected(self, code, block):
        planes = code.encode_block(block)
        m = code.grid.m
        for r in range(m):
            for c in range(m):
                corrupted = block.copy()
                corrupted[r, c] ^= 1
                outcome = code.decode_block(corrupted, *planes)
                assert outcome == DataError(r, c), (r, c, outcome)

    def test_every_single_check_bit_error_located(self, code, block):
        planes = [p.copy() for p in code.encode_block(block)]
        for pi, name in enumerate(code.plane_names):
            for idx in range(code.plane_depths[pi]):
                flipped = [p.copy() for p in planes]
                flipped[pi][idx] ^= 1
                outcome = code.decode_block(block, *flipped)
                assert outcome == CheckBitError(name, idx), (name, idx,
                                                             outcome)

    @pytest.mark.parametrize("name", MATRIX_CODES)
    def test_matrix_double_errors_all_detected(self, name):
        """The odd-weight-column SEC-DED argument, exhaustively (m=3)."""
        grid = BlockGrid(15, 3)
        code = build_code(name, grid)
        rng = np.random.default_rng(7)
        block = rng.integers(0, 2, size=(3, 3), dtype=np.uint8)
        planes = code.encode_block(block)
        k, r = grid.cells_per_block, code.plane_depths[0]
        flat = block.reshape(-1)
        # data+data doubles
        for a in range(k):
            for b in range(a + 1, k):
                corrupted = flat.copy()
                corrupted[a] ^= 1
                corrupted[b] ^= 1
                outcome = code.decode_block(corrupted.reshape(3, 3), *planes)
                assert isinstance(outcome, Uncorrectable), (a, b, outcome)
        # data+check doubles
        for a in range(k):
            corrupted = flat.copy()
            corrupted[a] ^= 1
            for j in range(r):
                bad = planes[0].copy()
                bad[j] ^= 1
                outcome = code.decode_block(corrupted.reshape(3, 3), bad)
                assert isinstance(outcome, Uncorrectable), (a, j, outcome)
        # check+check doubles
        for i in range(r):
            for j in range(i + 1, r):
                bad = planes[0].copy()
                bad[i] ^= 1
                bad[j] ^= 1
                outcome = code.decode_block(block, bad)
                assert isinstance(outcome, Uncorrectable), (i, j, outcome)


class TestBatchedEncode:
    @pytest.mark.parametrize("name", ALL_CODES)
    def test_encode_batch_matches_scalar(self, name):
        grid = BlockGrid(15, 5)
        code = build_code(name, grid)
        rng = np.random.default_rng(3)
        batch = 70  # straddles the 64-trial word boundary
        data = rng.integers(0, 2, size=(batch, 15, 15), dtype=np.uint8)
        planes = [unpack_batch(p, batch)
                  for p in code.encode_batch_packed(pack_batch(data))]
        assert len(planes) == len(code.plane_names)
        for t in range(batch):
            for br in range(grid.blocks_per_side):
                for bc in range(grid.blocks_per_side):
                    block = data[t, br * 5:(br + 1) * 5,
                                 bc * 5:(bc + 1) * 5]
                    expected = code.encode_block(block)
                    for p, exp in zip(planes, expected):
                        np.testing.assert_array_equal(p[t, :, br, bc], exp)

    @pytest.mark.parametrize("name", ALL_CODES)
    def test_check_batched_matches_scalar(self, name):
        """Packed check-and-correct == the per-block scalar decoder."""
        grid = BlockGrid(15, 5)
        code = build_code(name, grid)
        rng = np.random.default_rng(4)
        batch = 70
        data = rng.integers(0, 2, size=(batch, 15, 15), dtype=np.uint8)
        planes = list(encode_stack(code, data))
        data ^= (rng.random(data.shape) < 0.02).astype(np.uint8)
        for p in planes:
            p ^= (rng.random(p.shape) < 0.02).astype(np.uint8)
        words = pack_batch(data)
        packed = [pack_batch(p) for p in planes]
        sweep = code.check_batched_packed(words, packed, batch)
        status = check_stack(code, data, planes)
        np.testing.assert_array_equal(sweep.status_codes(), status)
        np.testing.assert_array_equal(unpack_batch(words, batch), data)
        for got, want in zip(packed, planes):
            np.testing.assert_array_equal(unpack_batch(got, batch), want)


class TestUpdateCost:
    def test_gradient_matches_the_paper_argument(self):
        """diagonal (1) << rowcol (ceil(m/2)) << matrix codes."""
        grid = BlockGrid(15, 5)
        costs = {name: build_code(name, grid).update_cost()
                 for name in ALL_CODES}
        assert costs["diagonal"].worst_case == 1
        assert costs["rowcol"].worst_case == 3  # ceil(5/2)
        for name in MATRIX_CODES:
            assert costs[name].worst_case > costs["rowcol"].worst_case

    def test_legacy_codes_delegate_to_altcodes(self):
        grid = BlockGrid(15, 5)
        assert build_code("diagonal", grid).update_cost() == \
            update_cost("diagonal", 15, 5)
        assert build_code("rowcol", grid).update_cost() == \
            update_cost("rowcol", 15, 5)

    @pytest.mark.parametrize("name", ALL_CODES)
    def test_costs_positive_both_orientations(self, name):
        cost = build_code(name, BlockGrid(15, 3)).update_cost()
        assert cost.row_parallel_xor_ops >= 1
        assert cost.col_parallel_xor_ops >= 1


class TestAreaIntegration:
    def test_default_model_keeps_paper_table(self):
        assert AreaModel().total_memristors() == \
            AreaModel(check_bits_per_block=None).total_memristors()

    def test_check_bits_override_scales_check_row(self):
        base = AreaModel()
        n, m = base.config.n, base.config.m
        model = AreaModel(check_bits_per_block=9)
        row = [r for r in model.rows() if r.unit == "Check-Bits"][0]
        assert row.memristors == 9 * (n // m) ** 2
        assert "9" in row.expression
        # Default reproduces the diagonal 2m row exactly.
        default_row = [r for r in base.rows() if r.unit == "Check-Bits"][0]
        assert default_row.memristors == 2 * m * (n // m) ** 2

    def test_registry_code_feeds_the_model(self):
        grid = BlockGrid(15, 5)
        for name in ALL_CODES:
            code = build_code(name, grid)
            model = AreaModel(check_bits_per_block=code.check_bits_per_block)
            row = [r for r in model.rows() if r.unit == "Check-Bits"][0]
            n, m = model.config.n, model.config.m
            assert row.memristors == \
                code.check_bits_per_block * (n // m) ** 2

    def test_rejects_nonpositive_check_bits(self):
        with pytest.raises(ValueError):
            AreaModel(check_bits_per_block=0)

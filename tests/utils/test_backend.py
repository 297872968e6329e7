"""Unit tests for the pluggable array-backend layer."""

import numpy as np
import pytest

from repro.core.blocks import BlockGrid
from repro.core.code import DiagonalParityCode
from repro.utils.backend import (
    BACKEND_ENV_VAR,
    ArrayBackend,
    TracingBackend,
    available_backends,
    get_backend,
    register_backend,
)
from repro.utils.bitpack import pack_batch


class TestResolution:
    def test_default_is_numpy(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        be = get_backend()
        assert be.name == "numpy"
        assert be.xp is np

    def test_instance_passthrough(self):
        be = TracingBackend()
        assert get_backend(be) is be

    def test_name_lookup(self):
        assert get_backend("numpy").name == "numpy"
        assert get_backend("tracing").name == "tracing"

    def test_numpy_backend_is_cached(self):
        assert get_backend("numpy") is get_backend("numpy")

    def test_tracing_backend_is_fresh_per_lookup(self):
        """Each lookup gets its own op log."""
        assert get_backend("tracing") is not get_backend("tracing")

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "tracing")
        assert get_backend().name == "tracing"

    def test_empty_env_var_falls_back_to_numpy(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "")
        assert get_backend().name == "numpy"

    def test_unknown_name_lists_available(self):
        with pytest.raises(ValueError, match="numpy"):
            get_backend("no-such-backend")

    def test_bad_type_rejected(self):
        with pytest.raises(TypeError):
            get_backend(42)

    def test_builtins_registered(self):
        names = available_backends()
        assert {"numpy", "tracing"} <= set(names) and "cupy" not in names

    def test_cupy_unavailable_raises_helpfully(self):
        """No cupy backend ships: the name fails like any unknown one,
        listing what is registered."""
        with pytest.raises(ValueError,
                           match="unknown backend 'cupy'.*numpy, tracing"):
            get_backend("cupy")

    def test_cupy_env_selection_fails_the_same_way(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "cupy")
        with pytest.raises(ValueError, match="unknown backend 'cupy'"):
            get_backend(None)


class TestRegistry:
    def test_register_and_resolve(self):
        name = "test-custom-backend"
        register_backend(name, lambda: ArrayBackend(name, np),
                         overwrite=True)
        assert get_backend(name).name == name

    def test_duplicate_registration_guarded(self):
        with pytest.raises(ValueError, match="already registered"):
            register_backend("numpy", lambda: ArrayBackend("numpy", np))


class TestArrayBackendOps:
    def test_host_transfer_defaults_are_identity_for_numpy(self):
        be = get_backend("numpy")
        arr = np.arange(6, dtype=np.uint8)
        assert be.to_numpy(arr) is arr
        assert be.from_numpy(arr) is arr

    def test_scatter_xor_honours_duplicates(self):
        be = get_backend("numpy")
        arr = np.zeros((3, 3), dtype=np.uint8)
        rows = np.array([0, 0, 1, 2, 2, 2])
        cols = np.array([1, 1, 2, 0, 0, 0])
        be.scatter_xor(arr, (rows, cols), np.ones(rows.size, np.uint8))
        # (0,1) twice -> 0, (1,2) once -> 1, (2,0) thrice -> 1
        assert arr[0, 1] == 0 and arr[1, 2] == 1 and arr[2, 0] == 1
        assert arr.sum() == 2

    def test_xor_reduce_matches_parity(self):
        be = get_backend("numpy")
        rng = np.random.default_rng(3)
        arr = rng.integers(0, 2, (7, 4, 5)).astype(np.uint8)
        assert (be.xor_reduce(arr, axis=0)
                == (arr.sum(axis=0) % 2).astype(np.uint8)).all()

    def test_xor_reduce_fallback_handles_word_values(self):
        """Without ufunc.reduce the fold must XOR multi-bit words
        correctly (not a 0/1 sum-parity shortcut)."""

        class NoReduceModule:
            bitwise_xor = object()  # no .reduce attribute
            asarray = staticmethod(np.asarray)

        be = ArrayBackend("no-reduce", NoReduceModule())
        rng = np.random.default_rng(5)
        for dtype, hi in ((np.uint64, 2**63), (np.uint8, 2)):
            arr = rng.integers(0, hi, (5, 3, 4)).astype(dtype)
            for axis in (0, 1, -1):
                expected = np.bitwise_xor.reduce(arr, axis=axis)
                assert np.array_equal(be.xor_reduce(arr, axis=axis),
                                      expected), (dtype, axis)

    def test_scatter_xor_with_values(self):
        """Per-event values XOR-fold with duplicates (packed bit masks)."""
        be = get_backend("numpy")
        arr = np.zeros((2, 3), dtype=np.uint64)
        idx = (np.array([0, 0, 1]), np.array([1, 1, 2]))
        vals = np.asarray([0b0101, 0b0011, 0b1000], dtype=np.uint64)
        be.scatter_xor(arr, idx, vals)
        assert arr[0, 1] == (0b0101 ^ 0b0011)
        assert arr[1, 2] == 0b1000

    def test_scatter_xor_values_fallback_matches_ufunc_at(self):
        """The no-ufunc.at fold gives the same result for valued XORs."""

        class NoAtModule:
            bitwise_xor = object()  # no .at attribute
            asarray = staticmethod(np.asarray)

        be = ArrayBackend("no-at-values", NoAtModule())
        direct = get_backend("numpy")
        rng = np.random.default_rng(9)
        idx = (rng.integers(0, 4, 50), rng.integers(0, 5, 50))
        vals = rng.integers(0, 2**63, 50, dtype=np.uint64)
        a = np.zeros((4, 5), dtype=np.uint64)
        b = np.zeros((4, 5), dtype=np.uint64)
        be.scatter_xor(a, idx, vals)
        direct.scatter_xor(b, idx, vals)
        assert (a == b).all()


class TestTracingBackend:
    def test_records_ops_and_matches_numpy(self):
        grid = BlockGrid(9, 3)
        code = DiagonalParityCode(grid)
        rng = np.random.default_rng(11)
        words = pack_batch(rng.integers(0, 2, (70, 9, 9)).astype(np.uint8))

        tracing = TracingBackend()
        lead_t, ctr_t = code.encode_batch_packed(words, backend=tracing)
        lead_n, ctr_n = code.encode_batch_packed(words)
        assert (np.asarray(lead_t) == lead_n).all()
        assert (np.asarray(ctr_t) == ctr_n).all()
        assert tracing.ops  # the kernel went through the handle
        assert "asarray" in tracing.ops

    def test_reset_clears_log(self):
        tracing = TracingBackend()
        tracing.xp.asarray([1, 2])
        assert tracing.ops
        tracing.reset()
        assert not tracing.ops

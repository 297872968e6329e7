"""Pluggable array-backend layer for the vectorized simulation engine.

Every batched kernel in the library (``DiagonalParityCode
.encode_batch_packed`` / ``decode_batch_packed``,
``repro.core.checker.check_all_batched_packed``, the
``inject_batch_planes_packed`` application step, and the engines built
on them) runs its tensor arithmetic through an :class:`ArrayBackend`
handle instead of a hard-wired ``import numpy``. A backend wraps a
numpy-like array module (duck-typed: anything exposing the
array-API-style surface numpy does —
``asarray``/``empty``/``zeros``/``nonzero``/ufuncs/reductions and
advanced indexing) plus the few operations that are *not* portable
across such modules (host transfer, scatter-XOR).

Backend-selection contract
==========================

Resolution order of :func:`get_backend`:

1. An explicit handle wins: pass an :class:`ArrayBackend` instance (used
   verbatim) or a registered backend name (``str``) to any ``backend=``
   parameter in the library.
2. With ``backend=None`` (the default everywhere), the environment
   variable ``REPRO_BACKEND`` selects a registered backend by name.
3. With no environment override, the ``"numpy"`` backend is used.

Built-in registry entries:

``"numpy"``
    The default. Zero-copy host transfer; bit-identical to every scalar
    reference path (the seeding contracts of :mod:`repro.faults.batch`
    are stated for this backend).
``"tracing"``
    A numpy-delegating diagnostic backend that records every array-module
    attribute the kernels touch (:attr:`TracingBackend.ops`). Results are
    bit-identical to ``"numpy"``; tests use it to prove the engines run
    end-to-end under a non-default handle and never bypass the backend.

Custom backends: build an :class:`ArrayBackend` around any numpy-like
module and either pass the instance directly or
:func:`register_backend` it under a name (required for
``REPRO_BACKEND`` selection and for multi-process sharded campaigns,
which ship the backend *name* to workers — module handles themselves do
not pickle).

Random-number generation is deliberately **not** part of the backend
surface: all stochastic draws stay on ``numpy.random`` generators (see
:mod:`repro.utils.rng`) so the per-trial seeding and bit-identical
sequential contracts hold under every backend; draws cross onto the
backend via :meth:`ArrayBackend.from_numpy` staging.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Optional, Tuple, Union

import numpy as np

#: Environment variable naming the default backend.
BACKEND_ENV_VAR = "REPRO_BACKEND"


class ArrayBackend:
    """Handle around a numpy-like array module.

    Parameters
    ----------
    name:
        Identifier used in reprs, registry lookups, and shard payloads.
    xp:
        The array module (``numpy`` or any duck-typed equivalent).
        Kernels call ``backend.xp.<op>`` for ordinary array arithmetic.
    to_numpy / from_numpy:
        Host-transfer hooks. The defaults (``numpy.asarray`` /
        ``xp.asarray``) are zero-copy for host backends; a backend whose
        arrays live elsewhere overrides them.
    """

    def __init__(self, name: str, xp,
                 to_numpy: Optional[Callable] = None,
                 from_numpy: Optional[Callable] = None):
        self.name = name
        self.xp = xp
        self._to_numpy = to_numpy
        self._from_numpy = from_numpy

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ArrayBackend({self.name!r})"

    # ------------------------------------------------------------------ #
    # Host boundary
    # ------------------------------------------------------------------ #

    def to_numpy(self, arr) -> np.ndarray:
        """Materialize a backend array as a host ``numpy.ndarray``."""
        if self._to_numpy is not None:
            return self._to_numpy(arr)
        return np.asarray(arr)

    def from_numpy(self, arr: np.ndarray):
        """Move a host array onto the backend (identity for numpy)."""
        if self._from_numpy is not None:
            return self._from_numpy(arr)
        return self.xp.asarray(arr)

    # ------------------------------------------------------------------ #
    # Portability shims — the ops that are not uniform across modules
    # ------------------------------------------------------------------ #

    def xor_reduce(self, arr, axis: int = 0):
        """XOR-reduce along ``axis``.

        Uses the ufunc reduction when the module provides one, otherwise
        a portable bitwise fold — the fold (not a sum-parity trick) so
        the result is correct for multi-bit values like the packed
        ``uint64`` word tensors, not just 0/1 fields.
        """
        xor = getattr(self.xp, "bitwise_xor", None)
        reduce = getattr(xor, "reduce", None) if xor is not None else None
        if reduce is not None:
            return reduce(arr, axis=axis)
        index = (slice(None),) * (axis % arr.ndim)
        acc = arr[index + (0,)]
        for d in range(1, arr.shape[axis]):
            acc = acc ^ arr[index + (d,)]
        return acc

    def scatter_xor(self, arr, indices: Tuple, values) -> None:
        """In-place ``arr[indices] ^= values`` honouring duplicate indices.

        ``values`` holds one value per index tuple (e.g. the single-bit
        masks of the packed ``uint64`` layout) and is XOR-folded per
        cell, so a cell listed ``k`` times receives all ``k`` values and
        duplicated (index, value) pairs cancel pairwise — the semantics
        the fault injectors rely on for duplicate flip events. numpy's
        ``bitwise_xor.at`` implements this directly; modules without
        ``ufunc.at`` fall back to a host-side fold staged back through
        :meth:`from_numpy`.
        """
        indices = tuple(self.xp.asarray(ix) for ix in indices)
        at = getattr(self.xp.bitwise_xor, "at", None)
        if at is not None:
            at(arr, indices, self.xp.asarray(values, dtype=arr.dtype))
            return
        # Generic fallback: XOR-fold host-side, then apply in one pass.
        host_idx = tuple(np.asarray(self.to_numpy(ix)) for ix in indices)
        fold = np.zeros(arr.shape, dtype=arr.dtype)
        np.bitwise_xor.at(fold, host_idx, np.asarray(values, dtype=arr.dtype))
        arr ^= self.from_numpy(fold)

    def popcount(self, arr):
        """Per-element count of set bits (for packed ``uint64`` words).

        Uses the module's native ``bitwise_count`` when present (numpy
        >= 2.0) and a SWAR (SIMD-within-a-register) bit-twiddling
        fallback otherwise. Returns an ``int64`` array of ``arr.shape``.
        """
        xp = self.xp
        native = getattr(xp, "bitwise_count", None)
        if native is not None:
            return native(arr).astype(xp.int64)
        x = xp.asarray(arr, dtype=xp.uint64)
        m1 = xp.uint64(0x5555555555555555)
        m2 = xp.uint64(0x3333333333333333)
        m4 = xp.uint64(0x0F0F0F0F0F0F0F0F)
        h01 = xp.uint64(0x0101010101010101)
        x = x - ((x >> xp.uint64(1)) & m1)
        x = (x & m2) + ((x >> xp.uint64(2)) & m2)
        x = (x + (x >> xp.uint64(4))) & m4
        return ((x * h01) >> xp.uint64(56)).astype(xp.int64)


class _TracingModule:
    """Attribute proxy over numpy that records which ops were requested."""

    def __init__(self, ops: Dict[str, int]):
        self._ops = ops

    def __getattr__(self, name: str):
        attr = getattr(np, name)
        self._ops[name] = self._ops.get(name, 0) + 1
        return attr


class TracingBackend(ArrayBackend):
    """Numpy-delegating backend that counts array-module attribute hits.

    ``ops`` maps op name -> access count; :meth:`reset` clears it. Used
    by tests to prove the batched engines route every tensor op through
    the backend handle (and as a template for wrapping real alternative
    modules).
    """

    def __init__(self):
        self.ops: Dict[str, int] = {}
        super().__init__("tracing", _TracingModule(self.ops),
                         to_numpy=np.asarray)

    def reset(self) -> None:
        self.ops.clear()


def _make_numpy() -> ArrayBackend:
    return ArrayBackend("numpy", np, to_numpy=np.asarray, from_numpy=None)


_FACTORIES: Dict[str, Callable[[], ArrayBackend]] = {
    "numpy": _make_numpy,
    "tracing": TracingBackend,
}

#: Instantiated backends, one per registry name (tracing excepted — its
#: per-instance op log makes caching surprising, so it is rebuilt fresh).
_CACHE: Dict[str, ArrayBackend] = {}

BackendLike = Union[ArrayBackend, str, None]


def register_backend(name: str, factory: Callable[[], ArrayBackend],
                     overwrite: bool = False) -> None:
    """Register a backend factory under ``name``.

    ``factory`` is a zero-argument callable returning an
    :class:`ArrayBackend`; it runs lazily on first :func:`get_backend`
    lookup (so optional imports belong inside it). Re-registering an
    existing name requires ``overwrite=True``.
    """
    if name in _FACTORIES and not overwrite:
        raise ValueError(f"backend {name!r} is already registered "
                         f"(pass overwrite=True to replace it)")
    _FACTORIES[name] = factory
    _CACHE.pop(name, None)


def available_backends() -> Tuple[str, ...]:
    """Registered backend names (availability of imports not checked)."""
    return tuple(sorted(_FACTORIES))


def get_backend(backend: BackendLike = None) -> ArrayBackend:
    """Resolve a ``backend=`` argument to an :class:`ArrayBackend`.

    See the module docstring for the full resolution contract:
    instance > name > ``$REPRO_BACKEND`` > ``"numpy"``.
    """
    if isinstance(backend, ArrayBackend):
        return backend
    if backend is None:
        backend = os.environ.get(BACKEND_ENV_VAR) or "numpy"
    if not isinstance(backend, str):
        raise TypeError(f"backend must be an ArrayBackend, a registered "
                        f"name, or None; got {type(backend).__name__}")
    if backend not in _FACTORIES:
        raise ValueError(f"unknown backend {backend!r}; registered: "
                         f"{', '.join(available_backends())}")
    if backend == "tracing":
        return _FACTORIES[backend]()
    if backend not in _CACHE:
        _CACHE[backend] = _FACTORIES[backend]()
    return _CACHE[backend]

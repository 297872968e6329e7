"""Bit-packed (bit-sliced) ``uint64`` kernel layer.

The paper's premise is bulk-bitwise SIMD over crossbar rows; the batched
simulation engine mirrors that on the host. This module packs the
**batch dimension 64-wide**: a stack of ``B`` trials becomes
``ceil(B / 64)`` ``uint64`` *word* tensors of the same trailing shape,
so one XOR/AND/OR machine word processes 64 trials at once — the only
tensor layout of the batched campaign engine.

Layout contract
===============

* Trial ``i`` lives in word ``i // 64`` at bit ``i % 64``, little-endian
  within the word (bit ``j`` of a word is ``(word >> j) & 1``) — the
  :func:`repro.utils.bitops.pack_words_axis0` convention, which this
  module reuses as its packing primitive.
* **Tail padding:** when ``B % 64 != 0`` the trailing bits of the last
  word are zero in every *state* tensor (data words, check planes).
  Kernels may leave garbage in those bits of *derived* masks (anything
  computed with a complement, e.g. the ``no_error`` plane of the packed
  decoder); every consumer therefore trims to the true batch size when
  unpacking — :func:`unpack_batch` takes ``batch`` explicitly.
* Packing and unpacking are host-side numpy; the packed words cross onto
  an array backend once via :meth:`repro.utils.backend.ArrayBackend
  .from_numpy`, after the host-side draws are staged, so the RNG
  seeding contracts of :mod:`repro.faults.batch` never depend on the
  layout or the backend.

The word-wise kernels (diagonal XOR parity, saturating bit-counts for
the packed decoder, word reductions, popcount) all dispatch through the
backend layer (:mod:`repro.utils.backend`), so the packed path runs on
any registered array module. Orthogonally,
the host-side hot loops (pack/unpack, the counters, the fused decoder
sweep) dispatch through the kernel-tier registry
(:mod:`repro.utils.kernels`): when the optional compiled tier is active
*and* the resolved backend's arrays are plain numpy, the C loops run;
every other combination keeps the generic backend path. The tiers are
bit-identical, so the choice is invisible outside of throughput.
"""

from __future__ import annotations

import operator
from typing import Tuple, Union

import numpy as np

from repro.utils.backend import ArrayBackend, BackendLike, get_backend
from repro.utils.bitops import (
    WORD_BITS,
    pack_words_axis0,
    unpack_words_axis0,
    words_for,
)
from repro.utils.kernels import KernelsLike, KernelTier, get_kernels

__all__ = [
    "WORD_BITS",
    "words_for",
    "pack_batch",
    "unpack_batch",
    "batch_tail_mask",
    "saturating_count2",
    "decode_status_masks",
    "or_reduce_words",
    "and_reduce_words",
    "popcount_words",
]


def _native_applies(kern: KernelTier, be: ArrayBackend, *arrays) -> bool:
    """Whether the compiled tier may run on these backend arrays.

    Only when the tier is native *and* the backend's array module is
    numpy itself *and* every operand is a real ``numpy.ndarray`` —
    other backends (the tracing proxy, custom registered modules) must
    keep the generic backend-dispatched path so their semantics (op
    accounting, residency) are preserved.
    """
    return (kern.native and be.xp is np
            and all(isinstance(a, np.ndarray) for a in arrays))


def pack_batch(bits: np.ndarray, backend: BackendLike = None,
               kernels: KernelsLike = None):
    """Pack a host ``(B, ...)`` 0/1 array into ``(W, ...)`` backend words.

    The pack itself runs host-side (numpy or the compiled kernel tier)
    and the words cross onto the backend once — mirroring the
    staged-draw contract of the campaign engine.
    """
    be = get_backend(backend)
    return be.from_numpy(pack_words_axis0(np.asarray(bits),
                                          kernels=kernels))


def unpack_batch(words, batch: int, backend: BackendLike = None,
                 kernels: KernelsLike = None) -> np.ndarray:
    """Unpack ``(W, ...)`` backend words to a host ``(batch, ...)`` uint8.

    Trims tail-padding bits (and any kernel garbage in them) beyond
    ``batch``.
    """
    be = get_backend(backend)
    return unpack_words_axis0(be.to_numpy(words), batch, kernels=kernels)


def batch_tail_mask(batch: int) -> np.ndarray:
    """``(W,)`` uint64 mask with exactly the ``batch`` valid bits set.

    AND a derived mask with this (broadcast over trailing axes) to clear
    tail garbage without unpacking.
    """
    nwords = words_for(batch)
    mask = np.full(nwords, ~np.uint64(0), dtype=np.uint64)
    tail = batch % WORD_BITS
    if tail and nwords:
        mask[-1] = (np.uint64(1) << np.uint64(tail)) - np.uint64(1)
    return mask


def saturating_count2(planes, axis: int, backend: BackendLike = None,
                      kernels: KernelsLike = None) -> Tuple:
    """Per-bit count of set bits along ``axis``, saturated at two.

    Returns ``(ones, twos)`` word tensors with ``axis`` removed:
    ``ones`` holds bit 0 of each lane's count and ``twos`` is a sticky
    "count >= 2" flag — the carry-save sideways counter. A lane's count
    is 0 iff ``~ones & ~twos``, exactly 1 iff ``ones & ~twos``, and 2+
    iff ``twos``. This is the bit-parallel core of the packed syndrome
    decoder (the scalar decoder's one-count per syndrome plane).
    """
    be = get_backend(backend)
    kern = get_kernels(kernels)
    if _native_applies(kern, be, planes):
        return kern.saturating_count2(planes, axis)
    xp = be.xp
    planes = xp.asarray(planes)
    length = planes.shape[axis]
    head = (slice(None),) * axis
    ones = xp.zeros_like(planes[head + (0,)])
    twos = xp.zeros_like(ones)
    for d in range(length):
        lane = planes[head + (d,)]
        twos = twos | (ones & lane)
        ones = ones ^ lane
    return ones, twos


def decode_status_masks(lead_syndrome, ctr_syndrome,
                        backend: BackendLike = None,
                        kernels: KernelsLike = None) -> Tuple:
    """Fused packed-decoder classification of two syndrome plane stacks.

    ``lead_syndrome``/``ctr_syndrome`` are ``(W, depth, ...)`` word
    tensors (plane axis 1); returns the five status masks ``(no_error,
    data_error, lead_check, ctr_check, uncorrectable)`` of
    :class:`repro.core.code.PackedBatchDecode`:

    * count 0 in both plane stacks  -> ``no_error``
    * exactly 1 in both             -> ``data_error``
    * exactly 1 lead / 0 counter    -> ``lead_check``
    * 0 lead / exactly 1 counter    -> ``ctr_check``
    * 2+ anywhere                   -> ``uncorrectable``

    On the compiled tier (with numpy-resident arrays) the dual
    carry-save count and the combo expressions run as one C pass; the
    generic path evaluates the same expressions via
    :func:`saturating_count2`. Complement-derived masks may carry tail
    garbage — the usual rule, consumers trim to the true batch.
    """
    be = get_backend(backend)
    kern = get_kernels(kernels)
    if _native_applies(kern, be, lead_syndrome, ctr_syndrome):
        return kern.decode_sweep(lead_syndrome, ctr_syndrome)
    l_ones, l_twos = saturating_count2(lead_syndrome, axis=1, backend=be,
                                       kernels=kern)
    c_ones, c_twos = saturating_count2(ctr_syndrome, axis=1, backend=be,
                                       kernels=kern)
    l0 = ~l_ones & ~l_twos
    l1 = l_ones & ~l_twos
    c0 = ~c_ones & ~c_twos
    c1 = c_ones & ~c_twos
    return (l0 & c0, l1 & c1, l1 & c0, l0 & c1, l_twos | c_twos)


def _fold_reduce(op, arr, axes):
    """Portable fallback: fold ``op`` along each axis via Python loop.

    ``op`` is a plain operator function (``operator.or_`` / ``and_``),
    so the fold dispatches through the arrays' own ``__or__``/``__and__``
    and stays on whatever module the arrays live on.
    """
    for axis in sorted((a % arr.ndim for a in axes), reverse=True):
        acc = arr[(slice(None),) * axis + (0,)]
        for d in range(1, arr.shape[axis]):
            acc = op(acc, arr[(slice(None),) * axis + (d,)])
        arr = acc
    return arr


def _bitwise_reduce(ufunc_name, op, arr, axis, backend):
    be = get_backend(backend)
    xp = be.xp
    arr = xp.asarray(arr)
    axes = (axis,) if isinstance(axis, int) else tuple(axis)
    ufunc = getattr(xp, ufunc_name, None)
    reduce = getattr(ufunc, "reduce", None) if ufunc is not None else None
    if reduce is not None:
        return reduce(arr, axis=axes)
    return _fold_reduce(op, arr, axes)


def or_reduce_words(arr, axis: Union[int, Tuple[int, ...]],
                    backend: BackendLike = None):
    """Bitwise-OR reduction of word tensors along ``axis`` (int or tuple).

    The packed analogue of ``mask.any(axis)``: a result bit is set iff
    that trial's bit is set anywhere along the reduced axes.
    """
    return _bitwise_reduce("bitwise_or", operator.or_, arr, axis, backend)


def and_reduce_words(arr, axis: Union[int, Tuple[int, ...]],
                     backend: BackendLike = None):
    """Bitwise-AND reduction of word tensors along ``axis`` (int or tuple).

    The packed analogue of ``mask.all(axis)``.
    """
    return _bitwise_reduce("bitwise_and", operator.and_, arr, axis, backend)


def popcount_words(words, backend: BackendLike = None,
                   kernels: KernelsLike = None):
    """Per-word set-bit counts (``int64``), via backend or kernel tier.

    Summing popcounts of a state tensor's words gives the total set bits
    across all trials in one pass — 64 trials per word, no unpacking.
    """
    be = get_backend(backend)
    kern = get_kernels(kernels)
    if _native_applies(kern, be, words):
        return kern.popcount_words(words)
    return be.popcount(words)

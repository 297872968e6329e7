"""The diagonal parity code: encode, syndrome, decode.

Per block, the code stores ``2m`` parity bits (one per leading and counter
wrap-around diagonal). A single bit error anywhere in the *codeword*
(``m^2`` data cells + ``2m`` check cells) is correctable:

* a data error at block-local ``(r, c)`` flips exactly one leading
  syndrome bit (``(r+c) mod m``) and one counter syndrome bit
  (``(r-c) mod m``) — the pair inverts uniquely because ``m`` is odd;
* a check-bit error flips exactly one syndrome bit in one plane and none
  in the other, identifying the faulty check-bit itself.

Any other non-zero signature indicates at least two errors and is reported
as :class:`Uncorrectable` (detected-uncorrectable). Like every
single-error-correcting code, three-or-more errors can alias to a
correctable signature; the reliability model (Sec. V-A) accounts for this
by counting any block with two or more errors as failed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from repro.core.blocks import BlockGrid
from repro.core.checkstore import CheckStore
from repro.core.diagonals import solve_position
from repro.core.parity import parity_along_counter, parity_along_leading
from repro.utils.backend import BackendLike, get_backend
from repro.utils.bitpack import decode_status_masks, unpack_batch
from repro.utils.kernels import KernelsLike


class DecodeStatus(enum.Enum):
    """Classification of a block syndrome."""

    NO_ERROR = "no_error"
    DATA_ERROR = "data_error"
    CHECK_BIT_ERROR = "check_bit_error"
    UNCORRECTABLE = "uncorrectable"


@dataclass(frozen=True)
class NoError:
    """Zero syndrome: the block is consistent."""

    status: DecodeStatus = DecodeStatus.NO_ERROR


@dataclass(frozen=True)
class DataError:
    """Single data-cell error at block-local ``(row, col)``."""

    row: int
    col: int
    status: DecodeStatus = DecodeStatus.DATA_ERROR


@dataclass(frozen=True)
class CheckBitError:
    """Single check-bit error: ``plane`` is 'leading' or 'counter'."""

    plane: str
    index: int
    status: DecodeStatus = DecodeStatus.CHECK_BIT_ERROR


@dataclass(frozen=True)
class Uncorrectable:
    """Two or more errors detected; the syndrome pair is attached."""

    lead_syndrome: Tuple[int, ...]
    ctr_syndrome: Tuple[int, ...]
    status: DecodeStatus = DecodeStatus.UNCORRECTABLE


DecodeOutcome = Union[NoError, DataError, CheckBitError, Uncorrectable]


#: Per-block status codes of :meth:`PackedBatchDecode.status_codes`. The
#: two check-bit planes get distinct codes (the scalar decoder
#: distinguishes them via ``CheckBitError.plane``).
BATCH_NO_ERROR = 0
BATCH_DATA_ERROR = 1
BATCH_LEAD_CHECK_ERROR = 2
BATCH_CTR_CHECK_ERROR = 3
BATCH_UNCORRECTABLE = 4


@dataclass(frozen=True)
class PackedBatchDecode:
    """Bit-parallel decode of packed ``uint64`` syndrome planes.

    Every field is a word tensor in the bit-slice layout of
    :mod:`repro.utils.bitpack` (trial ``i`` -> word ``i // 64``, bit
    ``i % 64``). ``lead_syndrome``/``ctr_syndrome`` are ``(W, m, b, b)``;
    the five status masks are ``(W, b, b)`` with a bit set iff that
    trial's block carries the status — one mask per ``BATCH_*`` code,
    with the two check planes kept separate.

    Tail rule: ``no_error`` is computed with complements, so its padding
    bits (trials beyond the true batch size) are *set*; the other four
    masks derive from AND/OR of zero-padded syndromes and keep zero
    tails. Consumers unpacking any mask must trim to the true batch
    (:meth:`status_codes` does).
    """

    m: int
    lead_syndrome: np.ndarray
    ctr_syndrome: np.ndarray
    no_error: np.ndarray
    data_error: np.ndarray
    lead_check: np.ndarray
    ctr_check: np.ndarray
    uncorrectable: np.ndarray

    def status_codes(self, batch: int,
                     backend: BackendLike = None) -> np.ndarray:
        """Unpack to the ``(B, b, b)`` uint8 ``BATCH_*`` code tensor.

        The differential bridge to the scalar per-block decoder; the hot
        path never calls it.
        """
        status = np.full((batch,) + tuple(self.no_error.shape[1:]),
                         BATCH_UNCORRECTABLE, dtype=np.uint8)
        for code, mask in ((BATCH_NO_ERROR, self.no_error),
                           (BATCH_DATA_ERROR, self.data_error),
                           (BATCH_LEAD_CHECK_ERROR, self.lead_check),
                           (BATCH_CTR_CHECK_ERROR, self.ctr_check)):
            status[unpack_batch(mask, batch, backend=backend) != 0] = code
        return status


def word_tiles(grid: BlockGrid, words, be):
    """``(W, b, m, b, m)`` block view of a packed ``(W, n, n)`` stack.

    The shared front end of every registered code's packed encoder:
    coerces ``words`` to ``uint64`` on backend ``be`` and rejects a
    stack whose cell shape does not match ``grid``.
    """
    n, m = grid.n, grid.m
    words = be.xp.asarray(words, dtype=be.xp.uint64)
    if words.ndim != 3 or words.shape[1:] != (n, n):
        raise ValueError(f"expected (W, {n}, {n}) words, got {words.shape}")
    b = grid.blocks_per_side
    return words.reshape(words.shape[0], b, m, b, m)


class DiagonalParityCode:
    """Encoder/decoder for the per-block diagonal parity code."""

    def __init__(self, grid: BlockGrid):
        self.grid = grid

    # ------------------------------------------------------------------ #
    # Encoding
    # ------------------------------------------------------------------ #

    def encode_block(self, block: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(leading[m], counter[m])`` parity vectors of an ``m x m`` block."""
        m = self.grid.m
        block = np.asarray(block, dtype=np.uint8)
        if block.shape != (m, m):
            raise ValueError(f"expected {m}x{m} block, got {block.shape}")
        return parity_along_leading(block), parity_along_counter(block)

    def encode(self, data: np.ndarray) -> CheckStore:
        """Compute a full :class:`CheckStore` for ``n x n`` data.

        This is the from-scratch encoding used on bulk writes; steady-state
        operation maintains the store incrementally via
        :class:`repro.core.updater.ContinuousUpdater`.
        """
        n, m = self.grid.n, self.grid.m
        data = np.asarray(data, dtype=np.uint8)
        if data.shape != (n, n):
            raise ValueError(f"expected {n}x{n} data, got {data.shape}")
        store = CheckStore(self.grid)
        b = self.grid.blocks_per_side
        # Vectorized over all blocks: reshape to (b, m, b, m) and reduce
        # each diagonal with an index-add per block.
        tiles = data.reshape(b, m, b, m)
        r = np.arange(m)[:, None]
        c = np.arange(m)[None, :]
        lead_idx = (r + c) % m
        ctr_idx = (r - c) % m
        for d in range(m):
            # Gather the m cells of diagonal d from every block at once:
            # tiles[:, rs, :, cs] has shape (m, b, b) — one gathered cell
            # per (local position, block_row, block_col) — then XOR-reduce
            # over the gathered axis.
            rs, cs = np.nonzero(lead_idx == d)
            store.lead[d] = np.bitwise_xor.reduce(tiles[:, rs, :, cs], axis=0)
            rs, cs = np.nonzero(ctr_idx == d)
            store.ctr[d] = np.bitwise_xor.reduce(tiles[:, rs, :, cs], axis=0)
        return store

    def encode_batch_packed(self, words, backend: BackendLike = None) -> Tuple:
        """Parity planes of a packed ``(W, n, n)`` ``uint64`` word stack.

        ``words`` packs the batch dimension 64 trials per word
        (:mod:`repro.utils.bitpack` layout); the returned ``(lead, ctr)``
        planes are ``(W, m, n/m, n/m)`` words — the per-trial analogue of
        the :class:`CheckStore` layout. XOR is bitwise, so one gather +
        XOR-reduce per diagonal covers every block of 64 trials per
        machine word: this is the campaign hot path. All tensor
        arithmetic runs on ``backend`` (see :mod:`repro.utils.backend`);
        only the tiny per-diagonal ``m x m`` index tables are computed
        host-side.
        """
        be = get_backend(backend)
        xp = be.xp
        m = self.grid.m
        tiles = word_tiles(self.grid, words, be)
        count, b = tiles.shape[0], self.grid.blocks_per_side
        r = np.arange(m)[:, None]
        c = np.arange(m)[None, :]
        lead_idx = (r + c) % m
        ctr_idx = (r - c) % m
        lead = xp.empty((count, m, b, b), dtype=xp.uint64)
        ctr = xp.empty((count, m, b, b), dtype=xp.uint64)
        for d in range(m):
            # tiles[:, :, rs, :, cs] gathers the m cells of diagonal d from
            # every block of every word: shape (m, W, b, b) with the
            # advanced axis first; XOR-reduce over the gathered cells.
            rs, cs = np.nonzero(lead_idx == d)
            lead[:, d] = be.xor_reduce(tiles[:, :, rs, :, cs], axis=0)
            rs, cs = np.nonzero(ctr_idx == d)
            ctr[:, d] = be.xor_reduce(tiles[:, :, rs, :, cs], axis=0)
        return lead, ctr

    # ------------------------------------------------------------------ #
    # Syndromes and decoding
    # ------------------------------------------------------------------ #

    def syndrome_block(self, block: np.ndarray, lead_bits: np.ndarray,
                       ctr_bits: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Syndrome = stored check-bits XOR freshly computed parity."""
        lead, ctr = self.encode_block(block)
        return (lead ^ np.asarray(lead_bits, dtype=np.uint8),
                ctr ^ np.asarray(ctr_bits, dtype=np.uint8))

    def decode(self, lead_syndrome: np.ndarray,
               ctr_syndrome: np.ndarray) -> DecodeOutcome:
        """Classify a syndrome pair (see module docstring)."""
        lead_syndrome = np.asarray(lead_syndrome, dtype=np.uint8)
        ctr_syndrome = np.asarray(ctr_syndrome, dtype=np.uint8)
        lead_ones = np.flatnonzero(lead_syndrome)
        ctr_ones = np.flatnonzero(ctr_syndrome)
        if lead_ones.size == 0 and ctr_ones.size == 0:
            return NoError()
        if lead_ones.size == 1 and ctr_ones.size == 1:
            r, c = solve_position(int(lead_ones[0]), int(ctr_ones[0]),
                                  self.grid.m)
            return DataError(r, c)
        if lead_ones.size == 1 and ctr_ones.size == 0:
            return CheckBitError("leading", int(lead_ones[0]))
        if ctr_ones.size == 1 and lead_ones.size == 0:
            return CheckBitError("counter", int(ctr_ones[0]))
        return Uncorrectable(tuple(int(x) for x in lead_syndrome),
                             tuple(int(x) for x in ctr_syndrome))

    def decode_block(self, block: np.ndarray, lead_bits: np.ndarray,
                     ctr_bits: np.ndarray) -> DecodeOutcome:
        """Syndrome + decode in one call."""
        lead_s, ctr_s = self.syndrome_block(block, lead_bits, ctr_bits)
        return self.decode(lead_s, ctr_s)

    def syndrome_batch_packed(self, words, lead_words, ctr_words,
                              backend: BackendLike = None) -> Tuple:
        """Packed syndrome planes: stored words XOR fresh packed parity.

        ``words`` is the ``(W, n, n)`` packed data stack; ``lead_words``
        / ``ctr_words`` are ``(W, m, b, b)`` stored check-bit words. The
        result has the check-plane shape, 64 trials per word.
        """
        xp = get_backend(backend).xp
        lead, ctr = self.encode_batch_packed(words, backend=backend)
        return (lead ^ xp.asarray(lead_words, dtype=xp.uint64),
                ctr ^ xp.asarray(ctr_words, dtype=xp.uint64))

    def decode_batch_packed(self, lead_syndrome, ctr_syndrome,
                            backend: BackendLike = None,
                            kernels: KernelsLike = None
                            ) -> "PackedBatchDecode":
        """Bit-parallel classification of packed syndrome planes.

        Where the scalar :meth:`decode` counts the ones of one syndrome
        pair, the packed decoder runs a carry-save sideways counter over
        the ``m`` diagonal planes
        (:func:`repro.utils.bitpack.decode_status_masks`, fused on the
        compiled kernel tier), classifying 64 trials per word:

        * count 0 in both planes          -> ``no_error``
        * exactly 1 in both               -> ``data_error``
        * exactly 1 leading / 0 counter   -> ``lead_check``
        * 0 leading / exactly 1 counter   -> ``ctr_check``
        * 2+ anywhere                     -> ``uncorrectable``

        See :class:`PackedBatchDecode` for the tail-padding rule.
        """
        be = get_backend(backend)
        xp = be.xp
        lead_syndrome = xp.asarray(lead_syndrome, dtype=xp.uint64)
        ctr_syndrome = xp.asarray(ctr_syndrome, dtype=xp.uint64)
        no_error, data_error, lead_check, ctr_check, uncorrectable = \
            decode_status_masks(lead_syndrome, ctr_syndrome, backend=be,
                                kernels=kernels)
        return PackedBatchDecode(
            m=self.grid.m,
            lead_syndrome=lead_syndrome,
            ctr_syndrome=ctr_syndrome,
            no_error=no_error,
            data_error=data_error,
            lead_check=lead_check,
            ctr_check=ctr_check,
            uncorrectable=uncorrectable,
        )

    # ------------------------------------------------------------------ #
    # Code parameters
    # ------------------------------------------------------------------ #

    @property
    def data_bits_per_block(self) -> int:
        """m^2 protected data bits per block."""
        return self.grid.cells_per_block

    @property
    def check_bits_per_block(self) -> int:
        """2m check-bits per block."""
        return self.grid.check_bits_per_block

    @property
    def overhead_fraction(self) -> float:
        """Storage overhead 2m / m^2 = 2/m (paper Sec. III trade-off)."""
        return self.check_bits_per_block / self.data_bits_per_block

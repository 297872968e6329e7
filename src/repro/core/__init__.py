"""The paper's primary contribution: diagonal-parity ECC for MAGIC PIM.

An ``n x n`` crossbar is partitioned into an imaginary grid of ``m x m``
blocks (``m`` odd). Every block keeps ``2m`` parity check-bits: one per
*leading* wrap-around diagonal (cells with ``(r + c) mod m`` constant) and
one per *counter* wrap-around diagonal (``(r - c) mod m`` constant). Any
row- or column-parallel MAGIC operation touches at most one cell of any
diagonal in any block, so parity can be maintained *continuously* with a
single XOR3 per affected diagonal (``check <- check ^ old ^ new``), and a
single-bit error leaves a unique (leading, counter) signature that decodes
to the exact cell.
"""

from repro.core.blocks import BlockGrid
from repro.core.checkstore import CheckStore
from repro.core.code import (
    CheckBitError,
    DataError,
    DecodeOutcome,
    DecodeStatus,
    DiagonalParityCode,
    NoError,
    PackedBatchDecode,
    Uncorrectable,
)
from repro.core.diagonals import (
    counter_index,
    diagonal_cells,
    leading_index,
    solve_position,
)
from repro.core.parity import (
    XOR3_CELL_COUNT,
    XOR3_MICROPROGRAM,
    XOR3_RESULT_CELL,
    xor3,
    xor3_by_nor,
)
from repro.core.updater import ContinuousUpdater
from repro.core.checker import (
    BlockChecker,
    CheckReport,
    PackedSweepReport,
    check_all_batched_packed,
)

__all__ = [
    "BlockGrid",
    "CheckStore",
    "DiagonalParityCode",
    "PackedBatchDecode",
    "DecodeOutcome",
    "DecodeStatus",
    "NoError",
    "DataError",
    "CheckBitError",
    "Uncorrectable",
    "leading_index",
    "counter_index",
    "solve_position",
    "diagonal_cells",
    "xor3",
    "xor3_by_nor",
    "XOR3_MICROPROGRAM",
    "XOR3_CELL_COUNT",
    "XOR3_RESULT_CELL",
    "ContinuousUpdater",
    "BlockChecker",
    "CheckReport",
    "PackedSweepReport",
    "check_all_batched_packed",
]

"""The 9C encoder (Section II of the paper).

The input test vector stream is partitioned into K-bit blocks (padded with
don't-cares at the end), each block is split into two halves, and the
cheapest feasible Table-I case is selected per block:

* a half classified *0-compatible* may be expanded from the ``0s`` symbol,
* a half classified *1-compatible* may be expanded from the ``1s`` symbol,
* any half may always be transmitted verbatim as a *mismatch* half.

With the paper's codeword lengths, the cheapest-feasible rule degenerates
to the paper's classification (uniform halves are never sent raw), but the
encoder stays correct under arbitrary re-assigned codebooks (Table VII)
where the cost ordering can shift.

Three implementations are provided and tested against each other:

* :meth:`NineCEncoder.encode` — vectorized fast path: the block
  classification runs on the whole K-column grid at once (shared with
  :meth:`measure`) and only stream assembly walks blocks;
* :meth:`NineCEncoder.encode_reference` — readable per-block reference
  path, kept as the oracle the fast path is verified against;
* :meth:`NineCEncoder.measure` — numpy-vectorized classifier that returns
  case counts and compressed size only, for Mbit-scale sweeps (Table VIII).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .. import obs as _obs
from .bitstream import TernaryStreamWriter
from .bitvec import ONE, X, ZERO, TernaryVector
from .codewords import BlockCase, Codebook, HalfKind


@dataclass(frozen=True)
class BlockRecord:
    """Where one input block landed in the compressed stream."""

    index: int
    case: BlockCase
    stream_offset: int


@dataclass
class Encoding:
    """The result of compressing one bit-stream with 9C."""

    k: int
    codebook: Codebook
    original_length: int
    stream: TernaryVector
    blocks: List[BlockRecord] = field(repr=False)
    _case_counts: Optional[Dict[BlockCase, int]] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def padded_length(self) -> int:
        """Input length after padding to a multiple of K."""
        return len(self.blocks) * self.k

    @property
    def compressed_size(self) -> int:
        """|T_E| in bits."""
        return len(self.stream)

    @property
    def case_counts(self) -> Dict[BlockCase, int]:
        """Occurrence frequency N_i of each codeword (Table VI).

        Computed once from ``blocks`` and cached — TAT analysis and the
        Table VI report hit this per codeword, and the O(blocks) walk
        dominated on Mbit-scale encodings.  A fresh dict is returned on
        each access so callers may mutate their copy freely.
        """
        if self._case_counts is None:
            counts = {case: 0 for case in BlockCase}
            for record in self.blocks:
                counts[record.case] += 1
            self._case_counts = counts
        return dict(self._case_counts)

    @property
    def compression_ratio(self) -> float:
        """CR% = (|T_D| - |T_E|) / |T_D| * 100 (paper Section IV)."""
        if self.original_length == 0:
            return 0.0
        return (self.original_length - self.compressed_size) / self.original_length * 100.0

    @property
    def leftover_x(self) -> int:
        """Number of don't-care symbols surviving in T_E (paper's LX)."""
        return self.stream.num_x

    @property
    def leftover_x_percent(self) -> float:
        """LX as a percentage of |T_D| (Table III)."""
        if self.original_length == 0:
            return 0.0
        return self.leftover_x / self.original_length * 100.0


@dataclass(frozen=True)
class Measurement:
    """Size/statistics-only result of the vectorized fast path."""

    k: int
    original_length: int
    compressed_size: int
    leftover_x: int
    case_counts: Dict[BlockCase, int]

    @property
    def compression_ratio(self) -> float:
        """CR% = (|T_D| - |T_E|) / |T_D| * 100."""
        if self.original_length == 0:
            return 0.0
        return (self.original_length - self.compressed_size) / self.original_length * 100.0

    @property
    def leftover_x_percent(self) -> float:
        """LX as a percentage of |T_D|."""
        if self.original_length == 0:
            return 0.0
        return self.leftover_x / self.original_length * 100.0


class NineCEncoder:
    """Fixed-block 9C encoder for a given block size K."""

    def __init__(self, k: int, codebook: Optional[Codebook] = None):
        if k < 2 or k % 2:
            raise ValueError("K must be an even integer >= 2")
        self.k = k
        self.codebook = codebook or Codebook.default()

    # ------------------------------------------------------------------
    # reference path
    # ------------------------------------------------------------------
    def select_case(self, block: TernaryVector) -> BlockCase:
        """Cheapest Table-I case feasible for one K-bit block."""
        half = self.k // 2
        left, right = block[:half], block[half:]
        flags = (
            (left.is_zero_compatible(), left.is_one_compatible()),
            (right.is_zero_compatible(), right.is_one_compatible()),
        )
        best_case = None
        best_cost = None
        for case in BlockCase:
            if not self._feasible(case, flags):
                continue
            cost = self.codebook.encoded_size(case, self.k)
            if best_cost is None or cost < best_cost:
                best_case, best_cost = case, cost
        if best_case is None:  # C9 is always feasible
            raise ValueError("no feasible block case; codebook is incomplete")
        return best_case

    @staticmethod
    def _feasible(case: BlockCase, flags) -> bool:
        for kind, (zero_ok, one_ok) in zip(case.halves, flags):
            if kind is HalfKind.ZEROS and not zero_ok:
                return False
            if kind is HalfKind.ONES and not one_ok:
                return False
        return True

    def encode(self, data: TernaryVector) -> Encoding:
        """Compress a ternary vector into a 9C :class:`Encoding`.

        Vectorized fast path: case selection runs once over the whole
        block grid (the same classification :meth:`measure` uses) and
        the Python loop only assembles codeword/mismatch chunks.
        Produces output bit-identical to :meth:`encode_reference`.
        """
        with _obs.span("encode"):
            encoding = self._encode_fast(data)
        if _obs.enabled():
            _record_encoding(encoding)
        return encoding

    def _encode_fast(self, data: TernaryVector) -> Encoding:
        """The uninstrumented fast path (the overhead-guard control)."""
        original_length = len(data)
        padded = self._pad(data)
        grid = padded.data.reshape(-1, self.k)
        chosen = self._classify(grid)
        stream = TernaryVector(self._assemble_stream(grid, chosen))
        return Encoding(
            k=self.k,
            codebook=self.codebook,
            original_length=original_length,
            stream=stream,
            blocks=self._block_records(chosen),
        )

    def _assemble_stream(self, grid: np.ndarray,
                         chosen: np.ndarray) -> np.ndarray:
        """Concatenated codeword/mismatch chunks for classified blocks.

        ``grid`` is the padded input reshaped to ``(n_blocks, K)`` and
        ``chosen`` the case column per row (from :meth:`_classify`).
        Because blocks are independent given (K, codebook), assembling
        any contiguous row range yields exactly that slice of the full
        stream — the property
        :func:`repro.parallel.parallel_encode_file` relies on when it
        encodes a ``.9ct`` container window by window.
        """
        half = self.k // 2
        cases = list(BlockCase)
        codewords = [np.asarray(self.codebook.codeword(case), dtype=np.uint8)
                     for case in cases]
        left_raw = [case.halves[0] is HalfKind.MISMATCH for case in cases]
        right_raw = [case.halves[1] is HalfKind.MISMATCH for case in cases]
        chunks: List[np.ndarray] = []
        for index, column in enumerate(chosen):
            chunks.append(codewords[column])
            if left_raw[column]:
                chunks.append(grid[index, :half])
            if right_raw[column]:
                chunks.append(grid[index, half:])
        if not chunks:
            return np.empty(0, dtype=np.uint8)
        return np.concatenate(chunks)

    def _block_records(self, chosen: np.ndarray) -> List[BlockRecord]:
        """Block records for a full run of classified case columns.

        Stream offsets fall out of a cumulative sum of per-case encoded
        sizes, so records for window-concatenated ``chosen`` arrays come
        out globally correct without any per-window offset fixup.
        """
        cases = list(BlockCase)
        sizes = np.asarray(
            [self.codebook.encoded_size(case, self.k) for case in cases],
            dtype=np.int64,
        )
        columns = np.asarray(chosen, dtype=np.int64)
        if not columns.size:
            return []
        offsets = np.concatenate(
            ([0], np.cumsum(sizes[columns])[:-1])
        )
        return [
            BlockRecord(index, cases[column], int(offset))
            for index, (column, offset)
            in enumerate(zip(columns.tolist(), offsets.tolist()))
        ]

    def encode_reference(self, data: TernaryVector) -> Encoding:
        """Per-block reference encoder (the fast path's oracle)."""
        original_length = len(data)
        padded = self._pad(data)
        half = self.k // 2
        writer = TernaryStreamWriter()
        blocks: List[BlockRecord] = []
        for index, start in enumerate(range(0, len(padded), self.k)):
            block = padded[start : start + self.k]
            case = self.select_case(block)
            blocks.append(BlockRecord(index, case, len(writer)))
            writer.write_bits(self.codebook.codeword(case))
            for side, kind in enumerate(case.halves):
                if kind is HalfKind.MISMATCH:
                    lo = start + side * half
                    writer.write_vector(padded[lo : lo + half])
        return Encoding(
            k=self.k,
            codebook=self.codebook,
            original_length=original_length,
            stream=writer.to_vector(),
            blocks=blocks,
        )

    def _pad(self, data: TernaryVector) -> TernaryVector:
        if len(data) % self.k == 0 and len(data) > 0:
            return data
        padded_length = max(self.k, ((len(data) + self.k - 1) // self.k) * self.k)
        return data.padded(padded_length, X)

    # ------------------------------------------------------------------
    # vectorized classification (shared by encode and measure)
    # ------------------------------------------------------------------
    def _classify(self, grid: np.ndarray) -> np.ndarray:
        """Cheapest-feasible case *column index* for every grid row.

        Same rule as :meth:`select_case`: the cases are walked in
        ``(encoded size, column)`` order and each still-open row takes
        the first one feasible for it, so ties resolve to the lower
        case index like the scalar loop's strict ``<``.  C9 is always
        feasible, so every row closes.  Working memory stays a few
        boolean columns: an ``argmin`` over an ``(n_blocks, 9)`` int64
        cost matrix would hold 13.5 MB at 6 Mbit and K=32.
        """
        half = self.k // 2
        ok: Dict[Tuple[int, HalfKind], np.ndarray] = {}
        for side, half_grid in enumerate((grid[:, :half], grid[:, half:])):
            ok[side, HalfKind.ZEROS] = ~np.any(half_grid == ONE, axis=1)
            ok[side, HalfKind.ONES] = ~np.any(half_grid == ZERO, axis=1)
        cases = list(BlockCase)
        order = sorted(
            range(len(cases)),
            key=lambda column: (
                self.codebook.encoded_size(cases[column], self.k), column
            ),
        )
        chosen = np.empty(grid.shape[0], dtype=np.int8)
        open_rows = np.ones(grid.shape[0], dtype=bool)
        for column in order:
            take = open_rows.copy()
            for side, kind in enumerate(cases[column].halves):
                if kind is not HalfKind.MISMATCH:
                    take &= ok[side, kind]
            chosen[take] = column
            open_rows &= ~take
        return chosen

    def measure(self, data: TernaryVector) -> Measurement:
        """Case counts, |T_E| and leftover-X without building the stream.

        Uses the same cheapest-feasible-case rule as :meth:`encode`;
        property tests assert the two paths agree exactly.
        """
        original_length = len(data)
        padded = self._pad(data)
        half = self.k // 2
        grid = padded.data.reshape(-1, self.k)
        left, right = grid[:, :half], grid[:, half:]
        chosen = self._classify(grid)
        cases = list(BlockCase)
        case_counts = {
            case: int(np.count_nonzero(chosen == column))
            for column, case in enumerate(cases)
        }
        compressed_size = int(
            sum(
                self.codebook.encoded_size(case, self.k) * count
                for case, count in case_counts.items()
            )
        )
        # leftover X = X symbols inside halves transmitted as mismatches
        x_left = np.count_nonzero(left == X, axis=1)
        x_right = np.count_nonzero(right == X, axis=1)
        leftover = 0
        for column, case in enumerate(cases):
            if case.num_mismatch_halves == 0:
                continue
            mask = chosen == column
            if case.halves[0] is HalfKind.MISMATCH:
                leftover += int(x_left[mask].sum())
            if case.halves[1] is HalfKind.MISMATCH:
                leftover += int(x_right[mask].sum())
        return Measurement(
            k=self.k,
            original_length=original_length,
            compressed_size=compressed_size,
            leftover_x=leftover,
            case_counts=case_counts,
        )


#: Codeword lengths are 1..5 under any Kraft-tight 9C assignment; the
#: bucket edges cover reassigned codebooks (Table VII) up to 8 bits.
_CODEWORD_LENGTH_BOUNDS = (1, 2, 3, 4, 5, 6, 8)


def _record_encoding(encoding: Encoding) -> None:
    """Fold one finished encode into the metrics registry (post-hoc)."""
    registry = _obs.get_registry()
    registry.counter("encode.calls").inc()
    registry.counter("encode.bits_in").inc(encoding.original_length)
    registry.counter("encode.bits_out").inc(encoding.compressed_size)
    registry.counter("encode.leftover_x").inc(encoding.leftover_x)
    case_counts = encoding.case_counts
    registry.count_cases("encode.blocks", case_counts)
    lengths = encoding.codebook.lengths
    histogram = registry.histogram(
        "encode.codeword_length", _CODEWORD_LENGTH_BOUNDS
    )
    for case, count in case_counts.items():
        if count:
            histogram.observe(lengths[case], count)

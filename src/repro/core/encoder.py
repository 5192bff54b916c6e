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
  :meth:`measure`), the stream is one masked gather over the grid, and
  the block records stay columns (:class:`BlockRecords`);
* :meth:`NineCEncoder.encode_reference` — readable per-block reference
  path, kept as the oracle the fast path is verified against;
* :meth:`NineCEncoder.measure` — numpy-vectorized classifier that returns
  case counts and compressed size only, for Mbit-scale sweeps (Table VIII).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union, overload

import numpy as np

from .. import obs as _obs
from .bitstream import TernaryStreamWriter
from .bitvec import ONE, X, ZERO, TernaryVector
from .codewords import BlockCase, Codebook, HalfKind


#: Case column order: ``_classify`` output and ``BlockRecords.columns``.
_CASES: Tuple[BlockCase, ...] = tuple(BlockCase)


@dataclass(frozen=True)
class BlockRecord:
    """Where one input block landed in the compressed stream."""

    index: int
    case: BlockCase
    stream_offset: int


class BlockRecords(Sequence[BlockRecord]):
    """Read-only block records kept as two columns.

    ``columns[i]`` is block ``i``'s case as an index into ``BlockCase``
    order and ``offsets[i]`` its first bit in the stream.  A
    :class:`BlockRecord` is built only when one is read, so an encode
    that never looks at its records does no per-block Python.  Equal
    to a list of the same records, in either order of comparison.
    """

    __slots__ = ("columns", "offsets")

    def __init__(self, columns: np.ndarray, offsets: np.ndarray):
        self.columns = columns
        self.offsets = offsets

    def __len__(self) -> int:
        return len(self.columns)

    @overload
    def __getitem__(self, index: int) -> BlockRecord: ...

    @overload
    def __getitem__(self, index: slice) -> List[BlockRecord]: ...

    def __getitem__(self, index: Union[int, slice]
                    ) -> Union[BlockRecord, List[BlockRecord]]:
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        column = int(self.columns[index])  # numpy raises the IndexError
        position = index % len(self)
        return BlockRecord(position, _CASES[column],
                           int(self.offsets[position]))

    def __iter__(self) -> Iterator[BlockRecord]:
        for index, (column, offset) in enumerate(
                zip(self.columns.tolist(), self.offsets.tolist())):
            yield BlockRecord(index, _CASES[column], offset)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, BlockRecords):
            return (np.array_equal(self.columns, other.columns)
                    and np.array_equal(self.offsets, other.offsets))
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented


@dataclass
class Encoding:
    """The result of compressing one bit-stream with 9C."""

    k: int
    codebook: Codebook
    original_length: int
    stream: TernaryVector
    blocks: Sequence[BlockRecord] = field(repr=False)
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

        One ``bincount`` over the case column, cached — TAT analysis
        and the Table VI report hit this per codeword.  A fresh dict is
        returned on each access so callers may mutate their copy freely.
        """
        if self._case_counts is None:
            blocks = self.blocks
            columns = (blocks.columns if isinstance(blocks, BlockRecords)
                       else [_CASES.index(record.case) for record in blocks])
            tally = np.bincount(columns, minlength=len(_CASES)).tolist()
            self._case_counts = dict(zip(_CASES, tally))
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
        block grid (the same classification :meth:`measure` uses), then
        one gather assembles the stream.  Produces output bit-identical
        to :meth:`encode_reference`.
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
        Each block becomes a row ``[codeword padded to the longest |
        block]``; a per-case keep mask selects the codeword bits and
        the mismatch halves, and one boolean gather reads the kept
        symbols in row order.  Because blocks are independent given
        (K, codebook), assembling any contiguous row range yields
        exactly that slice of the full stream — the property
        :func:`repro.parallel.parallel_encode_file` relies on when it
        encodes a ``.9ct`` container window by window.
        """
        half = self.k // 2
        codewords = [self.codebook.codeword(case) for case in _CASES]
        width = max(len(codeword) for codeword in codewords)
        prefix = np.zeros((len(_CASES), width), dtype=np.uint8)
        keep = np.zeros((len(_CASES), width + self.k), dtype=bool)
        for column, (case, codeword) in enumerate(zip(_CASES, codewords)):
            prefix[column, :len(codeword)] = codeword
            keep[column, :len(codeword)] = True
            for side, kind in enumerate(case.halves):
                if kind is HalfKind.MISMATCH:
                    start = width + side * half
                    keep[column, start:start + half] = True
        rows = np.empty((len(chosen), width + self.k), dtype=np.uint8)
        rows[:, :width] = prefix[chosen]
        rows[:, width:] = grid
        return rows[keep[chosen]]

    def _block_records(self, chosen: np.ndarray) -> BlockRecords:
        """Block records for a full run of classified case columns.

        Stream offsets fall out of a cumulative sum of per-case encoded
        sizes, so records for window-concatenated ``chosen`` arrays come
        out globally correct without any per-window offset fixup.
        """
        sizes = np.asarray(
            [self.codebook.encoded_size(case, self.k) for case in _CASES],
            dtype=np.int64,
        )[chosen]
        return BlockRecords(chosen, np.cumsum(sizes) - sizes)

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
        order = sorted(
            range(len(_CASES)),
            key=lambda column: (
                self.codebook.encoded_size(_CASES[column], self.k), column
            ),
        )
        chosen = np.empty(grid.shape[0], dtype=np.int8)
        open_rows = np.ones(grid.shape[0], dtype=bool)
        for column in order:
            take = open_rows.copy()
            for side, kind in enumerate(_CASES[column].halves):
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
        chosen = self._classify(grid)
        tally = np.bincount(chosen, minlength=len(_CASES)).tolist()
        case_counts = dict(zip(_CASES, tally))
        compressed_size = sum(
            self.codebook.encoded_size(case, self.k) * count
            for case, count in case_counts.items()
        )
        # leftover X = X symbols inside halves transmitted as mismatches
        leftover = 0
        for side, half_grid in enumerate((grid[:, :half], grid[:, half:])):
            raw = np.array([case.halves[side] is HalfKind.MISMATCH
                            for case in _CASES])[chosen]
            leftover += int(np.count_nonzero(half_grid[raw] == X))
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

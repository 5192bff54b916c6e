"""Software decoders for 9C streams: a vectorized fast path + reference.

Both are functional inverses of :class:`repro.core.encoder.NineCEncoder`:
they walk the prefix-free codewords, expand uniform halves to all-0s /
all-1s and copy mismatch halves verbatim (preserving leftover X).  The
cycle-accurate hardware models in :mod:`repro.decompressor` must produce
exactly the same output; integration tests assert that.

Mirroring the encoder's two paths:

* :meth:`NineCDecoder.decode_stream` — the default **vectorized fast
  path**: prefix codewords are resolved in one table lookup per block
  (a :class:`CodewordScanTable` pre-classifies every possible symbol
  window against the :class:`Codebook`), and output assembly is batched
  numpy work — uniform halves become masked fills, mismatch halves
  become gathered slice copies.  Only a thin per-block scan loop
  remains in Python.
* :meth:`NineCDecoder.decode_reference` — the readable per-bit loop,
  kept as the oracle: the fast path is asserted **bit-identical** to it
  (outputs, :class:`DecodeDiagnostics` and raised error types alike)
  across the ISCAS'89 suite and the fault-injected corpus.

Failure semantics are structured: every malformed-stream condition raises
a :class:`~repro.core.errors.StreamError` subclass carrying bit-offset and
block-index context.  ``decode_stream(..., recover=True)`` never raises on
corruption; it returns a best-effort prefix of the output (padded with X
up to ``output_length`` when one is given) and records what went wrong in
:attr:`NineCDecoder.last_diagnostics`.  A raw 9C stream has no redundancy
to resynchronize on, so unframed recovery stops at the first error; the
framed container in :mod:`repro.robust.framing` recovers at frame
granularity.  Any window the scan table cannot vouch for — an X or an
invalid bit inside a codeword, a truncated tail — is re-resolved by the
exact per-bit walk, so the fast path's errors are the reference's errors.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from .. import obs as _obs
from .bitstream import TernaryStreamReader
from .bitvec import ONE, ZERO, TernaryVector
from .codewords import BlockCase, Codebook, HalfKind
from .encoder import Encoding
from .errors import (
    CodewordDesyncError,
    DecodeDiagnostics,
    StreamError,
    TruncatedStreamError,
)

#: Longest codeword length the window LUT is built for; 3**len entries.
#: The default book peaks at 5 (243 entries); reassigned books (Table
#: VII) stay <= 8.  Beyond this the fast path falls back to the
#: reference loop rather than materialize a huge table.
MAX_TABLE_CODEWORD_LEN = 10


class CodewordScanTable:
    """Batch prefix-codeword resolver: one base-3 lookup per block.

    For a codebook whose longest codeword is ``L`` bits, every possible
    window of ``L`` ternary symbols is packed into a base-3 integer and
    pre-classified by simulating the codeword trie once per window
    (``3**L`` entries — 243 for the default book).  ``lut[v]`` is the
    resolved case *column* (index into :attr:`cases`, the fixed
    ``BlockCase`` order), or :data:`NEEDS_SCALAR` when the window hits
    an X symbol, walks off the trie, or would need bits past the window
    — those positions re-run the exact per-bit reference walk so error
    messages and offsets stay identical to the reference decoder.
    """

    #: LUT marker: this window must be resolved by the per-bit walk.
    NEEDS_SCALAR = -1

    def __init__(self, codebook: Codebook):
        self.cases: Tuple[BlockCase, ...] = tuple(BlockCase)
        self.max_len = codebook.max_length
        col_of = {case: col for col, case in enumerate(self.cases)}
        # column-valued trie (leaves are ints, not BlockCase, so the
        # scan loop never touches enum machinery)
        trie: dict = {}
        for case, bits in codebook.items():
            node = trie
            for bit in bits[:-1]:
                node = node.setdefault(bit, {})
            node[bits[-1]] = col_of[case]
        self.trie = trie
        self.cw_len: List[int] = [
            len(codebook.codeword(case)) for case in self.cases
        ]
        self.raw_halves: List[Tuple[bool, bool]] = [
            (case.halves[0] is HalfKind.MISMATCH,
             case.halves[1] is HalfKind.MISMATCH)
            for case in self.cases
        ]
        self.lut = self._build_lut()

    def _build_lut(self) -> Optional[np.ndarray]:
        length = self.max_len
        if length > MAX_TABLE_CODEWORD_LEN:
            return None
        lut = np.full(3 ** length, self.NEEDS_SCALAR, dtype=np.int8)
        for value in range(lut.size):
            digits = []
            v = value
            for _ in range(length):
                digits.append(v % 3)
                v //= 3
            digits.reverse()
            node = self.trie
            for digit in digits:
                if digit > 1:  # X inside the codeword
                    break
                nxt = node.get(digit)
                if nxt is None:  # walked off the trie
                    break
                if isinstance(nxt, int):
                    lut[value] = nxt
                    break
                node = nxt
        return lut

    def window_codes(self, data: np.ndarray) -> np.ndarray:
        """Base-3 packing of every length-``max_len`` window of ``data``."""
        length = self.max_len
        n = int(data.size)
        codes = np.zeros(max(n - length + 1, 0), dtype=np.int64)
        for j in range(length):
            codes *= 3
            codes += data[j : j + codes.size]
        return codes


class NineCDecoder:
    """Decode a 9C ternary stream back into test data."""

    def __init__(self, k: int, codebook: Optional[Codebook] = None):
        if k < 2 or k % 2:
            raise ValueError("K must be an even integer >= 2")
        self.k = k
        self.codebook = codebook or Codebook.default()
        #: Diagnostics of the most recent decode call.
        self.last_diagnostics: Optional[DecodeDiagnostics] = None
        self._scan_table: Optional[CodewordScanTable] = None

    @property
    def scan_table(self) -> CodewordScanTable:
        """The window LUT for this decoder's codebook (built lazily)."""
        if self._scan_table is None:
            self._scan_table = CodewordScanTable(self.codebook)
        return self._scan_table

    def decode_stream(
        self,
        stream: TernaryVector,
        output_length: Optional[int] = None,
        *,
        recover: bool = False,
        fast: bool = True,
    ) -> TernaryVector:
        """Decode ``stream``; truncate to ``output_length`` when given.

        In strict mode (default) a malformed stream raises a
        :class:`StreamError` subclass: :class:`CodewordDesyncError` for a
        codeword that does not resolve, :class:`TruncatedStreamError` when
        the stream ends mid-block or decodes to fewer than
        ``output_length`` bits.

        With ``recover=True`` decoding never raises on corruption: it
        stops at the first damaged block, pads with X to ``output_length``
        (when given), and files a :class:`DecodeDiagnostics` report under
        :attr:`last_diagnostics`.

        ``fast=False`` forces the per-bit reference loop (also exposed
        as :meth:`decode_reference`); both paths produce bit-identical
        output, diagnostics and errors.
        """
        with _obs.span("decode.stream"):
            try:
                if fast and self.scan_table.lut is not None:
                    decoded = self._decode_stream_fast(
                        stream, output_length, recover=recover
                    )
                else:
                    fast = False
                    decoded = self._decode_stream_reference(
                        stream, output_length, recover=recover
                    )
            except StreamError:
                if _obs.enabled():
                    _obs.counter("decode.stream_errors").inc()
                raise
        if _obs.enabled():
            self._record_decode(decoded, fast)
        return decoded

    def decode_reference(
        self,
        stream: TernaryVector,
        output_length: Optional[int] = None,
        *,
        recover: bool = False,
    ) -> TernaryVector:
        """Per-bit reference decode (the fast path's oracle)."""
        return self.decode_stream(
            stream, output_length, recover=recover, fast=False
        )

    # ------------------------------------------------------------------
    # vectorized fast path
    # ------------------------------------------------------------------
    def _decode_stream_fast(
        self,
        stream: TernaryVector,
        output_length: Optional[int],
        *,
        recover: bool,
    ) -> TernaryVector:
        if output_length is not None and output_length < 0:
            raise ValueError(f"output_length must be >= 0, got {output_length}")
        diagnostics = DecodeDiagnostics()
        data = stream.data
        starts, cols, pos, block_index = self._scan_blocks(
            data, output_length, diagnostics, recover=recover
        )
        decoded = self._assemble(data, starts, cols, self.k // 2)
        return self._finalize(
            decoded, output_length, diagnostics, block_index, pos,
            recover=recover,
        )

    def _scan_blocks(
        self,
        data: np.ndarray,
        output_length: Optional[int],
        diagnostics: DecodeDiagnostics,
        *,
        recover: bool,
    ) -> Tuple[List[int], List[int], int, int]:
        """Pass 1 of the fast path: ``(starts, cols, pos, block_index)``.

        Resolves every block's start offset and case column over the
        pre-classified windows.  Error semantics are the reference
        loop's, verbatim: in strict mode the typed :class:`StreamError`
        is raised (diagnostics filed under :attr:`last_diagnostics`
        first); with ``recover`` the error is recorded in
        ``diagnostics`` and the scan stops.
        """
        n = int(data.size)
        half = self.k // 2
        table = self.scan_table
        cols_at = table.lut[table.window_codes(data)].tolist()
        limit = len(cols_at) - 1  # last position with a full window
        advance = [
            cw + half * sum(raw)
            for cw, raw in zip(table.cw_len, table.raw_halves)
        ]
        starts: List[int] = []
        cols: List[int] = []
        pos = 0
        produced = 0
        block_index = 0
        while pos < n:
            col = cols_at[pos] if pos <= limit else -1
            if col >= 0:
                end = pos + advance[col]
                if end > n:
                    col = -1  # payload truncated: re-derive the exact error
            if col < 0:
                try:
                    col, end = self._resolve_block_scalar(data, n, pos)
                except StreamError as exc:
                    self._contextualize(exc, pos, block_index)
                    if not recover:
                        self.last_diagnostics = diagnostics
                        raise
                    diagnostics.record(exc)
                    break
            starts.append(pos)
            cols.append(col)
            pos = end
            produced += self.k
            block_index += 1
            if output_length is not None and produced >= output_length:
                break
        return starts, cols, pos, block_index

    def _resolve_block_scalar(
        self, data: np.ndarray, n: int, pos: int
    ) -> Tuple[int, int]:
        """Resolve one block at ``pos`` with reference error semantics.

        Returns ``(case column, end offset)`` or raises the same typed
        :class:`StreamError` (message, offsets) the per-bit reference
        loop would raise at this position.
        """
        table = self.scan_table
        node = table.trie
        i = pos
        col: Optional[int] = None
        while col is None:
            if i >= n:
                raise TruncatedStreamError(
                    "read past end of stream", bit_offset=i
                )
            bit = int(data[i])
            i += 1
            if bit not in (0, 1):
                raise CodewordDesyncError(
                    f"X symbol inside a codeword (bit={bit})"
                )
            nxt = node.get(bit)
            if nxt is None:
                raise CodewordDesyncError(
                    "bit sequence is not a valid 9C codeword"
                )
            if isinstance(nxt, int):
                col = nxt
            else:
                node = nxt
        half = self.k // 2
        for raw in table.raw_halves[col]:
            if raw:
                if n - i < half:
                    raise TruncatedStreamError(
                        f"requested {half} symbols, {n - i} remain",
                        bit_offset=i,
                    )
                i += half
        return col, i

    def _assemble(
        self,
        data: np.ndarray,
        starts: List[int],
        cols: List[int],
        half: int,
    ) -> TernaryVector:
        """Batch-expand scanned blocks: masked fills + gathered copies."""
        n_blocks = len(cols)
        out = np.empty(n_blocks * self.k, dtype=np.uint8)
        if not n_blocks:
            return TernaryVector(out)
        table = self.scan_table
        rows = out.reshape(n_blocks, self.k)
        cols_arr = np.asarray(cols, dtype=np.int64)
        starts_arr = np.asarray(starts, dtype=np.int64)
        span = np.arange(half, dtype=np.int64)
        for col in set(cols):
            mask = cols_arr == col
            src = starts_arr[mask] + table.cw_len[col]
            for side, kind in enumerate(table.cases[col].halves):
                dest = slice(side * half, (side + 1) * half)
                if kind is HalfKind.MISMATCH:
                    rows[mask, dest] = data[src[:, None] + span]
                    src = src + half
                elif kind is HalfKind.ZEROS:
                    rows[mask, dest] = ZERO
                else:
                    rows[mask, dest] = ONE
        return TernaryVector(out)

    def _finalize(
        self,
        decoded: TernaryVector,
        output_length: Optional[int],
        diagnostics: DecodeDiagnostics,
        block_index: int,
        position: int,
        *,
        recover: bool,
    ) -> TernaryVector:
        """Shared tail of both paths: length policy + diagnostics filing."""
        diagnostics.blocks_decoded = block_index
        if output_length is not None:
            if len(decoded) < output_length:
                missing = output_length - len(decoded)
                diagnostics.blocks_lost = -(-missing // self.k)
                if not recover:
                    self.last_diagnostics = diagnostics
                    raise TruncatedStreamError(
                        f"stream decodes to {len(decoded)} bits, "
                        f"expected at least {output_length}",
                        bit_offset=position,
                        block_index=block_index,
                    )
                decoded = decoded.padded(output_length)
            decoded = decoded[:output_length]
        self.last_diagnostics = diagnostics
        return decoded

    # ------------------------------------------------------------------
    # per-bit reference path (the oracle)
    # ------------------------------------------------------------------
    def _decode_stream_reference(
        self,
        stream: TernaryVector,
        output_length: Optional[int],
        *,
        recover: bool,
    ) -> TernaryVector:
        if output_length is not None and output_length < 0:
            raise ValueError(f"output_length must be >= 0, got {output_length}")
        diagnostics = DecodeDiagnostics()
        reader = TernaryStreamReader(stream)
        half = self.k // 2
        parts = []
        produced = 0
        block_index = 0
        while not reader.at_end():
            block_start = reader.position
            try:
                case = self.codebook.decode_case(reader.read_bit)
                halves = []
                for kind in case.halves:
                    if kind is HalfKind.ZEROS:
                        halves.append(TernaryVector.zeros(half))
                    elif kind is HalfKind.ONES:
                        halves.append(TernaryVector.ones(half))
                    else:
                        halves.append(reader.read_vector(half))
            except StreamError as exc:
                self._contextualize(exc, block_start, block_index)
                if not recover:
                    self.last_diagnostics = diagnostics
                    raise
                diagnostics.record(exc)
                break
            parts.extend(halves)
            produced += self.k
            block_index += 1
            if output_length is not None and produced >= output_length:
                break
        decoded = TernaryVector.concat(parts)
        return self._finalize(
            decoded, output_length, diagnostics, block_index,
            reader.position, recover=recover,
        )

    def _record_decode(self, decoded: TernaryVector, fast: bool) -> None:
        """Fold one finished decode into the metrics registry (post-hoc)."""
        registry = _obs.get_registry()
        registry.counter("decode.calls").inc()
        registry.counter(
            "decode.fast_calls" if fast else "decode.reference_calls"
        ).inc()
        registry.counter("decode.bits_out").inc(len(decoded))
        diagnostics = self.last_diagnostics
        if diagnostics is not None:
            registry.counter("decode.blocks").inc(diagnostics.blocks_decoded)
            registry.counter("decode.blocks_lost").inc(diagnostics.blocks_lost)
            if diagnostics.errors:
                registry.counter("decode.recovered_errors").inc(
                    len(diagnostics.errors)
                )

    @staticmethod
    def _contextualize(exc: StreamError, bit_offset: int, block_index: int) -> None:
        """Fill in position context on errors raised by lower layers."""
        if exc.bit_offset is None:
            exc.bit_offset = bit_offset
        if exc.block_index is None:
            exc.block_index = block_index

    def decode(self, encoding: Encoding) -> TernaryVector:
        """Decode an :class:`Encoding` produced by the matching encoder."""
        if encoding.k != self.k:
            raise ValueError(f"encoding used K={encoding.k}, decoder has K={self.k}")
        if encoding.codebook != self.codebook:
            raise ValueError("encoding and decoder use different codebooks")
        return self.decode_stream(encoding.stream, encoding.original_length)


def verify_roundtrip(original: TernaryVector, encoding: Encoding) -> bool:
    """Check the 9C round-trip invariant.

    The decoded data must *cover* the original: every specified bit is
    reproduced exactly; every original X is either still X (leftover,
    inside a transmitted mismatch half) or was expanded to the uniform
    0/1 of its half.
    """
    decoder = NineCDecoder(encoding.k, encoding.codebook)
    decoded = decoder.decode(encoding)
    if len(decoded) != len(original):
        return False
    for got, want in zip(decoded.data, original.data):
        if want != 2 and got != want:  # specified bit must match
            return False
    return True

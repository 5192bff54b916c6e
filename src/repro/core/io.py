"""Serialization of 9C encodings (.9c container) and raw test sets.

An ATE work-flow needs the compressed stream on disk together with the
decoder configuration.  The ``.9c`` container is a small line-oriented
text format:

    #9C v1
    k=8
    length=23754
    lengths=C1:1,C2:2,...          (codebook by lengths, canonical form)
    stream=0110X10...              (ternary payload; X = leftover)

The codebook travels as its length assignment only — canonical
codewords are reconstructed on load, which is exactly the information a
frequency-directed decoder needs (Table VII).

For the *uncompressed* side, :func:`save_test_set_binary` writes a raw
binary container (``.9ct``): a 13-byte header followed by one uint8
ternary code per scan cell, row-major.  Unlike the text format it can
be **memory-mapped** — :func:`memmap_stream` yields a zero-copy
read-only :class:`TernaryVector` over the payload, so a multi-GB
``T_D`` encodes in bounded RSS
(:func:`repro.parallel.parallel_encode_file` maps one window of blocks
at a time).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Tuple, Union

import numpy as np

from .bitvec import X, TernaryVector
from .codewords import BlockCase, Codebook, canonical_codewords
from .decoder import NineCDecoder
from .encoder import Encoding

PathLike = Union[str, Path]

_MAGIC = "#9C v1"

#: Binary test-set container magic + version (``.9ct``).
BINARY_MAGIC = b"9CTS"
BINARY_VERSION = 1
_BINARY_HEADER = struct.Struct("<4sBII")  # magic, version, patterns, cells


@dataclass(frozen=True)
class BinaryTestSetHeader:
    """Parsed header of a ``.9ct`` binary test-set container."""

    num_patterns: int
    num_cells: int
    payload_offset: int

    @property
    def total_bits(self) -> int:
        """Total scan cells in the payload (|T_D|)."""
        return self.num_patterns * self.num_cells


def save_test_set_binary(test_set, path: PathLike) -> None:
    """Write a :class:`~repro.testdata.testset.TestSet` as ``.9ct``.

    The payload is the same pattern concatenation ``to_stream`` yields,
    one uint8 code per cell, so ``memmap_stream(path)`` is bit-for-bit
    ``test_set.to_stream()``.
    """
    header = _BINARY_HEADER.pack(
        BINARY_MAGIC, BINARY_VERSION,
        test_set.num_patterns, test_set.num_cells,
    )
    payload = test_set.to_stream().data.tobytes()
    with open(path, "wb") as handle:
        handle.write(header)
        handle.write(payload)


def read_binary_header(path: PathLike) -> BinaryTestSetHeader:
    """Parse and validate a ``.9ct`` header (payload size checked)."""
    target = Path(path)
    size = target.stat().st_size
    if size < _BINARY_HEADER.size:
        raise ValueError(f"{target}: too short for a .9ct header")
    with open(target, "rb") as handle:
        raw = handle.read(_BINARY_HEADER.size)
    magic, version, num_patterns, num_cells = _BINARY_HEADER.unpack(raw)
    if magic != BINARY_MAGIC:
        raise ValueError(f"{target}: not a .9ct container (bad magic)")
    if version != BINARY_VERSION:
        raise ValueError(
            f"{target}: unsupported .9ct version {version} "
            f"(expected {BINARY_VERSION})"
        )
    header = BinaryTestSetHeader(
        num_patterns=num_patterns, num_cells=num_cells,
        payload_offset=_BINARY_HEADER.size,
    )
    expected = header.payload_offset + header.total_bits
    if size != expected:
        raise ValueError(
            f"{target}: payload size mismatch "
            f"(file is {size} bytes, header implies {expected})"
        )
    return header


def memmap_stream(
    path: PathLike, *, validate: bool = False
) -> Tuple[TernaryVector, BinaryTestSetHeader]:
    """Zero-copy read-only view over a ``.9ct`` payload.

    Returns ``(stream, header)`` where ``stream`` wraps an
    ``np.memmap`` — no page of the payload is read until touched, so
    callers that process block ranges keep RSS bounded by their working
    set, not the file size.  ``validate=True`` range-checks every code,
    which pages in the whole file; a streaming caller checks each
    window it maps with :func:`check_codes` instead, as
    :func:`repro.parallel.parallel_encode_file` does.
    """
    header = read_binary_header(path)
    payload = np.memmap(
        path, dtype=np.uint8, mode="r",
        offset=header.payload_offset, shape=(header.total_bits,),
    )
    if validate:
        check_codes(path, payload)
    return TernaryVector._wrap(payload), header


def check_codes(path: PathLike, payload: np.ndarray) -> None:
    """Raise ``ValueError`` if ``payload`` holds a code outside {0, 1, 2}."""
    if payload.max(initial=0) > X:
        raise ValueError(
            f"{path}: payload contains codes outside {{0, 1, 2}}"
        )


def load_test_set_binary(path: PathLike):
    """Read a ``.9ct`` container fully into a validated TestSet."""
    from ..testdata.testset import TestSet

    stream, header = memmap_stream(path, validate=True)
    # materialize off the map so the returned object owns its memory
    data = TernaryVector(np.asarray(stream.data).copy())
    return TestSet.from_stream(
        data, header.num_cells, name=Path(path).stem
    )


def dumps(encoding: Encoding) -> str:
    """Serialize an encoding to the ``.9c`` text format."""
    lengths = ",".join(
        f"{case.name}:{encoding.codebook.length(case)}" for case in BlockCase
    )
    return "\n".join([
        _MAGIC,
        f"k={encoding.k}",
        f"length={encoding.original_length}",
        f"lengths={lengths}",
        f"stream={encoding.stream.to_string()}",
        "",
    ])


def save(encoding: Encoding, path: PathLike) -> None:
    """Write an encoding to ``path``."""
    Path(path).write_text(dumps(encoding))


def loads(text: str) -> Encoding:
    """Parse the ``.9c`` text format back into an :class:`Encoding`.

    The block records are reconstructed by re-walking the stream with
    the embedded codebook, so the result is fully equivalent to the
    encoder's output (asserted by tests).
    """
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines or lines[0].strip() != _MAGIC:
        raise ValueError("not a .9c container (missing magic line)")
    fields = {}
    for line in lines[1:]:
        key, _, value = line.partition("=")
        fields[key.strip()] = value.strip()
    for required in ("k", "length", "lengths", "stream"):
        if required not in fields:
            raise ValueError(f"missing field {required!r} in .9c container")
    k = int(fields["k"])
    if k < 2 or k % 2:
        raise ValueError(f"k must be an even integer >= 2, got {k}")
    original_length = int(fields["length"])
    lengths = {}
    for item in fields["lengths"].split(","):
        name, _, bits = item.partition(":")
        case = BlockCase.__members__.get(name.strip())
        if case is None:
            raise ValueError(f"unknown case {name.strip()!r} in lengths=")
        lengths[case] = int(bits)
    codebook = Codebook(canonical_codewords(lengths))
    stream = TernaryVector.from_string(fields["stream"])

    # Rebuild block records by decoding the stream structure.
    from .bitstream import TernaryStreamReader
    from .codewords import HalfKind
    from .encoder import BlockRecord

    reader = TernaryStreamReader(stream)
    blocks = []
    index = 0
    while not reader.at_end():
        offset = reader.position
        case = codebook.decode_case(reader.read_bit)
        for kind in case.halves:
            if kind is HalfKind.MISMATCH:
                reader.read_vector(k // 2)
        blocks.append(BlockRecord(index, case, offset))
        index += 1
    encoding = Encoding(
        k=k, codebook=codebook, original_length=original_length,
        stream=stream, blocks=blocks,
    )
    # sanity: the container must actually decode to `length` bits
    NineCDecoder(k, codebook).decode(encoding)
    return encoding


def load(path: PathLike) -> Encoding:
    """Read an encoding from ``path``."""
    return loads(Path(path).read_text())

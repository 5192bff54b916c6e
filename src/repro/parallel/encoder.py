"""9C encode behind the CLI's ``compress --workers N``, plus ``.9ct`` encode.

:func:`parallel_encode_file` never loads its input whole: it maps one
window of :data:`_WINDOW_BLOCKS` blocks of a ``.9ct`` container
(:mod:`repro.core.io`) at a time and runs the encoder's vectorized
classify/assemble fast path on it.  Blocks are independent given
(K, codebook), so the window streams concatenate into the single-core
stream, and block records rebuilt from the concatenated case columns
carry globally correct offsets.  RSS stays bounded by one window, not
the file.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .. import obs as _obs
from ..core.bitvec import X, TernaryVector
from ..core.codewords import Codebook
from ..core.encoder import Encoding, NineCEncoder, _record_encoding
from ..core.io import BinaryTestSetHeader, check_codes, read_binary_header

#: Blocks per memory-mapped window of :func:`parallel_encode_file`.
_WINDOW_BLOCKS = 2 ** 16


def parallel_encode(
    data: TernaryVector,
    k: int,
    *,
    workers: int,
    codebook: Optional[Codebook] = None,
) -> Encoding:
    """``NineCEncoder(k, codebook).encode(data)`` for any ``workers >= 1``.

    The worker count is validated, then the single-core fast path runs
    in the calling process (see :mod:`repro.parallel`).
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return NineCEncoder(k, codebook).encode(data)


def parallel_encode_file(
    path,
    k: int,
    *,
    codebook: Optional[Codebook] = None,
) -> Encoding:
    """Encode a ``.9ct`` binary test set without loading it into RAM.

    Bit-identical to loading the file and calling
    :meth:`NineCEncoder.encode`.  Each window's codes are range-checked
    as it is mapped; a code outside {0, 1, 2} raises the
    :class:`ValueError` that ``memmap_stream(validate=True)`` raises.
    """
    encoder = NineCEncoder(k, codebook)
    header = read_binary_header(path)
    # mirror NineCEncoder._pad: at least one block, round up to K
    n_blocks = max(1, -(-header.total_bits // k))
    streams = []
    columns = []
    with _obs.span("encode"):
        for first in range(0, n_blocks, _WINDOW_BLOCKS):
            last = min(first + _WINDOW_BLOCKS, n_blocks)
            grid = _read_window(path, header, first * k, last * k)
            grid = grid.reshape(-1, k)
            chosen = encoder._classify(grid)
            streams.append(encoder._assemble_stream(grid, chosen))
            columns.append(chosen)
        encoding = Encoding(
            k=encoder.k,
            codebook=encoder.codebook,
            original_length=header.total_bits,
            stream=TernaryVector(np.concatenate(streams)),
            blocks=encoder._block_records(np.concatenate(columns)),
        )
    if _obs.enabled():
        _record_encoding(encoding)
    return encoding


def _read_window(path, header: BinaryTestSetHeader, start: int,
                 stop: int) -> np.ndarray:
    """Payload codes ``[start, stop)``, X-padded past the payload's end.

    The window is mapped, checked and copied, and the map is dropped on
    return, so no more than one window of the file stays resident.
    """
    window = np.full(stop - start, X, dtype=np.uint8)
    valid = min(stop, header.total_bits) - start
    if valid > 0:
        mapped = np.memmap(
            path, dtype=np.uint8, mode="r",
            offset=header.payload_offset + start, shape=(valid,),
        )
        check_codes(path, mapped)
        window[:valid] = mapped
    return window

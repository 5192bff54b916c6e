"""9C decode behind the CLI's ``decompress --workers N``."""

from __future__ import annotations

from typing import Optional

from ..core.bitvec import TernaryVector
from ..core.codewords import Codebook
from ..core.decoder import NineCDecoder


def parallel_decode(
    stream: TernaryVector,
    k: int,
    output_length: Optional[int] = None,
    *,
    workers: int,
    codebook: Optional[Codebook] = None,
    recover: bool = False,
) -> TernaryVector:
    """``NineCDecoder(k, codebook).decode_stream(...)`` for any ``workers >= 1``.

    The worker count is validated, then the single-core fast path runs
    in the calling process (see :mod:`repro.parallel`).
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return NineCDecoder(k, codebook).decode_stream(
        stream, output_length, recover=recover
    )

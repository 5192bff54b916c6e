"""The codec behind the CLI's ``compress`` / ``decompress --workers N``.

9C blocks are independent given a (K, codebook) pair — the property
the paper's multi-scan decompressor architectures exploit in hardware,
giving each chain group its own decoder.  In software, splitting the
blocks across threads or processes did not beat one core at 6 Mbit on
2 vCPUs, so every worker count runs the single-core
:class:`~repro.core.encoder.NineCEncoder` /
:class:`~repro.core.decoder.NineCDecoder` in the calling process
(measurements in ``docs/performance.md``).  The worker count is only
validated; the flag and the two wrappers stay while the repository
benchmark (``perfbench/``) passes ``--workers 2`` and wraps them by name.

Entry points:

* :func:`parallel_encode` / :func:`parallel_decode` — the core codec
  behind a validated worker count;
* :func:`parallel_encode_file` — bounded-RSS encode of a memory-mapped
  ``.9ct`` container, one window of blocks at a time.
"""

from .decoder import parallel_decode
from .encoder import parallel_encode, parallel_encode_file

__all__ = [
    "parallel_decode",
    "parallel_encode",
    "parallel_encode_file",
]

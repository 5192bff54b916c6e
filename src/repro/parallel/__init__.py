"""Multicore sharded 9C encode/decode (bit-identical to single-core).

9C blocks are independent given a (K, codebook) pair — the property
the paper's multi-scan decompressor architectures exploit in hardware —
so the software codec shards the same way: contiguous block ranges per
worker process, zero-copy shared-memory views in, concatenated shard
streams out.  The package's contract is **exact** equality with the
single-core oracle on every observable (streams, block records, case
counts, decoded output, diagnostics, and raised-error identity), and
:mod:`repro.parallel.proof` is that contract as executable data.

Entry points:

* :func:`parallel_encode` / :func:`parallel_encode_file` — sharded
  encode of an in-memory stream or a memory-mapped ``.9ct`` container
  (bounded RSS for test sets larger than RAM);
* :class:`ShardedDecoder` / :func:`parallel_decode` — sharded decode:
  the coordinator runs the exact single-core scan, workers assemble;
* :func:`differential_proof` — the oracle-equality grid.

The CLI ``compress`` / ``decompress --workers N`` flags are the one
production caller; they use :func:`parallel_encode` and
:func:`parallel_decode`.

When in doubt about worker counts: sharding pays off only when the
per-block work dwarfs pool spin-up and the one copy into shared
memory — see ``docs/performance.md`` for the crossover discussion.
"""

from .decoder import ShardedDecoder, parallel_decode
from .encoder import EXECUTORS, parallel_encode, parallel_encode_file
from .plan import Shard, plan_shards
from .proof import ProofCase, ProofReport, differential_proof
from .shm import SharedUint8Array

__all__ = [
    "EXECUTORS",
    "ProofCase",
    "ProofReport",
    "Shard",
    "SharedUint8Array",
    "ShardedDecoder",
    "differential_proof",
    "parallel_decode",
    "parallel_encode",
    "parallel_encode_file",
    "plan_shards",
]

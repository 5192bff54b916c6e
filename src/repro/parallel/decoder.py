"""Sharded 9C decode with single-core-identical semantics.

A prefix code has no random access: block boundaries in the compressed
stream are only known after scanning it.  So the coordinator runs the
*exact* single-core scan
(:meth:`~repro.core.decoder.NineCDecoder._scan_blocks`) over the full
stream — strict-mode errors, recovery diagnostics and early-stop
behavior are the single-core ones by construction — then shards only
the batch *assembly* (masked fills + gathered copies), which is the
vectorizable bulk of decode work.  Workers read the stream from one
shared segment and write disjoint slices of a shared output segment.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from .. import obs as _obs
from ..core.bitvec import TernaryVector
from ..core.codewords import Codebook
from ..core.decoder import NineCDecoder
from ..core.errors import DecodeDiagnostics
from ..obs import tracing as _tracing
from .encoder import _graft_shard_traces, _run_shard_tasks
from .plan import plan_shards
from .shm import SharedUint8Array

#: Worker-local decoder cache (scan-table LUTs are the expensive part).
_WORKER_DECODERS: Dict[tuple, NineCDecoder] = {}


def _shard_decoder(k: int, codebook: Codebook) -> NineCDecoder:
    key = (k, tuple(tuple(bits) for _case, bits in codebook.items()))
    decoder = _WORKER_DECODERS.get(key)
    if decoder is None:
        decoder = NineCDecoder(k, codebook)
        _WORKER_DECODERS[key] = decoder
    return decoder


def _assemble_shard(in_name: str, in_size: int, out_name: str,
                    out_size: int, starts: List[int], cols: List[int],
                    out_offset: int, k: int, codebook: Codebook,
                    capture: bool) -> dict:
    """Batch-assemble one shard of pre-scanned blocks (pool worker)."""
    decoder = _shard_decoder(k, codebook)
    with _tracing.capture_scope(capture) as tracer:
        with _obs.span("decode.shard"):
            source = SharedUint8Array.attach(in_name, in_size)
            sink = SharedUint8Array.attach(out_name, out_size)
            try:
                decoded = decoder._assemble(
                    source.view(), starts, cols, k // 2
                )
                view = sink.view(out_offset, out_offset + len(decoded))
                view[:] = decoded.data
                del view
            finally:
                source.close()
                sink.close()
    return {"events": tracer.events() if tracer is not None else None}


class ShardedDecoder:
    """Multicore decode front-end over :class:`NineCDecoder`.

    Mirrors the single-core decoder's contract: strict-mode errors are
    the same typed :class:`~repro.core.errors.StreamError` with the
    same bit offset and block index for any worker count, and
    :attr:`last_diagnostics` matches field-for-field.
    """

    def __init__(self, k: int, codebook: Optional[Codebook] = None, *,
                 workers: int, executor: str = "process"):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.executor = executor
        self.decoder = NineCDecoder(k, codebook)
        self.k = self.decoder.k
        self.codebook = self.decoder.codebook

    @property
    def last_diagnostics(self) -> Optional[DecodeDiagnostics]:
        """Diagnostics of the most recent decode call."""
        return self.decoder.last_diagnostics

    def decode_stream(
        self,
        stream: TernaryVector,
        output_length: Optional[int] = None,
        *,
        recover: bool = False,
    ) -> TernaryVector:
        """Decode ``stream`` across shards; see the module docstring.

        ``workers=1`` delegates to the single-core decoder.  With obs
        enabled each shard's spans are captured and grafted under the
        call's span.
        """
        with _obs.span("parallel.decode"):
            if self.workers == 1:
                return self.decoder.decode_stream(
                    stream, output_length, recover=recover
                )
            return self._decode_scanned(
                stream, output_length, recover=recover
            )

    def _decode_scanned(self, stream, output_length, *,
                        recover) -> TernaryVector:
        """Coordinator scan + sharded batch assembly."""
        if output_length is not None and output_length < 0:
            raise ValueError(
                f"output_length must be >= 0, got {output_length}"
            )
        decoder = self.decoder
        diagnostics = DecodeDiagnostics()
        data = stream.data
        # the single-core scan, verbatim — including its raises
        starts, cols, pos, block_index = decoder._scan_blocks(
            data, output_length, diagnostics, recover=recover
        )
        shards = plan_shards(len(cols), self.workers)
        if len(shards) <= 1:
            decoded = decoder._assemble(data, starts, cols, self.k // 2)
            return decoder._finalize(
                decoded, output_length, diagnostics, block_index, pos,
                recover=recover,
            )
        capture = _obs.enabled()
        out_bits = len(cols) * self.k
        source = SharedUint8Array.from_array(np.ascontiguousarray(data))
        sink = SharedUint8Array.create(out_bits)
        try:
            tasks = [
                (source.name, source.size, sink.name, out_bits,
                 starts[shard.block_start:shard.block_stop],
                 cols[shard.block_start:shard.block_stop],
                 shard.block_start * self.k, self.k, self.codebook,
                 capture)
                for shard in shards
            ]
            results = _run_shard_tasks(
                tasks, _assemble_shard, self.executor, len(shards)
            )
            decoded = TernaryVector(sink.view().copy())
        finally:
            source.unlink()
            source.close()
            sink.unlink()
            sink.close()
        if capture:
            _graft_shard_traces("decode", results)
        return decoder._finalize(
            decoded, output_length, diagnostics, block_index, pos,
            recover=recover,
        )


def parallel_decode(
    stream: TernaryVector,
    k: int,
    output_length: Optional[int] = None,
    *,
    workers: int,
    codebook: Optional[Codebook] = None,
    recover: bool = False,
    executor: str = "process",
) -> TernaryVector:
    """Functional front-end over :class:`ShardedDecoder`."""
    sharded = ShardedDecoder(
        k, codebook, workers=workers, executor=executor
    )
    return sharded.decode_stream(stream, output_length, recover=recover)

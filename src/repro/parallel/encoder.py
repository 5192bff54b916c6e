"""Sharded 9C encode across worker processes.

The coordinator pads the input once, copies it into one shared-memory
segment, and hands each worker a ``(name, start, stop)`` descriptor —
the worker attaches and encodes a zero-copy view of its contiguous,
K-aligned block range with the exact vectorized fast path the
single-core encoder uses.  Because blocks are independent given
(K, codebook), concatenating the shard streams in shard order *is* the
oracle stream, and block records rebuilt from the concatenated case
columns carry globally correct offsets (a cumulative sum of per-case
encoded sizes).  ``tests/test_parallel.py`` pins this bit-identity —
streams, block records, case counts — across worker counts, K values
and circuits.

The memory-mapped variant (:func:`parallel_encode_file`) never loads
the input at all: each worker opens its own ``np.memmap`` window of a
``.9ct`` container (:mod:`repro.core.io`), so RSS stays bounded by the
largest shard, not the file.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Optional, Sequence

import numpy as np

from .. import obs as _obs
from ..core.bitvec import X, TernaryVector
from ..core.codewords import Codebook
from ..core.encoder import Encoding, NineCEncoder, _record_encoding
from ..core.io import read_binary_header
from ..obs import tracing as _tracing
from .plan import plan_shards
from .shm import SharedUint8Array

#: Executor modes: ``process`` fans out over a ProcessPoolExecutor;
#: ``serial`` runs the worker functions inline (deterministic tests,
#: single-core machines where pool spin-up would dominate).
EXECUTORS = ("process", "serial")

#: Worker-local encoder cache: pools reuse processes across shards, so
#: rebuilding the encoder (and its codebook tables) per task would be
#: pure overhead.  Keyed by (k, codeword tuples).
_WORKER_ENCODERS: Dict[tuple, NineCEncoder] = {}


def _shard_encoder(k: int, codebook: Codebook) -> NineCEncoder:
    key = (k, tuple(tuple(bits) for _case, bits in codebook.items()))
    encoder = _WORKER_ENCODERS.get(key)
    if encoder is None:
        encoder = NineCEncoder(k, codebook)
        _WORKER_ENCODERS[key] = encoder
    return encoder


def _load_shard_input(source: tuple, k: int) -> np.ndarray:
    """Materialize one shard's padded input bits from its descriptor.

    ``("shm", name, total, start, stop)`` — zero-copy view of the
    coordinator's already-padded shared segment (copied out before the
    segment is closed).  ``("mmap", path, start, stop, total)`` — a
    private memmap window of a ``.9ct`` payload; the tail shard pads
    its own copy to a whole number of blocks with X, exactly as
    ``NineCEncoder._pad`` would.
    """
    kind = source[0]
    if kind == "shm":
        _, name, total, start, stop = source
        block = SharedUint8Array.attach(name, total)
        try:
            # classification/assembly read the grid many times; one
            # local copy beats repeated shared-page access and lets the
            # segment close before the (view-free) result returns
            return block.view(start, stop).copy()
        finally:
            block.close()
    if kind == "mmap":
        _, path, start, stop, total = source
        header = read_binary_header(path)
        valid_stop = min(stop, total)
        window = np.memmap(
            path, dtype=np.uint8, mode="r",
            offset=header.payload_offset + start,
            shape=(valid_stop - start,),
        )
        if stop > total:
            padded = np.full(stop - start, X, dtype=np.uint8)
            padded[: window.size] = window
            return padded
        return np.asarray(window)
    raise ValueError(f"unknown shard source kind: {kind!r}")


def _encode_shard(source: tuple, k: int, codebook: Codebook,
                  capture: bool) -> dict:
    """Encode one shard (module-level: must pickle into pool workers).

    Returns the shard's raw stream bytes and case-column bytes; the
    coordinator concatenates both and rebuilds global block records.
    """
    encoder = _shard_encoder(k, codebook)
    with _tracing.capture_scope(capture) as tracer:
        with _obs.span("encode.shard"):
            grid = _load_shard_input(source, k).reshape(-1, k)
            chosen = encoder._classify(grid)
            stream = encoder._assemble_stream(grid, chosen)
    return {
        "stream": stream.tobytes(),
        "chosen": chosen.astype(np.uint8).tobytes(),
        "events": tracer.events() if tracer is not None else None,
    }


def _run_shard_tasks(tasks: Sequence[tuple], fn, executor: str,
                     max_workers: int) -> List[dict]:
    """Run ``fn(*task)`` per task, preserving task order in the results."""
    if executor == "serial":
        return [fn(*task) for task in tasks]
    if executor != "process":
        raise ValueError(
            f"executor must be one of {EXECUTORS}, got {executor!r}"
        )
    with ProcessPoolExecutor(max_workers=max_workers) as pool:
        futures = [pool.submit(fn, *task) for task in tasks]
        return [future.result() for future in futures]


def _graft_shard_traces(op: str, results: Sequence[dict]) -> None:
    """Re-parent each shard's captured spans under a ``worker.<op>`` span."""
    tracer = _tracing.get_tracer()
    for result in results:
        events = result.get("events")
        with tracer.span(f"worker.{op}"):
            if events:
                tracer.graft_events(events)


def parallel_encode(
    data: TernaryVector,
    k: int,
    *,
    workers: int,
    codebook: Optional[Codebook] = None,
    executor: str = "process",
) -> Encoding:
    """Shard ``data`` by block ranges and encode across processes.

    Bit-identical to ``NineCEncoder(k, codebook).encode(data)`` for
    every ``workers`` value — same stream, same block records, same
    case counts.  ``workers <= 1`` (or an input too small to split)
    simply delegates to the single-core encoder.  With obs enabled
    each shard's spans are captured and grafted under the call's span.
    """
    encoder = NineCEncoder(k, codebook)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if workers == 1:
        return encoder.encode(data)
    original_length = len(data)
    padded = encoder._pad(data)
    shards = plan_shards(len(padded) // k, workers)
    if len(shards) <= 1:
        return encoder.encode(data)
    with _obs.span("parallel.encode"):
        capture = _obs.enabled()
        shared = SharedUint8Array.from_array(
            np.ascontiguousarray(padded.data)
        )
        try:
            tasks = [
                (("shm", shared.name, shared.size,
                  shard.block_start * k, shard.block_stop * k),
                 k, encoder.codebook, capture)
                for shard in shards
            ]
            results = _run_shard_tasks(
                tasks, _encode_shard, executor, len(shards)
            )
        finally:
            shared.unlink()
            shared.close()
        encoding = _combine_shards(
            encoder, original_length, results
        )
        if capture:
            _graft_shard_traces("encode", results)
    if _obs.enabled():
        _record_encoding(encoding)
    return encoding


def parallel_encode_file(
    path,
    k: int,
    *,
    workers: int,
    codebook: Optional[Codebook] = None,
    executor: str = "process",
) -> Encoding:
    """Encode a ``.9ct`` binary test set without loading it into RAM.

    Each shard opens its own ``np.memmap`` window of the payload, so
    coordinator RSS is bounded by the *output* stream plus one shard's
    working set — the file itself is paged in shard-by-shard and
    dropped.  With ``workers=1`` the whole payload becomes one shard,
    still memory-mapped.  Output is bit-identical to loading the file
    and encoding it single-core.
    """
    encoder = NineCEncoder(k, codebook)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    header = read_binary_header(path)
    total = header.total_bits
    # mirror NineCEncoder._pad: at least one block, round up to K
    padded_bits = max(k, ((total + k - 1) // k) * k)
    shards = plan_shards(padded_bits // k, workers)
    with _obs.span("parallel.encode"):
        capture = _obs.enabled()
        tasks = [
            (("mmap", str(path),
              shard.block_start * k, shard.block_stop * k, total),
             k, encoder.codebook, capture)
            for shard in shards
        ]
        results = _run_shard_tasks(
            tasks, _encode_shard, executor, max(len(shards), 1)
        )
        encoding = _combine_shards(encoder, total, results)
        if capture:
            _graft_shard_traces("encode", results)
    if _obs.enabled():
        _record_encoding(encoding)
    return encoding


def _combine_shards(encoder: NineCEncoder, original_length: int,
                    results: Sequence[dict]) -> Encoding:
    """Concatenate shard streams/case columns into one Encoding."""
    streams = [
        np.frombuffer(result["stream"], dtype=np.uint8)
        for result in results
    ]
    columns = [
        np.frombuffer(result["chosen"], dtype=np.uint8)
        for result in results
    ]
    stream = np.concatenate(streams) if streams else np.empty(0, np.uint8)
    chosen = np.concatenate(columns) if columns else np.empty(0, np.uint8)
    return Encoding(
        k=encoder.k,
        codebook=encoder.codebook,
        original_length=original_length,
        stream=TernaryVector(stream),
        blocks=encoder._block_records(chosen),
    )

"""Sharded vs single-core encode/decode (docs/performance.md).

The sharded codec's value proposition is "the oracle's exact output,
sooner" — so the bench reports the single-core and sharded wall times
side by side *and* re-runs the differential proof on the same streams,
making the speedup table meaningless unless the bit-identity contract
holds.  On single-core machines the honest sharded numbers sit below
1.0x (process pools cost more than they recover); the table says so
rather than hiding it.

Timed kernel: a 2-worker sharded encode of the s9234 stream with the
serial executor (scheduling overhead without pool-spawn noise).
"""

import os
import time

from conftest import stream_of

from repro.analysis import Table
from repro.core import NineCDecoder, NineCEncoder
from repro.parallel import ShardedDecoder, parallel_encode, plan_shards
from repro.parallel.proof import compare_case

K = 8
WORKER_COUNTS = (1, 2, 4)
TARGETS = ("s9234", "s38417")


def _wall(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_parallel_encode(benchmark):
    data = stream_of("s9234")

    def kernel():
        return parallel_encode(data, K, workers=2, executor="serial")

    encoding = benchmark(kernel)
    assert encoding.stream == NineCEncoder(K).encode(data).stream

    # --- speedup table: single-core vs sharded, both directions ------
    table = Table(
        ["circuit", "bits", "workers", "encode", "decode", "identical"],
        title=f"sharded vs single-core wall time, K={K} "
              f"({os.cpu_count()} CPU core(s) visible)",
    )
    for target in TARGETS:
        stream = stream_of(target)
        encoder = NineCEncoder(K)
        single_enc = _wall(lambda: encoder.encode(stream))
        encoding = encoder.encode(stream)
        decoder = NineCDecoder(K)
        single_dec = _wall(
            lambda: decoder.decode_stream(
                encoding.stream, encoding.original_length
            )
        )
        for workers in WORKER_COUNTS[1:]:
            sharded = ShardedDecoder(K, workers=workers, executor="process")
            sharded_enc = _wall(
                lambda: parallel_encode(
                    stream, K, workers=workers, executor="process"
                )
            )
            sharded_dec = _wall(
                lambda: sharded.decode_stream(
                    encoding.stream, encoding.original_length
                )
            )
            proof = compare_case(
                stream, K, workers, executor="process", target=target,
                check_errors=False,
            )
            table.add_row(
                target, len(stream), workers,
                f"{single_enc / sharded_enc:.2f}x",
                f"{single_dec / sharded_dec:.2f}x",
                proof.ok,
            )
            assert proof.ok, proof.failures
    table.print()

    # --- shard balance: within one block at every tested width -------
    blocks = -(-len(stream_of("s38417")) // K)
    for workers in WORKER_COUNTS:
        sizes = [s.num_blocks for s in plan_shards(blocks, workers)]
        assert max(sizes) - min(sizes) <= 1

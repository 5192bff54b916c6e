"""Tests for repro.parallel: sharded encode/decode vs the oracle.

The headline assertion is the differential proof: for every tested
(target, K, workers) combination the sharded codec must be
*bit-identical* to the single-core oracle — streams, block records,
case counts, decoded output, diagnostics, and raised-error identity.
"""

import subprocess
import sys

import numpy as np
import pytest

from repro import obs
from repro.core.bitvec import TernaryVector
from repro.core.decoder import NineCDecoder
from repro.core.encoder import NineCEncoder
from repro.core.errors import StreamError
from repro.core.io import save_test_set_binary
from repro.parallel import (
    ShardedDecoder,
    SharedUint8Array,
    differential_proof,
    parallel_decode,
    parallel_encode,
    parallel_encode_file,
    plan_shards,
)
from repro.parallel.proof import compare_case, load_target_stream
from repro.testdata.mintest import load_benchmark


# ----------------------------------------------------------------------
# shard planning
# ----------------------------------------------------------------------
class TestPlanShards:
    def test_balanced_within_one_block(self):
        shards = plan_shards(10, 3)
        assert [s.num_blocks for s in shards] == [4, 3, 3]

    def test_contiguous_and_complete(self):
        shards = plan_shards(17, 5)
        assert shards[0].block_start == 0
        assert shards[-1].block_stop == 17
        for prev, nxt in zip(shards, shards[1:]):
            assert prev.block_stop == nxt.block_start

    def test_fewer_blocks_than_workers(self):
        shards = plan_shards(2, 7)
        assert len(shards) == 2
        assert all(s.num_blocks == 1 for s in shards)

    def test_zero_blocks(self):
        assert plan_shards(0, 4) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            plan_shards(4, 0)
        with pytest.raises(ValueError):
            plan_shards(-1, 2)


# ----------------------------------------------------------------------
# shared memory
# ----------------------------------------------------------------------
class TestSharedUint8Array:
    def test_roundtrip_through_attach(self):
        data = np.arange(32, dtype=np.uint8)
        with SharedUint8Array.from_array(data) as shared:
            other = SharedUint8Array.attach(shared.name, shared.size)
            window = other.view(8, 16).copy()
            other.close()
            assert np.array_equal(window, data[8:16])

    def test_zero_size_segment(self):
        with SharedUint8Array.create(0) as shared:
            assert shared.view().size == 0

    def test_view_bounds_checked(self):
        with SharedUint8Array.create(8) as shared:
            with pytest.raises(ValueError):
                shared.view(4, 12)

    def test_closed_rejects_views(self):
        shared = SharedUint8Array.create(8)
        shared.unlink()
        shared.close()
        with pytest.raises(ValueError):
            shared.view()


# ----------------------------------------------------------------------
# the differential proof (issue grid: workers x K x targets)
# ----------------------------------------------------------------------
class TestDifferentialProof:
    def test_full_grid_serial(self):
        # workers {1, 2, 3, 7} x K {4, 8, 16} on an ATPG circuit and a
        # benchmark-scale profile; error parity included
        report = differential_proof(
            targets=("s27", "s9234"), executor="serial"
        )
        assert len(report.cases) == 2 * 3 * 4
        assert report.ok, report.summary()

    def test_process_executor(self):
        data = load_target_stream("s9234")
        case = compare_case(
            data, 8, 2, executor="process", target="s9234",
            check_errors=False,
        )
        assert case.ok, case.failures

    def test_odd_sizes_and_padding(self):
        # lengths that exercise the pad block, a lone block, and a
        # non-multiple-of-K tail across uneven shard splits
        rng = np.random.default_rng(7)
        for bits in (0, 1, 7, 8, 9, 63, 64, 65):
            data = TernaryVector(
                rng.integers(0, 3, size=bits).astype(np.uint8)
            )
            for workers in (2, 3, 7):
                case = compare_case(
                    data, 8, workers, executor="serial",
                    target=f"rand{bits}", check_errors=False,
                )
                assert case.ok, (bits, workers, case.failures)

    def test_variable_length_codewords_defeat_bit_splits(self):
        # first half compresses to 1-bit C1 codewords, second half to
        # long mismatch codewords: any "split the stream at the bit
        # midpoint" sharding would land inside a codeword and desync
        rng = np.random.default_rng(3)
        skew = np.concatenate([
            np.zeros(512, dtype=np.uint8),
            rng.integers(0, 2, size=512).astype(np.uint8),
        ])
        data = TernaryVector(skew)
        for workers in (2, 3, 7):
            case = compare_case(
                data, 8, workers, executor="serial",
                target="skew", check_errors=True,
            )
            assert case.ok, (workers, case.failures)


class TestErrorParity:
    """Corrupt streams must fail identically at every worker count."""

    @pytest.fixture(scope="class")
    def encoding(self):
        return NineCEncoder(8).encode(load_target_stream("s27"))

    def test_same_typed_error_same_offset(self, encoding):
        corrupt = encoding.stream.data.copy()
        middle = encoding.blocks[len(encoding.blocks) // 2]
        corrupt[middle.stream_offset] = 2  # X inside a codeword
        stream = TernaryVector(corrupt)

        def caught(workers):
            decoder = ShardedDecoder(8, workers=workers, executor="serial")
            with pytest.raises(StreamError) as excinfo:
                decoder.decode_stream(stream, encoding.original_length)
            return excinfo.value

        oracle = caught(1)
        for workers in (2, 3, 7):
            exc = caught(workers)
            assert type(exc) is type(oracle)
            assert str(exc) == str(oracle)
            assert exc.bit_offset == oracle.bit_offset
            assert exc.block_index == oracle.block_index

    def test_recover_diagnostics_parity(self, encoding):
        corrupt = encoding.stream.data.copy()
        middle = encoding.blocks[len(encoding.blocks) // 2]
        corrupt[middle.stream_offset] = 2
        stream = TernaryVector(corrupt)

        oracle = NineCDecoder(8)
        want = oracle.decode_stream(
            stream, encoding.original_length, recover=True
        )
        want_diag = oracle.last_diagnostics
        for workers in (2, 3):
            decoder = ShardedDecoder(8, workers=workers, executor="serial")
            got = decoder.decode_stream(
                stream, encoding.original_length, recover=True
            )
            assert got == want
            diag = decoder.last_diagnostics
            assert diag.blocks_decoded == want_diag.blocks_decoded
            assert diag.blocks_lost == want_diag.blocks_lost
            assert diag.first_error_offset == want_diag.first_error_offset


class TestScannedDecode:
    def test_early_stop_semantics_match(self):
        # output_length shorter than the stream's coverage: the oracle
        # stops after ceil(output_length / K) blocks; the coordinator
        # scan must stop at the same block and the shards must
        # assemble exactly that prefix
        data = load_target_stream("s27")
        encoding = NineCEncoder(8).encode(data)
        oracle = NineCDecoder(8)
        for workers in (2, 3, 7):
            decoder = ShardedDecoder(8, workers=workers, executor="serial")
            for length in (1, 8, 9, 24, encoding.original_length):
                want = oracle.decode_stream(encoding.stream, length)
                got = decoder.decode_stream(encoding.stream, length)
                assert got == want, (workers, length)
                assert (decoder.last_diagnostics.blocks_decoded
                        == oracle.last_diagnostics.blocks_decoded)


# ----------------------------------------------------------------------
# memmap ingestion (bounded-RSS encode)
# ----------------------------------------------------------------------
class TestEncodeFile:
    def test_bit_identical_to_in_memory(self, tmp_path):
        test_set = load_benchmark("s9234")
        path = tmp_path / "s9234.9ct"
        save_test_set_binary(test_set, path)
        expected = NineCEncoder(8).encode(test_set.to_stream())
        for workers in (1, 2, 4):
            encoding = parallel_encode_file(
                path, 8, workers=workers, executor="serial"
            )
            assert encoding.stream == expected.stream, workers
            assert encoding.blocks == expected.blocks, workers
            assert encoding.original_length == expected.original_length

    def test_rss_bounded_by_shard_not_file(self, tmp_path):
        # the memmap path must not pull the whole payload into memory:
        # encoding a 12 MB file shard-by-shard has to grow RSS by at
        # least half a payload less than loading the file up front does
        # (per-block records dominate both paths equally, so the delta
        # isolates input residency)
        from repro.core.io import _BINARY_HEADER, BINARY_MAGIC

        cells, patterns = 1000, 12_000  # 12e6 cells = ~11.4 MiB payload
        payload = patterns * cells
        path = tmp_path / "big.9ct"
        with open(path, "wb") as handle:
            handle.write(_BINARY_HEADER.pack(
                BINARY_MAGIC, 1, patterns, cells
            ))
            chunk = bytes(cells)  # all-zero patterns: compresses to C1
            for _ in range(patterns):
                handle.write(chunk)

        def grown(*body: str) -> int:
            script = "\n".join([
                "import resource",
                "import numpy as np",
                "from repro.core.bitvec import TernaryVector",
                "from repro.core.io import memmap_stream",
                "from repro.parallel import parallel_encode,"
                " parallel_encode_file",
                f"path = {str(path)!r}",
                "baseline = resource.getrusage("
                "resource.RUSAGE_SELF).ru_maxrss",
                *body,
                "peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss",
                f"assert encoding.original_length == {payload}",
                "print((peak - baseline) * 1024)",
            ])
            result = subprocess.run(
                [sys.executable, "-c", script], capture_output=True,
                text=True, check=True,
            )
            return int(result.stdout.strip())

        mmap_grown = grown(
            'encoding = parallel_encode_file('
            'path, 16, workers=8, executor="serial")'
        )
        full_grown = grown(
            'stream, header = memmap_stream(path)',
            'data = TernaryVector(np.asarray(stream.data).copy())',
            'encoding = parallel_encode('
            'data, 16, workers=8, executor="serial")'
        )
        assert mmap_grown + payload // 2 < full_grown, (
            f"mmap encode grew RSS by {mmap_grown} bytes vs "
            f"{full_grown} for the full-load path"
        )


# ----------------------------------------------------------------------
# tracing: per-shard worker spans graft into the live tree
# ----------------------------------------------------------------------
class TestWorkerSpans:
    def test_encode_grafts_worker_spans(self):
        from repro.obs import tracing

        data = load_target_stream("s27")
        obs.reset()
        with obs.enabled_scope(True):
            parallel_encode(data, 8, workers=2, executor="serial")
            tree = tracing.get_tracer().tree()
        obs.reset()
        root = tree["parallel.encode"]
        worker = root["children"]["worker.encode"]
        assert worker["calls"] == 2
        assert worker["children"]["encode.shard"]["calls"] == 2

    def test_decode_grafts_worker_spans(self):
        from repro.obs import tracing

        data = load_target_stream("s27")
        encoding = NineCEncoder(8).encode(data)
        obs.reset()
        with obs.enabled_scope(True):
            parallel_decode(
                encoding.stream, 8,
                output_length=encoding.original_length,
                workers=2, executor="serial",
            )
            tree = tracing.get_tracer().tree()
        obs.reset()
        root = tree["parallel.decode"]
        assert root["children"]["worker.decode"]["calls"] == 2

"""Tests for repro.parallel: the ``--workers N`` codec and ``.9ct`` encode.

The headline assertion is the differential proof: at every worker count
the wrappers must be *bit-identical* to the single-core codec — streams,
block records, case counts, decoded output, diagnostics and raised-error
identity — and the windowed memory-mapped ``.9ct`` encode must equal
loading the file and encoding it at every window size.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.atpg.flow import generate_test_cubes
from repro.circuits.library import load_circuit
from repro.core.bitvec import X, TernaryVector
from repro.core.codewords import PAPER_LENGTHS, BlockCase, Codebook
from repro.core.decoder import NineCDecoder
from repro.core.encoder import NineCEncoder
from repro.core.errors import StreamError
from repro.core.io import _BINARY_HEADER, BINARY_MAGIC, save_test_set_binary
from repro.parallel import (
    parallel_decode,
    parallel_encode,
    parallel_encode_file,
)
from repro.testdata import mintest

#: ``_WINDOW_BLOCKS`` values the ``.9ct`` encode is checked at.
WINDOWS = (1, 2, 3, 7)


def load_target_stream(target: str) -> TernaryVector:
    """A benchmark profile's stream, else ATPG cubes of a library circuit."""
    if target in mintest.ALL_PROFILES:
        return mintest.load_benchmark(target).to_stream()
    return generate_test_cubes(load_circuit(target)).test_set.to_stream()


def assert_same_encoding(got, want):
    assert got.stream == want.stream
    assert got.blocks == want.blocks
    assert got.case_counts == want.case_counts
    assert got.original_length == want.original_length


def error_signature(exc: StreamError) -> tuple:
    return (type(exc).__name__, str(exc), exc.bit_offset, exc.block_index)


def caught(decode) -> tuple:
    """The error signature ``decode()`` raises, or ``("none",)``."""
    try:
        decode()
    except StreamError as exc:
        return error_signature(exc)
    return ("none",)


def diag_fields(diag) -> tuple:
    return (
        diag.blocks_decoded, diag.blocks_lost,
        [error_signature(e) for e in diag.errors],
        diag.first_error_offset,
    )


def corrupt_middle(encoding) -> TernaryVector:
    """The stream with an X planted inside its middle codeword."""
    data = encoding.stream.data.copy()
    data[encoding.blocks[len(encoding.blocks) // 2].stream_offset] = X
    return TernaryVector(data)


@pytest.fixture
def wrapper_decoders(monkeypatch):
    """Every decoder :func:`parallel_decode` builds, newest last."""
    made = []

    class Recording(NineCDecoder):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr("repro.parallel.decoder.NineCDecoder", Recording)
    return made


def write_9ct(path, codes: np.ndarray, patterns: int = 1) -> None:
    """A ``.9ct`` holding ``codes`` verbatim as ``patterns`` patterns."""
    with open(path, "wb") as handle:
        handle.write(_BINARY_HEADER.pack(
            BINARY_MAGIC, 1, patterns, codes.size // patterns
        ))
        handle.write(codes.astype(np.uint8).tobytes())


def assert_file_matches(tmp_path, monkeypatch, codes, k=8):
    """``parallel_encode_file`` equals the core encoder at every window."""
    path = tmp_path / f"n{codes.size}.9ct"
    write_9ct(path, codes)
    want = NineCEncoder(k).encode(TernaryVector(codes.astype(np.uint8)))
    for window in WINDOWS:
        monkeypatch.setattr("repro.parallel.encoder._WINDOW_BLOCKS", window)
        assert_same_encoding(parallel_encode_file(path, k), want)


# ----------------------------------------------------------------------
# window planning of the .9ct encode, and the worker-count check
# ----------------------------------------------------------------------
class TestPlanShards:
    def windows(self, tmp_path, monkeypatch, blocks, window, k=8):
        """The payload ranges a ``blocks``-block file is mapped in."""
        import repro.parallel.encoder as encoder

        spans = []
        read = encoder._read_window

        def recording(path, header, start, stop):
            spans.append((start, stop))
            return read(path, header, start, stop)

        monkeypatch.setattr(encoder, "_read_window", recording)
        monkeypatch.setattr(encoder, "_WINDOW_BLOCKS", window)
        codes = np.random.default_rng(blocks).integers(0, 3, size=blocks * k)
        path = tmp_path / "plan.9ct"
        write_9ct(path, codes)
        assert_same_encoding(
            parallel_encode_file(path, k),
            NineCEncoder(k).encode(TernaryVector(codes.astype(np.uint8))),
        )
        return spans

    def test_contiguous_and_complete(self, tmp_path, monkeypatch):
        spans = self.windows(tmp_path, monkeypatch, 17, 5)
        assert len(spans) == 4
        assert spans[0][0] == 0
        assert spans[-1][1] == 17 * 8
        for (_, prev_stop), (next_start, _) in zip(spans, spans[1:]):
            assert prev_stop == next_start
        assert all(stop - start <= 5 * 8 for start, stop in spans)

    def test_fewer_blocks_than_workers(self, tmp_path, monkeypatch):
        # two blocks fit one window, and seven workers on two blocks
        # still run the core codec
        assert self.windows(tmp_path, monkeypatch, 2, 7) == [(0, 16)]
        data = load_target_stream("s27")
        data = TernaryVector(data.data[:16].copy())
        want = NineCEncoder(8).encode(data)
        assert_same_encoding(parallel_encode(data, 8, workers=7), want)
        assert parallel_decode(
            want.stream, 8, want.original_length, workers=7
        ) == NineCDecoder(8).decode(want)

    def test_zero_blocks(self, tmp_path, monkeypatch):
        # an empty payload maps one all-X pad block, as the core
        # encoder pads an empty input
        assert self.windows(tmp_path, monkeypatch, 0, 4) == [(0, 8)]
        empty = TernaryVector(np.zeros(0, dtype=np.uint8))
        want = NineCEncoder(8).encode(empty)
        assert_same_encoding(parallel_encode(empty, 8, workers=4), want)

    def test_validation(self):
        data = load_target_stream("s27")
        stream = NineCEncoder(8).encode(data).stream
        for workers in (0, -1):
            with pytest.raises(ValueError, match="workers must be >= 1"):
                parallel_encode(data, 8, workers=workers)
            with pytest.raises(ValueError, match="workers must be >= 1"):
                parallel_decode(stream, 8, workers=workers)


# ----------------------------------------------------------------------
# the differential proof (workers x K x targets x codebooks)
# ----------------------------------------------------------------------
class TestDifferentialProof:
    def test_full_grid_serial(self, wrapper_decoders):
        # workers {1, 2, 3, 7} x K {4, 8, 16} on an ATPG circuit and a
        # benchmark-scale profile, under the paper's codebook and one
        # whose lengths run in reverse case order; error parity included
        reverse = Codebook.from_lengths(
            dict(zip(BlockCase, reversed(PAPER_LENGTHS.values())))
        )
        for target in ("s27", "s9234"):
            data = load_target_stream(target)
            for k in (4, 8, 16):
                for book in (None, reverse):
                    want = NineCEncoder(k, book).encode(data)
                    oracle = NineCDecoder(k, book)
                    decoded = oracle.decode(want)
                    want_diag = diag_fields(oracle.last_diagnostics)
                    broken = (
                        corrupt_middle(want),
                        TernaryVector(want.stream.data[:-1].copy()),
                    )
                    errors = [
                        caught(lambda: oracle.decode_stream(
                            s, want.original_length))
                        for s in broken
                    ]
                    assert all(e != ("none",) for e in errors)
                    for workers in (1, 2, 3, 7):
                        case = (target, k, book is None, workers)
                        got = parallel_encode(
                            data, k, workers=workers, codebook=book
                        )
                        assert_same_encoding(got, want)
                        assert parallel_decode(
                            want.stream, k, want.original_length,
                            workers=workers, codebook=book,
                        ) == decoded, case
                        assert diag_fields(
                            wrapper_decoders[-1].last_diagnostics
                        ) == want_diag, case
                        for stream, error in zip(broken, errors):
                            assert caught(lambda: parallel_decode(
                                stream, k, want.original_length,
                                workers=workers, codebook=book,
                            )) == error, case

    def test_process_executor(self, monkeypatch):
        # there is no process executor: a two-worker encode and decode
        # must equal the core codec without starting any process
        def forbidden(*args, **kwargs):
            raise AssertionError("the --workers codec started a process")

        for name in ("fork", "posix_spawn", "posix_spawnp"):
            monkeypatch.setattr(os, name, forbidden, raising=False)
        monkeypatch.setattr("_posixsubprocess.fork_exec", forbidden)
        data = load_target_stream("s9234")
        want = NineCEncoder(8).encode(data)
        assert_same_encoding(parallel_encode(data, 8, workers=2), want)
        assert parallel_decode(
            want.stream, 8, want.original_length, workers=2
        ) == NineCDecoder(8).decode(want)

    def test_odd_sizes_and_padding(self, tmp_path, monkeypatch):
        # lengths that exercise the pad block, a lone block, and a
        # non-multiple-of-K tail across uneven window splits
        rng = np.random.default_rng(7)
        for bits in (0, 1, 7, 8, 9, 63, 64, 65):
            codes = rng.integers(0, 3, size=bits)
            assert_file_matches(tmp_path, monkeypatch, codes)

    def test_variable_length_codewords_defeat_bit_splits(
            self, tmp_path, monkeypatch):
        # first half compresses to 1-bit C1 codewords, second half to
        # long mismatch codewords: a window cut anywhere but on a block
        # boundary would land inside a codeword and desync
        rng = np.random.default_rng(3)
        skew = np.concatenate([
            np.zeros(512, dtype=np.uint8),
            rng.integers(0, 2, size=512).astype(np.uint8),
        ])
        assert_file_matches(tmp_path, monkeypatch, skew)


class TestErrorParity:
    """Corrupt streams must fail identically at every worker count."""

    @pytest.fixture(scope="class")
    def encoding(self):
        return NineCEncoder(8).encode(load_target_stream("s27"))

    def test_same_typed_error_same_offset(self, encoding):
        stream = corrupt_middle(encoding)
        with pytest.raises(StreamError) as excinfo:
            NineCDecoder(8).decode_stream(stream, encoding.original_length)
        oracle = excinfo.value
        for workers in (1, 2, 3, 7):
            with pytest.raises(StreamError) as excinfo:
                parallel_decode(
                    stream, 8, encoding.original_length, workers=workers
                )
            exc = excinfo.value
            assert type(exc) is type(oracle)
            assert str(exc) == str(oracle)
            assert exc.bit_offset == oracle.bit_offset
            assert exc.block_index == oracle.block_index

    def test_recover_diagnostics_parity(self, encoding, wrapper_decoders):
        stream = corrupt_middle(encoding)
        oracle = NineCDecoder(8)
        want = oracle.decode_stream(
            stream, encoding.original_length, recover=True
        )
        want_diag = oracle.last_diagnostics
        for workers in (2, 3):
            got = parallel_decode(
                stream, 8, encoding.original_length, workers=workers,
                recover=True,
            )
            assert got == want
            diag = wrapper_decoders[-1].last_diagnostics
            assert diag.blocks_decoded == want_diag.blocks_decoded
            assert diag.blocks_lost == want_diag.blocks_lost
            assert diag.first_error_offset == want_diag.first_error_offset


class TestScannedDecode:
    def test_early_stop_semantics_match(self, wrapper_decoders):
        # output_length shorter than the stream's coverage: the oracle
        # stops after ceil(output_length / K) blocks, and every worker
        # count must stop at the same block with the same prefix
        encoding = NineCEncoder(8).encode(load_target_stream("s27"))
        oracle = NineCDecoder(8)
        for workers in (2, 3, 7):
            for length in (1, 8, 9, 24, encoding.original_length):
                want = oracle.decode_stream(encoding.stream, length)
                got = parallel_decode(
                    encoding.stream, 8, length, workers=workers
                )
                assert got == want, (workers, length)
                assert (wrapper_decoders[-1].last_diagnostics.blocks_decoded
                        == oracle.last_diagnostics.blocks_decoded)


# ----------------------------------------------------------------------
# memmap ingestion (bounded-RSS encode)
# ----------------------------------------------------------------------
class TestEncodeFile:
    def test_bit_identical_to_in_memory(self, tmp_path, monkeypatch):
        test_set = mintest.load_benchmark("s9234")
        path = tmp_path / "s9234.9ct"
        save_test_set_binary(test_set, path)
        expected = NineCEncoder(8).encode(test_set.to_stream())
        assert_same_encoding(parallel_encode_file(path, 8), expected)
        monkeypatch.setattr("repro.parallel.encoder._WINDOW_BLOCKS", 100)
        assert_same_encoding(parallel_encode_file(path, 8), expected)

    def test_out_of_range_code_rejected(self, tmp_path, monkeypatch):
        # 16 cells x 4 patterns whose first block is 0 0 0 1 0 7 0 0:
        # read as an X, the 7 would silently decode as a 0
        path = tmp_path / "bad.9ct"
        codes = np.zeros(64, dtype=np.uint8)
        codes[3], codes[5] = 1, 7
        write_9ct(path, codes, patterns=4)
        with pytest.raises(ValueError, match="outside"):
            parallel_encode_file(path, 8)
        # a bad code in a later window is caught too
        codes[5], codes[60] = 0, 3
        write_9ct(path, codes, patterns=4)
        monkeypatch.setattr("repro.parallel.encoder._WINDOW_BLOCKS", 1)
        with pytest.raises(ValueError, match="outside"):
            parallel_encode_file(path, 8)

    def test_rss_bounded_by_shard_not_file(self, tmp_path):
        # the memmap path must not pull the whole payload into memory:
        # encoding a 12 MB file window-by-window has to grow RSS by at
        # least half a payload less than loading the file up front does
        # (per-block records dominate both paths equally, so the delta
        # isolates input residency)
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

        mmap_grown = grown('encoding = parallel_encode_file(path, 16)')
        full_grown = grown(
            'stream, header = memmap_stream(path)',
            'data = TernaryVector(np.asarray(stream.data).copy())',
            'encoding = parallel_encode(data, 16, workers=8)'
        )
        assert mmap_grown + payload // 2 < full_grown, (
            f"mmap encode grew RSS by {mmap_grown} bytes vs "
            f"{full_grown} for the full-load path"
        )

"""Unit tests for the .9c container format."""

import pytest
from hypothesis import given, settings

from repro.core import (
    BlockCase,
    Codebook,
    NineCDecoder,
    NineCEncoder,
    TernaryVector,
    assign_lengths_by_frequency,
    dumps_encoding,
    load_encoding,
    loads_encoding,
    save_encoding,
)

from .conftest import ternary_vectors


def sample_encoding(k=8):
    data = TernaryVector("00000000" "0000X01X" "1X1X111X" "01XX10XX")
    return data, NineCEncoder(k).encode(data)


class TestDumpLoad:
    def test_roundtrip_in_memory(self):
        data, encoding = sample_encoding()
        back = loads_encoding(dumps_encoding(encoding))
        assert back.k == encoding.k
        assert back.original_length == encoding.original_length
        assert back.stream == encoding.stream
        assert back.codebook == encoding.codebook
        assert [r.case for r in back.blocks] == \
            [r.case for r in encoding.blocks]
        assert [r.stream_offset for r in back.blocks] == \
            [r.stream_offset for r in encoding.blocks]

    def test_roundtrip_on_disk(self, tmp_path):
        data, encoding = sample_encoding()
        path = tmp_path / "stream.9c"
        save_encoding(encoding, path)
        back = load_encoding(path)
        assert NineCDecoder(8).decode(back).covers(data)

    def test_reassigned_codebook_survives(self):
        data, base = sample_encoding()
        book = Codebook.from_lengths(
            assign_lengths_by_frequency(base.case_counts)
        )
        encoding = NineCEncoder(8, book).encode(data)
        back = loads_encoding(dumps_encoding(encoding))
        assert back.codebook == book

    def test_magic_required(self):
        with pytest.raises(ValueError):
            loads_encoding("k=8\nlength=0\nlengths=\nstream=\n")

    def test_missing_field_rejected(self):
        data, encoding = sample_encoding()
        text = dumps_encoding(encoding)
        broken = "\n".join(
            line for line in text.splitlines() if not line.startswith("k=")
        )
        with pytest.raises(ValueError):
            loads_encoding(broken)

    def test_truncated_stream_rejected(self):
        data, encoding = sample_encoding()
        text = dumps_encoding(encoding)
        truncated = text.replace(
            f"stream={encoding.stream.to_string()}",
            f"stream={encoding.stream.to_string()[:-4]}",
        )
        with pytest.raises((ValueError, EOFError)):
            loads_encoding(truncated)

    def test_unknown_case_name_rejected(self):
        data, encoding = sample_encoding()
        text = dumps_encoding(encoding).replace("C9:", "C10:")
        with pytest.raises(ValueError, match="unknown case 'C10'"):
            loads_encoding(text)

    def test_odd_k_rejected(self):
        # checked before the block-record walk, which would otherwise
        # misreport a bad K as a corrupt stream
        data, encoding = sample_encoding()
        text = dumps_encoding(encoding).replace("k=8", "k=7")
        with pytest.raises(ValueError, match="even integer >= 2, got 7"):
            loads_encoding(text)

    @given(ternary_vectors(min_size=1, max_size=96))
    @settings(max_examples=50)
    def test_roundtrip_property(self, data):
        encoding = NineCEncoder(8).encode(data)
        back = loads_encoding(dumps_encoding(encoding))
        assert NineCDecoder(8).decode(back).covers(data)
        assert back.compression_ratio == pytest.approx(
            encoding.compression_ratio
        )
        assert back.case_counts == encoding.case_counts


class TestBinaryContainer:
    """The .9ct binary test-set container + memmap ingestion."""

    def _sample_set(self):
        from repro.testdata.testset import TestSet

        return TestSet(
            [TernaryVector("01X0110X"), TernaryVector("X1101XX0"),
             TernaryVector("00011X10")],
            name="sample",
        )

    def test_roundtrip(self, tmp_path):
        from repro.core.io import (load_test_set_binary,
                                   save_test_set_binary)

        original = self._sample_set()
        path = tmp_path / "sample.9ct"
        save_test_set_binary(original, path)
        back = load_test_set_binary(path)
        assert back.num_patterns == original.num_patterns
        assert back.num_cells == original.num_cells
        assert back.to_stream() == original.to_stream()

    def test_memmap_stream_matches_in_memory(self, tmp_path):
        from repro.core.io import memmap_stream, save_test_set_binary

        original = self._sample_set()
        path = tmp_path / "sample.9ct"
        save_test_set_binary(original, path)
        stream, header = memmap_stream(path)
        assert header.num_patterns == 3 and header.num_cells == 8
        assert header.total_bits == 24
        assert stream.to_string() == original.to_stream().to_string()

    def test_bad_magic_rejected(self, tmp_path):
        from repro.core.io import read_binary_header

        path = tmp_path / "bad.9ct"
        path.write_bytes(b"NOPE" + bytes(20))
        with pytest.raises(ValueError, match="bad magic"):
            read_binary_header(path)

    def test_size_mismatch_rejected(self, tmp_path):
        from repro.core.io import save_test_set_binary, read_binary_header

        path = tmp_path / "short.9ct"
        save_test_set_binary(self._sample_set(), path)
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(ValueError, match="size mismatch"):
            read_binary_header(path)

    def test_validate_rejects_out_of_range(self, tmp_path):
        from repro.core.io import memmap_stream, save_test_set_binary

        path = tmp_path / "corrupt.9ct"
        save_test_set_binary(self._sample_set(), path)
        raw = bytearray(path.read_bytes())
        raw[-1] = 7  # outside {0, 1, 2}
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="outside"):
            memmap_stream(path, validate=True)

"""Unit + property tests for the 9C encoder."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BlockCase,
    BlockRecord,
    Codebook,
    NineCEncoder,
    PAPER_LENGTHS,
    TernaryVector,
    analytic_compressed_size,
)

from repro.testdata.mintest import ISCAS89_PROFILES, load_benchmark

from .conftest import even_block_sizes, ternary_vectors


class TestSelectCase:
    @pytest.mark.parametrize("block,case", [
        ("00000000", BlockCase.C1),
        ("0X0X0000", BlockCase.C1),
        ("XXXXXXXX", BlockCase.C1),   # all-X: cheapest feasible is C1
        ("11111111", BlockCase.C2),
        ("1X1X111X", BlockCase.C2),
        ("00001111", BlockCase.C3),
        ("0X0X11X1", BlockCase.C3),
        ("11110000", BlockCase.C4),
        ("0000X01X", BlockCase.C5),
        ("01XX0000", BlockCase.C6),
        ("11110X1X", BlockCase.C7),
        ("X01X1111", BlockCase.C8),
        ("01XX10XX", BlockCase.C9),
    ])
    def test_paper_examples(self, block, case):
        assert NineCEncoder(8).select_case(TernaryVector(block)) is case

    def test_all_x_prefers_c1_over_c2(self):
        # Both C1 and C2 are feasible; C1's 1-bit codeword is cheaper.
        assert NineCEncoder(4).select_case(TernaryVector("XXXX")) is BlockCase.C1

    def test_mixed_uniform_x(self):
        # Left matches 1s only, right all-X matches both: C2 (2 bits)
        # beats C4 (5 bits).
        assert NineCEncoder(8).select_case(TernaryVector("1111XXXX")) is BlockCase.C2

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            NineCEncoder(7)
        with pytest.raises(ValueError):
            NineCEncoder(0)


class TestEncode:
    def test_all_zero_stream(self):
        enc = NineCEncoder(8).encode(TernaryVector.zeros(64))
        assert enc.compressed_size == 8  # 8 blocks x C1 (1 bit each)
        assert all(r.case is BlockCase.C1 for r in enc.blocks)
        assert enc.compression_ratio == pytest.approx((64 - 8) / 64 * 100)

    def test_all_one_stream(self):
        enc = NineCEncoder(8).encode(TernaryVector.ones(64))
        assert enc.compressed_size == 16  # 8 blocks x C2 (2 bits each)

    def test_worst_case_stream(self):
        # Alternating 01 in every half: every block is C9.
        data = TernaryVector("01100110" * 4)
        enc = NineCEncoder(8).encode(data)
        assert all(r.case is BlockCase.C9 for r in enc.blocks)
        assert enc.compressed_size == 4 * (4 + 8)
        assert enc.compression_ratio < 0  # expansion, as expected

    def test_mismatch_half_copied_verbatim(self):
        data = TernaryVector("0000X01X")
        enc = NineCEncoder(8).encode(data)
        assert enc.blocks[0].case is BlockCase.C5
        cw = Codebook.default().codeword(BlockCase.C5)
        assert enc.stream[len(cw):].to_string() == "X01X"

    def test_leftover_x_counted(self):
        data = TernaryVector("0000X01X")
        enc = NineCEncoder(8).encode(data)
        assert enc.leftover_x == 2
        assert enc.leftover_x_percent == pytest.approx(2 / 8 * 100)

    def test_padding_to_block_multiple(self):
        enc = NineCEncoder(8).encode(TernaryVector("000"))
        assert enc.original_length == 3
        assert enc.padded_length == 8
        assert len(enc.blocks) == 1

    def test_empty_input(self):
        enc = NineCEncoder(4).encode(TernaryVector(""))
        assert enc.original_length == 0
        # A single all-X pad block is emitted.
        assert len(enc.blocks) == 1
        assert enc.blocks[0].case is BlockCase.C1

    def test_case_counts(self):
        data = TernaryVector("00000000" + "11111111" + "01100110")
        counts = NineCEncoder(8).encode(data).case_counts
        assert counts[BlockCase.C1] == 1
        assert counts[BlockCase.C2] == 1
        assert counts[BlockCase.C9] == 1

    def test_case_counts_cached_and_isolated(self):
        # the tally over blocks is computed once and memoized; callers
        # get an independent copy so mutating it cannot poison the cache
        enc = NineCEncoder(8).encode(TernaryVector("01100110" * 8))
        first = enc.case_counts
        first[BlockCase.C1] = 999
        second = enc.case_counts
        assert second.get(BlockCase.C1) != 999
        assert second == enc.case_counts

    def test_stream_offsets_monotonic(self):
        data = TernaryVector("0000000011111111" * 4)
        enc = NineCEncoder(8).encode(data)
        offsets = [r.stream_offset for r in enc.blocks]
        assert offsets == sorted(offsets)
        assert offsets[0] == 0


class TestMeasureAgreesWithEncode:
    @given(ternary_vectors(max_size=120), even_block_sizes(max_k=16))
    @settings(max_examples=150)
    def test_agreement(self, data, k):
        encoder = NineCEncoder(k)
        enc = encoder.encode(data)
        meas = encoder.measure(data)
        assert meas.compressed_size == enc.compressed_size
        assert meas.case_counts == enc.case_counts
        assert meas.leftover_x == enc.leftover_x
        assert meas.compression_ratio == pytest.approx(enc.compression_ratio)

    @given(ternary_vectors(max_size=200, x_bias=0.8), even_block_sizes(max_k=32))
    @settings(max_examples=60)
    def test_agreement_high_x(self, data, k):
        encoder = NineCEncoder(k)
        assert encoder.measure(data).compressed_size == \
            encoder.encode(data).compressed_size


class TestAnalyticFormula:
    @given(ternary_vectors(max_size=150), even_block_sizes(max_k=16))
    @settings(max_examples=100)
    def test_stream_size_matches_formula(self, data, k):
        # Section IV: |T_E| = sum_i N_i |C_i| + data payloads.
        enc = NineCEncoder(k).encode(data)
        assert enc.compressed_size == analytic_compressed_size(enc.case_counts, k)


class TestCustomCodebook:
    def test_reassigned_codebook_changes_selection(self):
        # Make C9 cheaper than the one-mismatch cases for tiny K: with
        # lengths swapped so C5..C8 become expensive, an all-mismatch
        # choice can win.  K=4, block "0110": halves "01","10" both
        # mismatch -> C9 regardless; but "0001": right half mismatch.
        from repro.core import PAPER_LENGTHS

        lengths = dict(PAPER_LENGTHS)
        # give C5 the 4-bit word and C9 a 5-bit word
        lengths[BlockCase.C5] = 4
        lengths[BlockCase.C9] = 5
        book = Codebook.from_lengths(lengths)
        enc = NineCEncoder(4, book)
        assert enc.select_case(TernaryVector("0001")) is BlockCase.C5
        assert enc.codebook.length(BlockCase.C5) == 4


#: A permuted codebook: C9 takes the 1-bit word, so cost order and
#: column order disagree.
PERMUTED = Codebook.from_lengths(dict(zip(
    BlockCase, [PAPER_LENGTHS[case] for case in reversed(BlockCase)]
)))


@pytest.mark.parametrize("book", [None, PERMUTED], ids=["default", "permuted"])
class TestBlockRecords:
    """``encode``'s lazy records read like ``encode_reference``'s list."""

    DATA = TernaryVector("00000000" "11111111" "0110X01X" "0000X0X0"
                         "X1X10110" "01100110" "XXXXXXXX" "1111000X" "01")

    @pytest.fixture
    def pair(self, book):
        encoder = NineCEncoder(8, book)
        return (encoder.encode(self.DATA).blocks,
                encoder.encode_reference(self.DATA).blocks)

    def test_len_and_indexing(self, pair):
        fast, slow = pair
        assert len(fast) == len(slow) == 9
        for index in range(-len(slow), len(slow)):
            assert fast[index] == slow[index]
            assert fast[index].stream_offset == slow[index].stream_offset
        assert fast[-1].index == 8
        assert fast[2:5] == slow[2:5]

    @pytest.mark.parametrize("index", [9, -10, 100])
    def test_out_of_range(self, pair, index):
        fast, slow = pair
        with pytest.raises(IndexError):
            slow[index]
        with pytest.raises(IndexError):
            fast[index]

    def test_iteration_and_equality(self, pair):
        fast, slow = pair
        assert list(fast) == slow
        assert fast == slow
        assert slow == fast
        assert not fast != slow
        changed = slow[:-1] + [BlockRecord(8, BlockCase.C2, slow[-1].stream_offset)]
        assert fast != changed and changed != fast

    def test_case_counts_match_reference_tally(self, book):
        encoding = NineCEncoder(8, book).encode(self.DATA)
        tally = {case: 0 for case in BlockCase}
        for record in NineCEncoder(8, book).encode_reference(self.DATA).blocks:
            tally[record.case] += 1
        assert encoding.case_counts == tally


class TestFastPathMatchesReference:
    """The vectorized ``encode`` must be bit-identical to the per-block
    oracle ``encode_reference`` — same stream, same block records."""

    @staticmethod
    def assert_same(fast, slow):
        assert fast.stream == slow.stream
        assert fast.blocks == slow.blocks
        assert fast.original_length == slow.original_length
        assert fast.case_counts == slow.case_counts

    @given(ternary_vectors(max_size=200), even_block_sizes(max_k=16),
           st.permutations(list(PAPER_LENGTHS.values())))
    @settings(max_examples=150)
    def test_random_vectors(self, data, k, lengths):
        # a permuted codebook makes cost order differ from column order,
        # which exercises the classifier's lowest-column tie rule
        book = Codebook.from_lengths(dict(zip(BlockCase, lengths)))
        for encoder in (NineCEncoder(k), NineCEncoder(k, book)):
            self.assert_same(encoder.encode(data),
                             encoder.encode_reference(data))

    @pytest.mark.parametrize("name", sorted(ISCAS89_PROFILES))
    def test_full_iscas89_suite(self, name):
        data = load_benchmark(name).to_stream()
        encoder = NineCEncoder(8)
        self.assert_same(encoder.encode(data), encoder.encode_reference(data))

"""Unit tests for repro.core.bitvec."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import ONE, X, ZERO, TernaryVector

from .conftest import ternary_vectors


class TestConstruction:
    def test_from_string(self):
        v = TernaryVector.from_string("01X")
        assert list(v) == [ZERO, ONE, X]

    def test_from_string_aliases(self):
        assert TernaryVector.from_string("x-?").to_string() == "XXX"

    def test_from_string_ignores_whitespace(self):
        assert TernaryVector.from_string("01 X\n1").to_string() == "01X1"

    def test_from_list_of_ints(self):
        assert TernaryVector([0, 1, 2]).to_string() == "01X"

    def test_from_list_of_chars(self):
        assert TernaryVector(["0", "1", "X"]).to_string() == "01X"

    def test_invalid_char_rejected(self):
        with pytest.raises(ValueError):
            TernaryVector("012a")

    def test_invalid_int_rejected(self):
        with pytest.raises(ValueError):
            TernaryVector([0, 3])

    def test_invalid_ndarray_rejected(self):
        with pytest.raises(ValueError):
            TernaryVector(np.array([0, 5], dtype=np.uint8))

    def test_zeros_ones_xs(self):
        assert TernaryVector.zeros(3).to_string() == "000"
        assert TernaryVector.ones(3).to_string() == "111"
        assert TernaryVector.xs(3).to_string() == "XXX"

    def test_empty(self):
        v = TernaryVector("")
        assert len(v) == 0
        assert v.to_string() == ""

    def test_concat(self):
        v = TernaryVector.concat(
            [TernaryVector("01"), TernaryVector("X"), TernaryVector("")]
        )
        assert v.to_string() == "01X"

    def test_concat_empty(self):
        assert len(TernaryVector.concat([])) == 0


class TestContainer:
    def test_len_and_getitem(self):
        v = TernaryVector("01X")
        assert len(v) == 3
        assert v[0] == ZERO and v[1] == ONE and v[2] == X

    def test_slice_returns_vector(self):
        v = TernaryVector("01X10")
        assert isinstance(v[1:4], TernaryVector)
        assert v[1:4].to_string() == "1X1"

    def test_equality_and_hash(self):
        a, b = TernaryVector("01X"), TernaryVector("01X")
        assert a == b
        assert hash(a) == hash(b)
        assert a != TernaryVector("011")

    def test_iter(self):
        assert list(TernaryVector("1X0")) == [1, 2, 0]

    def test_repr_contains_content(self):
        assert "01X" in repr(TernaryVector("01X"))


class TestQueries:
    def test_counts(self):
        v = TernaryVector("0011XX")
        assert v.count(0) == 2 and v.count(1) == 2 and v.count("X") == 2
        assert v.num_x == 2 and v.num_specified == 4
        assert v.x_density == pytest.approx(1 / 3)

    def test_x_density_empty(self):
        assert TernaryVector("").x_density == 0.0

    def test_fully_specified(self):
        assert TernaryVector("0101").is_fully_specified()
        assert not TernaryVector("01X1").is_fully_specified()

    @pytest.mark.parametrize(
        "text,zero_ok,one_ok",
        [
            ("0000", True, False),
            ("1111", False, True),
            ("XXXX", True, True),
            ("0X0X", True, False),
            ("1X1X", False, True),
            ("01XX", False, False),
            ("", True, True),
        ],
    )
    def test_compatibility(self, text, zero_ok, one_ok):
        v = TernaryVector(text)
        assert v.is_zero_compatible() is zero_ok
        assert v.is_one_compatible() is one_ok
        assert v.is_mismatch() is (not zero_ok and not one_ok)

    def test_covers(self):
        cube = TernaryVector("0X1X")
        assert TernaryVector("0011").covers(cube)
        assert TernaryVector("0X1X").covers(cube)
        assert not TernaryVector("0000").covers(cube)
        assert not TernaryVector("001").covers(cube)

    def test_compatible_and_merge(self):
        a, b = TernaryVector("0X1X"), TernaryVector("001X")
        assert a.compatible(b)
        assert a.merge(b).to_string() == "001X"

    def test_merge_incompatible_raises(self):
        with pytest.raises(ValueError):
            TernaryVector("01").merge(TernaryVector("00"))

    def test_compatible_length_mismatch(self):
        assert not TernaryVector("01").compatible(TernaryVector("011"))


class TestTransforms:
    def test_filled(self):
        assert TernaryVector("0X1X").filled(0).to_string() == "0010"
        assert TernaryVector("0X1X").filled(1).to_string() == "0111"

    def test_filled_rejects_x(self):
        with pytest.raises(ValueError):
            TernaryVector("0X").filled(2)

    def test_filled_does_not_mutate(self):
        v = TernaryVector("0X")
        v.filled(1)
        assert v.to_string() == "0X"

    def test_filled_random_is_specified(self, rng):
        v = TernaryVector.xs(100).filled_random(rng)
        assert v.is_fully_specified()

    def test_filled_random_preserves_specified(self, rng):
        v = TernaryVector("01X01X").filled_random(rng)
        assert v.covers(TernaryVector("01X01X"))

    def test_with_slice(self):
        v = TernaryVector("0000").with_slice(1, TernaryVector("11"))
        assert v.to_string() == "0110"

    def test_padded(self):
        assert TernaryVector("01").padded(4).to_string() == "01XX"
        assert TernaryVector("01").padded(4, 0).to_string() == "0100"

    def test_padded_too_short_raises(self):
        with pytest.raises(ValueError):
            TernaryVector("0101").padded(2)

    def test_blocks(self):
        blocks = list(TernaryVector("0101X").blocks(2))
        assert [b.to_string() for b in blocks] == ["01", "01", "X"]

    def test_blocks_invalid_size(self):
        with pytest.raises(ValueError):
            list(TernaryVector("01").blocks(0))

    def test_copy_is_independent(self):
        v = TernaryVector("01X")
        c = v.copy()
        c.data[0] = 1
        assert v.to_string() == "01X"


#: What each accepted character parses to, rendered back.
RENDERED = {"0": "0", "1": "1", "X": "X", "x": "X", "-": "X", "?": "X"}

#: ASCII and non-ASCII characters that ``str.split()`` treats as space.
WHITESPACE = " \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u2003\u3000"


class TestTextCodec:
    """The table-driven parse/render must match the per-character one."""

    @given(st.text(alphabet="01Xx-?"))
    def test_render_after_parse(self, text):
        rendered = "".join(RENDERED[c] for c in text)
        assert TernaryVector(text).to_string() == rendered

    @given(st.text(alphabet="01X" + WHITESPACE))
    def test_from_string_drops_what_split_drops(self, text):
        assert TernaryVector.from_string(text).to_string() == \
            "".join(text.split())

    @pytest.mark.parametrize("text,bad", [
        ("01a", "a"),
        ("aé", "a"),     # first bad character, not first non-ASCII one
        ("0é", "é"),
        ("0 1", " "),    # the constructor does not skip whitespace
        ("01X\n", "\n"),
    ])
    def test_invalid_character_named(self, text, bad):
        with pytest.raises(ValueError) as excinfo:
            TernaryVector(text)
        assert str(excinfo.value) == f"invalid ternary character: {bad!r}"

    @pytest.mark.parametrize("text,bad", [
        ("0 1 a", "a"),
        ("aé", "a"),
        ("0 é", "é"),
    ])
    def test_from_string_names_first_invalid(self, text, bad):
        with pytest.raises(ValueError) as excinfo:
            TernaryVector.from_string(text)
        assert str(excinfo.value) == f"invalid ternary character: {bad!r}"


class TestProperties:
    @given(ternary_vectors())
    def test_string_roundtrip(self, v):
        assert TernaryVector.from_string(v.to_string()) == v

    @given(ternary_vectors())
    def test_counts_sum_to_length(self, v):
        assert v.count(0) + v.count(1) + v.count(2) == len(v)

    @given(ternary_vectors())
    def test_covers_is_reflexive(self, v):
        assert v.covers(v)

    @given(ternary_vectors(), st.sampled_from([0, 1]))
    def test_fill_covers_original(self, v, bit):
        assert v.filled(bit).covers(v)

    @given(ternary_vectors())
    def test_mismatch_classification_consistent(self, v):
        assert v.is_mismatch() == (
            not v.is_zero_compatible() and not v.is_one_compatible()
        )

    @given(ternary_vectors(max_size=40), ternary_vectors(max_size=40))
    def test_merge_covers_both(self, a, b):
        if a.compatible(b):
            merged = a.merge(b)
            assert merged.covers(a) and merged.covers(b)

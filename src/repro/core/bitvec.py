"""Ternary bit vectors over the alphabet {0, 1, X}.

Scan test data is naturally ternary: ATPG leaves unassigned inputs as
don't-cares (X).  Every layer of this library — the 9C codec, the baseline
codes, the decompressor models — operates on :class:`TernaryVector`, a thin
numpy-backed vector where each element is one of :data:`ZERO`, :data:`ONE`
or :data:`X`.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence, Union

import numpy as np

#: Integer encodings of the three logic values.
ZERO = 0
ONE = 1
X = 2

_CHAR_TO_VAL = {"0": ZERO, "1": ONE, "X": X, "x": X, "-": X, "?": X}

#: Byte -> code table for ASCII text; every other byte maps to the
#: invalid marker, which is the only entry above :data:`X`.
_INVALID = 0xFF
_PARSE = np.full(256, _INVALID, dtype=np.uint8)
_PARSE[[ord(c) for c in _CHAR_TO_VAL]] = list(_CHAR_TO_VAL.values())
#: Code -> byte table of :meth:`TernaryVector.to_string`.
_RENDER = np.frombuffer(b"01X", dtype=np.uint8)

BitLike = Union[int, str]


def _coerce_value(value: BitLike) -> int:
    """Convert a single ``0``/``1``/``X`` token (int or char) to its code."""
    if isinstance(value, str):
        try:
            return _CHAR_TO_VAL[value]
        except KeyError:
            raise ValueError(f"invalid ternary character: {value!r}") from None
    value = int(value)
    if value not in (ZERO, ONE, X):
        raise ValueError(f"invalid ternary value: {value!r} (expected 0, 1 or 2/X)")
    return value


def _parse_text(text: str) -> np.ndarray:
    """Codes of a ``0``/``1``/``X`` string (``x``, ``-``, ``?`` mean X).

    ASCII text goes through :data:`_PARSE` in one numpy pass.  Other
    text takes the per-character path, because ``encode("ascii")``
    stops at the first non-ASCII character, which need not be the
    first invalid one.
    """
    try:
        raw = text.encode("ascii")
    except UnicodeEncodeError:
        return np.fromiter(
            (_coerce_value(c) for c in text), dtype=np.uint8, count=len(text)
        )
    codes = _PARSE[np.frombuffer(raw, dtype=np.uint8)]
    if codes.max(initial=ZERO) > X:
        first = chr(raw[int(np.argmax(codes == _INVALID))])
        raise ValueError(f"invalid ternary character: {first!r}")
    return codes


class TernaryVector:
    """An immutable-by-convention vector of {0, 1, X} values.

    The underlying storage is a ``numpy.uint8`` array holding the codes
    :data:`ZERO`, :data:`ONE` and :data:`X`.  Instances share storage with
    slices for efficiency; callers must not mutate the ``data`` array of a
    vector they did not create.
    """

    __slots__ = ("data",)

    def __init__(self, data: Union[np.ndarray, Sequence[BitLike], str]):
        if isinstance(data, str):
            self.data = _parse_text(data)
            return
        if isinstance(data, np.ndarray):
            if data.dtype != np.uint8:
                data = data.astype(np.uint8)
            arr = data
        else:
            arr = np.fromiter(
                (_coerce_value(v) for v in data), dtype=np.uint8, count=len(data)
            )
        if arr.size and arr.max(initial=0) > X:
            raise ValueError("ternary data contains values outside {0, 1, 2}")
        self.data = arr

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def _wrap(cls, data: np.ndarray) -> "TernaryVector":
        """Wrap a trusted uint8 code array without validation or copy.

        The range check in ``__init__`` reads every element, which on a
        memory-mapped file faults in every page — exactly what the
        bounded-RSS ingestion path in :mod:`repro.core.io` exists to
        avoid.  Only for arrays whose provenance guarantees codes in
        {0, 1, 2} (e.g. a validated on-disk container).
        """
        vec = object.__new__(cls)
        vec.data = data
        return vec

    @classmethod
    def zeros(cls, n: int) -> "TernaryVector":
        """A vector of ``n`` specified zeros."""
        return cls(np.full(n, ZERO, dtype=np.uint8))

    @classmethod
    def ones(cls, n: int) -> "TernaryVector":
        """A vector of ``n`` specified ones."""
        return cls(np.full(n, ONE, dtype=np.uint8))

    @classmethod
    def xs(cls, n: int) -> "TernaryVector":
        """A vector of ``n`` don't-cares."""
        return cls(np.full(n, X, dtype=np.uint8))

    @classmethod
    def from_string(cls, text: str) -> "TernaryVector":
        """Parse a string such as ``"01XX10"`` (``-`` and ``?`` also mean X)."""
        cleaned = "".join(text.split())
        return cls(cleaned)

    @classmethod
    def concat(cls, parts: Iterable["TernaryVector"]) -> "TernaryVector":
        """Concatenate vectors into a new vector."""
        arrays = [p.data for p in parts]
        if not arrays:
            return cls(np.empty(0, dtype=np.uint8))
        return cls(np.concatenate(arrays))

    # ------------------------------------------------------------------
    # container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.data.size)

    def __iter__(self) -> Iterator[int]:
        return iter(int(v) for v in self.data)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return TernaryVector(self.data[index])
        return int(self.data[index])

    def __eq__(self, other) -> bool:
        if not isinstance(other, TernaryVector):
            return NotImplemented
        return bool(np.array_equal(self.data, other.data))

    def __hash__(self) -> int:
        return hash(self.data.tobytes())

    def __repr__(self) -> str:
        body = self.to_string() if len(self) <= 64 else self.to_string()[:61] + "..."
        return f"TernaryVector({body!r})"

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def to_string(self) -> str:
        """Render as a ``0``/``1``/``X`` string."""
        return _RENDER[self.data].tobytes().decode("ascii")

    def count(self, value: BitLike) -> int:
        """Count occurrences of a ternary value."""
        return int(np.count_nonzero(self.data == _coerce_value(value)))

    @property
    def num_x(self) -> int:
        """Number of don't-care positions."""
        return self.count(X)

    @property
    def num_specified(self) -> int:
        """Number of specified (0 or 1) positions."""
        return len(self) - self.num_x

    @property
    def x_density(self) -> float:
        """Fraction of positions that are don't-cares (0.0 for empty)."""
        return self.num_x / len(self) if len(self) else 0.0

    def is_fully_specified(self) -> bool:
        """True when the vector contains no X."""
        return self.num_x == 0

    def is_zero_compatible(self) -> bool:
        """True when every bit is 0 or X (the half could be expanded to 0s)."""
        return not bool(np.any(self.data == ONE))

    def is_one_compatible(self) -> bool:
        """True when every bit is 1 or X."""
        return not bool(np.any(self.data == ZERO))

    def is_mismatch(self) -> bool:
        """True when the vector contains both a specified 0 and a specified 1."""
        return not self.is_zero_compatible() and not self.is_one_compatible()

    def covers(self, other: "TernaryVector") -> bool:
        """True when *self* is a legal refinement/equal of *other*.

        Every specified bit of ``other`` must be identical in ``self``;
        positions that are X in ``other`` are unconstrained.  This is the
        round-trip invariant of every lossy-on-X compression code.
        """
        if len(self) != len(other):
            return False
        specified = other.data != X
        return bool(np.array_equal(self.data[specified], other.data[specified]))

    def compatible(self, other: "TernaryVector") -> bool:
        """True when no position has conflicting specified values.

        Two compatible cubes can be merged into one (used by static test
        compaction).
        """
        if len(self) != len(other):
            return False
        both = (self.data != X) & (other.data != X)
        return bool(np.array_equal(self.data[both], other.data[both]))

    # ------------------------------------------------------------------
    # transformations (all return new vectors)
    # ------------------------------------------------------------------
    def merge(self, other: "TernaryVector") -> "TernaryVector":
        """Intersection of two compatible cubes (specified bits union)."""
        if not self.compatible(other):
            raise ValueError("cannot merge incompatible cubes")
        out = self.data.copy()
        take = (out == X) & (other.data != X)
        out[take] = other.data[take]
        return TernaryVector(out)

    def filled(self, value: BitLike) -> "TernaryVector":
        """Replace every X with a constant 0 or 1."""
        value = _coerce_value(value)
        if value == X:
            raise ValueError("fill value must be 0 or 1")
        out = self.data.copy()
        out[out == X] = value
        return TernaryVector(out)

    def filled_random(self, rng: np.random.Generator) -> "TernaryVector":
        """Replace every X with a random bit drawn from ``rng``."""
        out = self.data.copy()
        mask = out == X
        out[mask] = rng.integers(0, 2, size=int(mask.sum()), dtype=np.uint8)
        return TernaryVector(out)

    def with_slice(self, start: int, replacement: "TernaryVector") -> "TernaryVector":
        """Return a copy with ``replacement`` written at ``start``."""
        out = self.data.copy()
        out[start : start + len(replacement)] = replacement.data
        return TernaryVector(out)

    def padded(self, length: int, value: BitLike = X) -> "TernaryVector":
        """Pad on the right with ``value`` up to ``length``."""
        if length < len(self):
            raise ValueError("pad length shorter than vector")
        value = _coerce_value(value)
        out = np.full(length, value, dtype=np.uint8)
        out[: len(self)] = self.data
        return TernaryVector(out)

    def blocks(self, k: int) -> Iterator["TernaryVector"]:
        """Yield consecutive ``k``-bit blocks (the last may be short)."""
        if k <= 0:
            raise ValueError("block size must be positive")
        for start in range(0, len(self), k):
            yield self[start : start + k]

    def copy(self) -> "TernaryVector":
        """Deep copy."""
        return TernaryVector(self.data.copy())

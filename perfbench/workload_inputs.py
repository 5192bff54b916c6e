"""Seeded test-set inputs for the benchmark, independent of the program.

The generator is the two-state Markov surrogate the program's own
``repro.testdata.mintest`` uses (specified / don't-care runs with
geometric lengths, value persistence and a zero bias), re-implemented
here with the profile constants copied in, so that a change to the
program can never change the benchmark's inputs.  Files are written in
the program's text test-set format by this module, not by the program.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import List

import numpy as np

ZERO, ONE, X = 0, 1, 2
_CHARS = np.frombuffer(b"01X", dtype=np.uint8)


@dataclass(frozen=True)
class Profile:
    """Dimensions and structure of one surrogate test set."""

    name: str
    cells: int
    patterns: int
    x_density: float
    zero_bias: float
    mean_specified_run: float = 2.0
    value_persistence: float = 0.35

    @property
    def bits(self) -> int:
        return self.cells * self.patterns


#: The six ISCAS'89 MinTest surrogates (paper Tables II-VI).
ISCAS89 = (
    Profile("s5378", 214, 111, 0.7264, 0.62),
    Profile("s9234", 247, 159, 0.7333, 0.60),
    Profile("s13207", 700, 236, 0.9316, 0.64),
    Profile("s15850", 611, 126, 0.8361, 0.62),
    Profile("s38417", 1664, 99, 0.6808, 0.58),
    Profile("s38584", 1464, 136, 0.8234, 0.62),
)

#: The IBM ckt1 surrogate (paper Table VIII): 6.0 Mbit at 98.5 % X.
CKT1 = Profile("ckt1", 7600, 790, 0.985, 0.80, mean_specified_run=3.0)


def _runs(rng: np.random.Generator, mean: float, total: int) -> np.ndarray:
    p = 1.0 / max(mean, 1.000001)
    chunks, covered = [], 0
    while covered < total:
        runs = rng.geometric(p, size=max(16, int(total / mean) + 16))
        chunks.append(runs)
        covered += int(runs.sum())
    return np.concatenate(chunks)


def generate(profile: Profile, seed: int, stream: int) -> np.ndarray:
    """The ternary stream (uint8 codes 0/1/2) of one profile and seed."""
    rng = np.random.default_rng([seed, stream])
    total = profile.bits
    frac = 1.0 - profile.x_density
    mean_x = profile.mean_specified_run * profile.x_density / frac
    spec = _runs(rng, profile.mean_specified_run, total)
    xs = _runs(rng, mean_x, total)
    n = min(len(spec), len(xs))
    start_x = rng.random() < profile.x_density
    pairs = np.empty(2 * n, dtype=np.int64)
    state = np.empty(2 * n, dtype=bool)  # True = specified run
    first, second = (xs[:n], spec[:n]) if start_x else (spec[:n], xs[:n])
    pairs[0::2], pairs[1::2] = first, second
    state[0::2], state[1::2] = (not start_x), start_x
    specified = np.repeat(state, pairs)[:total]
    count = int(specified.sum())
    # value persistence within and across bursts; a redraw is 0 with
    # probability zero_bias
    redraw = rng.random(count) >= profile.value_persistence
    redraw[:1] = True
    draws = np.where(rng.random(count) < profile.zero_bias, ZERO, ONE)
    last = np.maximum.accumulate(np.where(redraw, np.arange(count), 0))
    data = np.full(total, X, dtype=np.uint8)
    data[specified] = draws[last]
    return data


def render_rows(data: np.ndarray, cells: int) -> List[str]:
    text = _CHARS[data].tobytes().decode("ascii")
    return [text[i:i + cells] for i in range(0, len(text), cells)]


def write_test_set(path: Path, data: np.ndarray, cells: int, name: str) -> str:
    """Write the program's text test-set format; return its sha256."""
    rows = render_rows(data, cells)
    body = (f"# repro test set: cells={cells} patterns={len(rows)} "
            f"name={name}\n" + "\n".join(rows) + "\n").encode("ascii")
    path.write_bytes(body)
    return hashlib.sha256(body).hexdigest()


def parse_codes(text: str) -> np.ndarray:
    """Ternary codes of a ``0/1/X`` string (the checker's own parser)."""
    raw = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    codes = np.full(len(raw), 255, dtype=np.uint8)
    codes[raw == ord("0")] = ZERO
    codes[raw == ord("1")] = ONE
    codes[raw == ord("X")] = X
    return codes


def read_rows(path: Path) -> List[str]:
    """Pattern rows of a text test-set file written by the program."""
    rows = (line.strip() for line in path.read_text().splitlines())
    return [row for row in rows if row and not row.startswith("#")]


def covers(decoded: np.ndarray, original: np.ndarray) -> bool:
    """The 9C round-trip contract: every specified bit is reproduced."""
    if decoded.shape != original.shape:
        return False
    care = original != X
    return bool(np.array_equal(decoded[care], original[care]))

"""The bit-identical differential proof for sharded encode/decode.

The sharded codec's contract is not "approximately the same output
faster" — it is *exact* equality with the single-core oracle on every
observable: the compressed stream symbol-for-symbol, every block
record's (index, case, stream_offset), the case-count table, the
decoded output, recovery diagnostics, and — when a stream is corrupt —
the raised error's type, message, bit offset and block index.  This
module runs that comparison as data: a grid of (target, K, workers)
combinations, each yielding a :class:`ProofCase` whose ``failures``
list is empty iff the contract held.

Used three ways: the differential test suite asserts ``report.ok``,
the ``parallel-smoke`` CI job runs it against s9234, and
``benchmarks/bench_parallel.py`` reports it alongside the speedups.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..core.bitvec import X, TernaryVector
from ..core.decoder import NineCDecoder
from ..core.encoder import NineCEncoder
from ..core.errors import StreamError
from .decoder import ShardedDecoder
from .encoder import parallel_encode

#: The issue's default differential grid.
DEFAULT_WORKER_COUNTS = (1, 2, 3, 7)
DEFAULT_KS = (4, 8, 16)


@dataclass(frozen=True)
class ProofCase:
    """One (target, K, workers) comparison against the oracle."""

    target: str
    k: int
    workers: int
    bits: int
    failures: Tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass
class ProofReport:
    """The full differential grid."""

    executor: str
    cases: List[ProofCase] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(case.ok for case in self.cases)

    def summary(self) -> str:
        """One line per failed case, or a one-line pass banner."""
        failed = [case for case in self.cases if not case.ok]
        if not failed:
            return (
                f"differential proof OK: {len(self.cases)} cases "
                f"bit-identical ({self.executor} executor)"
            )
        lines = [f"differential proof FAILED ({len(failed)} cases):"]
        for case in failed:
            lines.append(
                f"  {case.target} K={case.k} workers={case.workers}: "
                + "; ".join(case.failures)
            )
        return "\n".join(lines)


def load_target_stream(target: str) -> TernaryVector:
    """Resolve a target name to its test stream.

    Benchmark profiles (``repro.testdata.mintest``) are preferred —
    they cover the ISCAS'89 suite at realistic sizes without running
    ATPG — falling back to ATPG over the gate-level circuit library.
    """
    from ..testdata import mintest

    if target in mintest.ALL_PROFILES:
        return mintest.load_benchmark(target).to_stream()
    from ..atpg.flow import generate_test_cubes
    from ..circuits.library import load_circuit

    return generate_test_cubes(load_circuit(target)).test_set.to_stream()


def _error_signature(exc: StreamError) -> tuple:
    return (type(exc).__name__, str(exc), exc.bit_offset, exc.block_index)


def _corrupt(stream: TernaryVector, offset: int) -> TernaryVector:
    """Plant an X inside the stream at ``offset`` (desync trigger)."""
    data = stream.data.copy()
    data[offset] = X
    return TernaryVector(data)


def compare_case(
    data: TernaryVector,
    k: int,
    workers: int,
    *,
    executor: str = "serial",
    target: str = "?",
    check_errors: bool = True,
) -> ProofCase:
    """Run every differential check for one (data, K, workers) combo."""
    failures: List[str] = []
    oracle_enc = NineCEncoder(k)
    oracle_dec = NineCDecoder(k)
    decoder = ShardedDecoder(k, workers=workers, executor=executor)

    expected = oracle_enc.encode(data)
    sharded = parallel_encode(data, k, workers=workers, executor=executor)
    if sharded.stream != expected.stream:
        failures.append("encoded stream differs")
    if sharded.blocks != expected.blocks:
        failures.append("block records differ")
    if sharded.case_counts != expected.case_counts:
        failures.append("case counts differ")
    if sharded.original_length != expected.original_length:
        failures.append("original_length differs")

    want = oracle_dec.decode(expected)
    if decoder.decode_stream(
        expected.stream, expected.original_length
    ) != want:
        failures.append("scanned decode output differs")
    if _diag_fields(decoder.last_diagnostics) != _diag_fields(
        oracle_dec.last_diagnostics
    ):
        failures.append("decode diagnostics differ")

    if check_errors and len(expected.stream) and len(expected.blocks) > 2:
        failures.extend(
            _compare_error_parity(expected, oracle_dec, decoder)
        )

    return ProofCase(
        target=target, k=k, workers=workers, bits=len(data),
        failures=tuple(failures),
    )


def _diag_fields(diag) -> Optional[tuple]:
    if diag is None:
        return None
    return (
        diag.blocks_decoded, diag.blocks_lost,
        [_error_signature(e) for e in diag.errors],
        diag.first_error_offset,
    )


def _compare_error_parity(expected, oracle_dec: NineCDecoder,
                          decoder: ShardedDecoder) -> List[str]:
    """Corrupt the stream two ways; errors must match exactly."""
    failures: List[str] = []
    middle = expected.blocks[len(expected.blocks) // 2]
    broken = (
        # an X planted inside a mid-stream codeword desyncs the scan
        ("desync", _corrupt(expected.stream, middle.stream_offset)),
        # a truncated tail must raise the same TruncatedStreamError
        ("truncation", TernaryVector(expected.stream.data[:-1].copy())),
    )
    for label, stream in broken:
        single = _caught(
            oracle_dec.decode_stream, stream, expected.original_length
        )
        sharded = _caught(
            decoder.decode_stream, stream, expected.original_length
        )
        if sharded != single:
            failures.append(
                f"{label} error parity: {sharded} != {single}"
            )
    return failures


def _caught(fn, *args):
    """The error signature ``fn`` raises, or ``("none",)`` if it returns."""
    try:
        fn(*args)
    except StreamError as exc:
        return _error_signature(exc)
    return ("none",)


def differential_proof(
    targets: Sequence[str] = ("s27",),
    ks: Sequence[int] = DEFAULT_KS,
    worker_counts: Sequence[int] = DEFAULT_WORKER_COUNTS,
    *,
    executor: str = "serial",
    check_errors: bool = True,
) -> ProofReport:
    """Run the full (target × K × workers) differential grid."""
    report = ProofReport(executor=executor)
    for target in targets:
        data = load_target_stream(target)
        for k in ks:
            for workers in worker_counts:
                report.cases.append(
                    compare_case(
                        data, k, workers, executor=executor,
                        target=target, check_errors=check_errors,
                    )
                )
    return report

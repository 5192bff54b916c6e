"""Perf-baseline harness: run named pipeline scenarios, emit JSON.

Each scenario exercises one slice of the paper pipeline with
instrumentation enabled and produces a baseline record::

    {"wall_s": ..., "bits": ..., "bits_per_s": ...,
     "spans": {<span tree>}, "metrics": {<registry snapshot>},
     "extra": {scenario-specific facts}}

The six scenarios:

``compress``
    9C-encode the target's test data (vectorized fast path).
``decompress``
    Software-decode the compressed stream back to test data
    (``decode_fast=False`` reroutes it through the per-bit reference).
``decode``
    The decode fast path proper: one instrumented fast decode, plus an
    uninstrumented fast-vs-``decode_reference`` timing comparison in
    ``extra`` (``vectorized_wall_s`` / ``reference_wall_s`` /
    ``speedup`` / ``identical_output``) — the decode twin of the
    top-level ``encode_fastpath`` record.
``session``
    Full :class:`~repro.system.TestSession` flow on a netlist —
    ATPG cubes, encode, cycle-accurate decompression, fill, fault-free
    device simulation, MISR signature.
``resilience``
    A small framed channel-fault campaign on the same netlist.
``compaction``
    An X-density × compactor detection-loss sweep
    (:func:`repro.compaction.run_sweep`) on the same netlist.

The target may be a benchmark profile name (``s9234`` — scenarios that
need a gate-level netlist then run on a small surrogate circuit,
recorded as ``session_circuit``) or an embedded circuit name (``s27``
— test data then comes from its own ATPG cubes).

Everything except wall-clock fields is deterministic: seeds are fixed,
registries are reset per scenario, and JSON is dumped with sorted keys,
so two runs of the same profile differ only in ``wall_s``-like fields.
:data:`VOLATILE_KEYS` names exactly those fields; tests and tooling
scrub them before comparing.  ``python -m repro.cli profile`` writes
the committed repo baseline ``BENCH_obs.json``.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from . import _state
from . import get_registry, get_tracer, reset as reset_obs

#: Baseline file the harness writes and CI validates/uploads.
DEFAULT_BASELINE_PATH = "BENCH_obs.json"

#: Scenario names in run order.
SCENARIOS: Tuple[str, ...] = (
    "compress", "decompress", "decode", "session", "resilience",
    "compaction",
)

#: Bump when the baseline layout changes shape.
SCHEMA_VERSION = 1

#: Netlist used by session/resilience when the target is a test-set-only
#: benchmark profile (no embedded gate-level netlist exists for it).
DEFAULT_SESSION_CIRCUIT = "g64"

#: Keys whose values are timing-dependent; everything else in a baseline
#: must be bit-identical between two runs of the same profile.  The
#: trailing group belongs to the ``BENCH_trajectory.json`` entries the
#: regression gate appends (:mod:`repro.obs.regress`), which share this
#: scrubbing discipline.
VOLATILE_KEYS = frozenset(
    {"wall_s", "bits_per_s", "reference_wall_s", "vectorized_wall_s",
     "speedup", "baseline_wall_s", "fresh_wall_s", "ratio", "timestamp"}
)


@dataclass
class ScenarioBaseline:
    """One scenario's measured baseline."""

    name: str
    wall_s: float
    bits: int
    metrics: dict
    spans: dict
    extra: dict = field(default_factory=dict)

    @property
    def bits_per_s(self) -> float:
        """Throughput of the scenario's primary bit stream."""
        return self.bits / self.wall_s if self.wall_s > 0 else 0.0

    def to_dict(self) -> dict:
        return {
            "wall_s": self.wall_s,
            "bits": self.bits,
            "bits_per_s": self.bits_per_s,
            "spans": self.spans,
            "metrics": self.metrics,
            "extra": self.extra,
        }


@dataclass
class ProfileReport:
    """A full profile run: per-scenario baselines plus environment."""

    target: str
    k: int
    session_circuit: str
    scenarios: Dict[str, ScenarioBaseline] = field(default_factory=dict)
    encode_fastpath: Optional[dict] = None

    def to_dict(self) -> dict:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "target": self.target,
            "k": self.k,
            "session_circuit": self.session_circuit,
            "environment": {
                "python": platform.python_version(),
                "implementation": platform.python_implementation(),
            },
            "scenarios": {
                name: scenario.to_dict()
                for name, scenario in self.scenarios.items()
            },
        }
        if self.encode_fastpath is not None:
            payload["encode_fastpath"] = self.encode_fastpath
        return payload

    def dumps(self) -> str:
        """Stable JSON rendering (sorted keys, trailing newline)."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def write(self, path: Union[str, Path] = DEFAULT_BASELINE_PATH) -> Path:
        """Write the baseline file and return its path."""
        target = Path(path)
        target.write_text(self.dumps())
        return target


def _measure(bits: int, fn: Callable[[], object],
             **extra) -> Tuple[object, ScenarioBaseline]:
    """Run ``fn`` instrumented; snapshot metrics + spans afterwards."""
    reset_obs()
    start = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - start
    baseline = ScenarioBaseline(
        name="",
        wall_s=wall,
        bits=bits,
        metrics=get_registry().snapshot(),
        spans=get_tracer().tree(),
        extra=dict(extra),
    )
    return result, baseline


def run_profile(
    target: str = "s27",
    k: int = 8,
    scenarios: Sequence[str] = SCENARIOS,
    *,
    session_circuit: Optional[str] = None,
    resilience_trials: int = 5,
    resilience_error_rate: float = 1e-3,
    fastpath_compare: bool = True,
    fastpath_repeats: int = 3,
    decode_fast: bool = True,
    seed: int = 0,
) -> ProfileReport:
    """Profile the pipeline on ``target`` and return the baselines.

    Instrumentation is force-enabled for the duration and restored
    afterwards; the shared registry/tracer are reset per scenario so
    each baseline's metrics describe that scenario alone.
    """
    from ..circuits.library import available_circuits, load_circuit
    from ..core.decoder import NineCDecoder
    from ..core.encoder import NineCEncoder
    from ..robust.campaign import run_campaign
    from ..system import TestSession
    from ..testdata.mintest import ALL_PROFILES, load_benchmark

    unknown = [name for name in scenarios if name not in SCENARIOS]
    if unknown:
        raise ValueError(
            f"unknown scenarios {unknown}; choose from {list(SCENARIOS)}"
        )

    if target in ALL_PROFILES:
        data = load_benchmark(target).to_stream()
        circuit_name = session_circuit or DEFAULT_SESSION_CIRCUIT
    elif target in available_circuits():
        circuit_name = session_circuit or target
        data = None  # derived from the circuit's own ATPG cubes below
    else:
        raise ValueError(
            f"unknown profile target {target!r}; choose a benchmark "
            f"profile ({sorted(ALL_PROFILES)}) or an embedded circuit "
            f"({available_circuits()})"
        )

    needs_netlist = bool(
        {"session", "resilience", "compaction"} & set(scenarios)
    )
    netlist = (load_circuit(circuit_name)
               if needs_netlist or data is None else None)
    if data is None:
        from ..atpg.flow import generate_test_cubes

        data = generate_test_cubes(netlist).test_set.to_stream()

    report = ProfileReport(target=target, k=k, session_circuit=circuit_name)
    encoder = NineCEncoder(k)
    encoding = None

    previous = _state.set_enabled(True)
    try:
        if "compress" in scenarios:
            encoding, baseline = _measure(
                len(data), lambda: encoder.encode(data)
            )
            baseline.name = "compress"
            baseline.extra.update(
                te_bits=encoding.compressed_size,
                cr_percent=encoding.compression_ratio,
                blocks=len(encoding.blocks),
            )
            report.scenarios["compress"] = baseline

        if "decompress" in scenarios:
            if encoding is None:
                encoding = encoder.encode(data)
            decoder = NineCDecoder(k)
            decoded, baseline = _measure(
                encoding.original_length,
                lambda: decoder.decode_stream(
                    encoding.stream, encoding.original_length,
                    fast=decode_fast,
                ),
            )
            baseline.name = "decompress"
            baseline.extra.update(
                te_bits=encoding.compressed_size,
                blocks=len(encoding.blocks),
                fast=decode_fast,
            )
            report.scenarios["decompress"] = baseline

        if "decode" in scenarios:
            if encoding is None:
                encoding = encoder.encode(data)
            decoder = NineCDecoder(k)
            _, baseline = _measure(
                encoding.original_length,
                lambda: decoder.decode_stream(
                    encoding.stream, encoding.original_length
                ),
            )
            baseline.name = "decode"
            baseline.extra.update(
                te_bits=encoding.compressed_size,
                blocks=len(encoding.blocks),
                **_compare_decode_fastpath(
                    decoder, encoding, repeats=fastpath_repeats
                ),
            )
            report.scenarios["decode"] = baseline

        if "session" in scenarios:
            def _session():
                session = TestSession(netlist, k=k, seed=seed)
                session.prepare()
                return session, session.run()

            (session, verdict), baseline = _measure(0, _session)
            baseline.bits = session.encoding.original_length
            baseline.name = "session"
            baseline.extra.update(
                circuit=circuit_name,
                patterns=verdict.patterns_applied,
                cr_percent=verdict.compression_ratio,
                soc_cycles=verdict.soc_cycles,
                ate_cycles=verdict.ate_cycles,
            )
            report.scenarios["session"] = baseline

        if "resilience" in scenarios:
            result, baseline = _measure(
                0,
                lambda: run_campaign(
                    netlist,
                    k=k,
                    error_rates=(resilience_error_rate,),
                    trials=resilience_trials,
                    seed=seed,
                    circuit_name=circuit_name,
                ),
            )
            baseline.bits = result.stream_bits * resilience_trials
            baseline.name = "resilience"
            baseline.extra.update(
                circuit=circuit_name,
                trials=resilience_trials,
                error_rate=resilience_error_rate,
                detection_rate=result.overall_detection_rate,
                silent_escape_rate=result.overall_silent_escape_rate,
            )
            report.scenarios["resilience"] = baseline

        if "compaction" in scenarios:
            from ..compaction import run_sweep

            sweep, baseline = _measure(
                0,
                lambda: run_sweep(
                    netlist,
                    densities=(0.0, 0.05),
                    max_faults=16,
                    seed=seed,
                    circuit_name=circuit_name,
                ),
            )
            baseline.bits = (sweep.num_patterns * sweep.num_outputs
                             * len(sweep.densities))
            baseline.name = "compaction"
            baseline.extra.update(
                circuit=circuit_name,
                densities=sweep.densities,
                sample_size=sweep.baseline_detected,
                detection_rates={
                    name: {
                        str(density): sweep.point(density, name).detection_rate
                        for density in sweep.densities
                    }
                    for name in sweep.compactors
                },
                output_pins={
                    name: sweep.points[
                        [p.compactor for p in sweep.points].index(name)
                    ].output_pins
                    for name in sweep.compactors
                },
            )
            report.scenarios["compaction"] = baseline
    finally:
        _state.set_enabled(previous)
        reset_obs()

    if fastpath_compare and "compress" in scenarios:
        report.encode_fastpath = _compare_fastpath(
            encoder, data, repeats=fastpath_repeats
        )
    return report


def _compare_fastpath(encoder, data, repeats: int = 3) -> dict:
    """Fast-path vs reference-path encode timing (instrumentation off)."""
    previous = _state.set_enabled(False)
    try:
        fast = min(_time_once(encoder.encode, data) for _ in range(repeats))
        reference = min(
            _time_once(encoder.encode_reference, data) for _ in range(repeats)
        )
    finally:
        _state.set_enabled(previous)
    identical = (
        encoder.encode(data).stream.to_string()
        == encoder.encode_reference(data).stream.to_string()
    )
    return {
        "bits": len(data),
        "vectorized_wall_s": fast,
        "reference_wall_s": reference,
        "speedup": reference / fast if fast > 0 else 0.0,
        "identical_output": identical,
    }


def _compare_decode_fastpath(decoder, encoding, repeats: int = 3) -> dict:
    """Fast-path vs reference-path decode timing (instrumentation off).

    Beyond timing, re-asserts the fast path's contract on this stream:
    bit-identical output *and* matching :class:`DecodeDiagnostics`.
    """
    def _fast(_):
        return decoder.decode_stream(encoding.stream,
                                     encoding.original_length)

    def _reference(_):
        return decoder.decode_reference(encoding.stream,
                                        encoding.original_length)

    previous = _state.set_enabled(False)
    try:
        fast = min(_time_once(_fast, None) for _ in range(repeats))
        reference = min(_time_once(_reference, None) for _ in range(repeats))
        fast_out = _fast(None)
        fast_diag = decoder.last_diagnostics
        reference_out = _reference(None)
        reference_diag = decoder.last_diagnostics
    finally:
        _state.set_enabled(previous)
    identical = (
        fast_out == reference_out
        and fast_diag.blocks_decoded == reference_diag.blocks_decoded
        and fast_diag.blocks_lost == reference_diag.blocks_lost
    )
    return {
        "bits": encoding.original_length,
        "vectorized_wall_s": fast,
        "reference_wall_s": reference,
        "speedup": reference / fast if fast > 0 else 0.0,
        "identical_output": identical,
    }


def _time_once(fn, data) -> float:
    start = time.perf_counter()
    fn(data)
    return time.perf_counter() - start


# ----------------------------------------------------------------------
# baseline I/O + schema validation (shared by the CLI and CI smoke job)
# ----------------------------------------------------------------------
def load_baseline(path: Union[str, Path] = DEFAULT_BASELINE_PATH) -> dict:
    """Read a baseline file written by :meth:`ProfileReport.write`."""
    return json.loads(Path(path).read_text())


def validate_baseline(payload: dict,
                      required_scenarios: Sequence[str] = ()) -> List[str]:
    """Schema-check a baseline dict; returns a list of problems.

    An empty list means the payload is a valid ``BENCH_obs.json``.
    Used by the CI ``profile-smoke`` step and by ``repro.cli stats``.
    """
    problems: List[str] = []
    for key in ("schema_version", "target", "k", "scenarios"):
        if key not in payload:
            problems.append(f"missing top-level key {key!r}")
    if problems:
        return problems
    if payload["schema_version"] != SCHEMA_VERSION:
        problems.append(
            f"schema_version {payload['schema_version']} != {SCHEMA_VERSION}"
        )
    scenarios = payload["scenarios"]
    if not isinstance(scenarios, dict) or not scenarios:
        return problems + ["'scenarios' must be a non-empty object"]
    for name in required_scenarios:
        if name not in scenarios:
            problems.append(f"missing required scenario {name!r}")
    for name, record in scenarios.items():
        for key in ("wall_s", "bits", "bits_per_s", "spans", "metrics"):
            if key not in record:
                problems.append(f"scenario {name!r}: missing key {key!r}")
                continue
        metrics = record.get("metrics")
        if isinstance(metrics, dict):
            for section in ("counters", "gauges", "histograms"):
                if section not in metrics:
                    problems.append(
                        f"scenario {name!r}: metrics missing {section!r}"
                    )
        spans = record.get("spans")
        if spans is not None and not isinstance(spans, dict):
            problems.append(f"scenario {name!r}: spans must be an object")
    return problems


def scrub_volatile(payload):
    """Recursively zero the timing-dependent fields of a baseline.

    Two runs of the same profile must be equal after scrubbing; the
    determinism test in ``tests/test_obs.py`` pins this down.
    """
    if isinstance(payload, dict):
        return {
            key: (0 if key in VOLATILE_KEYS else scrub_volatile(value))
            for key, value in payload.items()
        }
    if isinstance(payload, list):
        return [scrub_volatile(item) for item in payload]
    return payload


def main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro.obs.profile`` — minimal standalone entry."""
    import argparse

    parser = argparse.ArgumentParser(
        description="write a pipeline perf baseline to BENCH_obs.json"
    )
    parser.add_argument("--circuit", default="s27")
    parser.add_argument("--k", type=int, default=8)
    parser.add_argument("-o", "--output", default=DEFAULT_BASELINE_PATH)
    args = parser.parse_args(argv)
    report = run_profile(args.circuit, k=args.k)
    path = report.write(args.output)
    print(f"baseline written: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

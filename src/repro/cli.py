"""Command-line interface: ``repro-9c``.

Subcommands mirror the paper's artifacts:

* ``coding-table`` — print Table I for a chosen K;
* ``compress`` / ``decompress`` — run 9C on a test-set file;
* ``sweep`` — CR%/LX% across block sizes (Tables II/III row);
* ``compare`` — 9C vs the baseline codes (Table IV row);
* ``tat`` — test-application-time analysis (Table V row);
* ``atpg`` — generate test cubes for an embedded circuit and
  optionally compress them end-to-end;
* ``resilience`` — channel-fault injection campaign: detection rate vs
  silent-escape rate on the single-pin ATE link (docs/resilience.md);
* ``compact`` — X-tolerant response-compaction sweep: detection loss
  across X density for every compactor, plus exhaustive X-code
  property verification (docs/compaction.md);
* ``profile`` — run the perf-baseline scenarios and write
  ``BENCH_obs.json`` (docs/observability.md);
* ``stats`` — pretty-print the metrics snapshot of a committed baseline;
* ``lint`` — static verification of netlists, the decoder FSM, emitted
  RTL, and the Python codebase itself (docs/lint.md);
* ``serve`` / ``loadgen`` — the fault-tolerant compression service and
  its closed-loop load generator (docs/serving.md);
* ``trace`` — run traced requests and export merged per-request span
  trees as Chrome trace-event JSON (docs/observability.md);
* ``regress`` — noise-aware perf gate: fresh profile runs compared
  against a committed ``BENCH_*.json`` baseline, appending to
  ``BENCH_trajectory.json``; nonzero exit on regression.

Every analysis subcommand accepts ``--json`` for machine-readable
output; all of them emit through the shared :func:`emit_json` helper
(stable key order, two-space indent).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .analysis.report import Table
from .analysis.tat import sweep_p
from .codes import table4_codes
from .core.codewords import coding_table
from .core.decoder import NineCDecoder
from .core.encoder import NineCEncoder
from .core.metrics import sweep_block_sizes
from .compaction.compactor import COMPACTOR_KINDS
from .robust.channel import CHANNEL_KINDS
from .robust.framing import DEFAULT_BLOCKS_PER_FRAME
from .testdata.mintest import ALL_PROFILES, TABLE2_BLOCK_SIZES, load_benchmark
from .testdata.testset import TestSet


def _load_data(args) -> TestSet:
    if getattr(args, "benchmark", None):
        return load_benchmark(args.benchmark)
    if getattr(args, "input", None):
        return TestSet.load(args.input)
    raise SystemExit("provide --benchmark or an input file")


def emit_json(payload: dict) -> int:
    """Print one machine-readable result; shared by every ``--json`` path.

    Keys are sorted so output is diff-stable across runs and Python
    versions.
    """
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def cmd_coding_table(args) -> int:
    table = Table(
        ["case", "input block", "symbol", "codeword", "decoder input",
         "size (bits)"],
        title=f"9C coding for K={args.k} (paper Table I)",
    )
    for row in coding_table(args.k):
        table.add_row(row.case.name, row.input_block, row.symbol,
                      row.codeword, row.decoder_input, row.size_bits)
    print(table.render())
    return 0


def _check_workers(args) -> None:
    if args.workers < 1:
        raise SystemExit(
            f"{args.command}: --workers must be >= 1, got {args.workers}"
        )


def cmd_compress(args) -> int:
    _check_workers(args)
    from .parallel import parallel_encode

    test_set = _load_data(args)
    encoding = parallel_encode(
        test_set.to_stream(), args.k, workers=args.workers
    )
    if args.output:
        TestSet([encoding.stream], name="compressed").save(args.output)
    if args.json:
        return emit_json({
            "name": test_set.name or args.input,
            "k": args.k,
            "td_bits": encoding.original_length,
            "te_bits": encoding.compressed_size,
            "cr_percent": encoding.compression_ratio,
            "leftover_x": encoding.leftover_x,
            "leftover_x_percent": encoding.leftover_x_percent,
            "workers": args.workers,
            "output": args.output,
        })
    print(f"test set      : {test_set.name or args.input}")
    print(f"|T_D|         : {encoding.original_length} bits")
    print(f"|T_E|         : {encoding.compressed_size} bits")
    print(f"CR%           : {encoding.compression_ratio:.2f}")
    print(f"leftover X    : {encoding.leftover_x} "
          f"({encoding.leftover_x_percent:.2f}% of T_D)")
    if args.output:
        print(f"stream written: {args.output}")
    return 0


def cmd_decompress(args) -> int:
    _check_workers(args)
    stream_set = TestSet.load(args.input)
    stream = stream_set.to_stream()
    if args.reference:
        if args.workers > 1:
            raise SystemExit(
                "--workers requires the fast path (not --reference)"
            )
        decoded = NineCDecoder(args.k).decode_stream(
            stream, output_length=args.length, fast=False
        )
        path = "reference"
    else:
        from .parallel import parallel_decode

        decoded = parallel_decode(
            stream, args.k, output_length=args.length, workers=args.workers
        )
        path = "fast"
    out = TestSet.from_stream(decoded, args.cells, name="decompressed")
    out.save(args.output)
    print(f"decoded {len(decoded)} bits into {out.num_patterns} patterns "
          f"({path} path) -> {args.output}")
    return 0


def cmd_sweep(args) -> int:
    test_set = _load_data(args)
    data = test_set.to_stream()
    reports = sweep_block_sizes(data, TABLE2_BLOCK_SIZES)
    if args.json:
        return emit_json({
            "name": test_set.name,
            "td_bits": len(data),
            "sweep": {
                str(k): {
                    "cr_percent": report.compression_ratio,
                    "lx_percent": report.leftover_x_percent,
                    "te_bits": report.compressed_size,
                }
                for k, report in sorted(reports.items())
            },
        })
    table = Table(["K", "CR%", "LX%", "|T_E|"],
                  title=f"{test_set.name}: block-size sweep (Tables II/III)")
    for k, report in sorted(reports.items()):
        table.add_row(k, report.compression_ratio,
                      report.leftover_x_percent, report.compressed_size)
    print(table.render())
    return 0


def cmd_compare(args) -> int:
    test_set = _load_data(args)
    data = test_set.to_stream()
    results = {
        name: {"code": code.name, "cr_percent": code.compression_ratio(data)}
        for name, code in table4_codes(data).items()
    }
    if args.json:
        return emit_json({"name": test_set.name, "codes": results})
    table = Table(["code", "CR%"],
                  title=f"{test_set.name}: code comparison (Table IV)")
    for name, entry in results.items():
        table.add_row(f"{name} [{entry['code']}]", entry["cr_percent"])
    print(table.render())
    return 0


def cmd_tat(args) -> int:
    test_set = _load_data(args)
    data = test_set.to_stream()
    reports = sweep_p(data, args.k, ps=tuple(args.p))
    if args.json:
        return emit_json({
            "name": test_set.name,
            "k": args.k,
            "tat": {
                str(p): {"tat_percent": report.tat_percent,
                         "cr_percent": report.compression_ratio}
                for p, report in sorted(reports.items())
            },
        })
    table = Table(["p (f_scan/f_ate)", "TAT%", "CR%"],
                  title=f"{test_set.name}: TAT analysis at K={args.k} (Table V)")
    for p, report in sorted(reports.items()):
        table.add_row(p, report.tat_percent, report.compression_ratio)
    print(table.render())
    return 0


def cmd_atpg(args) -> int:
    from .atpg.flow import generate_test_cubes
    from .circuits.library import available_circuits, load_circuit

    if args.circuit not in available_circuits():
        raise SystemExit(
            f"unknown circuit {args.circuit!r}; available: "
            f"{', '.join(available_circuits())}"
        )
    circuit = load_circuit(args.circuit)
    result = generate_test_cubes(circuit, backtrack_limit=args.backtrack_limit)
    print(f"circuit        : {circuit!r}")
    print(f"collapsed fault: {result.statistics['collapsed_faults']}")
    print(f"fault coverage : {result.fault_coverage:.2f}%")
    print(f"test efficiency: {result.test_efficiency:.2f}%")
    print(f"patterns       : {len(result.test_set)} "
          f"(X density {result.test_set.x_density * 100:.1f}%)")
    if args.output:
        result.test_set.save(args.output)
        print(f"cubes written  : {args.output}")
    if args.k:
        encoding = NineCEncoder(args.k).encode(result.test_set.to_stream())
        print(f"9C @ K={args.k}     : CR {encoding.compression_ratio:.2f}%, "
              f"LX {encoding.leftover_x_percent:.2f}%")
    return 0


def cmd_freq(args) -> int:
    from .core.frequency import frequency_directed

    test_set = _load_data(args)
    data = test_set.to_stream()
    table = Table(["K", "CR% default", "CR% reassigned", "gain (pp)"],
                  precision=3,
                  title=f"{test_set.name}: frequency-directed re-assignment "
                        "(Table VII)")
    for k in (4, 8, 12, 16, 20, 24, 28, 32):
        result = frequency_directed(data, k)
        table.add_row(k, result.baseline.compression_ratio,
                      result.final.compression_ratio, result.improvement)
    print(table.render())
    return 0


def cmd_efficiency(args) -> int:
    from .analysis.entropy import coding_efficiency

    test_set = _load_data(args)
    report = coding_efficiency(test_set.to_stream(), args.k)
    print(f"test set            : {test_set.name or args.input}")
    print(f"blocks              : {report.blocks}")
    print(f"codeword bits       : {report.actual_codeword_bits}")
    print(f"huffman-optimal bits: {report.huffman_codeword_bits}")
    print(f"entropy bound bits  : {report.entropy_bound_bits:.1f}")
    print(f"efficiency (huffman): {report.efficiency_vs_huffman:.4f}")
    print(f"efficiency (entropy): {report.efficiency_vs_entropy:.4f}")
    return 0


def cmd_rtl(args) -> int:
    from pathlib import Path

    from .decompressor.verilog import (
        generate_decoder_verilog,
        generate_multiscan_verilog,
    )

    if args.structural:
        if args.chains > 1:
            raise SystemExit(
                "rtl: --structural emits the single-scan gate netlist "
                "(--chains must be 1)"
            )
        from .decompressor.gates import decoder_netlist
        from .rtl.emit import netlist_to_verilog

        rtl = netlist_to_verilog(decoder_netlist(args.k))
    elif args.chains > 1:
        rtl = generate_multiscan_verilog(args.k, args.chains)
    else:
        rtl = generate_decoder_verilog(args.k)
    if args.output:
        Path(args.output).write_text(rtl)
        print(f"RTL written: {args.output}")
    else:
        print(rtl)
    return 0


def cmd_import_rtl(args) -> int:
    from pathlib import Path

    from .lint.findings import Severity
    from .lint.runner import DECODER_NETLIST_WAIVERS
    from .rtl.elaborate import ElaborationError, elaborate
    from .rtl.parser import RTLParseError, parse_verilog

    as_json = args.format == "json"

    def operational_error(stage: str, message: str,
                          line: Optional[int] = None) -> int:
        if as_json:
            error: dict = {"command": "import-rtl", "stage": stage,
                           "message": message}
            if line is not None:
                error["line"] = line
            emit_json({"error": error})
            return 2
        where = f"{args.file}:{line}" if line is not None else args.file
        raise SystemExit(f"import-rtl: {stage}: {where}: {message}")

    try:
        text = Path(args.file).read_text()
    except OSError as exc:
        return operational_error("read", str(exc))
    try:
        design = parse_verilog(text)
    except RTLParseError as exc:
        return operational_error("parse", exc.reason, exc.line)
    try:
        elaboration = elaborate(design, top=args.top)
    except ElaborationError as exc:
        line = exc.loc.line if exc.loc is not None else None
        return operational_error("elaborate", str(exc), line)

    artifact = f"import:{elaboration.top}"
    payload: dict = {
        "file": args.file,
        "top": elaboration.top,
        "stats": elaboration.stats(),
        "clocks": list(elaboration.clocks),
        "implicit_nets": list(elaboration.implicit_nets),
    }
    failed = False

    if args.lint:
        from .lint.netlist import lint_netlist

        findings = lint_netlist(
            elaboration.raw, artifact=artifact,
            waive=DECODER_NETLIST_WAIVERS if args.waive_shifter else (),
        )
        error_count = sum(
            1 for f in findings if f.severity is Severity.ERROR
        )
        payload["lint"] = {
            "findings": [f.to_dict() for f in findings],
            "errors": error_count,
            "warnings": sum(
                1 for f in findings if f.severity is Severity.WARNING
            ),
        }
        failed = failed or error_count > 0
        if not as_json:
            for finding in findings:
                print(finding.render())

    if args.equiv:
        from .rtl.equiv import run_equiv

        try:
            netlist = elaboration.netlist()
        except ValueError as exc:
            return operational_error("netlist", str(exc))
        equiv_report = run_equiv(
            args.k, seed=args.seed, vectors=args.vectors,
            netlist=netlist,
        )
        payload["equiv"] = equiv_report.to_dict()
        failed = failed or not equiv_report.ok
        if not as_json:
            print(equiv_report.render())

    if as_json:
        emit_json(payload)
    else:
        stats = " ".join(f"{k}={v}" for k, v in payload["stats"].items())
        print(f"imported {elaboration.top} from {args.file}: {stats}")
    return 1 if failed else 0


def cmd_adaptive(args) -> int:
    from .core.adaptive import AdaptiveNineCEncoder

    test_set = _load_data(args)
    data = test_set.to_stream()
    codec = AdaptiveNineCEncoder(window_bits=args.window)
    encoding = codec.encode(data)
    fixed = {
        k: NineCEncoder(k).measure(data).compression_ratio
        for k in codec.menu
    }
    best_k = max(fixed, key=fixed.get)
    table = Table(["scheme", "CR%"],
                  title=f"{test_set.name}: adaptive-K vs fixed K "
                        f"(window {args.window} bits)")
    for k in codec.menu:
        table.add_row(f"fixed K={k}", fixed[k])
    table.add_row("adaptive", encoding.compression_ratio)
    print(table.render())
    from collections import Counter

    counts = Counter(encoding.window_ks)
    print("window choices:",
          ", ".join(f"K={k}: {n}" for k, n in sorted(counts.items())))
    print(f"best fixed: K={best_k} at {fixed[best_k]:.2f}%")
    return 0


def cmd_system(args) -> int:
    from .circuits.library import available_circuits, load_circuit
    from .system import TestSession

    if args.circuit not in available_circuits():
        raise SystemExit(
            f"unknown circuit {args.circuit!r}; available: "
            f"{', '.join(available_circuits())}"
        )
    circuit = load_circuit(args.circuit)
    session = TestSession(circuit, k=args.k, p=args.p,
                          misr_width=args.misr_width).prepare()
    golden = session.run()
    print(f"circuit          : {circuit!r}")
    print(f"patterns         : {golden.patterns_applied}")
    print(f"CR%              : {golden.compression_ratio:.2f}")
    print(f"SoC cycles       : {golden.soc_cycles}")
    print(f"golden signature : 0x{golden.signature:0{args.misr_width // 4}x}")
    sample = session.atpg_result.detected[: args.screen]
    if sample:
        results = session.screen(sample)
        caught = sum(results.values())
        print(f"defect screening : {caught}/{len(sample)} injected faults "
              f"caught by the signature")
    return 0


def cmd_resilience(args) -> int:
    from .analysis.resilience import resilience_table
    from .circuits.library import available_circuits, load_circuit
    from .robust import run_campaign

    if args.circuit not in available_circuits():
        raise SystemExit(
            f"unknown circuit {args.circuit!r}; available: "
            f"{', '.join(available_circuits())}"
        )
    circuit = load_circuit(args.circuit)
    try:
        report = run_campaign(
            circuit,
            k=args.k,
            error_rates=args.error_rate,
            trials=args.trials,
            framed=not args.no_framing,
            blocks_per_frame=args.blocks_per_frame,
            channel=args.channel,
            seed=args.seed,
            circuit_name=args.circuit,
        )
    except ValueError as exc:
        raise SystemExit(f"resilience: {exc}") from None
    if args.json:
        return emit_json(report.to_dict())
    print(resilience_table(report).render())
    print(f"stream length     : {report.stream_bits} bits "
          f"({'framed' if report.framed else 'raw'})")
    print(f"detection rate    : {report.overall_detection_rate * 100:.2f}% "
          "of corrupted streams caught (stream layer or signature)")
    print(f"silent escape rate: "
          f"{report.overall_silent_escape_rate * 100:.2f}% "
          "of corrupted streams still reported PASS")
    return 0


def cmd_compact(args) -> int:
    from .circuits.library import available_circuits, load_circuit
    from .compaction import (
        build_compactor,
        build_matrix,
        default_compactors,
        run_sweep,
        verify_x_code,
    )

    if args.circuit not in available_circuits():
        raise SystemExit(
            f"unknown circuit {args.circuit!r}; available: "
            f"{', '.join(available_circuits())}"
        )
    circuit = load_circuit(args.circuit)
    width = len(circuit.scan_outputs)
    try:
        compactors = (
            [build_compactor(kind, width) for kind in args.compactor]
            if args.compactor else default_compactors(width)
        )
        report = run_sweep(
            circuit,
            compactors,
            densities=tuple(args.x_density),
            max_faults=args.faults,
            seed=args.seed,
            circuit_name=args.circuit,
        )
    except ValueError as exc:
        raise SystemExit(f"compact: {exc}") from None

    # Exhaustive (x, e)-property verification of the shipped matrix
    # constructions at small parameters — the combinatorial guarantee
    # behind the sweep numbers (and the CI gate).
    checks = []
    for kind, x, e in (("parity", 0, 1), ("xcompact", 1, 1), ("cw3", 2, 1)):
        matrix = build_matrix(kind, 8)
        violations = verify_x_code(matrix, x, e)
        checks.append({
            "matrix": kind,
            "num_chains": matrix.num_chains,
            "num_outputs": matrix.num_outputs,
            "x": x,
            "e": e,
            "holds": not violations,
            "violations": [str(v) for v in violations],
        })

    payload = report.to_baseline_dict(k=args.k)
    payload["scenarios"]["compaction"]["extra"]["xcode_checks"] = checks
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if args.json:
        return emit_json(payload)
    table = Table(
        ["X density", "compactor", "pins", "detected", "detection %",
         "escape %"],
        title=f"{args.circuit}: response-compaction sweep "
              f"({report.baseline_detected} baseline-detected faults)",
    )
    for point in report.points:
        table.add_row(
            point.density, point.compactor, point.output_pins,
            f"{point.detected}/{point.sample_size}",
            point.detection_rate * 100, point.silent_escape_rate * 100,
        )
    print(table.render())
    for check in checks:
        status = "holds" if check["holds"] else "VIOLATED"
        print(f"({check['x']}, {check['e']})-detection on "
              f"{check['matrix']} [{check['num_chains']} chains -> "
              f"{check['num_outputs']} outputs]: {status} "
              "(exhaustive)")
    if args.output:
        print(f"report written: {args.output}")
    return 0 if all(check["holds"] for check in checks) else 1


def cmd_profile(args) -> int:
    from .obs.profile import SCENARIOS, run_profile

    try:
        report = run_profile(
            args.circuit,
            k=args.k,
            scenarios=tuple(args.scenarios) if args.scenarios else SCENARIOS,
            session_circuit=args.session_circuit,
            resilience_trials=args.trials,
            fastpath_compare=not args.no_fastpath,
            decode_fast=not args.reference,
        )
    except ValueError as exc:
        raise SystemExit(f"profile: {exc}") from None
    path = report.write(args.output)
    if args.json:
        return emit_json(report.to_dict())
    table = Table(
        ["scenario", "wall (s)", "bits", "bits/s"],
        title=f"{args.circuit}: pipeline perf baselines (K={args.k})",
    )
    for name, scenario in report.scenarios.items():
        table.add_row(name, scenario.wall_s, scenario.bits,
                      scenario.bits_per_s)
    print(table.render())
    if report.encode_fastpath:
        fast = report.encode_fastpath
        print(f"encode fast path  : {fast['speedup']:.1f}x vs reference "
              f"({fast['vectorized_wall_s'] * 1e3:.2f} ms vs "
              f"{fast['reference_wall_s'] * 1e3:.2f} ms on "
              f"{fast['bits']} bits, identical output: "
              f"{fast['identical_output']})")
    decode = report.scenarios.get("decode")
    if decode and "speedup" in decode.extra:
        fast = decode.extra
        print(f"decode fast path  : {fast['speedup']:.1f}x vs reference "
              f"({fast['vectorized_wall_s'] * 1e3:.2f} ms vs "
              f"{fast['reference_wall_s'] * 1e3:.2f} ms on "
              f"{fast['bits']} bits, identical output: "
              f"{fast['identical_output']})")
    print(f"baseline written  : {path}")
    return 0


def cmd_stats(args) -> int:
    from .obs.profile import load_baseline, validate_baseline

    try:
        payload = load_baseline(args.baseline)
    except FileNotFoundError:
        raise SystemExit(
            f"stats: no baseline at {args.baseline!r}; run "
            "`repro-9c profile` first"
        ) from None
    except ValueError as exc:
        raise SystemExit(
            f"stats: {args.baseline!r} is not JSON: {exc}"
        ) from None
    problems = validate_baseline(payload)
    if problems:
        raise SystemExit(
            "stats: invalid baseline:\n  " + "\n  ".join(problems)
        )
    scenarios = payload["scenarios"]
    wanted = args.scenario or sorted(scenarios)
    unknown = [name for name in wanted if name not in scenarios]
    if unknown:
        raise SystemExit(
            f"stats: no scenario {unknown} in baseline; "
            f"available: {sorted(scenarios)}"
        )
    if args.json:
        return emit_json({name: scenarios[name]["metrics"]
                          for name in wanted})
    print(f"baseline: {args.baseline} (target {payload['target']}, "
          f"K={payload['k']})")
    for name in wanted:
        record = scenarios[name]
        metrics = record["metrics"]
        table = Table(
            ["metric", "value"],
            title=f"{name}: {record['wall_s'] * 1e3:.2f} ms, "
                  f"{record['bits_per_s'] / 1e3:.1f} kbit/s",
        )
        for metric, value in metrics.get("counters", {}).items():
            table.add_row(metric, value)
        for metric, value in metrics.get("gauges", {}).items():
            table.add_row(f"{metric} (gauge)", value)
        for metric, hist in metrics.get("histograms", {}).items():
            buckets = ", ".join(f"{edge}:{count}"
                                for edge, count in hist["buckets"].items()
                                if count)
            table.add_row(f"{metric} (hist)", buckets or "empty")
        print(table.render())
    return 0


def cmd_lint(args) -> int:
    from .lint import run_lint

    try:
        report = run_lint(
            only=args.only,
            ks=tuple(args.k),
            circuits=args.circuit,
        )
    except ValueError as exc:
        raise SystemExit(f"lint: {exc}") from None
    if args.format == "json":
        emit_json(report.to_dict())
    else:
        print(report.render())
    return report.exit_code


def cmd_serve(args) -> int:
    import asyncio

    from .serve import CompressionService, ServeServer, ServiceConfig

    config = ServiceConfig(
        k=args.k,
        executor=args.executor,
        workers=args.workers,
        max_inflight=args.max_inflight,
        max_queue=args.max_queue,
        allow_chaos=args.chaos,
    )

    async def run() -> None:
        server = ServeServer(CompressionService(config), args.host, args.port)
        await server.start()
        print(f"repro-9c serve: listening on {server.host}:{server.port} "
              f"(executor={config.executor}, workers={config.workers}, "
              f"chaos={'on' if config.allow_chaos else 'off'})",
              flush=True)
        try:
            await server.serve_forever()
        finally:
            await server.close()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    return 0


def cmd_loadgen(args) -> int:
    import asyncio

    from .serve.loadgen import run_loadgen
    from .serve.server import TCPClient

    async def factory() -> TCPClient:
        client = TCPClient(args.host, args.port)
        await client.connect()
        return client

    crashes = sum(1 for name in (args.inject or []) if name == "worker-crash")
    report = asyncio.run(run_loadgen(
        factory,
        circuit=args.circuit,
        k=args.k,
        requests=args.requests,
        concurrency=args.concurrency,
        batch=args.batch,
        mix=args.mix,
        request_deadline_ms=args.deadline_ms,
        inject_worker_crashes=crashes,
    ))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(report.to_baseline_dict(), handle,
                      indent=2, sort_keys=True)
            handle.write("\n")
    stats = report.stats()
    if args.json:
        emit_json({**stats, "passed": report.passed,
                   "violation_details": report.violations,
                   "output": args.output})
    else:
        print(f"loadgen {report.circuit} K={report.k}: "
              f"{stats['requests']} requests @ concurrency "
              f"{stats['concurrency']}, batch {stats['batch']}")
        print(f"  ok {stats['ok']}  degraded {stats['degraded']}  "
              f"errors {stats['errors']}  shed {stats['shed']}")
        print(f"  p50 {stats['p50_ms']:.2f} ms  p95 {stats['p95_ms']:.2f} ms  "
              f"p99 {stats['p99_ms']:.2f} ms  ({stats['rps']:.0f} req/s)")
        print(f"  cache hit rate {stats['cache_hit_rate'] * 100:.1f}%")
        if report.violations:
            print(f"  VIOLATIONS ({len(report.violations)}):")
            for violation in report.violations:
                print(f"    - {violation}")
        if args.output:
            print(f"  report written: {args.output}")
    return 0 if report.passed else 1


def cmd_trace(args) -> int:
    import asyncio

    from .obs.tracing import chrome_trace
    from .serve import CompressionService, ServiceConfig
    from .serve.server import Client, TCPClient

    async def run() -> dict:
        service = None
        if args.connect:
            host, _, port = args.connect.rpartition(":")
            if not port.isdigit():
                raise SystemExit(
                    f"trace: --connect wants HOST:PORT, got {args.connect!r}"
                )
            client = TCPClient(host or "127.0.0.1", int(port))
            await client.connect()
        else:
            service = CompressionService(ServiceConfig(
                k=args.k, executor=args.executor, workers=args.workers,
            ))
            await service.start()
            client = Client(service)
        try:
            if args.requests:
                from .atpg.flow import generate_test_cubes
                from .circuits.library import load_circuit

                data = generate_test_cubes(
                    load_circuit(args.circuit)).test_set.to_stream()
                encoding = NineCEncoder(args.k).encode(data)
                stream = encoding.stream.to_string()
                for index in range(args.requests):
                    if index % 2 == 0:
                        response = await client.call(
                            "compress", {"circuit": args.circuit, "k": args.k}
                        )
                    else:
                        response = await client.call("decompress", {
                            "stream": stream, "k": args.k,
                            "output_length": encoding.original_length,
                        })
                    if not response.get("ok"):
                        raise SystemExit(
                            f"trace: request failed: {response.get('error')}"
                        )
            params: dict = {"limit": args.limit}
            if args.trace_id:
                params["trace_id"] = args.trace_id
            response = await client.call("trace", params)
        finally:
            await client.close()
            if service is not None:
                await service.close()
        if not response.get("ok"):
            raise SystemExit(f"trace: {response.get('error')}")
        return response["result"]

    result = asyncio.run(run())
    if not result["traces"]:
        note = ("the server runs with tracing disabled"
                if not result.get("tracing") else "no traces recorded yet")
        raise SystemExit(f"trace: nothing to export ({note})")
    if args.format == "chrome":
        # snapshot is most-recent-first; reverse so Perfetto lanes read
        # in chronological order
        payload = chrome_trace([
            {"name": f"{t['op']} {t['trace_id']}", "events": t["events"]}
            for t in reversed(result["traces"])
        ])
    else:
        payload = result
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"trace: wrote {len(result['traces'])} trace(s) to "
              f"{args.output} ({args.format})")
    else:
        print(text)
    return 0


def cmd_regress(args) -> int:
    from .obs.regress import run_regress

    try:
        report = run_regress(
            args.baseline,
            target=args.circuit,
            k=args.k,
            tolerance=args.tolerance,
            repeats=args.repeats,
            scenarios=args.scenario,
            trajectory_path=None if args.no_trajectory else args.trajectory,
        )
    except ValueError as exc:
        raise SystemExit(f"regress: {exc}") from None
    if args.json:
        emit_json(report.to_dict())
    else:
        table = Table(
            ["scenario", "baseline", "fresh (median)", "ratio", "verdict"],
            title=f"perf gate: {report.target} K={report.k} vs "
                  f"{report.baseline_path} "
                  f"(tolerance {report.tolerance:.0%}, "
                  f"{report.repeats} repeats)",
        )
        for name, comparison in sorted(report.comparisons.items()):
            table.add_row(
                name,
                f"{comparison.baseline_wall_s:.6f}",
                f"{comparison.fresh_wall_s:.6f}",
                f"{comparison.ratio:.2f}x",
                "REGRESSED" if comparison.regressed
                else ("skipped" if "skipped" in comparison.note else "ok"),
            )
        print(table.render())
        if not args.no_trajectory:
            print(f"trajectory appended: {args.trajectory}")
        print("verdict: " + ("REGRESSED" if report.regressed else "ok"))
    return 1 if report.regressed else 0


def cmd_benchmarks(_args) -> int:
    table = Table(["name", "cells", "patterns", "|T_D|", "X%"],
                  title="available benchmark profiles")
    for name, profile in sorted(ALL_PROFILES.items()):
        table.add_row(name, profile.num_cells, profile.num_patterns,
                      profile.total_bits, profile.x_density * 100)
    print(table.render())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-9c",
        description="9C test-data compression (DATE 2004) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coding-table", help="print Table I for a given K")
    p.add_argument("--k", type=int, default=8)
    p.set_defaults(func=cmd_coding_table)

    p = sub.add_parser("compress", help="9C-compress a test set")
    p.add_argument("input", nargs="?", help="test-set file (.test)")
    p.add_argument("--benchmark", choices=sorted(ALL_PROFILES))
    p.add_argument("--k", type=int, default=8)
    p.add_argument("-o", "--output")
    p.add_argument("--workers", type=int, default=1,
                   help="N >= 1; has no effect: every N runs the "
                        "single-core encoder (docs/performance.md)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable output")
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("decompress", help="decode a 9C stream file")
    p.add_argument("input")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--cells", type=int, required=True)
    p.add_argument("--length", type=int, default=None)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--workers", type=int, default=1,
                   help="N >= 1, and 1 with --reference; has no effect: "
                        "every N runs the single-core decoder")
    path = p.add_mutually_exclusive_group()
    path.add_argument("--fast", action="store_true", default=True,
                      help="vectorized decode path (default)")
    path.add_argument("--reference", action="store_true",
                      help="per-bit reference decode path (the oracle)")
    p.set_defaults(func=cmd_decompress)

    p = sub.add_parser("sweep", help="CR/LX across block sizes")
    p.add_argument("input", nargs="?")
    p.add_argument("--benchmark", choices=sorted(ALL_PROFILES))
    p.add_argument("--json", action="store_true",
                   help="machine-readable output")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("compare", help="compare 9C with baseline codes")
    p.add_argument("input", nargs="?")
    p.add_argument("--benchmark", choices=sorted(ALL_PROFILES))
    p.add_argument("--json", action="store_true",
                   help="machine-readable output")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("tat", help="test-application-time analysis")
    p.add_argument("input", nargs="?")
    p.add_argument("--benchmark", choices=sorted(ALL_PROFILES))
    p.add_argument("--k", type=int, default=8)
    p.add_argument("--p", type=int, nargs="+", default=[2, 4, 8, 16])
    p.add_argument("--json", action="store_true",
                   help="machine-readable output")
    p.set_defaults(func=cmd_tat)

    p = sub.add_parser("atpg", help="generate test cubes for a circuit")
    p.add_argument("--circuit", default="s27")
    p.add_argument("--backtrack-limit", type=int, default=500)
    p.add_argument("--k", type=int, default=0,
                   help="also compress the cubes at this block size")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_atpg)

    p = sub.add_parser("freq", help="frequency-directed re-assignment sweep")
    p.add_argument("input", nargs="?")
    p.add_argument("--benchmark", choices=sorted(ALL_PROFILES))
    p.set_defaults(func=cmd_freq)

    p = sub.add_parser("efficiency", help="coding-efficiency analysis")
    p.add_argument("input", nargs="?")
    p.add_argument("--benchmark", choices=sorted(ALL_PROFILES))
    p.add_argument("--k", type=int, default=8)
    p.set_defaults(func=cmd_efficiency)

    p = sub.add_parser("rtl", help="emit decompressor Verilog")
    p.add_argument("--k", type=int, default=8)
    p.add_argument("--chains", type=int, default=1,
                   help="> 1 emits the Figure-3 multi-scan wrapper")
    p.add_argument("--structural", action="store_true",
                   help="emit the gate-level netlist as structural "
                        "Verilog instead of the behavioral decoder")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_rtl)

    p = sub.add_parser(
        "import-rtl",
        help="import structural Verilog, lint it, and prove decoder "
             "equivalence (docs/rtl.md)",
    )
    p.add_argument("file", help="structural-Verilog source file")
    p.add_argument("--top", default=None,
                   help="top module (default: the unique uninstantiated "
                        "module)")
    p.add_argument("--k", type=int, default=8,
                   help="block size the imported decoder implements "
                        "(used by --equiv)")
    p.add_argument("--lint", action="store_true",
                   help="run the NL netlist rules over the import")
    p.add_argument("--equiv", action="store_true",
                   help="run the EQ equivalence legs against the 9C "
                        "decoder specification")
    p.add_argument("--waive-shifter", action="store_true",
                   help="waive NL006 (intentional flop-to-flop shift "
                        "paths, as in the decoder datapath)")
    p.add_argument("--vectors", type=int, default=10000,
                   help="random word-level vectors when exhaustive "
                        "enumeration is too large")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["text", "json"], default="text",
                   help="json emits one structured report (errors become "
                        "an {\"error\": ...} object, exit 2)")
    p.set_defaults(func=cmd_import_rtl)

    p = sub.add_parser("adaptive", help="adaptive-K vs fixed-K comparison")
    p.add_argument("input", nargs="?")
    p.add_argument("--benchmark", choices=sorted(ALL_PROFILES))
    p.add_argument("--window", type=int, default=2048)
    p.set_defaults(func=cmd_adaptive)

    p = sub.add_parser("system", help="run the full TestSession flow")
    p.add_argument("--circuit", default="s27")
    p.add_argument("--k", type=int, default=8)
    p.add_argument("--p", type=int, default=8)
    p.add_argument("--misr-width", type=int, default=16)
    p.add_argument("--screen", type=int, default=8,
                   help="number of detected faults to screen")
    p.set_defaults(func=cmd_system)

    p = sub.add_parser(
        "resilience",
        help="channel-fault campaign: detection vs silent-escape rate",
    )
    p.add_argument("--circuit", default="s27")
    p.add_argument("--k", type=int, default=8)
    p.add_argument("--error-rate", type=float, nargs="+", default=[1e-3],
                   help="per-symbol fault rates to sweep")
    p.add_argument("--trials", type=int, default=25,
                   help="corrupted streams per error rate")
    p.add_argument("--channel", choices=sorted(CHANNEL_KINDS),
                   default="flip", help="fault model on the ATE link")
    p.add_argument("--no-framing", action="store_true",
                   help="send the raw T_E stream without CRC frames")
    p.add_argument("--blocks-per-frame", type=int,
                   default=DEFAULT_BLOCKS_PER_FRAME)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true",
                   help="machine-readable output")
    p.set_defaults(func=cmd_resilience)

    p = sub.add_parser(
        "compact",
        help="X-tolerant response-compaction sweep (docs/compaction.md)",
    )
    p.add_argument("--circuit", default="s27")
    p.add_argument("--k", type=int, default=8,
                   help="recorded in the report for schema compatibility")
    p.add_argument("--x-density", type=float, nargs="+",
                   default=[0.0, 0.01, 0.05, 0.10],
                   help="fractions of response bits degraded to X")
    p.add_argument("--compactor", nargs="+",
                   choices=sorted(COMPACTOR_KINDS),
                   help="compactors to sweep (default: one of each kind)")
    p.add_argument("--faults", type=int, default=32,
                   help="cap on the baseline-detected fault sample")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", default=None,
                   help="write a BENCH_obs.json-schema report here")
    p.add_argument("--json", action="store_true",
                   help="machine-readable output")
    p.set_defaults(func=cmd_compact)

    p = sub.add_parser(
        "profile",
        help="run perf-baseline scenarios and write BENCH_obs.json",
    )
    p.add_argument("--circuit", default="s27",
                   help="benchmark profile (s9234) or embedded circuit (s27)")
    p.add_argument("--k", type=int, default=8)
    p.add_argument("--scenarios", nargs="+",
                   choices=["compress", "decompress", "decode", "session",
                            "resilience", "compaction"],
                   help="subset of scenarios to run (default: all)")
    p.add_argument("--session-circuit", default=None,
                   help="netlist for session/resilience when the target is "
                        "a test-set-only benchmark (default: g64)")
    p.add_argument("--trials", type=int, default=5,
                   help="resilience-scenario trials")
    p.add_argument("--no-fastpath", action="store_true",
                   help="skip the encode fast-path vs reference comparison")
    path = p.add_mutually_exclusive_group()
    path.add_argument("--fast", action="store_true", default=True,
                      help="decompress scenario uses the vectorized decode "
                           "path (default)")
    path.add_argument("--reference", action="store_true",
                      help="decompress scenario uses the per-bit reference "
                           "decode path")
    p.add_argument("-o", "--output", default="BENCH_obs.json")
    p.add_argument("--json", action="store_true",
                   help="machine-readable output")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser(
        "stats",
        help="pretty-print the metrics snapshot of a profile baseline",
    )
    p.add_argument("--baseline", default="BENCH_obs.json")
    p.add_argument("--scenario", nargs="+", default=None,
                   help="scenarios to show (default: all in the baseline)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable output")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser(
        "lint",
        help="static verification: netlists, decoder FSM, emitted RTL, "
             "decoder equivalence, and the Python codebase "
             "(docs/lint.md)",
    )
    p.add_argument("--only", nargs="+", metavar="SECTION",
                   choices=["netlist", "fsm", "rtl", "equiv", "python"],
                   help="subset of lint sections (default: all)")
    p.add_argument("--k", type=int, nargs="+", default=[4, 8, 16, 32],
                   help="block sizes swept for decoder netlists and RTL")
    p.add_argument("--circuit", nargs="+", default=None,
                   help="library circuits to lint (default: all)")
    p.add_argument("--format", choices=["text", "json"], default="text",
                   help="report format (exit code is nonzero on errors "
                        "either way)")
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser(
        "serve",
        help="run the compression service over TCP (docs/serving.md)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=9127,
                   help="0 picks a free port (printed on the ready line)")
    p.add_argument("--k", type=int, default=8)
    p.add_argument("--executor", choices=["process", "thread", "inline"],
                   default="process")
    p.add_argument("--workers", type=int, default=2)
    p.add_argument("--max-inflight", type=int, default=8)
    p.add_argument("--max-queue", type=int, default=16)
    p.add_argument("--chaos", action="store_true",
                   help="accept chaos-op fault injection (testing only)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "loadgen",
        help="closed-loop load generator against a running serve instance",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=9127)
    p.add_argument("--circuit", default="s27")
    p.add_argument("--k", type=int, default=8)
    p.add_argument("--requests", type=int, default=100)
    p.add_argument("--concurrency", type=int, default=4)
    p.add_argument("--batch", type=int, default=1,
                   help="items per compress request (> 1 uses the batch API)")
    p.add_argument("--mix", choices=["compress", "decompress", "both"],
                   default="both")
    p.add_argument("--deadline-ms", type=float, default=10_000.0)
    p.add_argument("--inject", action="append", choices=["worker-crash"],
                   help="arm a service fault mid-run (server needs --chaos); "
                        "repeatable")
    p.add_argument("-o", "--output", default=None,
                   help="write a BENCH_obs.json-schema report here")
    p.add_argument("--json", action="store_true",
                   help="machine-readable output")
    p.set_defaults(func=cmd_loadgen)

    p = sub.add_parser(
        "trace",
        help="run traced requests and export Chrome trace-event JSON "
             "(docs/observability.md)",
    )
    p.add_argument("--connect", metavar="HOST:PORT", default=None,
                   help="use a running serve instance instead of spinning "
                        "an in-process service")
    p.add_argument("--circuit", default="s27")
    p.add_argument("--k", type=int, default=8)
    p.add_argument("--requests", type=int, default=2,
                   help="traced requests to issue before exporting "
                        "(0 fetches only what is already recorded)")
    p.add_argument("--executor", choices=["process", "thread", "inline"],
                   default="process",
                   help="executor of the in-process service (ignored with "
                        "--connect)")
    p.add_argument("--workers", type=int, default=2)
    p.add_argument("--limit", type=int, default=16,
                   help="most-recent traces to export")
    p.add_argument("--trace-id", default=None,
                   help="export one specific trace by id")
    p.add_argument("--format", choices=["chrome", "json"], default="chrome",
                   help="chrome: trace-event JSON for Perfetto / "
                        "chrome://tracing; json: the raw trace-op result")
    p.add_argument("-o", "--output", default=None,
                   help="write here instead of stdout")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "regress",
        help="perf-regression gate: fresh profile runs vs a committed "
             "BENCH_*.json baseline (docs/observability.md)",
    )
    p.add_argument("--baseline", default="BENCH_obs.json")
    p.add_argument("--circuit", default=None,
                   help="profile target (default: the baseline's)")
    p.add_argument("--k", type=int, default=None,
                   help="block size (default: the baseline's)")
    p.add_argument("--tolerance", type=float, default=1.0,
                   help="allowed fractional slowdown before the gate trips "
                        "(1.0 = fresh may take up to 2x the baseline)")
    p.add_argument("--repeats", type=int, default=3,
                   help="fresh runs feeding the per-scenario median")
    p.add_argument("--scenario", nargs="+", default=None,
                   help="scenarios to run (default: those in the baseline)")
    p.add_argument("--trajectory", default="BENCH_trajectory.json",
                   help="history file the run is appended to")
    p.add_argument("--no-trajectory", action="store_true",
                   help="skip appending this run to the trajectory file")
    p.add_argument("--json", action="store_true",
                   help="machine-readable output")
    p.set_defaults(func=cmd_regress)

    p = sub.add_parser("benchmarks", help="list benchmark profiles")
    p.set_defaults(func=cmd_benchmarks)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if not getattr(args, "json", False):
        return args.func(args)
    # under --json even failures must be machine-readable: a structured
    # {"error": ...} object on stdout and a nonzero exit, never a bare
    # traceback a pipeline consumer would have to scrape.
    try:
        return args.func(args)
    except SystemExit as exc:
        if exc.code is None or isinstance(exc.code, int):
            raise  # already a clean numeric exit (argparse, etc.)
        print(json.dumps(
            {"error": {"command": args.command, "message": str(exc.code)}},
            indent=2, sort_keys=True,
        ))
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary: anything
        # unexpected still has to come out as structured JSON here
        print(json.dumps(
            {"error": {"command": args.command,
                       "type": type(exc).__name__,
                       "message": str(exc)}},
            indent=2, sort_keys=True,
        ))
        return 2


if __name__ == "__main__":
    sys.exit(main())

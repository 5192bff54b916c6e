"""The two workloads and the run that measures one of them.

A workload is one paper regime pushed through every public surface of
the program: file-to-file compress/decompress through ``repro.cli.main``,
the RTL verification commands, and ``repro-9c serve`` under open-loop
traffic.  ``iscas`` is the dense, mismatch-rich regime of the paper's
Tables II-VI (per-block Python dominates); ``ibm`` is the 98.5 %-X
Mbit regime of Table VIII (bulk text I/O, numpy passes and the sharded
codec dominate).
"""

from __future__ import annotations

import asyncio
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import cli_surface as cs
import procstat
import serve_surface as ss
import spans
import workload_inputs as wi

#: Offered rate of the fixed-rate serve phase, requests per second.
FIXED_RATE = 8.0
#: Distinct serve inputs per workload; requests cycle through them.
SERVE_ITEMS = 4
#: Set-up repetitions whose median is reported.
SETUP_REPEATS = 3
#: A generator that sends a request a whole inter-arrival gap late has
#: fallen behind its schedule, which voids the run.
MAX_LATE_MS = 1000.0 / FIXED_RATE
#: Duration of one rate-search step, seconds.
STEP_S = 2.0
#: Offered rates of the rate-search steps, as multiples of the capacity
#: the first fixed-rate segment implies; one step per round, so there
#: are ROUNDS of them.  The knee lies between the first and the last on
#: both workloads (near 1.0 on iscas, 1.2 on ibm).
LADDER = (0.9, 1.05, 1.2, 1.35)
#: Shares of --seconds: the fixed-rate phase (8 req/s for 25.5 s gives
#: 102 samples per op) and the rate search's steps.  Codec and verify
#: passes share the rest, per workload.
FIXED_SHARE, SEARCH_SHARE = 0.51, 0.18
#: Every phase is spread over this many rounds, so that the host's speed,
#: which drifts over seconds, averages out of each metric.
ROUNDS = 4


@dataclass(frozen=True)
class Workload:
    name: str
    cli_profiles: Tuple[wi.Profile, ...]
    k: int
    workers: int
    serve_profile: wi.Profile
    verify_ks: Tuple[int, ...]
    #: Share of --seconds for codec passes; verify passes get the rest.
    #: Where a pass is long, it gets more, so that each timing is a
    #: median over several passes.
    codec_share: float

    @property
    def verify_share(self) -> float:
        return 1.0 - FIXED_SHARE - SEARCH_SHARE - self.codec_share


WORKLOADS = {
    "iscas": Workload(
        "iscas", wi.ISCAS89, k=8, workers=1,
        serve_profile=wi.ISCAS89[4],  # s38417: 164,736 bits per request
        verify_ks=(4, 8, 16),
        codec_share=0.21),  # codec pass ~0.8 s, verify pass ~1.1 s
    "ibm": Workload(
        "ibm", (wi.CKT1,), k=32, workers=2,
        # 44 ckt1 patterns: 334,400 bits per request, so that a request
        # takes about as long as on iscas and the host's jitter of a few
        # tens of ms is as small a share of its latency
        serve_profile=wi.Profile("ckt1x44", 7600, 44, 0.985, 0.80,
                                 mean_specified_run=3.0),
        # a K=32 pass (sampled EQ002) varies 1.8x as much as a K<=16 one
        verify_ks=(4, 8, 16),
        codec_share=0.23),  # codec pass ~3.4 s, verify pass ~1.1 s
}


def _median(values: List[float]) -> float:
    return float(statistics.median(values))


def _make_sets(profiles, seed: int, first_stream: int, workdir: Path,
               tag: str) -> List[cs.CodecSet]:
    sets = []
    for i, profile in enumerate(profiles):
        data = wi.generate(profile, seed, first_stream + i)
        name = f"{tag}{i}-{profile.name}"
        source = workdir / f"{name}.test"
        digest = wi.write_test_set(source, data, profile.cells, profile.name)
        print(f"input {name}: {profile.cells}x{profile.patterns} "
              f"sha256={digest}")
        sets.append(cs.CodecSet(name, profile.cells, data, source,
                                workdir / f"{name}.9c",
                                workdir / f"{name}.out"))
    return sets


class _Paced:
    """Runs one phase's units so its time is spread evenly over rounds."""

    def __init__(self, budget_s: float, minimum: int):
        self.budget_s = budget_s
        self.minimum = minimum
        self.spent = 0.0
        self.results: list = []

    def run(self, round_index: int, unit) -> None:
        share = self.budget_s * (round_index + 1) / ROUNDS
        last = round_index == ROUNDS - 1
        while self.spent < share or (last and len(self.results) < self.minimum):
            start = time.perf_counter()
            self.results.append(unit())
            self.spent += time.perf_counter() - start


# ----------------------------------------------------------------------
# codec and verify passes
# ----------------------------------------------------------------------
def _codec_e2e(passes: List[cs.CodecPass]) -> Dict[str, float]:
    first = passes[0]
    return {
        "compress_mbps": _median([p.td_bits / p.compress_s / 1e6 for p in passes]),
        "decompress_mbps": _median([p.td_bits / p.decompress_s / 1e6 for p in passes]),
        "cr_percent": (first.td_bits - first.te_bits) / max(first.td_bits, 1) * 100.0,
    }


def _pair(step, layers, recorder: spans.SpanRecorder):
    """An untraced then a traced pass, so drift in speed hits both."""
    def unit():
        plain = step()
        uninstall = spans.install(recorder, layers)
        try:
            return plain, step()
        finally:
            uninstall()
    return unit


def _ledger(recorder: spans.SpanRecorder, layers, untraced: List[float],
            traced: List[float], prefix: str) -> Dict[str, float]:
    """Per-pass self time per layer, the remainder, and tracing overhead.

    The layers and the remainder add up to the mean traced pass; the
    overhead relates that to the mean untraced pass.  Passes alternate,
    so drift in the machine's speed lands on both sides.
    """
    own = recorder.self_times()
    out = {f"{layer}_s": own.get(layer, 0.0) / len(traced)
           for layer in dict.fromkeys(name for name, _ in layers)}
    base, wall = statistics.fmean(untraced), statistics.fmean(traced)
    unaccounted = wall - sum(out.values())
    out[f"{prefix}.untraced_s"] = base
    out[f"{prefix}.unaccounted_s"] = unaccounted
    out[f"{prefix}.unaccounted_pct"] = unaccounted / wall * 100.0
    out[f"trace.{prefix}_overhead_pct"] = (wall / base - 1.0) * 100.0
    return out


def _codec_ledger(recorder: spans.SpanRecorder, pairs) -> Dict[str, float]:
    plain, traced = zip(*pairs)
    out = _ledger(recorder, spans.CLI_LAYERS,
                  [p.compress_s + p.decompress_s for p in plain],
                  [p.compress_s + p.decompress_s for p in traced], "cli")
    counts = {"blocks": 0, "bits_in": 0, "bits_out": 0}
    for _, meta, outermost in recorder.metas():
        if outermost:
            for key, value in meta.items():
                counts[key] += value
    for key, value in counts.items():
        out[f"codec.{key}"] = value / len(traced)
    out["file.bytes_read"] = traced[0].bytes_read
    out["file.bytes_written"] = traced[0].bytes_written
    return out


def _verify_ledger(recorder: spans.SpanRecorder, pairs) -> Dict[str, float]:
    plain, traced = zip(*pairs)
    out = _ledger(recorder, spans.VERIFY_LAYERS, [p.seconds for p in plain],
                  [p.seconds for p in traced], "verify")
    for leg in ("EQ001", "EQ002", "EQ003", "EQ004"):
        out[f"equiv.{leg}.checked"] = traced[0].checked.get(leg, 0)
    return out


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
async def _phase(port: int, requests: List[ss.Request], connections: int) -> float:
    conns = ss.Connections(port, connections)
    await conns.open()
    try:
        return await conns.run(requests, grace_s=5.0)
    finally:
        await conns.close()


async def _control(port: int, op: str, params: dict) -> dict:
    conns = ss.Connections(port, 1)
    await conns.open()
    try:
        return await conns.call(op, params)
    finally:
        await conns.close()


def _check_all(requests: List[ss.Request], traffic: ss.Traffic, tally) -> None:
    for request in requests:
        answer = str(request.response)[:200]
        tally.record(traffic.settle(request), f"serve {request.id}: {answer}")


def _cold_start(env: dict, tally) -> float:
    """Wall time of a fresh ``python -m repro.cli benchmarks`` process."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "repro.cli", "benchmarks"],
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                          env=env, timeout=120)
    elapsed = time.perf_counter() - start
    tally.record(done.returncode == 0, f"cold start: exit {done.returncode}")
    return elapsed


def _spawn_ready(workdir: Path, env: dict, traffic: ss.Traffic, tag: str,
                 tally) -> Tuple[ss.Server, float]:
    """Spawn serve; seconds until the first good answer of each op."""
    start = time.perf_counter()
    server = ss.Server(workdir, env, tag)
    server.start()
    try:
        first = traffic.schedule(f"ready{tag}", 1e6, 2)
        asyncio.run(_phase(server.port, first, 1))
    except BaseException:
        server.stop()
        raise
    elapsed = time.perf_counter() - start
    _check_all(first, traffic, tally)
    return server, elapsed


class _RateSearch:
    """The highest offered rate whose p90 meets the limit, no backlog.

    Steps offer the ``LADDER`` multiples of the capacity the first
    fixed-rate segment implies (pool workers / mean of the per-op median
    latencies), so the rates follow the program.  Each gets a load score
    (:func:`serve_surface.judge`).  Near the knee the scores are not
    monotone in the rate (micro-batching forms larger batches at higher
    rates, and the host's speed drifts between steps), so they are made
    monotone first, by pooling adjacent violators; the result then
    interpolates the score linearly to 1 between the highest rate that
    met the limits (the fixed rate at least) and the next rate up.
    Unlike a bisection, one step that a burst on the host made miss
    does not move the others.
    """

    def __init__(self, first: List[ss.Request], workers: int):
        # per op: the median of the mix would jump between the two ops
        service_ms = statistics.fmean(
            ss.pct([r.latency_ms for r in first if r.op == op], 50)
            for op in ("compress", "decompress"))
        self.capacity = workers / (service_ms / 1e3)
        self.points: List[Tuple[float, float]] = []

    def step(self, port: int, traffic: ss.Traffic, connections: int) -> None:
        rate = max(LADDER[len(self.points)] * self.capacity, FIXED_RATE)
        requests = traffic.schedule(f"search{len(self.points)}", rate,
                                    max(8, round(rate * STEP_S)))
        asyncio.run(_phase(port, requests, connections))
        failed = sum(not traffic.settle(request) for request in requests)
        score, p90 = ss.judge(requests)
        print(f"rate search: {rate:.2f} req/s p90 {p90:.1f} ms score "
              f"{score:.2f}, {failed} failed, "
              f"{'meets' if score <= 1 else 'misses'} the limit")
        self.points.append((rate, score))

    def result(self, fixed: List[ss.Request]) -> float:
        fixed_score, _ = ss.judge(fixed)
        if fixed_score > 1:
            return 0.0
        points = sorted([(FIXED_RATE, fixed_score), *self.points])
        rates = [rate for rate, _ in points]
        scores = _monotone([score for _, score in points])
        met = max(i for i, score in enumerate(scores) if score <= 1)
        if met + 1 == len(points) or scores[met + 1] == float("inf"):
            return rates[met]
        lo, hi = rates[met], rates[met + 1]
        return lo + (hi - lo) * (1.0 - scores[met]) / (scores[met + 1] - scores[met])


def _monotone(values: List[float]) -> List[float]:
    """The non-decreasing sequence closest to ``values`` (pool adjacent violators)."""
    blocks: List[List[float]] = []  # [mean, count]
    for value in values:
        blocks.append([value, 1])
        while len(blocks) > 1 and blocks[-2][0] > blocks[-1][0]:
            mean, count = blocks.pop()
            prev = blocks[-1]
            prev[0] = (prev[0] * prev[1] + mean * count) / (prev[1] + count)
            prev[1] += count
    return [mean for mean, count in blocks for _ in range(int(count))]


def _serve_e2e(fixed: List[ss.Request]) -> Dict[str, float]:
    out = {}
    for op in ("compress", "decompress"):
        latencies = [r.latency_ms for r in fixed if r.op == op]
        out[f"{op}_p50_ms"] = ss.pct(latencies, 50)
        out[f"{op}_p90_ms"] = ss.pct(latencies, 90)
    return out


def _serve_layers(traces: List[dict], fixed: List[ss.Request], before: dict,
                  after: dict, late_ms: float) -> Dict[str, float]:
    """Per-op medians over the service's own request traces."""
    by_id = {r.id: r for r in fixed}
    rows: Dict[str, Dict[str, List[float]]] = {
        "compress": {}, "decompress": {}}
    for trace in traces:
        request = by_id.get(trace["request_id"])
        if request is None or not request.passed:
            continue
        op = trace["op"]
        spent: Dict[str, float] = {}
        seen: Dict[str, int] = {}
        for event in trace["events"]:
            spent[event["name"]] = spent.get(event["name"], 0.0) + event["dur"] * 1e3
            seen[event["name"]] = seen.get(event["name"], 0) + 1
        if op == "compress":
            # the service's batch.wait span covers the batch window and
            # the worker call that served the whole batch
            worker, codec = spent.get("batch.wait", 0.0), spent.get("encode", 0.0)
            rows[op].setdefault("batch_size", []).append(seen.get("encode", 0))
        else:
            worker = spent.get("worker.decompress", 0.0)
            codec = spent.get("decode.stream", 0.0)
        request_ms = spent.get(f"request.{op}", 0.0)
        for key, value in (
                ("request_ms", request_ms),
                ("transport_ms", request.client_ms - request_ms),
                ("admission_wait_ms", spent.get("admission.wait", 0.0)),
                ("worker_ms", worker), ("codec_ms", codec),
                ("handoff_ms", worker - codec)):
            rows[op].setdefault(key, []).append(value)
    out: Dict[str, float] = {"serve.traces": float(sum(
        len(r.get("request_ms", [])) for r in rows.values()))}
    for op, row in rows.items():
        for key, values in row.items():
            out[f"serve.{key}.{op}"] = _median(values)
        mine = [r for r in fixed if r.op == op]
        out[f"wire.request_bytes.{op}"] = _median([r.request_bytes for r in mine])
        out[f"wire.response_bytes.{op}"] = _median(
            [r.response_bytes for r in mine])
    for key in ("shed", "retries", "worker_crashes", "degraded"):
        out[f"serve.{key}"] = after["totals"][key] - before["totals"][key]
    out["loadgen.late_ms"] = late_ms
    return out


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------
E2E_UNITS = {
    "setup_s": "s", "peak_rss_mb": "MB",
    "compress_mbps": "Mbit/s", "decompress_mbps": "Mbit/s",
    "cr_percent": "%",
    "compress_p50_ms": "ms", "compress_p90_ms": "ms",
    "decompress_p50_ms": "ms", "decompress_p90_ms": "ms",
    "max_rate_rps": "1/s", "verify_s": "s",
}


def _layer_units() -> Dict[str, str]:
    units: Dict[str, str] = {}
    for prefix, layers in (("cli", spans.CLI_LAYERS),
                           ("verify", spans.VERIFY_LAYERS)):
        for layer in dict.fromkeys(name for name, _ in layers):
            units[f"{layer}_s"] = "s"
        units[f"{prefix}.untraced_s"] = "s"
        units[f"{prefix}.unaccounted_s"] = "s"
        units[f"{prefix}.unaccounted_pct"] = "%"
        units[f"trace.{prefix}_overhead_pct"] = "%"
    units.update({"codec.blocks": "count", "codec.bits_in": "bits",
                  "codec.bits_out": "bits", "file.bytes_read": "bytes",
                  "file.bytes_written": "bytes"})
    for leg in ("EQ001", "EQ002", "EQ003", "EQ004"):
        units[f"equiv.{leg}.checked"] = "count"
    for op in ("compress", "decompress"):
        for key in ("request_ms", "transport_ms", "admission_wait_ms",
                    "worker_ms", "codec_ms", "handoff_ms"):
            units[f"serve.{key}.{op}"] = "ms"
        units[f"wire.request_bytes.{op}"] = "bytes"
        units[f"wire.response_bytes.{op}"] = "bytes"
    units["serve.batch_size.compress"] = "count"
    for key in ("shed", "retries", "worker_crashes", "degraded", "traces"):
        units[f"serve.{key}"] = "count"
    units["loadgen.late_ms"] = "ms"
    return units


LAYER_UNITS = _layer_units()


def _peaked(unit, peaks: List[float]):
    """``unit``, appending the peak resident set (MB) of each call to ``peaks``.

    Covers this process (where ``repro.cli.main`` runs; its peak is reset
    before each call) and, by polling, its descendants: the short-lived
    pool workers of the sharded codec and the server.
    """
    def measured():
        procstat.reset_peak_rss()
        with procstat.PeakSampler() as sampler:
            result = unit()
        peaks.append(max(procstat.peak_rss_mb(os.getpid()), sampler.peak()))
        return result
    return measured


def run(w: Workload, seed: int, seconds: float, trace: bool, workdir: Path,
        env: dict) -> dict:
    tally = cs.Tally()
    problems: List[str] = []
    connections = max(1, min(2, os.cpu_count() or 1))
    values: Dict[str, float] = {}

    sets = _make_sets(w.cli_profiles, seed, 0, workdir, "cli")
    serve_sets = _make_sets([w.serve_profile] * SERVE_ITEMS, seed, 100,
                            workdir, "serve")
    # the CLI's answers for the serve inputs are what serve must return
    cs.codec_pass(serve_sets, w.k, 1, tally)
    traffic = ss.Traffic(
        w.k,
        [wi.render_rows(s.data, s.bits)[0] for s in serve_sets],
        [wi.read_rows(s.compressed)[0] for s in serve_sets],
        ["".join(wi.read_rows(s.restored)) for s in serve_sets])

    def codec_step():
        return cs.codec_pass(sets, w.k, w.workers, tally)

    def verify_step():
        return cs.verify_pass(workdir, list(w.verify_ks), tally)

    recorders = (spans.SpanRecorder(), spans.SpanRecorder())
    if trace:
        # each unit is an untraced and a traced pass; they also get the
        # rate search's share, so a traced run lasts as long as another
        scale = 1 + SEARCH_SHARE / (1 - FIXED_SHARE - SEARCH_SHARE)
        codec = _Paced(scale * w.codec_share * seconds, 2)
        verify = _Paced(scale * w.verify_share * seconds, 2)
        codec_unit = _pair(codec_step, spans.CLI_LAYERS, recorders[0])
        verify_unit = _pair(verify_step, spans.VERIFY_LAYERS, recorders[1])
    else:
        codec = _Paced(w.codec_share * seconds, 3)
        verify = _Paced(w.verify_share * seconds, 3)
        codec_unit, verify_unit = codec_step, verify_step
    total = round(FIXED_SHARE * seconds * FIXED_RATE)
    segments = [total // ROUNDS + (i < total % ROUNDS) for i in range(ROUNDS)]

    codec_peaks: List[float] = []
    verify_peaks: List[float] = []
    codec_unit = _peaked(codec_unit, codec_peaks)
    verify_unit = _peaked(verify_unit, verify_peaks)

    fixed: List[ss.Request] = []
    peak = late_ms = 0.0
    server: Optional[ss.Server] = None
    try:
        cold, ready = [], []
        for i in range(1 if trace else SETUP_REPEATS):
            if server is not None:
                problems += _stop(server)
            if not trace:
                cold.append(_cold_start(env, tally))
            server, elapsed = _spawn_ready(workdir, env, traffic, str(i), tally)
            ready.append(elapsed)
        if not trace:
            values["setup_s"] = _median(cold) + _median(ready)
        # warm both ops on both pool workers and the verify commands; a
        # traced run also keeps the first touch of the codec sizes
        # (allocations, page faults) out of its averaged ledger
        warm = traffic.schedule("warm", 40.0, 8)
        asyncio.run(_phase(server.port, warm, connections))
        _check_all(warm, traffic, tally)
        verify_step()
        if trace:
            codec_step()

        before = asyncio.run(_control(server.port, "health", {}))["result"]
        rate_search: Optional[_RateSearch] = None
        for r in range(ROUNDS):
            codec.run(r, codec_unit)
            verify.run(r, verify_unit)
            segment = traffic.schedule(f"fixed{r}", FIXED_RATE, segments[r])
            late_ms = max(late_ms, asyncio.run(
                _phase(server.port, segment, connections)))
            _check_all(segment, traffic, tally)
            fixed += segment
            if not trace:
                rate_search = rate_search or _RateSearch(segment, before["workers"])
                rate_search.step(server.port, traffic, connections)
        print(f"fixed rate: {len(fixed)} requests at {FIXED_RATE:g} req/s, "
              f"p90 {ss.judge(fixed)[1]:.1f} ms, max "
              f"{max(r.latency_ms for r in fixed):.1f} ms, "
              f"generator late by at most {late_ms:.1f} ms")
        if late_ms > MAX_LATE_MS:
            problems.append(f"generator fell {late_ms:.1f} ms behind schedule")
        if trace:
            traces = asyncio.run(_control(server.port, "trace", {"limit": 64}))
            after = asyncio.run(_control(server.port, "health", {}))["result"]
            values.update(_serve_layers(traces["result"]["traces"], fixed,
                                        before, after, late_ms))
            values.update(_codec_ledger(recorders[0], codec.results))
            values.update(_verify_ledger(recorders[1], verify.results))
        else:
            values.update(_codec_e2e(codec.results))
            values["verify_s"] = _median([p.seconds for p in verify.results])
            values.update(_serve_e2e(fixed))
            values["max_rate_rps"] = rate_search.result(fixed)
        peak = max(_median(codec_peaks), _median(verify_peaks),
                   server.peak_rss_mb())
    finally:
        if server is not None:
            problems += _stop(server)
    values["peak_rss_mb"] = peak
    print(f"passes: {len(codec.results)} codec, {len(verify.results)} verify; "
          f"rate-search steps: {len(rate_search.points) if rate_search else 0}")

    if trace:
        for name, recorder in zip(("cli", "verify"), recorders):
            recorder.write(workdir.parent / f"spans-{w.name}-{seed}-{name}.json")
    for note in tally.notes + problems:
        print(f"perfbench: {note}", file=sys.stderr)
    units = LAYER_UNITS if trace else E2E_UNITS
    return {
        "correct": tally.failed == 0 and not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }


def _stop(server: ss.Server) -> List[str]:
    survivors = server.stop()
    return [f"pool workers {survivors} outlived the server"] if survivors else []

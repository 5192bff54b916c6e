"""The compression service: handlers, worker pool, robustness ladder.

:class:`CompressionService` answers the public operations
(``compress`` / ``decompress`` / ``profile`` / ``resilience`` /
``health``, plus the ``metrics`` / ``trace`` control plane and the
opt-in ``chaos`` arm) defined by :mod:`repro.serve.protocol`.  CPU-bound encode/decode runs in an
executor (``process`` by default; ``thread`` and ``inline`` exist for
tests and chaos experiments), through a robustness ladder applied in
order on every request:

1. **admission** — a semaphore bounds in-flight work; when the wait
   queue is full, or its frames would pass :data:`MAX_WAITING_BYTES`,
   the request is shed *explicitly* with a retryable
   :class:`~repro.core.errors.ServiceOverloadedError` (429-style, never
   a silent drop).  ``health`` and ``metrics`` bypass admission so the
   service stays observable under overload.
2. **deadline** — every request runs under ``asyncio.wait_for`` with
   its ``deadline_ms`` (or the configured default); expiry cancels the
   waiter and returns a typed ``deadline_exceeded`` error.
3. **circuit breaker** — one :class:`~repro.serve.breaker.CircuitBreaker`
   per (op, circuit, K) route fast-fails while a route is known-bad.
4. **bounded retry** — worker crashes (a killed pool process surfaces
   as ``BrokenProcessPool``; the pool is rebuilt) are retried with
   exponential backoff + deterministic jitter, never more than
   ``retry.max_attempts`` times.
5. **degradation** — decompress normally runs the vectorized fast
   path; every ``differential_every``-th request re-verifies it
   against the per-bit reference, and a mismatch permanently degrades
   that route to the reference implementation.  Degraded responses are
   always flagged (``degraded: true`` + a named flag) — the
   no-silent-corruption contract the chaos suite enforces.

Compress requests are micro-batched: single-item requests on the same
(K, codebook) route coalesce for ``batch_window_ms`` (or until
``max_batch``) and run as one worker call, amortizing dispatch and
letting the worker-local :class:`PreparedArtifactCache` stay hot.

Every data-plane request is traced end to end when observability is on
(``enable_obs`` + ``trace_requests``): a :class:`RequestTrace` mints a
trace id, opens a ``request.<op>`` root span, and collects
``admission.wait`` / ``batch.wait`` / ``worker.<op>`` service spans;
workers capture the library's own spans (``encode``,
``decode.stream``) behind the ``capture`` flag and ship them back with
results, where they are grafted into the request's tree — one merged
trace per request even though the work crossed a process boundary.
The last ``trace_capacity`` traces are served by the ``trace`` op and
exported as Chrome trace-event JSON by ``repro-9c trace``.  Structured
log events (:mod:`repro.obs.log`) fire at every ladder decision —
shed, deadline, retry, breaker transition, degradation — correlated by
the bound ``request_id``/``trace_id``.
"""

from __future__ import annotations

import asyncio
import contextvars
import os
import random
import threading
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from .. import obs as _obs
from ..obs import log as _log
from ..obs import tracing as _tracing
from ..core.decoder import NineCDecoder
from ..core.encoder import NineCEncoder
from ..core.errors import (
    BadRequestError,
    DeadlineExceededError,
    ServeError,
    ServiceOverloadedError,
    StreamError,
    WorkerCrashError,
)
from .breaker import BreakerBoard
from .cache import PreparedArtifactCache
from .protocol import (
    MAX_FRAME_BYTES,
    Request,
    error_response,
    ok_response,
    parse_request,
)
from .retry import RetryPolicy, run_with_retry

#: serve.latency_ms histogram bucket upper edges.
LATENCY_BOUNDS_MS = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000)

#: Ceiling on the frame bytes of requests waiting for admission: the
#: memory 16 waiting requests of the largest frame size held before the
#: queue grew to hold about one second of work.
MAX_WAITING_BYTES = 16 * MAX_FRAME_BYTES

#: Ceiling on per-request resilience campaign size; the op is a shared
#: diagnostic, not a batch computing facility.
MAX_RESILIENCE_TRIALS = 100


# ----------------------------------------------------------------------
# worker-side functions (module-level: picklable for the process pool)
# ----------------------------------------------------------------------
#: Per-process artifact cache; each pool worker builds its own copy.
_WORKER_CACHE = PreparedArtifactCache(name="serve.worker_cache")


def _cached_encoder(k: int) -> NineCEncoder:
    return _WORKER_CACHE.get_or_build(
        ("encoder", k), lambda: NineCEncoder(k)
    )


def _cached_decoder(k: int) -> NineCDecoder:
    def build() -> NineCDecoder:
        decoder = NineCDecoder(k)
        decoder.scan_table  # materialize the LUT once, up front
        return decoder

    return _WORKER_CACHE.get_or_build(("decoder", k), build)


def _worker_compress_batch(k: int, items: Sequence[str],
                           capture: bool = False) -> dict:
    """Encode every ternary string in ``items`` with one cached encoder.

    Per-item failures come back as ``{"error": ...}`` entries instead
    of exceptions so one bad item cannot poison its batch peers (and so
    nothing exotic has to cross the pickle boundary).  Returns
    ``{"items": [...], "trace": events-or-None}``; with ``capture`` the
    batch's span events (one ``encode`` per item) ride back for the
    service to graft into the requesting traces.
    """
    from ..core.bitvec import TernaryVector

    encoder = _cached_encoder(k)
    results: List[dict] = []
    with _tracing.capture_scope(capture) as tracer:
        for item in items:
            try:
                encoding = encoder.encode(TernaryVector(item))
                results.append({
                    "stream": encoding.stream.to_string(),
                    "td_bits": encoding.original_length,
                    "te_bits": encoding.compressed_size,
                    "cr_percent": encoding.compression_ratio,
                    "leftover_x": encoding.leftover_x,
                })
            except ValueError as exc:
                results.append({"error": {
                    "type": type(exc).__name__, "message": str(exc),
                }})
    return {"items": results,
            "trace": tracer.events() if tracer is not None else None}


def _worker_decompress(k: int, stream: str,
                       output_length: Optional[int],
                       mode: str, recover: bool,
                       corrupt_fast: bool = False,
                       capture: bool = False) -> dict:
    """Decode one stream; ``mode`` picks fast/reference/verify.

    ``verify`` runs both paths and reports a mismatch instead of
    trusting the fast path — the runtime differential contract.
    ``corrupt_fast`` is the chaos hook: it deliberately damages the
    fast path's output so the contract visibly trips.  Stream errors
    are returned as data (see :func:`_worker_compress_batch`).  With
    ``capture`` the result carries the worker's span events under
    ``"trace"`` (also on the stream-error path — a failing decode's
    spans are exactly the ones worth seeing).
    """
    from ..core.bitvec import TernaryVector

    decoder = _cached_decoder(k)
    vector = TernaryVector(stream)
    with _tracing.capture_scope(capture) as tracer:
        try:
            if mode == "reference":
                decoded = decoder.decode_reference(
                    vector, output_length, recover=recover
                )
                used = "reference"
                mismatch = False
            else:
                decoded = decoder.decode_stream(
                    vector, output_length, recover=recover
                )
                used = "fast"
                mismatch = False
                if corrupt_fast and len(decoded) > 0:
                    damaged = decoded.data.copy()
                    damaged[0] ^= 1
                    decoded = TernaryVector(damaged)
                if mode == "verify":
                    reference = decoder.decode_reference(
                        vector, output_length, recover=recover
                    )
                    if decoded != reference:
                        decoded = reference
                        used = "reference"
                        mismatch = True
        except StreamError as exc:
            return {
                "stream_error": {
                    "type": type(exc).__name__,
                    "message": str(exc),
                    "bit_offset": exc.bit_offset,
                    "block_index": exc.block_index,
                },
                "trace": tracer.events() if tracer is not None else None,
            }
    diagnostics = decoder.last_diagnostics
    return {
        "data": decoded.to_string(),
        "bits": len(decoded),
        "path": used,
        "mismatch": mismatch,
        "recovered_errors": len(diagnostics.errors) if diagnostics else 0,
        "blocks_lost": diagnostics.blocks_lost if diagnostics else 0,
        "trace": tracer.events() if tracer is not None else None,
    }


def _worker_profile(k: int, data: str, capture: bool = False) -> dict:
    """Size/statistics-only measurement of one stream (no encode)."""
    from ..core.bitvec import TernaryVector

    with _tracing.capture_scope(capture) as tracer:
        measurement = _cached_encoder(k).measure(TernaryVector(data))
    return {
        "k": k,
        "td_bits": measurement.original_length,
        "te_bits": measurement.compressed_size,
        "cr_percent": measurement.compression_ratio,
        "leftover_x": measurement.leftover_x,
        "leftover_x_percent": measurement.leftover_x_percent,
        "case_counts": {
            case.name: count
            for case, count in sorted(
                measurement.case_counts.items(), key=lambda kv: kv[0].name
            ) if count
        },
        "trace": tracer.events() if tracer is not None else None,
    }


def _worker_resilience(circuit: str, k: int, error_rate: float,
                       trials: int, channel: str, seed: int,
                       capture: bool = False) -> dict:
    """One small channel-fault campaign (loaded via the worker cache)."""
    from ..circuits.library import load_circuit
    from ..robust.campaign import run_campaign

    netlist = _WORKER_CACHE.get_or_build(
        ("netlist", circuit), lambda: load_circuit(circuit)
    )
    with _tracing.capture_scope(capture) as tracer:
        report = run_campaign(
            netlist, k=k, error_rates=(error_rate,), trials=trials,
            channel=channel, seed=seed, circuit_name=circuit,
        )
    return {
        "circuit": circuit,
        "k": k,
        "stream_bits": report.stream_bits,
        "detection_rate": report.overall_detection_rate,
        "silent_escape_rate": report.overall_silent_escape_rate,
        "trace": tracer.events() if tracer is not None else None,
    }


def _worker_crash() -> None:
    """Chaos payload: kill this pool worker outright (no cleanup)."""
    os._exit(2)


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------
@dataclass
class ServiceConfig:
    """Tunable knobs of one :class:`CompressionService`."""

    k: int = 8
    executor: str = "process"          # process | thread | inline
    workers: int = 2
    max_inflight: int = 8
    max_queue: int = 256               # ~1 s of work at ~200 req/s
    default_deadline_ms: float = 10_000.0
    batch_window_ms: float = 2.0
    max_batch: int = 8
    differential_every: int = 64       # 0 disables runtime verification
    allow_chaos: bool = False
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    breaker_failure_threshold: int = 5
    breaker_recovery_s: float = 2.0
    breaker_half_open_max: int = 1
    cache_capacity: int = 128
    enable_obs: bool = True            # a service wants its metrics on
    trace_requests: bool = True        # per-request trace trees (needs obs)
    trace_capacity: int = 64           # recent traces kept for the trace op

    def __post_init__(self):
        if self.executor not in ("process", "thread", "inline"):
            raise ValueError(
                f"executor must be process|thread|inline, got {self.executor!r}"
            )
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if self.max_queue < 0:
            raise ValueError("max_queue must be >= 0")


# ----------------------------------------------------------------------
# chaos hooks (consumed here, armed via repro.serve.chaos)
# ----------------------------------------------------------------------
@dataclass
class ServiceFault:
    """One armed service-level fault, consumed ``times`` times.

    ``kind`` is one of ``worker_crash`` (kill/fail the worker call),
    ``fail`` (synthetic retryable failure without killing a process),
    ``latency`` (sleep ``seconds`` before dispatch) or ``corrupt_fast``
    (damage the decompress fast path's output so the differential
    contract trips).  ``op`` limits the fault to one operation.
    """

    kind: str
    times: int = 1
    seconds: float = 0.0
    op: Optional[str] = None

    KINDS = ("worker_crash", "fail", "latency", "corrupt_fast")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; one of {self.KINDS}"
            )
        if self.times < 1:
            raise ValueError("times must be >= 1")


class FaultPlan:
    """Thread-safe bag of armed :class:`ServiceFault` entries."""

    def __init__(self, faults: Sequence[ServiceFault] = ()):
        self._lock = threading.Lock()
        self._faults: List[ServiceFault] = list(faults)
        self.consumed: List[str] = []

    def arm(self, fault: ServiceFault) -> None:
        with self._lock:
            self._faults.append(fault)

    def take(self, op: str, kind: Optional[str] = None) -> Optional[ServiceFault]:
        """Consume (decrement) the first matching armed fault."""
        with self._lock:
            for fault in self._faults:
                if fault.op is not None and fault.op != op:
                    continue
                if kind is not None and fault.kind != kind:
                    continue
                fault.times -= 1
                if fault.times <= 0:
                    self._faults.remove(fault)
                self.consumed.append(fault.kind)
                return fault
            return None

    def pending(self) -> List[dict]:
        with self._lock:
            return [{"kind": f.kind, "times": f.times, "op": f.op}
                    for f in self._faults]


# ----------------------------------------------------------------------
# per-request tracing
# ----------------------------------------------------------------------
#: The request trace active in the current asyncio context, if any.
#: Contextvars follow tasks, so everything awaited on behalf of one
#: request — admission, batching, executor round-trips — sees its trace.
_request_trace: contextvars.ContextVar[Optional["RequestTrace"]] = \
    contextvars.ContextVar("repro_request_trace", default=None)


class RequestTrace:
    """One request's trace: a minted id plus an event-recording tracer."""

    __slots__ = ("trace_id", "request_id", "op", "tracer", "started")

    def __init__(self, request_id: str, op: str):
        self.trace_id = _tracing.mint_trace_id()
        self.request_id = request_id
        self.op = op
        self.tracer = _tracing.Tracer(record_events=True)
        self.started = time.time()

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "request_id": self.request_id,
            "op": self.op,
            "started": self.started,
            "events": self.tracer.events(),
            "tree": self.tracer.tree(),
        }


class TraceStore:
    """Bounded ring of recently completed request traces."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._traces: deque = deque(maxlen=max(1, capacity))
        self.recorded = 0

    def add(self, trace: RequestTrace) -> None:
        self._traces.append(trace)
        self.recorded += 1

    def snapshot(self, limit: Optional[int] = None,
                 trace_id: Optional[str] = None) -> List[dict]:
        """Most-recent-first trace dicts, optionally filtered by id."""
        traces = [t for t in reversed(self._traces)
                  if trace_id is None or t.trace_id == trace_id]
        if limit is not None:
            traces = traces[:limit]
        return [t.to_dict() for t in traces]


# ----------------------------------------------------------------------
# the service
# ----------------------------------------------------------------------
class _Batch:
    """One pending compress micro-batch on a route."""

    __slots__ = ("items", "futures", "traces", "handle")

    def __init__(self):
        self.items: List[str] = []
        self.futures: List[asyncio.Future] = []
        self.traces: List[Optional[RequestTrace]] = []
        self.handle: Optional[asyncio.TimerHandle] = None


class CompressionService:
    """Async request broker over the 9C pipeline; see module docstring."""

    def __init__(self, config: Optional[ServiceConfig] = None):
        self.config = config or ServiceConfig()
        self.cache = PreparedArtifactCache(self.config.cache_capacity)
        self.breakers = BreakerBoard(
            failure_threshold=self.config.breaker_failure_threshold,
            recovery_s=self.config.breaker_recovery_s,
            half_open_max=self.config.breaker_half_open_max,
        )
        self.fault_plan = FaultPlan()
        self._executor: Optional[Any] = None
        self._executor_lock = asyncio.Lock()
        self._executor_generation = 0
        self._semaphore = asyncio.Semaphore(self.config.max_inflight)
        self._waiting = 0
        self._waiting_bytes = 0
        self._inflight = 0
        self._degraded_routes: Set[Tuple] = set()
        self._route_counts: Dict[Tuple, int] = {}
        self._batches: Dict[Tuple, _Batch] = {}
        self._retry_rng = random.Random(self.config.retry.seed)
        self.traces = TraceStore(self.config.trace_capacity)
        self._started = False
        self.totals = {
            "requests": 0, "ok": 0, "errors": 0, "degraded": 0,
            "shed": 0, "retries": 0, "worker_crashes": 0,
        }

    # -- lifecycle ------------------------------------------------------
    async def start(self) -> "CompressionService":
        """Create the executor, switch instrumentation on; idempotent."""
        if not self._started:
            if self.config.enable_obs:
                _obs.enable()
            self._executor = self._new_executor()
            self._started = True
            _log.info("serve.start", executor=self.config.executor,
                      workers=self.config.workers, k=self.config.k,
                      tracing=self._tracing_active())
        return self

    async def close(self) -> None:
        """Flush batches, stop the executor."""
        for route in list(self._batches):
            self._flush_batch(route)
        await asyncio.sleep(0)
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None
        self._started = False
        _log.info("serve.close", totals=dict(self.totals))

    def _new_executor(self) -> Optional[Any]:
        if self.config.executor == "process":
            return ProcessPoolExecutor(max_workers=self.config.workers)
        if self.config.executor == "thread":
            return ThreadPoolExecutor(max_workers=self.config.workers)
        return None  # inline

    # -- executor dispatch with crash recovery --------------------------
    async def _run_in_executor(self, fn: Callable, *args) -> Any:
        """One executor call; a dead pool becomes a retryable crash error."""
        if not self._started:
            await self.start()
        loop = asyncio.get_running_loop()
        generation = self._executor_generation
        try:
            if self._executor is None:
                return fn(*args)  # inline mode
            return await loop.run_in_executor(
                self._executor, partial(fn, *args)
            )
        except BrokenProcessPool:
            self.totals["worker_crashes"] += 1
            if _obs.enabled():
                _obs.counter("serve.worker_crashes").inc()
            _log.error("serve.worker_crash", generation=generation)
            await self._rebuild_executor(generation)
            raise WorkerCrashError(
                "worker process pool broke during the call"
            ) from None

    async def _rebuild_executor(self, seen_generation: int) -> None:
        """Replace a broken pool exactly once per breakage."""
        async with self._executor_lock:
            if self._executor_generation != seen_generation:
                return  # someone else already rebuilt it
            broken, self._executor = self._executor, self._new_executor()
            self._executor_generation += 1
            if broken is not None:
                broken.shutdown(wait=False, cancel_futures=True)

    def _tracing_active(self) -> bool:
        """Whether per-request trace trees are being recorded."""
        return self.config.trace_requests and _obs.enabled()

    def _req_span(self, name: str):
        """A span on the current request's trace, or the shared no-op."""
        trace = _request_trace.get()
        if trace is None:
            return _tracing.NULL_SPAN
        return trace.tracer.span(name)

    async def _run_job(self, route: Tuple, fn: Callable, *args,
                       on_trace: Optional[Callable] = None) -> Any:
        """breaker -> bounded retry -> executor, for one worker job.

        Dict results may carry a ``"trace"`` event list from the worker
        (see :func:`~repro.obs.tracing.capture_scope`); it is popped
        here — never leaked into a response — and grafted into the
        current request's trace under this job's ``worker.<op>`` span,
        or handed to ``on_trace`` when the caller routes it elsewhere
        (the batch seam, where one worker call serves several
        requests).
        """
        breaker = self.breakers.breaker(route)
        breaker.before_call()

        async def attempt() -> Any:
            fault = self.fault_plan.take(route[0], kind="worker_crash")
            if fault is not None:
                if (self.config.executor == "process"
                        and self._executor is not None):
                    await self._run_in_executor(_worker_crash)
                    raise WorkerCrashError("worker did not crash as asked")
                raise WorkerCrashError("worker killed by chaos plan")
            if self.fault_plan.take(route[0], kind="fail") is not None:
                raise WorkerCrashError("synthetic worker failure (chaos)")
            return await self._run_in_executor(fn, *args)

        def count_retry(attempt_index: int, exc: ServeError) -> None:
            self.totals["retries"] += 1
            if _obs.enabled():
                _obs.counter("serve.retries").inc()
            _log.warning("serve.retry", route=list(route),
                         attempt=attempt_index, error=exc.code)

        trace = _request_trace.get()
        with (trace.tracer.span(f"worker.{route[0]}")
              if trace is not None else _tracing.NULL_SPAN):
            try:
                result = await run_with_retry(
                    attempt, self.config.retry,
                    rng=self._retry_rng, on_retry=count_retry,
                )
            except ServeError as exc:
                if exc.retryable:
                    breaker.record_failure()
                raise
            breaker.record_success()
            if isinstance(result, dict):
                events = result.pop("trace", None)
                if events:
                    if on_trace is not None:
                        on_trace(events)
                    elif trace is not None:
                        # anchored at the still-open worker span's start
                        trace.tracer.graft_events(events)
        return result

    # -- admission + deadline wrapper -----------------------------------
    async def handle_request(self, payload) -> dict:
        """The single entry point: bytes/dict/Request in, response dict out."""
        started = time.perf_counter()
        try:
            request = self._coerce_request(payload)
        except ServeError as exc:
            self._count_response(ok=False, code=exc.code)
            return error_response("", exc)
        self.totals["requests"] += 1
        if _obs.enabled():
            _obs.counter("serve.requests").inc()
            _obs.counter(f"serve.requests.{request.op}").inc()
        trace: Optional[RequestTrace] = None
        if (self._tracing_active()
                and request.op not in ("health", "metrics", "chaos", "trace")):
            trace = RequestTrace(request.id, request.op)
        bound = {"request_id": request.id, "op": request.op}
        if trace is not None:
            bound["trace_id"] = trace.trace_id
        with _log.bind(**bound):
            try:
                response = await self._dispatch_traced(request, trace)
            except ServeError as exc:
                self._count_response(ok=False, code=exc.code)
                _log.warning("serve.request_error", code=exc.code,
                             message=str(exc))
                response = error_response(request.id, exc)
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # noqa: BLE001 - the contract boundary:
                # no request may die without a typed response.
                error = ServeError(
                    f"internal error: {type(exc).__name__}: {exc}"
                )
                self._count_response(ok=False, code=error.code)
                _log.error("serve.internal_error",
                           type=type(exc).__name__, message=str(exc))
                response = error_response(request.id, error)
            else:
                self._count_response(
                    ok=True, degraded=bool(response.get("degraded"))
                )
        if _obs.enabled():
            _obs.histogram("serve.latency_ms", LATENCY_BOUNDS_MS).observe(
                (time.perf_counter() - started) * 1e3
            )
        return response

    async def _dispatch_traced(self, request: Request,
                               trace: Optional[RequestTrace]) -> dict:
        """Run one request under its trace's root span (when traced)."""
        if trace is None:
            return await self._admit_and_dispatch(request)
        token = _request_trace.set(trace)
        try:
            with trace.tracer.span(f"request.{request.op}"):
                return await self._admit_and_dispatch(request)
        finally:
            _request_trace.reset(token)
            self.traces.add(trace)

    def _coerce_request(self, payload) -> Request:
        if isinstance(payload, Request):
            return payload
        if isinstance(payload, (bytes, bytearray)):
            return parse_request(bytes(payload))
        if isinstance(payload, dict):
            import json

            return parse_request(json.dumps(payload).encode())
        raise BadRequestError(
            "unsupported request payload", got=type(payload).__name__
        )

    async def _admit_and_dispatch(self, request: Request) -> dict:
        deadline_ms = request.deadline_ms or self.config.default_deadline_ms
        if request.op in ("health", "metrics", "chaos", "trace"):
            # the control plane must answer even under full load-shed
            return await asyncio.wait_for(
                self._dispatch(request), timeout=deadline_ms / 1e3
            )
        size = request.frame_bytes
        if (self._waiting >= self.config.max_queue
                or self._waiting_bytes + size > MAX_WAITING_BYTES):
            self.totals["shed"] += 1
            if _obs.enabled():
                _obs.counter("serve.shed").inc()
            _log.warning("serve.shed", inflight=self._inflight,
                         waiting=self._waiting,
                         waiting_bytes=self._waiting_bytes,
                         max_queue=self.config.max_queue)
            raise ServiceOverloadedError(
                "request shed: admission queue full",
                inflight=self._inflight,
                waiting=self._waiting,
                waiting_bytes=self._waiting_bytes,
                max_queue=self.config.max_queue,
            )
        self._waiting += 1
        self._waiting_bytes += size
        dequeued = False

        def dequeue() -> None:
            nonlocal dequeued
            self._waiting -= 1
            self._waiting_bytes -= size
            dequeued = True

        async def admitted() -> dict:
            with self._req_span("admission.wait"):
                await self._semaphore.acquire()
            try:
                dequeue()
                self._inflight += 1
                try:
                    return await self._dispatch(request)
                finally:
                    self._inflight -= 1
            finally:
                self._semaphore.release()

        try:
            # the deadline covers queue wait *and* execution: a request
            # stuck behind a full semaphore still terminates on time
            return await asyncio.wait_for(
                admitted(), timeout=deadline_ms / 1e3
            )
        except asyncio.TimeoutError:
            _log.warning("serve.deadline", deadline_ms=deadline_ms)
            raise DeadlineExceededError(
                "deadline elapsed", deadline_ms=deadline_ms, op=request.op
            ) from None
        finally:
            if not dequeued:
                dequeue()  # cancelled while still queued

    async def _dispatch(self, request: Request) -> dict:
        fault = self.fault_plan.take(request.op, kind="latency")
        if fault is not None:
            await asyncio.sleep(fault.seconds)
        handler = getattr(self, f"_op_{request.op}", None)
        if handler is None:
            raise BadRequestError("unknown op", op=request.op)
        result, degraded, flags = await handler(request.params)
        return ok_response(request.id, result, degraded=degraded, flags=flags)

    def _count_response(self, *, ok: bool, code: str = "",
                        degraded: bool = False) -> None:
        key = "ok" if ok else "errors"
        self.totals[key] += 1
        if degraded:
            self.totals["degraded"] += 1
        if _obs.enabled():
            _obs.counter(f"serve.{key}").inc()
            if code:
                _obs.counter(f"serve.errors.{code}").inc()
            if degraded:
                _obs.counter("serve.degraded").inc()

    # -- shared param plumbing ------------------------------------------
    def _param_k(self, params: dict) -> int:
        k = params.get("k", self.config.k)
        if not isinstance(k, int) or k < 2 or k % 2:
            raise BadRequestError(
                "k must be an even integer >= 2", k=repr(k)
            )
        return k

    def _circuit_stream(self, name: str) -> str:
        """The circuit's ATPG test stream as a ternary string (cached)."""
        def build() -> str:
            from ..atpg.flow import generate_test_cubes
            from ..circuits.library import available_circuits, load_circuit

            if name not in available_circuits():
                raise BadRequestError(
                    "unknown circuit", circuit=name,
                    available=", ".join(available_circuits()),
                )
            cubes = generate_test_cubes(load_circuit(name))
            return cubes.test_set.to_stream().to_string()

        return self.cache.get_or_build(("circuit_stream", name), build)

    # -- op: compress ---------------------------------------------------
    async def _op_compress(self, params: dict):
        k = self._param_k(params)
        items = params.get("items")
        data = params.get("data")
        circuit = params.get("circuit")
        if sum(x is not None for x in (items, data, circuit)) != 1:
            raise BadRequestError(
                "provide exactly one of items, data, circuit"
            )
        if circuit is not None:
            data = self._circuit_stream(str(circuit))
        if data is not None:
            results = [await self._enqueue_compress(k, str(data))]
            single = True
        else:
            if not isinstance(items, list) or not items:
                raise BadRequestError("items must be a non-empty list")
            results = list(await asyncio.gather(*[
                self._enqueue_compress(k, str(item)) for item in items
            ]))
            single = False
        for result in results:
            if "error" in result:
                raise BadRequestError(
                    f"encode failed: {result['error']['message']}",
                    type=result["error"]["type"],
                )
        payload = results[0] if single else {"items": results}
        payload = dict(payload) if single else payload
        payload["k"] = k
        return payload, False, ()

    async def _enqueue_compress(self, k: int, data: str) -> dict:
        """Join the route's micro-batch; resolves to this item's result.

        A traced request registers its :class:`RequestTrace` with the
        batch; when the shared worker call returns, the batch's span
        events are grafted under this request's ``batch.wait`` span (a
        member of a batch sees the whole batch's ``encode`` spans —
        that *is* its latency story).
        """
        route = ("compress", k)
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        batch = self._batches.get(route)
        if batch is None:
            batch = self._batches[route] = _Batch()
        batch.items.append(data)
        batch.futures.append(future)
        batch.traces.append(_request_trace.get())
        if len(batch.items) >= self.config.max_batch:
            self._flush_batch(route)
        elif batch.handle is None:
            batch.handle = loop.call_later(
                self.config.batch_window_ms / 1e3,
                self._flush_batch, route,
            )
        with self._req_span("batch.wait"):
            result, events = await future
            trace = _request_trace.get()
            if trace is not None and events:
                trace.tracer.graft_events(events)
        return result

    def _flush_batch(self, route: Tuple) -> None:
        batch = self._batches.pop(route, None)
        if batch is None or not batch.items:
            return
        if batch.handle is not None:
            batch.handle.cancel()
        if _obs.enabled():
            _obs.histogram(
                "serve.batch_size", (1, 2, 4, 8, 16, 32)
            ).observe(len(batch.items))
        _log.debug("serve.batch", route=list(route), size=len(batch.items))
        asyncio.ensure_future(self._run_batch(route, batch))

    async def _run_batch(self, route: Tuple, batch: _Batch) -> None:
        # This task inherits the context of whichever member triggered
        # the flush; the batch belongs to all members equally, so drop
        # the request trace — members graft the captured events under
        # their own ``batch.wait`` spans instead.
        _request_trace.set(None)
        capture = any(trace is not None for trace in batch.traces)
        captured: List[Optional[list]] = [None]
        try:
            payload = await self._run_job(
                route, _worker_compress_batch, route[1], batch.items,
                capture,
                on_trace=lambda events: captured.__setitem__(0, events),
            )
        except BaseException as exc:  # noqa: BLE001 - fan the failure out
            # to every waiter; the batch seam must not swallow errors.
            for future in batch.futures:
                if not future.done():
                    future.set_exception(exc)
            return
        for future, result in zip(batch.futures, payload["items"]):
            if not future.done():
                future.set_result((result, captured[0]))

    # -- op: decompress -------------------------------------------------
    async def _op_decompress(self, params: dict):
        k = self._param_k(params)
        stream = params.get("stream")
        if not isinstance(stream, str):
            raise BadRequestError("stream must be a ternary string")
        output_length = params.get("output_length")
        if output_length is not None and (
                not isinstance(output_length, int) or output_length < 0):
            raise BadRequestError(
                "output_length must be a non-negative integer",
                got=repr(output_length),
            )
        recover = bool(params.get("recover", False))
        route = ("decompress", k)
        flags: List[str] = []
        degraded = False

        if route in self._degraded_routes:
            mode = "reference"
            flags.append("fastpath_degraded")
            degraded = True
        else:
            count = self._route_counts.get(route, 0) + 1
            self._route_counts[route] = count
            every = self.config.differential_every
            mode = "verify" if every and count % every == 0 else "fast"
        if mode == "verify":
            _log.debug("serve.differential", route=list(route))
        corrupt = self.fault_plan.take(
            "decompress", kind="corrupt_fast"
        ) is not None

        result = await self._run_job(
            route, _worker_decompress, k, stream, output_length,
            mode, recover, corrupt, _request_trace.get() is not None,
        )
        if "stream_error" in result:
            info = result["stream_error"]
            _log.warning("serve.stream_error", type=info["type"],
                         bit_offset=info["bit_offset"],
                         block_index=info["block_index"])
            raise BadRequestError(
                f"stream error: {info['message']}",
                stream_error=info["type"],
                bit_offset=info["bit_offset"],
                block_index=info["block_index"],
            )
        if result.pop("mismatch", False):
            # the differential contract tripped: serve the reference
            # result, flag it, and pin the route to the reference path.
            self._degraded_routes.add(route)
            flags.append("fastpath_mismatch")
            degraded = True
            if _obs.enabled():
                _obs.counter("serve.fastpath_mismatches").inc()
            _log.error("serve.fastpath_mismatch", route=list(route),
                       action="route pinned to reference path")
        if result.get("recovered_errors") or result.get("blocks_lost"):
            flags.append("recovered_with_loss")
            degraded = True
        result["k"] = k
        return result, degraded, flags

    # -- op: profile ----------------------------------------------------
    async def _op_profile(self, params: dict):
        k = self._param_k(params)
        circuit = params.get("circuit")
        data = params.get("data")
        if (circuit is None) == (data is None):
            raise BadRequestError("provide exactly one of circuit, data")
        if circuit is not None:
            data = self._circuit_stream(str(circuit))
        route = ("profile", k)
        result = await self._run_job(
            route, _worker_profile, k, str(data),
            _request_trace.get() is not None,
        )
        return result, False, ()

    # -- op: resilience -------------------------------------------------
    async def _op_resilience(self, params: dict):
        k = self._param_k(params)
        circuit = str(params.get("circuit", "s27"))
        error_rate = params.get("error_rate", 1e-3)
        if not isinstance(error_rate, (int, float)) or not 0 <= error_rate <= 1:
            raise BadRequestError(
                "error_rate must be in [0, 1]", got=repr(error_rate)
            )
        trials = params.get("trials", 5)
        if not isinstance(trials, int) or trials < 1:
            raise BadRequestError("trials must be a positive integer")
        if trials > MAX_RESILIENCE_TRIALS:
            raise BadRequestError(
                "trials above per-request ceiling",
                trials=trials, ceiling=MAX_RESILIENCE_TRIALS,
            )
        channel = str(params.get("channel", "flip"))
        seed = int(params.get("seed", 0))
        from ..circuits.library import available_circuits

        if circuit not in available_circuits():
            raise BadRequestError(
                "unknown circuit", circuit=circuit,
                available=", ".join(available_circuits()),
            )
        from ..robust.channel import CHANNEL_KINDS

        if channel not in CHANNEL_KINDS:
            raise BadRequestError(
                "unknown channel", channel=channel,
                available=", ".join(sorted(CHANNEL_KINDS)),
            )
        route = ("resilience", circuit, k)
        result = await self._run_job(
            route, _worker_resilience, circuit, k,
            float(error_rate), trials, channel, seed,
            _request_trace.get() is not None,
        )
        return result, False, ()

    # -- op: health / metrics / chaos -----------------------------------
    async def _op_health(self, params: dict):
        result = {
            "status": "ok",
            "executor": self.config.executor,
            "workers": self.config.workers,
            "inflight": self._inflight,
            "waiting": self._waiting,
            "totals": dict(self.totals),
            "cache": self.cache.stats(),
            "breakers": self.breakers.snapshot(),
            "degraded_routes": sorted(
                "/".join(str(part) for part in route)
                for route in self._degraded_routes
            ),
            "chaos_pending": self.fault_plan.pending(),
            "traces_recorded": self.traces.recorded,
        }
        return result, False, ()

    async def _op_metrics(self, params: dict):
        from ..obs.metrics import render_prometheus_text

        return {"text": render_prometheus_text()}, False, ()

    async def _op_trace(self, params: dict):
        """Recent request traces (control plane, bypasses admission).

        ``limit`` bounds how many most-recent traces come back;
        ``trace_id`` filters to one.  Each trace carries both the raw
        span events (Chrome-trace-ready via
        :func:`repro.obs.tracing.chrome_trace`) and the aggregated tree.
        """
        limit = params.get("limit", 16)
        if not isinstance(limit, int) or limit < 1:
            raise BadRequestError("limit must be a positive integer",
                                  got=repr(limit))
        trace_id = params.get("trace_id")
        if trace_id is not None and not isinstance(trace_id, str):
            raise BadRequestError("trace_id must be a string")
        result = {
            "traces": self.traces.snapshot(limit=limit, trace_id=trace_id),
            "recorded": self.traces.recorded,
            "capacity": self.traces.capacity,
            "tracing": self._tracing_active(),
        }
        return result, False, ()

    async def _op_chaos(self, params: dict):
        if not self.config.allow_chaos:
            raise BadRequestError(
                "chaos ops are disabled; start the service with "
                "allow_chaos=True (serve --chaos)"
            )
        try:
            fault = ServiceFault(
                kind=str(params.get("fault", "")),
                times=int(params.get("times", 1)),
                seconds=float(params.get("ms", 0.0)) / 1e3,
                op=params.get("op"),
            )
        except ValueError as exc:
            raise BadRequestError(f"bad fault spec: {exc}") from None
        self.fault_plan.arm(fault)
        return {"armed": self.fault_plan.pending()}, False, ()

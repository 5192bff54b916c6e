"""Tests for repro.serve: protocol, cache, retry, breaker, service, TCP."""

from __future__ import annotations

import asyncio
import json
import threading

import pytest

from repro.core.bitvec import TernaryVector
from repro.core.decoder import NineCDecoder
from repro.core.encoder import NineCEncoder
from repro.core.errors import (
    BadRequestError,
    CircuitOpenError,
    MalformedFrameError,
    ServiceOverloadedError,
    WorkerCrashError,
)
from repro.serve import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    BreakerBoard,
    CircuitBreaker,
    Client,
    CompressionService,
    PreparedArtifactCache,
    RetryPolicy,
    ServeServer,
    ServiceConfig,
    ServiceFault,
    TCPClient,
    encode_frame,
    parse_request,
    run_with_retry,
)

DATA = "00000000" + "11111111" + "0110X01X" + "0000X0X0"


def expected_decode(data: str = DATA, k: int = 8) -> str:
    """What a clean decompress of ``data``'s stream must return.

    Encoding fills don't-cares, so the decoded stream is the X-filled
    version of ``data``, not ``data`` itself.
    """
    encoding = NineCEncoder(k).encode(TernaryVector(data))
    return NineCDecoder(k).decode_stream(
        encoding.stream, encoding.original_length
    ).to_string()


def run(coroutine):
    return asyncio.run(coroutine)


def inline_config(**overrides) -> ServiceConfig:
    """Inline executor, obs untouched: fast and side-effect-free."""
    overrides.setdefault("executor", "inline")
    overrides.setdefault("enable_obs", False)
    return ServiceConfig(**overrides)


async def with_service(config, action):
    service = CompressionService(config)
    await service.start()
    try:
        return await action(service, Client(service))
    finally:
        await service.close()


# ----------------------------------------------------------------------
# protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def test_parse_roundtrip(self):
        line = encode_frame({"id": "r1", "op": "compress",
                             "params": {"k": 8}, "deadline_ms": 250})
        request = parse_request(line)
        assert request.id == "r1"
        assert request.op == "compress"
        assert request.params == {"k": 8}
        assert request.deadline_ms == 250.0

    def test_defaults(self):
        request = parse_request(b'{"op": "health"}\n')
        assert request.id == ""
        assert request.params == {}
        assert request.deadline_ms is None

    @pytest.mark.parametrize("line", [
        b"not json\n",
        b"[1, 2, 3]\n",
        b'{"op": "unknown_op"}\n',
        b'{"params": {}}\n',
        b'{"op": "compress", "params": "nope"}\n',
        b'{"op": "compress", "deadline_ms": -1}\n',
        b'{"op": "compress", "deadline_ms": "soon"}\n',
        b"\xff\xfe\n",
    ])
    def test_malformed_frames_raise_typed_error(self, line):
        with pytest.raises(MalformedFrameError) as excinfo:
            parse_request(line)
        wire = excinfo.value.to_wire()
        assert wire["code"] == "malformed_frame"
        assert wire["retryable"] is False

    def test_oversized_frame_rejected(self):
        from repro.serve import MAX_FRAME_BYTES

        with pytest.raises(MalformedFrameError):
            parse_request(b"x" * (MAX_FRAME_BYTES + 1))

    def test_serve_error_wire_shape(self):
        error = ServiceOverloadedError("busy", waiting=3)
        wire = error.to_wire()
        assert wire["code"] == "overloaded"
        assert wire["retryable"] is True
        assert wire["context"]["waiting"] == 3


# ----------------------------------------------------------------------
# cache
# ----------------------------------------------------------------------
class TestPreparedArtifactCache:
    def test_hit_miss_counts(self):
        cache = PreparedArtifactCache(capacity=4)
        assert cache.get("a") == (False, None)
        cache.put("a", 1)
        assert cache.get("a") == (True, 1)
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.hit_rate == 0.5

    def test_lru_eviction_order(self):
        cache = PreparedArtifactCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")          # refresh a; b is now LRU
        cache.put("c", 3)
        assert cache.get("b") == (False, None)
        assert cache.get("a") == (True, 1)
        assert cache.evictions == 1

    def test_get_or_build_builds_once(self):
        cache = PreparedArtifactCache(capacity=4)
        calls = []
        for _ in range(3):
            value = cache.get_or_build("k", lambda: calls.append(1) or "v")
        assert value == "v"
        assert len(calls) == 1

    def test_thread_safety_under_contention(self):
        cache = PreparedArtifactCache(capacity=16)

        def hammer(seed: int) -> None:
            for index in range(500):
                key = (seed * index) % 24
                cache.get_or_build(key, lambda k=key: k * 2)
                cache.get(key)

        threads = [threading.Thread(target=hammer, args=(seed,))
                   for seed in range(1, 7)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stats = cache.stats()
        assert stats["size"] <= 16
        assert stats["hits"] + stats["misses"] == 6 * 500 * 2

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            PreparedArtifactCache(capacity=0)

    def test_build_race_loser_behaves_like_hit(self):
        # regression: the race-loser branch used to return the winner's
        # entry without refreshing recency or counting the hit
        cache = PreparedArtifactCache(capacity=2)
        cache.put("other", 0)

        def builder_that_loses():
            # simulates another thread winning the build while ours runs
            cache.put("k", "winner")
            return "loser"

        assert cache.get_or_build("k", builder_that_loses) == "winner"
        assert (cache.hits, cache.misses) == (1, 1)
        # the race hit must refresh recency: "other" is now LRU
        cache.put("c", 3)
        assert cache.get("other") == (False, None)
        assert cache.get("k") == (True, "winner")

    def test_build_race_threaded(self):
        cache = PreparedArtifactCache(capacity=4)
        builder_entered = threading.Event()
        winner_done = threading.Event()
        results = {}

        def slow_builder():
            builder_entered.set()
            assert winner_done.wait(5)
            return "loser"

        def loser():
            results["loser"] = cache.get_or_build("k", slow_builder)

        thread = threading.Thread(target=loser)
        thread.start()
        assert builder_entered.wait(5)
        results["winner"] = cache.get_or_build("k", lambda: "winner")
        winner_done.set()
        thread.join(5)
        assert results == {"winner": "winner", "loser": "winner"}
        # loser's lookup missed, then its race resolution counted a hit
        assert (cache.hits, cache.misses) == (1, 2)

    def test_race_eviction_mirrors_obs_counters(self):
        from repro import obs
        from repro.obs import get_registry

        obs.reset()
        cache = PreparedArtifactCache(capacity=1, name="test.cache")
        cache.put("a", 1)
        with obs.enabled_scope(True):
            cache.get_or_build("a", lambda: "unused-build")  # plain hit

            def builder_that_loses():
                cache.put("r", "winner")  # another thread wins; evicts a
                return "loser"

            assert cache.get_or_build("r", builder_that_loses) == "winner"
            cache.get_or_build("b", lambda: 2)  # miss, insert evicts r
        snapshot = get_registry().snapshot()["counters"]
        assert snapshot["test.cache.hits"] == cache.hits == 2
        assert snapshot["test.cache.misses"] == cache.misses == 2
        assert snapshot["test.cache.evictions"] == cache.evictions == 2
        obs.reset()


# ----------------------------------------------------------------------
# retry
# ----------------------------------------------------------------------
class TestRetry:
    def test_retries_retryable_until_success(self):
        attempts = []

        async def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise WorkerCrashError("boom")
            return "done"

        policy = RetryPolicy(max_attempts=5, base_s=0.0, jitter=0.0)
        assert run(run_with_retry(flaky, policy)) == "done"
        assert len(attempts) == 3

    def test_non_retryable_fails_immediately(self):
        attempts = []

        async def bad():
            attempts.append(1)
            raise BadRequestError("nope")

        policy = RetryPolicy(max_attempts=5, base_s=0.0)
        with pytest.raises(BadRequestError):
            run(run_with_retry(bad, policy))
        assert len(attempts) == 1

    def test_exhaustion_reports_attempts(self):
        async def always():
            raise WorkerCrashError("boom")

        policy = RetryPolicy(max_attempts=3, base_s=0.0, jitter=0.0)
        with pytest.raises(WorkerCrashError) as excinfo:
            run(run_with_retry(always, policy))
        assert excinfo.value.context["attempts"] == 3

    def test_backoff_schedule_deterministic_and_bounded(self):
        policy = RetryPolicy(max_attempts=6, base_s=0.1, multiplier=2.0,
                             max_backoff_s=0.3, jitter=0.25, seed=42)
        schedule = policy.schedule()
        assert schedule == policy.schedule()  # seeded => replayable
        assert len(schedule) == 5
        for delay in schedule:
            assert delay <= 0.3 * 1.25

    def test_on_retry_callback_counts(self):
        seen = []

        async def always():
            raise WorkerCrashError("boom")

        policy = RetryPolicy(max_attempts=3, base_s=0.0, jitter=0.0)
        with pytest.raises(WorkerCrashError):
            run(run_with_retry(always, policy,
                               on_retry=lambda n, e: seen.append(n)))
        assert seen == [0, 1]


# ----------------------------------------------------------------------
# circuit breaker
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestCircuitBreaker:
    def make(self, **kwargs):
        clock = FakeClock()
        kwargs.setdefault("failure_threshold", 3)
        kwargs.setdefault("recovery_s", 10.0)
        return CircuitBreaker("test", clock=clock, **kwargs), clock

    def test_full_state_machine_cycle(self):
        breaker, clock = self.make()
        for _ in range(3):
            breaker.before_call()
            breaker.record_failure()
        assert breaker.state == OPEN
        with pytest.raises(CircuitOpenError):
            breaker.before_call()
        clock.now = 10.0
        assert breaker.state == HALF_OPEN
        breaker.before_call()           # the probe is admitted
        breaker.record_success()
        assert breaker.state == CLOSED
        states = [(a, b) for _, a, b in breaker.transitions]
        assert states == [(CLOSED, OPEN), (OPEN, HALF_OPEN),
                          (HALF_OPEN, CLOSED)]

    def test_failed_probe_reopens(self):
        breaker, clock = self.make()
        for _ in range(3):
            breaker.record_failure()
        clock.now = 10.0
        breaker.before_call()
        breaker.record_failure()
        assert breaker.state == OPEN
        clock.now = 15.0
        assert breaker.state == OPEN    # fresh recovery window
        clock.now = 20.0
        assert breaker.state == HALF_OPEN

    def test_half_open_admits_limited_probes(self):
        breaker, clock = self.make(half_open_max=1)
        for _ in range(3):
            breaker.record_failure()
        clock.now = 10.0
        breaker.before_call()
        with pytest.raises(CircuitOpenError):
            breaker.before_call()       # second concurrent probe rejected

    def test_success_resets_failure_run(self):
        breaker, _ = self.make()
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CLOSED

    def test_open_error_is_retryable_with_context(self):
        breaker, _ = self.make(failure_threshold=1)
        breaker.record_failure()
        with pytest.raises(CircuitOpenError) as excinfo:
            breaker.before_call()
        wire = excinfo.value.to_wire()
        assert wire["retryable"] is True
        assert wire["context"]["route"] == "test"
        assert "retry_in_s" in wire["context"]

    def test_board_creates_per_route(self):
        board = BreakerBoard(failure_threshold=2)
        assert board.breaker(("compress", 8)) is board.breaker(("compress", 8))
        assert board.breaker(("compress", 8)) is not board.breaker(
            ("decompress", 8))
        assert set(board.snapshot()) == {
            "('compress', 8)", "('decompress', 8)"}


# ----------------------------------------------------------------------
# service ops
# ----------------------------------------------------------------------
class TestServiceOps:
    def test_compress_decompress_roundtrip(self):
        async def scenario(service, client):
            compressed = await client.call("compress",
                                           {"data": DATA, "k": 8})
            assert compressed["ok"] and not compressed["degraded"]
            result = compressed["result"]
            assert result["td_bits"] == len(DATA)
            decompressed = await client.call("decompress", {
                "stream": result["stream"], "k": 8,
                "output_length": result["td_bits"],
            })
            assert decompressed["ok"]
            assert decompressed["result"]["data"] == expected_decode()

        run(with_service(inline_config(), scenario))

    def test_compress_batch_items(self):
        async def scenario(service, client):
            response = await client.call(
                "compress", {"items": [DATA, DATA, DATA], "k": 8})
            assert response["ok"]
            items = response["result"]["items"]
            assert len(items) == 3
            assert len({item["stream"] for item in items}) == 1

        run(with_service(inline_config(), scenario))

    def test_batching_coalesces_concurrent_requests(self):
        async def scenario(service, client):
            responses = await asyncio.gather(*[
                client.call("compress", {"data": DATA, "k": 8})
                for _ in range(6)
            ])
            assert all(r["ok"] for r in responses)
            streams = {r["result"]["stream"] for r in responses}
            assert len(streams) == 1

        run(with_service(inline_config(max_batch=4), scenario))

    def test_bad_requests_are_typed(self):
        async def scenario(service, client):
            cases = [
                ("compress", {}),                       # no input at all
                ("compress", {"data": DATA, "k": 7}),   # odd K
                ("compress", {"data": "012abc", "k": 8}),
                ("decompress", {"k": 8}),               # no stream
                ("decompress", {"stream": "00", "k": 8,
                                "output_length": -1}),
                ("resilience", {"circuit": "not_a_circuit"}),
                ("resilience", {"trials": 10_000}),
                ("profile", {}),
            ]
            for op, params in cases:
                response = await client.call(op, params)
                assert response["ok"] is False, (op, params)
                assert response["error"]["code"] == "bad_request", (op, params)

        run(with_service(inline_config(), scenario))

    def test_truncated_stream_is_bad_request_with_context(self):
        async def scenario(service, client):
            encoding = NineCEncoder(8).encode(TernaryVector(DATA))
            stream = encoding.stream.to_string()[:-3]
            response = await client.call(
                "decompress",
                {"stream": stream, "k": 8,
                 "output_length": encoding.original_length})
            assert response["ok"] is False
            assert response["error"]["code"] == "bad_request"
            assert "stream_error" in response["error"]["context"]

        run(with_service(inline_config(), scenario))

    def test_profile_and_resilience_ops(self):
        async def scenario(service, client):
            profile = await client.call("profile", {"data": DATA, "k": 8})
            assert profile["ok"]
            assert profile["result"]["td_bits"] == len(DATA)
            resilience = await client.call("resilience", {
                "circuit": "s27", "k": 8, "trials": 2,
                "error_rate": 0.01})
            assert resilience["ok"]

        run(with_service(inline_config(), scenario))

    def test_health_reports_state(self):
        async def scenario(service, client):
            await client.call("compress", {"data": DATA, "k": 8})
            health = await client.call("health", {})
            assert health["ok"]
            result = health["result"]
            assert result["status"] == "ok"
            assert result["totals"]["requests"] >= 1
            assert "cache" in result and "breakers" in result

        run(with_service(inline_config(), scenario))

    def test_unknown_op_rejected_at_parse(self):
        async def scenario(service, client):
            response = await service.handle_request(
                b'{"id": "x", "op": "nope"}')
            assert response["ok"] is False
            assert response["error"]["code"] == "malformed_frame"

        run(with_service(inline_config(), scenario))

    def test_chaos_op_gated(self):
        async def scenario(service, client):
            response = await client.call(
                "chaos", {"fault": "worker_crash"})
            assert response["ok"] is False
            assert response["error"]["code"] == "bad_request"

        run(with_service(inline_config(allow_chaos=False), scenario))


class TestServiceRobustness:
    def test_deadline_exceeded_is_typed(self):
        async def scenario(service, client):
            service.fault_plan.arm(
                ServiceFault(kind="latency", seconds=0.5, op="compress"))
            response = await client.call(
                "compress", {"data": DATA, "k": 8}, deadline_ms=50)
            assert response["ok"] is False
            assert response["error"]["code"] == "deadline_exceeded"

        run(with_service(inline_config(), scenario))

    def test_overload_sheds_with_typed_429(self):
        async def scenario(service, client):
            service.fault_plan.arm(
                ServiceFault(kind="latency", seconds=0.3, times=2,
                             op="compress"))
            responses = await asyncio.gather(*[
                client.call("compress", {"data": DATA, "k": 8},
                            deadline_ms=2_000)
                for _ in range(8)
            ])
            shed = [r for r in responses
                    if not r["ok"] and r["error"]["code"] == "overloaded"]
            answered = [r for r in responses if r["ok"]]
            assert shed, "expected at least one load-shed response"
            assert answered, "expected surviving requests to complete"
            for response in shed:
                assert response["error"]["retryable"] is True
            assert service.totals["shed"] == len(shed)

        run(with_service(
            inline_config(max_inflight=1, max_queue=2, max_batch=1),
            scenario))

    def test_default_queue_absorbs_a_burst(self):
        # 8 in flight + 16 waiting used to shed the 25th request of a
        # burst the service finishes well inside its deadlines
        async def scenario(service, client):
            responses = await asyncio.gather(*[
                client.call("compress", {"data": DATA, "k": 8})
                for _ in range(40)
            ])
            assert all(r["ok"] for r in responses)
            assert service.totals["shed"] == 0

        run(with_service(inline_config(), scenario))

    def test_waiting_bytes_ceiling_sheds(self, monkeypatch):
        # a flood of large frames is shed on bytes, not on count
        data = DATA * 64
        frame_bytes = parse_request(encode_frame(
            {"id": "c1", "op": "compress", "params": {"data": data, "k": 8}}
        )).frame_bytes
        monkeypatch.setattr("repro.serve.service.MAX_WAITING_BYTES",
                            3 * frame_bytes)

        async def scenario(service, client):
            service.fault_plan.arm(
                ServiceFault(kind="latency", seconds=0.3, op="compress"))
            busy = asyncio.ensure_future(
                client.call("compress", {"data": data, "k": 8}))
            await asyncio.sleep(0.05)  # it holds the one in-flight slot
            responses = await asyncio.gather(*[
                client.call("compress", {"data": data, "k": 8})
                for _ in range(7)
            ])
            shed = [r for r in responses
                    if not r["ok"] and r["error"]["code"] == "overloaded"]
            assert len(shed) == 4  # three frames fit under the ceiling
            assert all(r["ok"] for r in responses if r not in shed)
            assert (await busy)["ok"]
            assert service.totals["shed"] == 4
            # the ceiling is released as requests leave the queue
            after = await client.call("compress", {"data": data, "k": 8})
            assert after["ok"]

        run(with_service(inline_config(max_inflight=1, max_batch=1),
                         scenario))

    def test_worker_failure_retried_to_success(self):
        async def scenario(service, client):
            service.fault_plan.arm(
                ServiceFault(kind="fail", times=2, op="compress"))
            response = await client.call("compress", {"data": DATA, "k": 8})
            assert response["ok"]
            assert service.totals["retries"] >= 2

        config = inline_config(
            retry=RetryPolicy(max_attempts=4, base_s=0.0, jitter=0.0))
        run(with_service(config, scenario))

    def test_worker_failure_exhausts_to_typed_error(self):
        async def scenario(service, client):
            service.fault_plan.arm(
                ServiceFault(kind="fail", times=50, op="compress"))
            response = await client.call("compress", {"data": DATA, "k": 8})
            assert response["ok"] is False
            assert response["error"]["code"] == "worker_crash"
            assert response["error"]["retryable"] is True

        config = inline_config(
            retry=RetryPolicy(max_attempts=2, base_s=0.0, jitter=0.0),
            breaker_failure_threshold=100)
        run(with_service(config, scenario))

    def test_degradation_ladder_pins_route_to_reference(self):
        async def scenario(service, client):
            encoding = NineCEncoder(8).encode(TernaryVector(DATA))
            params = {"stream": encoding.stream.to_string(), "k": 8,
                      "output_length": encoding.original_length}
            # trip the differential contract on the next fast decode
            service.fault_plan.arm(
                ServiceFault(kind="corrupt_fast", op="decompress"))
            first = await client.call("decompress", params)
            assert first["ok"]
            assert first["degraded"] is True
            assert "fastpath_mismatch" in first["flags"]
            # reference result is served, so the data is still correct
            assert first["result"]["data"] == expected_decode()
            # the route is now pinned to the reference path and says so
            second = await client.call("decompress", params)
            assert second["ok"] and second["degraded"]
            assert "fastpath_degraded" in second["flags"]
            assert second["result"]["data"] == expected_decode()
            health = await client.call("health", {})
            assert health["result"]["degraded_routes"]

        run(with_service(
            inline_config(differential_every=1, allow_chaos=True),
            scenario))

    def test_clean_fast_path_not_degraded_by_verification(self):
        async def scenario(service, client):
            encoding = NineCEncoder(8).encode(TernaryVector(DATA))
            params = {"stream": encoding.stream.to_string(), "k": 8,
                      "output_length": encoding.original_length}
            for _ in range(4):
                response = await client.call("decompress", params)
                assert response["ok"] and not response["degraded"]

        run(with_service(inline_config(differential_every=2), scenario))

    def test_breaker_opens_after_sustained_failures(self):
        async def scenario(service, client):
            service.fault_plan.arm(
                ServiceFault(kind="fail", times=1_000, op="compress"))
            saw_circuit_open = False
            for _ in range(8):
                response = await client.call(
                    "compress", {"data": DATA, "k": 8})
                assert response["ok"] is False
                if response["error"]["code"] == "circuit_open":
                    saw_circuit_open = True
            assert saw_circuit_open
            breaker = service.breakers.breaker(("compress", 8))
            assert breaker.state == OPEN

        config = inline_config(
            retry=RetryPolicy(max_attempts=1, base_s=0.0),
            breaker_failure_threshold=3, breaker_recovery_s=60.0,
            max_batch=1)
        run(with_service(config, scenario))


# ----------------------------------------------------------------------
# process-pool integration (slower; one real crash/recovery cycle)
# ----------------------------------------------------------------------
class TestRequestTracing:
    """End-to-end trace trees: worker spans grafted under request roots."""

    @staticmethod
    def traced_config(**overrides) -> ServiceConfig:
        overrides.setdefault("executor", "inline")
        overrides.setdefault("enable_obs", True)
        return ServiceConfig(**overrides)

    @pytest.fixture(autouse=True)
    def _restore_obs(self):
        """``enable_obs=True`` flips the process switch; restore it."""
        from repro import obs

        yield
        obs.disable()
        obs.reset()

    def test_decompress_trace_merges_worker_decode_span(self):
        encoding = NineCEncoder(8).encode(TernaryVector(DATA))

        async def action(service, client):
            response = await client.call("decompress", {
                "stream": encoding.stream.to_string(), "k": 8,
                "output_length": encoding.original_length,
            })
            assert response["ok"]
            # trace payloads never leak into the response itself
            assert "trace" not in response["result"]
            return await client.call("trace", {"limit": 4})

        response = run(with_service(self.traced_config(), action))
        assert response["ok"]
        result = response["result"]
        assert result["tracing"] is True
        assert result["recorded"] >= 1
        trace = next(t for t in result["traces"] if t["op"] == "decompress")
        assert len(trace["trace_id"]) == 16
        root = trace["tree"]["request.decompress"]
        worker = root["children"]["worker.decompress"]
        assert "decode.stream" in worker["children"]
        # raw events: unique ids, every parent resolvable, root at 0
        events = trace["events"]
        ids = {ev["id"] for ev in events}
        assert len(ids) == len(events)
        assert all(ev["parent"] in ids or ev["parent"] == 0
                   for ev in events)
        assert {ev["name"] for ev in events} >= {
            "request.decompress", "worker.decompress", "decode.stream",
        }

    def test_compress_batch_members_each_get_own_tree(self):
        async def action(service, client):
            responses = await asyncio.gather(
                client.call("compress", {"data": DATA, "k": 8}),
                client.call("compress", {"data": DATA, "k": 8}),
            )
            assert all(r["ok"] for r in responses)
            return await client.call("trace", {"limit": 8})

        config = self.traced_config(batch_window_ms=5.0, max_batch=4)
        response = run(with_service(config, action))
        compress_traces = [t for t in response["result"]["traces"]
                           if t["op"] == "compress"]
        assert len(compress_traces) == 2
        for trace in compress_traces:
            root = trace["tree"]["request.compress"]
            batch_wait = root["children"]["batch.wait"]
            # the worker's encode span lands under this member's own
            # batch.wait, even though one batched worker call served both
            assert "encode" in batch_wait["children"]

    def test_trace_op_filters_by_id_and_validates_limit(self):
        async def action(service, client):
            await client.call("compress", {"data": DATA, "k": 8})
            await client.call("compress", {"data": DATA, "k": 8})
            everything = await client.call("trace", {})
            wanted = everything["result"]["traces"][-1]["trace_id"]
            single = await client.call("trace", {"trace_id": wanted})
            assert [t["trace_id"]
                    for t in single["result"]["traces"]] == [wanted]
            bad = await client.call("trace", {"limit": 0})
            assert bad["ok"] is False
            assert bad["error"]["code"] == "bad_request"
            return everything

        response = run(with_service(self.traced_config(), action))
        assert response["ok"]

    def test_control_plane_ops_are_not_traced(self):
        async def action(service, client):
            await client.call("health", {})
            await client.call("metrics", {})
            response = await client.call("trace", {})
            assert response["result"]["traces"] == []
            health = await client.call("health", {})
            assert health["result"]["traces_recorded"] == 0
            return response

        run(with_service(self.traced_config(), action))

    def test_tracing_disabled_records_nothing(self):
        async def action(service, client):
            assert (await client.call(
                "compress", {"data": DATA, "k": 8}))["ok"]
            return await client.call("trace", {})

        response = run(with_service(inline_config(), action))
        assert response["ok"]
        assert response["result"]["tracing"] is False
        assert response["result"]["traces"] == []

    def test_trace_capacity_bounds_the_store(self):
        async def action(service, client):
            for _ in range(5):
                await client.call("compress", {"data": DATA, "k": 8})
            return await client.call("trace", {"limit": 16})

        config = self.traced_config(trace_capacity=2)
        response = run(with_service(config, action))
        result = response["result"]
        assert len(result["traces"]) == 2  # ring keeps the newest
        assert result["recorded"] == 5
        assert result["capacity"] == 2


class TestProcessPool:
    def test_real_worker_crash_is_absorbed(self):
        async def scenario():
            config = ServiceConfig(
                executor="process", workers=1, enable_obs=False,
                allow_chaos=True,
                retry=RetryPolicy(max_attempts=3, base_s=0.0, jitter=0.0))
            service = CompressionService(config)
            await service.start()
            try:
                client = Client(service)
                warm = await client.call("compress", {"data": DATA, "k": 8})
                assert warm["ok"]
                service.fault_plan.arm(
                    ServiceFault(kind="worker_crash", op="compress"))
                response = await client.call(
                    "compress", {"data": DATA, "k": 8}, deadline_ms=60_000)
                # the pool is rebuilt and the retry succeeds
                assert response["ok"], response
                assert service.totals["worker_crashes"] >= 1
                follow_up = await client.call(
                    "compress", {"data": DATA, "k": 8}, deadline_ms=60_000)
                assert follow_up["ok"]
            finally:
                await service.close()

        run(scenario())

    def test_trace_spans_cross_the_process_boundary(self):
        """Worker-side spans (decode.stream) recorded in a *separate
        process* must come back grafted under the request's root."""
        from repro import obs

        async def scenario():
            encoding = NineCEncoder(8).encode(TernaryVector(DATA))
            service = CompressionService(
                ServiceConfig(executor="process", workers=1))
            await service.start()
            try:
                client = Client(service)
                response = await client.call("decompress", {
                    "stream": encoding.stream.to_string(), "k": 8,
                    "output_length": encoding.original_length,
                }, deadline_ms=60_000)
                assert response["ok"]
                traces = await client.call("trace", {})
                trace = next(t for t in traces["result"]["traces"]
                             if t["op"] == "decompress")
                root = trace["tree"]["request.decompress"]
                worker = root["children"]["worker.decompress"]
                assert "decode.stream" in worker["children"]
                # grafted events sit inside the worker span's window
                by_name = {ev["name"]: ev for ev in trace["events"]}
                outer = by_name["worker.decompress"]
                inner = by_name["decode.stream"]
                assert inner["parent"] == outer["id"]
                assert inner["ts"] >= outer["ts"]
            finally:
                await service.close()

        try:
            run(scenario())
        finally:
            obs.disable()
            obs.reset()


# ----------------------------------------------------------------------
# TCP transport
# ----------------------------------------------------------------------
class TestTCPServer:
    def test_tcp_roundtrip_and_malformed_frame(self):
        async def scenario():
            service = CompressionService(inline_config())
            server = await ServeServer(service, port=0).start()
            client = TCPClient(port=server.port)
            try:
                response = await client.call(
                    "compress", {"data": DATA, "k": 8})
                assert response["ok"]
                stream = response["result"]["stream"]
                # a malformed frame gets a typed error, connection lives
                garbage = await client.send_raw(b"this is not json\n")
                assert garbage["ok"] is False
                assert garbage["error"]["code"] == "malformed_frame"
                again = await client.call("decompress", {
                    "stream": stream, "k": 8,
                    "output_length": len(DATA)})
                assert again["ok"]
                assert again["result"]["data"] == expected_decode()
            finally:
                await client.close()
                await server.close()

        run(scenario())

    def test_tcp_id_echo_and_health(self):
        async def scenario():
            service = CompressionService(inline_config())
            server = await ServeServer(service, port=0).start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port)
                writer.write(encode_frame(
                    {"id": "my-id-42", "op": "health", "params": {}}))
                await writer.drain()
                line = await reader.readline()
                response = json.loads(line)
                assert response["id"] == "my-id-42"
                assert response["ok"]
                writer.close()
                await writer.wait_closed()
            finally:
                await server.close()

        run(scenario())


# ----------------------------------------------------------------------
# end-to-end sanity against the reference pipeline
# ----------------------------------------------------------------------
class TestServiceAgainstReference:
    def test_served_stream_matches_direct_pipeline(self):
        async def scenario(service, client):
            response = await client.call("compress", {"data": DATA, "k": 8})
            direct = NineCEncoder(8).encode(TernaryVector(DATA))
            assert response["result"]["stream"] == direct.stream.to_string()
            assert response["result"]["te_bits"] == direct.compressed_size
            decoded = NineCDecoder(8).decode_stream(
                direct.stream, direct.original_length)
            # decode returns the X-filled data; it must cover the original
            assert TernaryVector(DATA).covers(decoded) \
                or decoded.to_string() == expected_decode()

        run(with_service(inline_config(), scenario))

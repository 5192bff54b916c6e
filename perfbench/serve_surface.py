"""``repro-9c serve`` as its own process, driven open-loop over TCP.

One generator (this process) sends pre-encoded NDJSON frames on a
fixed schedule over at most ``nproc`` connections, pipelined by ``id``;
a reader task per connection only timestamps and stores response lines,
which are parsed and checked after the phase so the generator stays on
schedule.  Latency is measured from each request's due time.
"""

from __future__ import annotations

import asyncio
import json
import os
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import procstat

#: Frames up to the service's 8 MiB limit plus the newline.
READ_LIMIT = 8 * 1024 * 1024 + 2
#: A request not answered within this is a typed deadline error.
DEADLINE_MS = 2000.0
#: The latency limit of the rate search, on p90 over both ops.
LIMIT_MS = 300.0
#: A backlog whose third-by-third median latency rises by more than
#: this is growing, which also misses the limit.
GROWTH_MS = 100.0


def pct(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


class Server:
    """One ``repro-9c serve --port 0`` process and its pool workers."""

    def __init__(self, workdir: Path, env: Dict[str, str], tag: str):
        self.workdir = workdir
        self.env = env
        self.tag = tag
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self, timeout_s: float = 60.0) -> None:
        self._stderr = open(self.workdir / f"serve-{self.tag}.log", "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
            stdout=subprocess.PIPE, stderr=self._stderr, env=self.env)
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout_s)
        banner = self.proc.stdout.readline().decode() if ready else ""
        if "listening on" not in banner:
            self.stop()
            raise RuntimeError(f"serve did not start: {banner!r}")
        address = banner.split("listening on ", 1)[1].split()[0]
        self.port = int(address.rsplit(":", 1)[1])

    def workers(self) -> List[int]:
        return procstat.descendants(self.proc.pid) if self.proc else []

    def peak_rss_mb(self) -> float:
        pids = [self.proc.pid, *self.workers()] if self.proc else []
        return max((procstat.peak_rss_mb(pid) for pid in pids), default=0.0)

    def stop(self) -> List[int]:
        """SIGINT the server; return pool workers that outlived it."""
        if self.proc is None:
            return []
        pool = self.workers()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._stderr.close()
        self.proc = None
        deadline = time.monotonic() + 5.0
        while any(procstat.alive(pid) for pid in pool) and time.monotonic() < deadline:
            time.sleep(0.05)
        survivors = [pid for pid in pool if procstat.alive(pid)]
        for pid in survivors:  # clean up, but the caller fails the run
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        while any(procstat.alive(pid) for pid in survivors):
            time.sleep(0.05)
        return survivors


@dataclass
class Request:
    """One scheduled request and, after the phase, its outcome."""

    id: str
    op: str
    item: int
    due: float
    frame: bytes
    request_bytes: int = 0
    sent: float = 0.0
    recv: float = 0.0
    response_bytes: int = 0
    response: Optional[dict] = None
    passed: bool = False

    @property
    def latency_ms(self) -> float:
        return (self.recv - self.due) * 1e3

    @property
    def client_ms(self) -> float:
        return (self.recv - self.sent) * 1e3


class Traffic:
    """Pre-encoded request bodies for the serve inputs of one workload."""

    def __init__(self, k: int, data: List[str], streams: List[str],
                 restored: List[str]):
        self.streams = streams
        self.restored = restored
        self.bodies = {
            "compress": [self._body("compress", {"data": d, "k": k})
                         for d in data],
            "decompress": [self._body("decompress", {
                "stream": s, "output_length": len(d), "k": k})
                for s, d in zip(streams, data)],
        }

    @staticmethod
    def _body(op: str, params: dict) -> bytes:
        # everything after the id, so a frame is one concatenation
        tail = json.dumps({"op": op, "params": params,
                           "deadline_ms": DEADLINE_MS})
        return tail[1:].encode() + b"\n"

    def schedule(self, tag: str, rate: float, count: int) -> List[Request]:
        """Alternating compress/decompress requests, ``rate`` per second."""
        requests = []
        for i in range(count):
            op = "compress" if i % 2 == 0 else "decompress"
            item = (i // 2) % len(self.streams)
            rid = f"{tag}-{i}"
            frame = b'{"id": "' + rid.encode() + b'", ' + self.bodies[op][item]
            requests.append(Request(rid, op, item, i / rate, frame, len(frame)))
        return requests

    def settle(self, request: Request) -> bool:
        """Check one answer, then drop both payloads; returns ``passed``.

        Serve must answer exactly what the CLI answered for the input.
        Dropping the payloads keeps this process's resident set, which
        the in-process CLI passes are measured in, free of old traffic.
        """
        request.frame = b""
        response = request.response
        if not response or not response.get("ok") or response.get("degraded"):
            request.passed = False
        elif request.op == "compress":
            request.passed = response["result"].get("stream") == self.streams[request.item]
        else:
            request.passed = response["result"].get("data") == self.restored[request.item]
        request.response = None
        return request.passed


class Connections:
    """At most ``nproc`` pipelined connections to one server, per phase.

    A phase that gave up on a response leaves its connections mid-line,
    so each phase opens its own.
    """

    def __init__(self, port: int, count: int):
        self.port = port
        self.count = count
        self.pairs: List[Tuple[asyncio.StreamReader, asyncio.StreamWriter]] = []

    async def open(self) -> None:
        for _ in range(self.count):
            self.pairs.append(await asyncio.open_connection(
                "127.0.0.1", self.port, limit=READ_LIMIT))

    async def close(self) -> None:
        for _, writer in self.pairs:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def call(self, op: str, params: dict) -> dict:
        """One control request on the first connection."""
        reader, writer = self.pairs[0]
        writer.write(json.dumps({"id": f"ctl-{op}", "op": op,
                                 "params": params}).encode() + b"\n")
        await writer.drain()
        return json.loads(await reader.readline())

    async def run(self, requests: List[Request], grace_s: float) -> float:
        """Send on schedule, collect every response; return max lateness."""
        received: List[Tuple[float, bytes]] = []

        async def read(index: int, expected: int) -> None:
            reader = self.pairs[index][0]
            for _ in range(expected):
                line = await reader.readline()
                if not line:
                    return
                received.append((time.perf_counter(), line))

        readers = [asyncio.ensure_future(read(i, len(requests[i::self.count])))
                   for i in range(self.count)]
        start = time.perf_counter() + 0.05
        late = 0.0
        for i, request in enumerate(requests):
            request.due += start
            delay = request.due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            request.sent = time.perf_counter()
            late = max(late, request.sent - request.due)
            self.pairs[i % self.count][1].write(request.frame)
        _, stalled = await asyncio.wait(
            readers, timeout=DEADLINE_MS / 1e3 + grace_s)
        for task in stalled:  # unanswered requests stay response-less
            task.cancel()
        await asyncio.gather(*readers, return_exceptions=True)
        gave_up = time.perf_counter()
        by_id = {r.id: r for r in requests}
        for request in requests:  # unanswered: as late as the wait went
            request.recv = gave_up
        for when, line in received:
            response = json.loads(line)
            request = by_id.get(response.get("id"))
            if request is not None:
                request.recv = when
                request.response_bytes = len(line)
                request.response = response
        return late * 1e3


def judge(requests: List[Request]) -> Tuple[float, float]:
    """(load score, p90 ms) of one phase; it meets the limits iff score <= 1.

    The score is the larger of p90 over both ops as a share of
    ``LIMIT_MS`` and the backlog's growth (third-by-third p50) as a share
    of ``GROWTH_MS``, so it rises continuously through either limit.
    Call after :meth:`Traffic.settle`; a failed request scores infinity.
    """
    if not requests or not all(r.passed for r in requests):
        return float("inf"), float("inf")
    latencies = [r.latency_ms for r in requests]
    p90 = pct(latencies, 90)
    third = max(1, len(latencies) // 3)
    growth = pct(latencies[-third:], 50) - pct(latencies[:third], 50)
    return max(p90 / LIMIT_MS, growth / GROWTH_MS), p90

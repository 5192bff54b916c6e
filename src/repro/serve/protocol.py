"""Wire protocol of the compression service: newline-delimited JSON.

One request per line, one response per line, UTF-8, no framing beyond
the newline — trivially scriptable (``nc``, a five-line client) and
trivially fuzzable, which the chaos harness exploits.  The same request
and response dict shapes flow through the in-process
:class:`~repro.serve.server.Client`, so tests exercise the exact
objects the socket path serializes.

Request::

    {"id": "r1", "op": "compress", "params": {...}, "deadline_ms": 500}

``id`` is echoed back verbatim (clients may pipeline), ``op`` names a
service handler, ``params`` is handler-specific, ``deadline_ms`` is an
optional relative deadline.  Response, exactly one of::

    {"id": "r1", "ok": true,  "result": {...},
     "degraded": false, "flags": []}
    {"id": "r1", "ok": false, "error": {"code": ..., "message": ...,
     "retryable": ...}}

``degraded`` is the no-silent-corruption contract: whenever the
service fell off a fast path (reference fallback, partial recovery)
the response says so, and ``flags`` names each degradation.  Every
parse failure raises :class:`~repro.core.errors.MalformedFrameError`
with context, never a bare ``json`` exception.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Optional

from ..core.errors import MalformedFrameError, ServeError

#: Known operation names; the service rejects anything else up front.
OPS = ("compress", "decompress", "profile", "resilience", "health",
       "metrics", "chaos", "trace")

#: Hard per-frame byte ceiling: a slow-loris / runaway client sending an
#: endless line is cut off instead of growing the read buffer forever.
MAX_FRAME_BYTES = 8 * 1024 * 1024


@dataclass
class Request:
    """One parsed request frame."""

    id: str
    op: str
    params: dict = field(default_factory=dict)
    deadline_ms: Optional[float] = None
    #: Length of the wire line, counted against the admission byte ceiling.
    frame_bytes: int = 0


def parse_request(line: bytes) -> Request:
    """Parse one wire line into a :class:`Request`.

    Raises :class:`MalformedFrameError` (a typed, non-retryable
    :class:`ServeError`) on oversized frames, broken JSON, non-object
    payloads, missing/unknown ``op`` or a bad ``deadline_ms`` — the
    caller turns that into an error response, so a garbage frame never
    kills the connection silently.
    """
    if len(line) > MAX_FRAME_BYTES:
        raise MalformedFrameError(
            "frame exceeds size limit", size=len(line), limit=MAX_FRAME_BYTES
        )
    try:
        payload = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedFrameError(f"frame is not JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise MalformedFrameError(
            "frame must be a JSON object", got=type(payload).__name__
        )
    op = payload.get("op")
    if not isinstance(op, str) or op not in OPS:
        raise MalformedFrameError(
            "unknown or missing op", op=repr(op), known=", ".join(OPS)
        )
    params = payload.get("params", {})
    if not isinstance(params, dict):
        raise MalformedFrameError(
            "params must be an object", got=type(params).__name__
        )
    deadline_ms = payload.get("deadline_ms")
    if deadline_ms is not None:
        if not isinstance(deadline_ms, (int, float)) or deadline_ms <= 0:
            raise MalformedFrameError(
                "deadline_ms must be a positive number", got=repr(deadline_ms)
            )
        deadline_ms = float(deadline_ms)
    return Request(
        id=str(payload.get("id", "")),
        op=op,
        params=params,
        deadline_ms=deadline_ms,
        frame_bytes=len(line),
    )


def ok_response(request_id: str, result: dict, *,
                degraded: bool = False,
                flags: Iterable[str] = ()) -> dict:
    """A success response; ``degraded`` + ``flags`` mark fallbacks."""
    flag_list = list(flags)
    return {
        "id": request_id,
        "ok": True,
        "result": result,
        "degraded": bool(degraded) or bool(flag_list),
        "flags": flag_list,
    }


def error_response(request_id: str, error: ServeError) -> dict:
    """A typed failure response built from a :class:`ServeError`."""
    return {"id": request_id, "ok": False, "error": error.to_wire()}


def encode_frame(payload: dict) -> bytes:
    """Serialize one request/response dict to its wire line."""
    return json.dumps(payload, sort_keys=True).encode("utf-8") + b"\n"

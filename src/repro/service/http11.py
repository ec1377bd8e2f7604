"""Minimal hand-rolled HTTP/1.1 framing shared by the service and gateway.

The service carries its traffic over a deliberately small HTTP/1.1
subset — one request line, lower-cased headers, ``Content-Length``
bodies, keep-alive by default — implemented directly on :mod:`asyncio`
streams so it stays stdlib-only.  Both servers parse client requests
through the one :class:`~repro.service.frontend.Frontend`, and the
sharding gateway also *issues* requests to its replicas in the same
dialect.  This module is that dialect:

* :func:`read_request` / :func:`write_response` — the server side the
  front end speaks.
* :func:`format_request` / :func:`read_response` — the client side the
  gateway uses to forward requests over pooled keep-alive connections.
* :class:`Raw` — a pass-through (non-JSON) response body, e.g. the
  Prometheus text exposition or a replica response forwarded verbatim.

Limits are intentionally conservative: bodies are capped at
:data:`MAX_BODY_BYTES` and header blocks at :data:`MAX_HEADER_LINES`
lines; anything outside the subset reads as a malformed message
(``None`` from :func:`read_request`, :class:`ValueError` from
:func:`read_response`) and the connection is dropped.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
from typing import Any, Dict, Optional, Tuple

__all__ = [
    "DIGEST_HEADER",
    "MAX_BODY_BYTES",
    "MAX_HEADER_LINES",
    "REASONS",
    "Raw",
    "body_digest",
    "format_request",
    "read_request",
    "read_response",
    "verify_body_digest",
    "write_response",
]

#: Largest request or response body either server will frame.
MAX_BODY_BYTES = 8 * 1024 * 1024
#: Most header lines read before the message is declared malformed.
MAX_HEADER_LINES = 100

REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error", 502: "Bad Gateway",
    503: "Service Unavailable", 504: "Gateway Timeout",
}

#: Response header carrying a SHA-256 digest of the body so receivers
#: can distinguish a corrupted-in-transit body from a genuine reply.
DIGEST_HEADER = "x-content-digest"


def body_digest(body: bytes) -> str:
    """``sha256=<hex>`` digest value for a response body."""
    return "sha256=" + hashlib.sha256(body).hexdigest()


def verify_body_digest(headers: Dict[str, str], body: bytes) -> bool:
    """True unless ``headers`` carries a digest that does not match ``body``.

    Responses without the header verify trivially (the peer predates the
    digest or is not ours); a present-but-wrong digest is the signature
    of in-transit corruption and must be treated as a transport error,
    never surfaced as data.
    """
    claimed = headers.get(DIGEST_HEADER)
    return claimed is None or claimed == body_digest(body)


class Raw:
    """A non-JSON response body (e.g. Prometheus text exposition)."""

    __slots__ = ("body", "content_type")

    def __init__(self, body: bytes, content_type: str) -> None:
        self.body = body
        self.content_type = content_type


async def read_request(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
    """Read one request; ``None`` on EOF or a malformed message.

    Returns ``(method, path, headers, body)`` with header names
    lower-cased and any query string stripped from the path.
    """
    line = await reader.readline()
    if not line:
        return None
    try:
        method, target, _version = line.decode("ascii").split(None, 2)
    except (UnicodeDecodeError, ValueError):
        return None
    headers = await _read_headers(reader)
    if headers is None:
        return None
    body = b""
    length = headers.get("content-length")
    if length is not None:
        try:
            n = int(length)
        except ValueError:
            return None
        if not 0 <= n <= MAX_BODY_BYTES:
            return None
        body = await reader.readexactly(n)
    return method, target.split("?", 1)[0], headers, body


async def _read_headers(
    reader: asyncio.StreamReader,
) -> Optional[Dict[str, str]]:
    headers: Dict[str, str] = {}
    for _ in range(MAX_HEADER_LINES):
        raw = await reader.readline()
        if raw in (b"\r\n", b"\n", b""):
            return headers
        name, _, value = raw.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    return None


async def write_response(writer: asyncio.StreamWriter, status: int,
                         payload: Any, keep_alive: bool,
                         trace_id: str = "-",
                         extra_headers: Optional[Dict[str, str]] = None,
                         ) -> None:
    """Serialize ``payload`` (JSON unless :class:`Raw`) and write it.

    Every response carries an ``X-Content-Digest`` of its body so the
    client and gateway can reject bodies corrupted in transit.
    ``extra_headers`` (e.g. ``Retry-After`` on a 429) are emitted
    verbatim after the standard block.
    """
    if isinstance(payload, Raw):
        body, content_type = payload.body, payload.content_type
    else:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        content_type = "application/json"
    extra = "".join(f"{name}: {value}\r\n"
                    for name, value in (extra_headers or {}).items())
    head = (
        f"HTTP/1.1 {status} {REASONS.get(status, 'Unknown')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        f"X-Trace-Id: {trace_id}\r\n"
        f"X-Content-Digest: {body_digest(body)}\r\n"
        f"{extra}"
        f"\r\n"
    ).encode("ascii")
    writer.write(head + body)
    await writer.drain()


def format_request(method: str, path: str, host: str, port: int,
                   body: bytes = b"",
                   headers: Optional[Dict[str, str]] = None) -> bytes:
    """Frame one client-side request the way :func:`read_request` expects."""
    extra = "".join(f"{name}: {value}\r\n"
                    for name, value in (headers or {}).items())
    host_text = f"[{host}]" if ":" in host else host
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: {host_text}:{port}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"{extra}"
        f"\r\n"
    ).encode("ascii")
    return head + body


async def read_response(
    reader: asyncio.StreamReader,
) -> Tuple[int, Dict[str, str], bytes]:
    """Read one response; raises on EOF or a malformed message.

    Returns ``(status, headers, body)``.  Raises
    :class:`asyncio.IncompleteReadError` when the peer closed
    mid-message (the gateway's cue to retry on a fresh connection) and
    :class:`ValueError` when the frame itself is malformed.
    """
    line = await reader.readline()
    if not line:
        raise asyncio.IncompleteReadError(b"", None)
    try:
        _version, status_text, _reason = line.decode("ascii").split(None, 2)
        status = int(status_text)
    except (UnicodeDecodeError, ValueError):
        raise ValueError(f"malformed status line: {line!r}")
    headers = await _read_headers(reader)
    if headers is None:
        raise ValueError("header block too large")
    length = headers.get("content-length")
    body = b""
    if length is not None:
        try:
            n = int(length)
        except ValueError:
            raise ValueError(f"bad Content-Length: {length!r}")
        if not 0 <= n <= MAX_BODY_BYTES:
            raise ValueError(f"Content-Length out of range: {n}")
        body = await reader.readexactly(n)
    return status, headers, body

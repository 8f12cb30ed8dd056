"""Incremental HTTP/1.1 wire parser.

The simulated TCP layer delivers data in arbitrary chunks, so both ends
need a parser that can be fed bytes as they arrive and emits complete
messages.  This mirrors the paper's RCB-Agent data-listener object, which
asynchronously accepts incoming request bytes over each connected socket
transport (§4.1.1).

Bodies are framed by ``Content-Length`` only; the simulated web does not
use chunked transfer encoding, and a message declaring it is rejected
explicitly rather than mis-parsed.
"""

from __future__ import annotations

from typing import List, Union

from .message import CRLF, Headers, HttpError, HttpRequest, HttpResponse

__all__ = ["RequestParser", "ResponseParser", "parse_request_bytes", "parse_response_bytes"]

_MAX_HEADER_BYTES = 64 * 1024


class _MessageParser:
    """Shared feed/buffer machinery for request and response parsers."""

    def __init__(self):
        self._buffer = bytearray()
        self._messages: List[Union[HttpRequest, HttpResponse]] = []

    def feed(self, data: bytes) -> List[Union[HttpRequest, HttpResponse]]:
        """Add bytes; return every message completed by this chunk."""
        self._buffer.extend(data)
        ready: List[Union[HttpRequest, HttpResponse]] = []
        while True:
            message = self._try_parse_one()
            if message is None:
                break
            ready.append(message)
        return ready

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered awaiting a complete message."""
        return len(self._buffer)

    def _try_parse_one(self):
        header_end = self._buffer.find(CRLF + CRLF)
        if header_end == -1:
            if len(self._buffer) > _MAX_HEADER_BYTES:
                raise HttpError("header section exceeds %d bytes" % _MAX_HEADER_BYTES)
            return None
        head = bytes(self._buffer[:header_end])
        lines = head.split(CRLF)
        start_line = lines[0].decode("latin-1")
        headers = _parse_header_lines(lines[1:])

        if "transfer-encoding" in headers:
            raise HttpError("chunked transfer encoding is not supported")
        length_text = headers.get("Content-Length")
        body_length = 0
        if length_text is not None:
            digits = length_text.strip()
            # ASCII digits only: str.isdigit() also accepts '²', which
            # int() rejects.
            if not (digits.isascii() and digits.isdigit()):
                raise HttpError("bad Content-Length: %r" % (length_text,))
            body_length = int(digits)

        total = header_end + 4 + body_length
        if len(self._buffer) < total:
            return None
        body = bytes(self._buffer[header_end + 4 : total])
        del self._buffer[:total]
        return self._build(start_line, headers, body)

    def _build(self, start_line: str, headers: Headers, body: bytes):
        raise NotImplementedError


class RequestParser(_MessageParser):
    """Feed bytes, get :class:`HttpRequest` objects."""

    def _build(self, start_line: str, headers: Headers, body: bytes) -> HttpRequest:
        parts = start_line.split(" ")
        if len(parts) != 3:
            raise HttpError("bad request line: %r" % (start_line,))
        method, target, version = parts
        if not version.startswith("HTTP/"):
            raise HttpError("bad HTTP version: %r" % (version,))
        return HttpRequest(method, target, headers, body, version)


class ResponseParser(_MessageParser):
    """Feed bytes, get :class:`HttpResponse` objects."""

    def _build(self, start_line: str, headers: Headers, body: bytes) -> HttpResponse:
        parts = start_line.split(" ", 2)
        if len(parts) < 2 or not parts[0].startswith("HTTP/"):
            raise HttpError("bad status line: %r" % (start_line,))
        version = parts[0]
        if not (parts[1].isascii() and parts[1].isdigit()):
            raise HttpError("bad status code: %r" % (start_line,))
        status = int(parts[1])
        reason = parts[2] if len(parts) == 3 else ""
        return HttpResponse(status, headers, body, reason, version)


def _parse_header_lines(lines: List[bytes]) -> Headers:
    headers = Headers()
    for raw in lines:
        if not raw:
            continue
        line = raw.decode("latin-1")
        if ":" not in line:
            raise HttpError("bad header line: %r" % (line,))
        name, value = line.split(":", 1)
        name = name.strip()
        if not name:
            raise HttpError("empty header name in %r" % (line,))
        headers.add(name, value.strip())
    return headers


def parse_request_bytes(data: bytes) -> HttpRequest:
    """Parse exactly one request from a complete byte string."""
    parser = RequestParser()
    messages = parser.feed(data)
    if len(messages) != 1 or parser.pending_bytes:
        raise HttpError("expected exactly one complete request")
    return messages[0]


def parse_response_bytes(data: bytes) -> HttpResponse:
    """Parse exactly one response from a complete byte string."""
    parser = ResponseParser()
    messages = parser.feed(data)
    if len(messages) != 1 or parser.pending_bytes:
        raise HttpError("expected exactly one complete response")
    return messages[0]

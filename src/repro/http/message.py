"""HTTP/1.1 message types: headers, requests, responses.

RCB-Agent is, at heart, a tiny HTTP server embedded in a browser: it
classifies requests by method token and request-URI (paper Fig. 2) and
answers with ``text/html`` (initial page), ``application/xml`` (poll
responses), or raw object bytes (cache mode).  These classes provide the
wire representation shared by the agent, the origin web servers, and the
browser's HTTP client.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple, Union

from .wire import WirePlan

__all__ = ["Headers", "HttpRequest", "HttpResponse", "HttpError", "STATUS_REASONS"]

STATUS_REASONS: Dict[int, str] = {
    200: "OK",
    204: "No Content",
    301: "Moved Permanently",
    302: "Found",
    304: "Not Modified",
    400: "Bad Request",
    401: "Unauthorized",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    411: "Length Required",
    500: "Internal Server Error",
    501: "Not Implemented",
    505: "HTTP Version Not Supported",
}

CRLF = b"\r\n"


class HttpError(Exception):
    """Malformed HTTP traffic."""


class Headers:
    """Case-insensitive, order-preserving header collection.

    The ordered ``(name, value)`` pairs are what goes on the wire, in
    insertion order and original spelling.  Beside them an index maps
    each lowercased name to its first value, so ``get``, ``in``, ``set``
    and ``remove`` are dict probes, not scans of every pair.
    """

    def __init__(self, items: Optional[List[Tuple[str, str]]] = None):
        self._items: List[Tuple[str, str]] = []
        #: Lowercased name -> the first value stored under it.
        self._first: Dict[str, str] = {}
        if items:
            for name, value in items:
                self.add(name, value)

    def add(self, name: str, value: str) -> None:
        """Append a header (duplicates allowed, e.g. Set-Cookie)."""
        value = str(value)
        self._items.append((name, value))
        self._first.setdefault(name.lower(), value)

    def set(self, name: str, value: str) -> None:
        """Replace any existing values for ``name``."""
        self.remove(name)
        self.add(name, value)

    def get(self, name: str, default: Optional[str] = None) -> Optional[str]:
        """First value for ``name`` (case-insensitive), or ``default``."""
        return self._first.get(name.lower(), default)

    def get_all(self, name: str) -> List[str]:
        """Every value for ``name``, in insertion order."""
        lowered = name.lower()
        return [value for key, value in self._items if key.lower() == lowered]

    def remove(self, name: str) -> None:
        """Delete all values for ``name``."""
        lowered = name.lower()
        if lowered in self._first:
            del self._first[lowered]
            self._items = [(k, v) for k, v in self._items if k.lower() != lowered]

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._first

    def __iter__(self) -> Iterator[Tuple[str, str]]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __repr__(self) -> str:
        return "Headers(%r)" % (self._items,)

    def copy(self) -> "Headers":
        """Independent copy of this header collection."""
        return Headers(list(self._items))

    @classmethod
    def preset(cls, items: List[Tuple[str, str]]) -> "Headers":
        """Construct from already-normalized ``(name, str_value)``
        pairs, skipping per-item coercion — for hot serve paths that
        build the same handful of headers per response."""
        headers = cls()
        headers._items = list(items)
        first = headers._first
        for name, value in items:
            first.setdefault(name.lower(), value)
        return headers

    def wire_line_list(self) -> List[bytes]:
        """The serialized header lines (CRLF-terminated), unjoined.

        Lines are memoized per (name, value) pair: server responses
        repeat the same handful of header values endlessly
        (Content-Type, Server, small Content-Lengths), so the hot path
        is a dict probe instead of a format + encode per header.
        """
        cache = _HEADER_LINE_CACHE
        lines = []
        for item in self._items:
            line = cache.get(item)
            if line is None:
                line = ("%s: %s" % item).encode("latin-1") + CRLF
                if len(cache) >= _HEADER_LINE_CACHE_MAX:
                    cache.clear()
                cache[item] = line
            lines.append(line)
        return lines

    def wire_lines(self) -> bytes:
        """The header block serialized with CRLF line endings."""
        return b"".join(self.wire_line_list())


#: Memoized serialized header lines; bounded and simply cleared when
#: full (the steady-state working set is tiny).
_HEADER_LINE_CACHE: Dict[Tuple[str, str], bytes] = {}
_HEADER_LINE_CACHE_MAX = 2048

#: Memoized response status lines (``HTTP/1.1 200 OK\r\n``).
_STATUS_LINE_CACHE: Dict[Tuple[str, int, str], bytes] = {}


class HttpRequest:
    """An HTTP request: method, target (path?query), headers, body."""

    def __init__(
        self,
        method: str,
        target: str,
        headers: Optional[Headers] = None,
        body: bytes = b"",
        version: str = "HTTP/1.1",
    ):
        if not method or not method.isupper():
            raise HttpError("bad method token: %r" % (method,))
        if not target:
            raise HttpError("empty request target")
        self.method = method
        self.target = target
        self.headers = headers if headers is not None else Headers()
        self.body = body
        self.version = version
        if body and "content-length" not in self.headers:
            self.headers.set("Content-Length", str(len(body)))

    @property
    def path(self) -> str:
        """The target's path component (before any '?')."""
        return self.target.split("?", 1)[0]

    @property
    def query(self) -> str:
        """The target's query string ('' when absent)."""
        parts = self.target.split("?", 1)
        return parts[1] if len(parts) == 2 else ""

    def query_params(self) -> Dict[str, str]:
        """Decode the query string into a dict (last value wins)."""
        params: Dict[str, str] = {}
        if not self.query:
            return params
        for pair in self.query.split("&"):
            if not pair:
                continue
            if "=" in pair:
                key, value = pair.split("=", 1)
            else:
                key, value = pair, ""
            params[_unquote(key)] = _unquote(value)
        return params

    def form_params(self) -> Dict[str, str]:
        """Decode an application/x-www-form-urlencoded body."""
        params: Dict[str, str] = {}
        text = self.body.decode("utf-8", errors="replace")
        for pair in text.split("&"):
            if not pair:
                continue
            if "=" in pair:
                key, value = pair.split("=", 1)
            else:
                key, value = pair, ""
            params[_unquote(key)] = _unquote(value)
        return params

    @property
    def keep_alive(self) -> bool:
        """Whether the connection stays open after this exchange."""
        connection = (self.headers.get("Connection") or "").lower()
        if self.version == "HTTP/1.0":
            return connection == "keep-alive"
        return connection != "close"

    def to_bytes(self) -> bytes:
        """Serialize to the HTTP/1.1 wire format."""
        request_line = ("%s %s %s" % (self.method, self.target, self.version)).encode(
            "latin-1"
        )
        return request_line + CRLF + self.headers.wire_lines() + CRLF + self.body

    def __repr__(self) -> str:
        return "HttpRequest(%s %s, %d body bytes)" % (
            self.method,
            self.target,
            len(self.body),
        )


class HttpResponse:
    """An HTTP response with status, headers, and body.

    ``body`` is either contiguous ``bytes`` or a
    :class:`~repro.http.wire.WirePlan` (a writev-style list of shared
    buffers).  A plan body is only materialized into contiguous bytes
    when something reads :attr:`body`; the serve path ships the
    buffers directly via :meth:`wire_buffers`.
    """

    def __init__(
        self,
        status: int,
        headers: Optional[Headers] = None,
        body: Union[bytes, WirePlan] = b"",
        reason: Optional[str] = None,
        version: str = "HTTP/1.1",
    ):
        self.status = int(status)
        self.reason = reason if reason is not None else STATUS_REASONS.get(status, "")
        self.headers = headers if headers is not None else Headers()
        if isinstance(body, WirePlan):
            self._plan: Optional[WirePlan] = body
            self._body = b""
        else:
            self._plan = None
            self._body = body
        self.version = version
        if "content-length" not in self.headers:
            self.headers.set("Content-Length", str(len(body)))
        #: Optional :class:`~repro.obs.attribution.ResponseAttribution`
        #: opened by the serving agent; the connection layer finalizes
        #: it with the actual shipped byte count.  None (the default)
        #: means the response is not cost-attributed.
        self.attribution = None

    @property
    def body(self) -> bytes:
        """The contiguous body bytes (joins a plan body on demand)."""
        if self._plan is not None:
            return self._plan.to_bytes()
        return self._body

    @body.setter
    def body(self, value: Union[bytes, WirePlan]) -> None:
        if isinstance(value, WirePlan):
            self._plan = value
            self._body = b""
        else:
            self._plan = None
            self._body = value

    @property
    def wire_plan(self) -> Optional[WirePlan]:
        """The zero-copy body plan, or None for a contiguous body."""
        return self._plan

    @property
    def content_length(self) -> int:
        """Body length in bytes, without materializing a plan body."""
        if self._plan is not None:
            return self._plan.nbytes
        return len(self._body)

    @property
    def content_type(self) -> str:
        """The media type, with parameters stripped."""
        return (self.headers.get("Content-Type") or "").split(";")[0].strip().lower()

    @property
    def ok(self) -> bool:
        """True for 2xx status codes."""
        return 200 <= self.status < 300

    def text(self, encoding: str = "utf-8") -> str:
        """The body decoded as text."""
        return self.body.decode(encoding, errors="replace")

    def _status_line(self) -> bytes:
        """Memoized ``b"HTTP/1.1 200 OK\\r\\n"``-style status line."""
        key = (self.version, self.status, self.reason)
        line = _STATUS_LINE_CACHE.get(key)
        if line is None:
            line = ("%s %d %s" % key).encode("latin-1") + CRLF
            if len(_STATUS_LINE_CACHE) >= 64:
                _STATUS_LINE_CACHE.clear()
            _STATUS_LINE_CACHE[key] = line
        return line

    def head_bytes(self) -> bytes:
        """Status line + header block + blank line."""
        return self._status_line() + self.headers.wire_lines() + CRLF

    def wire_buffers(self) -> List[bytes]:
        """The full wire message as a writev-style buffer list.

        Nothing is joined: the status line and header lines come from
        their memo caches, and a plan body's page-sized shared segments
        are returned by reference — no contiguous per-response copy is
        ever built.
        """
        buffers = [self._status_line()]
        buffers.extend(self.headers.wire_line_list())
        buffers.append(CRLF)
        if self._plan is not None:
            buffers.extend(self._plan.buffers)
        elif self._body:
            buffers.append(self._body)
        return buffers

    def to_bytes(self) -> bytes:
        """Serialize to the HTTP/1.1 wire format (contiguous bytes)."""
        if self._plan is not None:
            return b"".join(self.wire_buffers())
        return self.head_bytes() + self._body

    def __repr__(self) -> str:
        return "HttpResponse(%d %s, %s, %d body bytes)" % (
            self.status,
            self.reason,
            self.content_type or "no type",
            self.content_length,
        )


def html_response(body: str) -> HttpResponse:
    """Convenience: a 200 text/html response from a string."""
    headers = Headers([("Content-Type", "text/html; charset=utf-8")])
    return HttpResponse(200, headers, body.encode("utf-8"))


def xml_response(body: str) -> HttpResponse:
    """Convenience: a 200 application/xml response (RCB poll replies)."""
    headers = Headers([("Content-Type", "application/xml; charset=utf-8")])
    return HttpResponse(200, headers, body.encode("utf-8"))


def _unquote(text: str) -> str:
    """Minimal percent- and plus-decoding for form/query values."""
    text = text.replace("+", " ")
    if "%" not in text:
        return text
    out = []
    index = 0
    while index < len(text):
        char = text[index]
        if char == "%" and index + 2 < len(text) + 1:
            hex_part = text[index + 1 : index + 3]
            if len(hex_part) == 2 and all(c in "0123456789abcdefABCDEF" for c in hex_part):
                out.append(chr(int(hex_part, 16)))
                index += 3
                continue
        out.append(char)
        index += 1
    return "".join(out)


def quote(text: str) -> str:
    """Minimal percent-encoding for form/query values."""
    safe = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_.~"
    out = []
    for char in text:
        if char in safe:
            out.append(char)
        else:
            out.append("".join("%%%02X" % byte for byte in char.encode("utf-8")))
    return "".join(out)


def encode_form(params: Dict[str, str]) -> bytes:
    """Encode a dict as application/x-www-form-urlencoded."""
    return "&".join(
        "%s=%s" % (quote(str(k)), quote(str(v))) for k, v in params.items()
    ).encode("utf-8")

"""HTTP client with keep-alive connection pooling and cookie support.

The browser substrate uses one :class:`HttpClient` per browser to fetch
HTML documents and supplementary objects — and, on a participant browser,
to carry Ajax-Snippet's polling traffic to RCB-Agent.  All methods that
perform I/O are generator-style simulation processes: drive them with
``yield from`` inside a process, or via ``Simulator.run_until_complete``.
"""

from __future__ import annotations

from typing import Dict, Optional, Union

from ..net.socket import Host, Connection, NetworkError
from ..net.url import Url, parse_url
from ..sim import Interrupt, StoreClosed
from .cookies import CookieJar
from .message import Headers, HttpError, HttpRequest
from .parser import ResponseParser

__all__ = ["HttpClient", "RequestFailed"]


class RequestFailed(Exception):
    """The request could not produce a response (network failure)."""


class _PooledConnection:
    def __init__(self, connection: Connection):
        self.connection = connection
        self.parser = ResponseParser()


class HttpClient:
    """Issue HTTP requests from a host, reusing keep-alive connections."""

    def __init__(self, host: Host, cookie_jar: Optional[CookieJar] = None):
        self.host = host
        self.sim = host.sim
        self.cookie_jar = cookie_jar
        self._pool: Dict[str, _PooledConnection] = {}
        self.requests_sent = 0
        self.bytes_received = 0

    # -- public API ----------------------------------------------------------

    def get(self, url: Union[str, Url], headers: Optional[Headers] = None):
        """Issue a GET (generator process returning the response)."""
        return self.request("GET", url, headers=headers)

    def post(self, url: Union[str, Url], body: bytes, content_type: str = "application/x-www-form-urlencoded", dedicated: bool = False):
        """Issue a POST with a body (generator process)."""
        headers = Headers([("Content-Type", content_type)])
        return self.request("POST", url, headers=headers, body=body, dedicated=dedicated)

    def request(
        self,
        method: str,
        url: Union[str, Url],
        headers: Optional[Headers] = None,
        body: bytes = b"",
        dedicated: bool = False,
    ):
        """Generator process: send a request, return the HttpResponse.

        ``dedicated`` sends on a fresh one-shot connection beside the
        keep-alive pool — how a browser issues a request that must not
        queue behind a long-held exchange on the pooled connection (a
        comet client's second, send-side connection).
        """
        if isinstance(url, str):
            url = parse_url(url)
        if not url.is_absolute:
            raise HttpError("client requires an absolute URL, got %r" % (str(url),))
        request = HttpRequest(method, url.request_target(), headers, body)
        request.headers.set("Host", self._host_header(url))
        if self.cookie_jar is not None:
            cookie_value = self.cookie_jar.cookie_header(url.host, url.path or "/")
            if cookie_value is not None:
                request.headers.set("Cookie", cookie_value)

        if dedicated:
            response = yield from self._send_dedicated(url, request)
        else:
            response = yield from self._send_on_pool(url, request)

        if self.cookie_jar is not None:
            for set_cookie in response.headers.get_all("Set-Cookie"):
                self.cookie_jar.store_from_header(url.host, set_cookie)
        self.bytes_received += len(response.body)
        return response

    def close(self) -> None:
        """Drop every pooled connection."""
        for pooled in self._pool.values():
            pooled.connection.close()
        self._pool.clear()

    # -- internals -------------------------------------------------------------

    def _host_header(self, url: Url) -> str:
        if url.port is not None and url.port != url.effective_port:
            return "%s:%d" % (url.host, url.port)
        if url.port is not None and url.effective_port not in (80, 443):
            return "%s:%d" % (url.host, url.port)
        return url.host

    def _send_on_pool(self, url: Url, request: HttpRequest):
        origin = url.origin
        pooled = self._pool.get(origin)
        fresh = False
        if pooled is None or pooled.connection.closed:
            pooled = yield from self._open(url)
            fresh = True

        try:
            response = yield from self._exchange(pooled, request)
        except (NetworkError, StoreClosed):
            self._pool.pop(origin, None)
            if fresh:
                raise RequestFailed("exchange failed on fresh connection to %s" % origin)
            # A stale keep-alive connection died under us: retry once.
            pooled = yield from self._open(url)
            response = yield from self._exchange(pooled, request)

        if (response.headers.get("Connection") or "").lower() == "close":
            pooled.connection.close()
            self._pool.pop(origin, None)
        return response

    def _send_dedicated(self, url: Url, request: HttpRequest):
        opened = yield from self._open_raw(url)
        try:
            response = yield from self._exchange(opened, request)
        except (NetworkError, StoreClosed):
            raise RequestFailed(
                "exchange failed on dedicated connection to %s" % url.origin
            )
        finally:
            opened.connection.close()
        return response

    def _open(self, url: Url):
        pooled = yield from self._open_raw(url)
        self._pool[url.origin] = pooled
        return pooled

    def _open_raw(self, url: Url):
        port = url.effective_port
        if port is None:
            raise HttpError("cannot determine port for %r" % (str(url),))
        try:
            connection = yield self.host.connect(url.host, port)
        except NetworkError as exc:
            raise RequestFailed("cannot connect to %s: %s" % (url.origin, exc))
        return _PooledConnection(connection)

    def _exchange(self, pooled: _PooledConnection, request: HttpRequest):
        try:
            yield pooled.connection.send(request.to_bytes())
            self.requests_sent += 1
            while True:
                chunk = yield pooled.connection.recv()
                responses = pooled.parser.feed(chunk)
                if responses:
                    if len(responses) > 1:
                        raise HttpError("server sent pipelined responses unexpectedly")
                    return responses[0]
        except Interrupt:
            # An abandoned exchange, as when a browser aborts an XHR:
            # its response is still owed on this connection, so close it
            # rather than let the next request queue behind it (a closed
            # pooled connection is replaced on the next request).
            pooled.connection.close()
            raise

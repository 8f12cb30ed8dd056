"""Origin web servers for the simulated internet."""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from ..http import Headers, HttpRequest, HttpResponse, HttpServer
from ..net.link import SERVER_PROFILE
from ..net.socket import Host, Network
from .pagegen import GeneratedSite

__all__ = ["StaticSite", "OriginServer"]

#: Server-side think time per request — small but nonzero, as real
#: origin servers have.
DEFAULT_PROCESSING_DELAY = 0.005


class StaticSite:
    """A path→content mapping served as a website."""

    def __init__(self, host_name: str):
        self.host_name = host_name
        self._resources: Dict[str, Tuple[str, bytes]] = {}

    def add(self, path: str, content_type: str, data: bytes) -> None:
        """Register a resource at ``path``."""
        if not path.startswith("/"):
            raise ValueError("paths must start with '/': %r" % (path,))
        self._resources[path] = (content_type, bytes(data))

    def add_page(self, path: str, html: str) -> None:
        """Register an HTML page at ``path``."""
        self.add(path, "text/html; charset=utf-8", html.encode("utf-8"))

    @classmethod
    def from_generated(cls, generated: GeneratedSite) -> "StaticSite":
        """Build a site from a generated homepage bundle."""
        site = cls(generated.host)
        site.add_page("/", generated.html)
        site.add_page("/index.html", generated.html)
        for path, (content_type, data) in generated.objects.items():
            site.add(path, content_type, data)
        return site

    def handle(self, request: HttpRequest, client_name: str) -> HttpResponse:
        """HTTP handler: serve the registered resource or 404."""
        if request.method not in ("GET", "HEAD"):
            return HttpResponse(405, body=b"method not allowed")
        resource = self._resources.get(request.path)
        if resource is None:
            return HttpResponse(404, body=b"not found")
        content_type, data = resource
        headers = Headers([("Content-Type", content_type)])
        body = b"" if request.method == "HEAD" else data
        return HttpResponse(200, headers, body)


class OriginServer:
    """A deployed website: a network host running an HTTP server."""

    def __init__(
        self,
        network: Network,
        host_name: str,
        handler: Callable,
        port: int = 80,
        processing_delay: float = DEFAULT_PROCESSING_DELAY,
        extra_latency_s: float = 0.0,
    ):
        existing = network.lookup(host_name)
        self.host = existing or Host(
            network,
            host_name,
            SERVER_PROFILE,
            segment="internet",
            extra_latency_s=extra_latency_s,
        )
        self.http = HttpServer(
            self.host,
            port,
            handler,
            processing_delay=processing_delay,
            server_name=host_name,
        )
        self.http.start()

    def stop(self) -> None:
        """Close the listener and every active connection."""
        self.http.stop()

    @property
    def requests_served(self) -> int:
        """Requests answered since the server started."""
        return self.http.requests_served

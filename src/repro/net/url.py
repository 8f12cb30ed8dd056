"""A small URL type with RFC-3986-style parsing and relative resolution.

RCB-Agent's content-generation pipeline rewrites every supplementary-object
reference in a cloned document from relative to absolute form (Fig. 3,
step 2), and in cache mode from absolute form to the agent's own address
(step 3).  Both rewrites are exercised heavily, so the URL type is a
substrate of its own with full join semantics for the subset of URLs the
simulated web uses (http/https, host[:port], path, query, fragment).
"""

from __future__ import annotations

from typing import Optional

__all__ = ["Url", "UrlError", "parse_url", "resolve_url"]

DEFAULT_PORTS = {"http": 80, "https": 443}


class UrlError(ValueError):
    """Raised for strings that cannot be parsed as a supported URL."""


class Url:
    """An absolute or relative URL.

    Absolute URLs have a scheme and host; relative URLs have neither and
    only make sense once resolved against a base via :func:`resolve_url`.
    """

    __slots__ = ("scheme", "host", "port", "path", "query", "fragment")

    def __init__(
        self,
        scheme: Optional[str] = None,
        host: Optional[str] = None,
        port: Optional[int] = None,
        path: str = "",
        query: Optional[str] = None,
        fragment: Optional[str] = None,
    ):
        self.scheme = scheme.lower() if scheme else None
        self.host = host.lower() if host else None
        self.port = port
        self.path = path
        self.query = query
        self.fragment = fragment

    # -- predicates ---------------------------------------------------------

    @property
    def is_absolute(self) -> bool:
        """True when the URL has both a scheme and a host."""
        return self.scheme is not None and self.host is not None

    @property
    def effective_port(self) -> Optional[int]:
        """The explicit port, or the scheme's default."""
        if self.port is not None:
            return self.port
        if self.scheme in DEFAULT_PORTS:
            return DEFAULT_PORTS[self.scheme]
        return None

    @property
    def origin(self) -> str:
        """scheme://host[:port] with default ports elided."""
        if not self.is_absolute:
            raise UrlError("relative URL has no origin: %r" % (str(self),))
        netloc = self.host
        if self.port is not None and self.port != DEFAULT_PORTS.get(self.scheme):
            netloc = "%s:%d" % (netloc, self.port)
        return "%s://%s" % (self.scheme, netloc)

    def request_target(self) -> str:
        """The path?query form used on an HTTP request line."""
        target = self.path or "/"
        if self.query is not None:
            target += "?" + self.query
        return target

    # -- equality / hashing ---------------------------------------------------

    def _key(self):
        return (
            self.scheme,
            self.host,
            self.effective_port,
            self.path,
            self.query,
            self.fragment,
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, Url) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return "Url(%r)" % (str(self),)

    def __str__(self) -> str:
        parts = []
        if self.scheme is not None:
            parts.append(self.scheme + ":")
        if self.host is not None:
            parts.append("//" + self.host)
            if self.port is not None and self.port != DEFAULT_PORTS.get(self.scheme):
                parts.append(":%d" % self.port)
        parts.append(self.path)
        if self.query is not None:
            parts.append("?" + self.query)
        if self.fragment is not None:
            parts.append("#" + self.fragment)
        return "".join(parts)

    def replace(self, **changes) -> "Url":
        """Return a copy with the given components replaced."""
        fields = {name: getattr(self, name) for name in self.__slots__}
        fields.update(changes)
        return Url(**fields)


def parse_url(text: str) -> Url:
    """Parse ``text`` into a :class:`Url` (absolute or relative)."""
    if not isinstance(text, str):
        raise UrlError("URL must be a string, got %r" % (text,))
    rest = text.strip()

    fragment = None
    if "#" in rest:
        rest, fragment = rest.split("#", 1)

    query = None
    if "?" in rest:
        rest, query = rest.split("?", 1)

    scheme = None
    host = None
    port = None

    colon = rest.find(":")
    slash = rest.find("/")
    if colon > 0 and (slash == -1 or colon < slash):
        candidate = rest[:colon]
        if candidate.replace("+", "").replace("-", "").replace(".", "").isalnum() and candidate[0].isalpha():
            scheme = candidate
            rest = rest[colon + 1 :]

    if rest.startswith("//"):
        rest = rest[2:]
        end = len(rest)
        for index, char in enumerate(rest):
            if char == "/":
                end = index
                break
        netloc, rest = rest[:end], rest[end:]
        if "@" in netloc:  # userinfo is not part of the simulated web
            raise UrlError("userinfo is not supported: %r" % (text,))
        if ":" in netloc:
            host, port_text = netloc.rsplit(":", 1)
            if not (port_text.isascii() and port_text.isdigit()):
                raise UrlError("bad port in %r" % (text,))
            port = int(port_text)
            if not 0 < port < 65536:
                raise UrlError("port out of range in %r" % (text,))
        else:
            host = netloc
        if not host:
            raise UrlError("empty host in %r" % (text,))
    elif scheme is not None and scheme not in ("http", "https"):
        raise UrlError("unsupported scheme %r in %r" % (scheme, text))

    if scheme is not None and host is None:
        raise UrlError("scheme without host in %r" % (text,))

    return Url(scheme, host, port, rest, query, fragment)


def _merge_paths(base: Url, relative_path: str) -> str:
    if not base.path:
        return "/" + relative_path
    return base.path[: base.path.rfind("/") + 1] + relative_path


def _remove_dot_segments(path: str) -> str:
    output = []
    for segment in path.split("/"):
        if segment == ".":
            continue
        if segment == "..":
            if len(output) > 1:
                output.pop()
            continue
        output.append(segment)
    # Preserve a trailing slash implied by '.' or '..' final segments.
    if path.endswith(("/.", "/..", "/")) and (not output or output[-1] != ""):
        output.append("")
    return "/".join(output)


def resolve_url(base: Url, reference: Url) -> Url:
    """Resolve ``reference`` against absolute ``base`` (RFC 3986 §5.3)."""
    if not base.is_absolute:
        raise UrlError("base URL must be absolute: %r" % (str(base),))

    if reference.is_absolute:
        return reference.replace(path=_remove_dot_segments(reference.path) or "/")

    if reference.host is not None:  # network-path reference (//host/...)
        return Url(
            base.scheme,
            reference.host,
            reference.port,
            _remove_dot_segments(reference.path) or "/",
            reference.query,
            reference.fragment,
        )

    if not reference.path:
        query = reference.query if reference.query is not None else base.query
        return Url(
            base.scheme, base.host, base.port, base.path or "/", query, reference.fragment
        )

    if reference.path.startswith("/"):
        path = _remove_dot_segments(reference.path)
    else:
        path = _remove_dot_segments(_merge_paths(base, reference.path))
    return Url(
        base.scheme, base.host, base.port, path or "/", reference.query, reference.fragment
    )

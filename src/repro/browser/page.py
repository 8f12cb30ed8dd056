"""Page: a loaded document plus its supplementary objects and timings."""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..html import Document
from ..net.url import Url
from .script import ScriptEngine

__all__ = ["Page", "LoadedObject"]


class LoadedObject:
    """One supplementary object (image, stylesheet, script, frame)."""

    __slots__ = ("url", "content_type", "size", "from_cache", "elapsed")

    def __init__(self, url: str, content_type: str, size: int, from_cache: bool, elapsed: float):
        self.url = url
        self.content_type = content_type
        self.size = size
        self.from_cache = from_cache
        self.elapsed = elapsed

    def __repr__(self) -> str:
        source = "cache" if self.from_cache else "network"
        return "LoadedObject(%r, %d bytes, %s)" % (self.url, self.size, source)


class Page:
    """The browser's current page state."""

    def __init__(self, url: Url, document: Document):
        self.url = url
        self.document = document
        #: Supplementary objects downloaded while rendering this page.
        self.objects: List[LoadedObject] = []
        #: Time spent fetching the HTML document itself (metric M1).
        self.html_load_time: float = 0.0
        #: Time spent fetching supplementary objects (metrics M3/M4).
        self.objects_load_time: float = 0.0
        #: Per-page handler registry (Ajax-Snippet registers here on a
        #: participant browser).
        self.scripts = ScriptEngine()
        #: Monotonic version, bumped on every document mutation; the
        #: browser uses it to detect staleness and RCB-Agent uses the
        #: corresponding wall-clock timestamp.
        self.version = 0
        #: The last supplementary-object scan of ``document``, as
        #: ``(document subtree_version, urls)``; the browser reuses the
        #: URL list while the version still matches.
        self.object_scan: Optional[Tuple[int, List[str]]] = None

    @property
    def object_scan_current(self) -> bool:
        """Whether the last object scan was taken of the document as it
        is now (every DOM mutation moves the subtree version)."""
        scan = self.object_scan
        return scan is not None and scan[0] == self.document.subtree_version

    def carry_object_scan(self) -> None:
        """Re-stamp the object scan with the document's current version.
        The caller vouches that the changes since the scan was current
        left the object list as it was."""
        self.object_scan = (self.document.subtree_version, self.object_scan[1])

    @property
    def html_size(self) -> int:
        """Byte size of the current document, serialized."""
        from ..html import serialize_document

        return len(serialize_document(self.document).encode("utf-8"))

    def __repr__(self) -> str:
        return "Page(%r, %d objects, v%d)" % (str(self.url), len(self.objects), self.version)

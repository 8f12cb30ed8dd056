"""DOM to markup serialization (outerHTML / innerHTML getters).

The serializer and the parser are designed as a fixed point: for any DOM
tree, ``parse(serialize(tree))`` yields an equivalent tree, and for any
already-parsed markup, serialize∘parse is idempotent.  RCB relies on
this: the host extracts innerHTML strings (paper §4.1.2), ships them in
the XML envelope, and the participant re-parses them — any drift would
corrupt the co-browsed page on the second synchronization.

**Segment cache.**  The incremental generation pipeline re-serializes a
kept clone tree after surgically replacing only the dirty subtrees.  The
:class:`SegmentCache` memoizes serialized element subtrees keyed by
``(id(node), node.subtree_version)``: a mutation anywhere in a subtree
bumps the subtree version of every ancestor (see :mod:`repro.html.dom`),
so dirty regions miss and are re-serialized while untouched siblings
come back as cached strings.  Version draws are globally unique, which
makes a stale hit after ``id()`` recycling impossible: a recycled id
would have to pair with a version drawn before the new node existed.
The cached entry points are :func:`serialize_node_cached` and
:func:`serialize_children_cached`; the plain serializers never consult
the cache.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional

from .dom import (
    Comment,
    Document,
    Element,
    Node,
    RAW_TEXT_ELEMENTS,
    Text,
)
from .entities import escape_attribute, escape_text

__all__ = [
    "serialize_node",
    "serialize_children",
    "serialize_document",
    "serialize_node_cached",
    "serialize_children_cached",
    "transform_children_cached",
    "SegmentCache",
    "segment_cache",
]


def serialize_document(document: Document) -> str:
    """Serialize a full Document (doctype + children) to markup."""
    parts: List[str] = []
    if document.doctype:
        parts.append("<!%s>" % document.doctype)
    for child in document.child_nodes:
        _serialize_into(child, parts, raw=False)
    return "".join(parts)


def serialize_node(node: Node) -> str:
    """Serialize one node to markup (outerHTML for elements)."""
    if isinstance(node, Document):
        return serialize_document(node)
    parts: List[str] = []
    _serialize_into(node, parts, raw=False)
    return "".join(parts)


def serialize_children(node) -> str:
    """Serialize a node's children (the innerHTML getter)."""
    parts: List[str] = []
    raw = isinstance(node, Element) and node.tag in RAW_TEXT_ELEMENTS
    for child in node.child_nodes:
        _serialize_into(child, parts, raw=raw)
    return "".join(parts)


def _open_tag_into(node: Element, parts: List[str]) -> None:
    parts.append("<%s" % node.tag)
    for name, value in node.attributes:
        if value == "":
            parts.append(" %s" % name)
        else:
            parts.append(' %s="%s"' % (name, escape_attribute(value)))
    parts.append(">")


def _serialize_into(node: Node, parts: List[str], raw: bool) -> None:
    if isinstance(node, Text):
        parts.append(node.data if raw else escape_text(node.data))
    elif isinstance(node, Comment):
        parts.append("<!--%s-->" % node.data)
    elif isinstance(node, Element):
        _open_tag_into(node, parts)
        if node.is_void:
            return
        child_raw = node.tag in RAW_TEXT_ELEMENTS
        for child in node.child_nodes:
            _serialize_into(child, parts, raw=child_raw)
        parts.append("</%s>" % node.tag)
    else:
        raise TypeError("cannot serialize %r" % (node,))


# -- segment cache -----------------------------------------------------------------


#: A :class:`SegmentCache` keeps at most this many entries and bytes.
_SEGMENT_CAPACITY = 2048
_SEGMENT_MAX_BYTES = 16 * 1024 * 1024
#: Shorter serializations are not worth an entry.
_SEGMENT_MIN_LENGTH = 32


class SegmentCache:
    """LRU of serialized element subtrees keyed by ``(id, subtree_version)``.

    An element's serialization is context-independent (the raw-text flag
    only affects Text nodes directly, and an element derives its
    children's flag from its own tag), so entries can be reused at any
    position in any tree.  Bounded both by entry count and total cached
    bytes; strings shorter than :data:`_SEGMENT_MIN_LENGTH` are not
    worth an entry.
    """

    def __init__(self):
        self._entries: "OrderedDict[tuple, str]" = OrderedDict()
        self.current_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, node: Element) -> Optional[str]:
        """The cached serialization of ``node``'s current state, or None."""
        key = (id(node), node._subtree_version)
        text = self._entries.get(key)
        if text is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return text

    def put(self, node: Element, text: str) -> None:
        """Retain a serialization (no-op below the length threshold)."""
        if len(text) < _SEGMENT_MIN_LENGTH:
            return
        key = (id(node), node._subtree_version)
        existing = self._entries.pop(key, None)
        if existing is not None:
            self.current_bytes -= len(existing)
        self._entries[key] = text
        self.current_bytes += len(text)
        while self._entries and (
            len(self._entries) > _SEGMENT_CAPACITY or self.current_bytes > _SEGMENT_MAX_BYTES
        ):
            _key, evicted = self._entries.popitem(last=False)
            self.current_bytes -= len(evicted)
            self.evictions += 1

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        self._entries.clear()
        self.current_bytes = 0

    def stats(self) -> dict:
        """Counters snapshot for metrics surfaces."""
        return {
            "entries": len(self._entries),
            "bytes": self.current_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }

    def __repr__(self) -> str:
        return "SegmentCache(%d entries, %d bytes, %d hits/%d misses)" % (
            len(self._entries), self.current_bytes, self.hits, self.misses,
        )


#: Process-wide default cache used by the ``*_cached`` serializers.
segment_cache = SegmentCache()


def serialize_node_cached(node: Node, cache: Optional[SegmentCache] = None) -> str:
    """outerHTML through the segment cache (reads and populates it)."""
    if isinstance(node, Document):
        return serialize_document(node)
    parts: List[str] = []
    _serialize_cached(node, parts, False, cache if cache is not None else segment_cache)
    return "".join(parts)


def serialize_children_cached(node, cache: Optional[SegmentCache] = None) -> str:
    """innerHTML through the segment cache (reads and populates it)."""
    parts: List[str] = []
    raw = isinstance(node, Element) and node.tag in RAW_TEXT_ELEMENTS
    active = cache if cache is not None else segment_cache
    for child in node.child_nodes:
        _serialize_cached(child, parts, raw, active)
    return "".join(parts)


def transform_children_cached(node, transform, cache: SegmentCache,
                              ser_cache: Optional[SegmentCache] = None) -> str:
    """Transformed innerHTML with per-subtree caching of *transformed*
    segments.

    ``transform`` must map each UTF-16 code unit independently —
    ``transform(a + b) == transform(a) + transform(b)`` — so that the
    transform of a serialization is the concatenation of per-subtree
    transformed segments.  Element subtrees' transformed serializations
    are cached in ``cache`` (keyed ``(id, subtree_version)`` like the
    plain segment cache); a miss serializes through ``ser_cache`` so the
    plain segments of unchanged descendants are still reused.
    """
    parts: List[str] = []
    raw = isinstance(node, Element) and node.tag in RAW_TEXT_ELEMENTS
    active = ser_cache if ser_cache is not None else segment_cache
    for child in node.child_nodes:
        _transform_cached(child, parts, raw, transform, cache, active)
    return "".join(parts)


def _transform_cached(node: Node, parts: List[str], raw: bool, transform,
                      cache: SegmentCache, ser_cache: SegmentCache) -> None:
    if not isinstance(node, Element):
        sub: List[str] = []
        _serialize_into(node, sub, raw)
        parts.append(transform("".join(sub)))
        return
    cached = cache.get(node)
    if cached is not None:
        parts.append(cached)
        return
    sub = []
    _serialize_cached(node, sub, raw, ser_cache)
    text = transform("".join(sub))
    cache.put(node, text)
    parts.append(text)


def _serialize_cached(node: Node, parts: List[str], raw: bool, cache: SegmentCache) -> None:
    if not isinstance(node, Element):
        _serialize_into(node, parts, raw)
        return
    cached = cache.get(node)
    if cached is not None:
        parts.append(cached)
        return
    sub: List[str] = []
    _open_tag_into(node, sub)
    if not node.is_void:
        child_raw = node.tag in RAW_TEXT_ELEMENTS
        for child in node.child_nodes:
            _serialize_cached(child, sub, child_raw, cache)
        sub.append("</%s>" % node.tag)
    text = "".join(sub)
    cache.put(node, text)
    parts.append(text)

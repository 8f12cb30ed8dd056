"""Response content generation — the paper's Fig. 3 pipeline.

Given the host browser's current document, produce the XML envelope a
participant needs to render the same page:

1. Clone the ``documentElement`` (all later changes touch only the
   clone; the host document is never mutated).
2. Rewrite relative URLs of supplementary objects to absolute URLs of
   the original web servers, using the observer-recorded download map
   where available.
3. In cache mode, rewrite absolute URLs of cached objects to RCB-Agent
   URLs, so the participant browser fetches them from the host browser.
4. Rewrite event attributes (onsubmit/onclick/onchange) to call
   Ajax-Snippet functions, tagging each interactive element with a
   stable reference so its actions can be resolved on the host.
5. Extract attribute lists and innerHTML values of the top-level
   children and assemble the Fig. 4 XML envelope.

The generator runs once per new document state; the produced XML is
reusable for every connected participant (paper §4.1.2).

**Incremental generation.**  The paper's pipeline is O(page) per
document change.  When the caller passes a ``mode_key``, the generator
retains the previous rewritten clone and, on the next generation,
re-clones and re-rewrites only subtrees whose DOM version stamps (see
:mod:`repro.html.dom`) changed — every untouched subtree is the *same*
clone object, its serialized segment comes from the serializer's
segment cache, and its envelope payload string is reused outright.  The
output is byte-identical to a from-scratch run because both paths share
one builder and one envelope assembler.  Reuse is fenced by a
fingerprint of everything besides the DOM that influences rewriting
(base URL, cache-mode flag + cache content revision, the signing and
cache-policy callables, the observer URL map); any mismatch falls back
to a full rebuild.  Event-attribute rewrites additionally depend on
pre-order same-tag indices, so each cloned element records the
interactive-tag counters at its subtree boundaries — a subtree is only
reused when its incoming counters are unchanged, otherwise its
``data-rcbref`` indices could be stale.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from ..browser.cache import CacheReadSession
from ..html import Document, Element
from ..html.dom import RAW_TEXT_ELEMENTS, Comment, Node, Text
from ..html.parser import _SELF_CLOSING_SIBLINGS
from ..html.serializer import (
    SegmentCache,
    serialize_children,
    serialize_children_cached,
    transform_children_cached,
)
from ..http import quote
from ..net.url import Url, UrlError, parse_url, resolve_url
from .xmlformat import (
    PAYLOAD_SUFFIX,
    HeadChild,
    NewContent,
    TopElement,
    assemble_envelope,
    head_child_prefix,
    payload_encode,
    top_element_prefix,
)

__all__ = ["ContentGenerator", "GeneratedContent", "OBJECT_URL_ATTRIBUTES", "AGENT_OBJECT_PATH"]

#: Attributes holding supplementary-object URLs, per tag.
OBJECT_URL_ATTRIBUTES: Tuple[Tuple[str, str], ...] = (
    ("img", "src"),
    ("script", "src"),
    ("frame", "src"),
    ("iframe", "src"),
    ("embed", "src"),
    ("input", "src"),
    ("body", "background"),
    ("link", "href"),
)

#: Navigation attributes also made absolute (harmless, aids debugging).
_NAVIGATION_ATTRIBUTES: Tuple[Tuple[str, str], ...] = (
    ("a", "href"),
    ("form", "action"),
)

#: Path on the agent that serves cached objects (cache mode).
AGENT_OBJECT_PATH = "/obj"

#: Event-attribute rewrites: tag -> (attribute, snippet call).
_EVENT_REWRITES: Dict[str, Tuple[str, str]] = {
    "form": ("onsubmit", "return rcbSubmit(this)"),
    "a": ("onclick", "return rcbClick(this)"),
    "input": ("onchange", "rcbInput(this)"),
    "select": ("onchange", "rcbInput(this)"),
    "textarea": ("onchange", "rcbInput(this)"),
    "button": ("onclick", "return rcbClick(this)"),
}

#: Attribute carrying the stable element reference on rewritten elements.
REF_ATTRIBUTE = "data-rcbref"

#: tag -> attributes to absolutize, precomputed so the per-element hot
#: path is one dict probe instead of a scan over every (tag, attribute)
#: pair in the module tables.
_URL_ATTRIBUTES_BY_TAG: Dict[str, Tuple[str, ...]] = {}
for _tag, _attr in OBJECT_URL_ATTRIBUTES + _NAVIGATION_ATTRIBUTES:
    _URL_ATTRIBUTES_BY_TAG[_tag] = _URL_ATTRIBUTES_BY_TAG.get(_tag, ()) + (_attr,)

#: tag -> attributes eligible for cache-mode rewriting.
_CACHE_ATTRIBUTES_BY_TAG: Dict[str, Tuple[str, ...]] = {}
for _tag, _attr in OBJECT_URL_ATTRIBUTES:
    _CACHE_ATTRIBUTES_BY_TAG[_tag] = _CACHE_ATTRIBUTES_BY_TAG.get(_tag, ()) + (_attr,)

#: Interactive tags whose pre-order same-tag index feeds data-rcbref.
_EVENT_TAGS: Tuple[str, ...] = tuple(sorted(_EVENT_REWRITES))
_EVENT_SLOT: Dict[str, int] = {tag: slot for slot, tag in enumerate(_EVENT_TAGS)}


class GeneratedContent:
    """One generation result: envelope text plus bookkeeping."""

    def __init__(
        self,
        content: NewContent,
        xml_text: str,
        object_map: Dict[str, str],
        generation_seconds: float,
        urls_rewritten: int,
        cache_rewrites: int,
        mode: str = "full",
        segments_reused: int = 0,
        segments_total: int = 0,
        dirty_subtrees: int = 0,
        reused_subtrees: int = 0,
        urlcache_hits: int = 0,
        canonical_root: Optional[Element] = None,
        head_segments: Optional[List[bytes]] = None,
        top_segments: Optional[List[Tuple[str, bytes]]] = None,
    ):
        self.content = content
        self.xml_text = xml_text
        #: agent request-URI -> cache key (the paper's mapping table).
        self.object_map = object_map
        #: Wall-clock time spent generating (the paper's M5 metric).
        self.generation_seconds = generation_seconds
        self.urls_rewritten = urls_rewritten
        self.cache_rewrites = cache_rewrites
        #: ``"full"`` or ``"incremental"`` — which pipeline ran.
        self.mode = mode
        #: Envelope sections (head children / top elements) whose cached
        #: payload string was reused, out of ``segments_total``.
        self.segments_reused = segments_reused
        self.segments_total = segments_total
        #: Clone subtrees rebuilt because their source versions changed,
        #: and subtrees reused wholesale.
        self.dirty_subtrees = dirty_subtrees
        self.reused_subtrees = reused_subtrees
        #: Hits in the (base_url, raw) -> absolute URL memo this run.
        self.urlcache_hits = urlcache_hits
        #: Canonical content tree for delta snapshots (built on request;
        #: unchanged subtrees are shared with the previous snapshot, so
        #: version-guided diffs skip them without descending).
        self.canonical_root = canonical_root
        #: Pre-encoded (ASCII bytes) section payloads for the zero-copy
        #: wire path, cached per clone element across generations.
        self.head_segments = head_segments
        self.top_segments = top_segments

    @property
    def reuse_ratio(self) -> float:
        """Fraction of clone subtrees reused rather than rebuilt (0.0
        for a full generation: nothing was carried over)."""
        touched = self.reused_subtrees + self.dirty_subtrees
        if not touched:
            return 0.0
        return self.reused_subtrees / touched

    def __repr__(self):
        return "GeneratedContent(%d bytes xml, %d cache objects, %.4fs, %s)" % (
            len(self.xml_text),
            len(self.object_map),
            self.generation_seconds,
            self.mode,
        )


class _ModeState:
    """Retained pipeline state for one ``mode_key``."""

    __slots__ = ("src_root", "clone_root", "fingerprint", "url_map", "object_map")

    def __init__(self):
        self.src_root: Optional[Element] = None
        self.clone_root: Optional[Element] = None
        self.fingerprint: Optional[tuple] = None
        self.url_map: Dict[str, str] = {}
        #: Cumulative request-URI -> cache key mapping.  Sound across
        #: incremental runs because the fingerprint pins the cache
        #: revision: while it holds, every mapping written for a reused
        #: subtree still resolves.
        self.object_map: Dict[str, str] = {}


class _GenPass:
    """Per-generation scratch: configuration + work counters."""

    __slots__ = (
        "base_url",
        "base_key",
        "url_map",
        "cache_mode",
        "cache_session",
        "sign_target",
        "should_cache",
        "object_map",
        "urls_rewritten",
        "cache_rewrites",
        "dirty_subtrees",
        "reused_subtrees",
        "segments_reused",
        "segments_total",
    )

    def __init__(self, base_url, url_map, cache_mode, cache_session, sign_target, should_cache):
        self.base_url = base_url
        self.base_key = str(base_url)
        self.url_map = url_map
        self.cache_mode = cache_mode
        self.cache_session = cache_session
        self.sign_target = sign_target
        self.should_cache = should_cache
        self.object_map: Dict[str, str] = {}
        self.urls_rewritten = 0
        self.cache_rewrites = 0
        self.dirty_subtrees = 0
        self.reused_subtrees = 0
        self.segments_reused = 0
        self.segments_total = 0


class ContentGenerator:
    """Implements the Fig. 3 response content generation procedure."""

    def __init__(self, agent_object_path: str = AGENT_OBJECT_PATH, url_cache_size: int = 4096):
        self.agent_object_path = agent_object_path
        self.generations = 0
        #: LRU memo for (base_url, raw) -> absolute resolution.
        self._url_memo: "OrderedDict[Tuple[str, str], Optional[str]]" = OrderedDict()
        self._url_cache_size = url_cache_size
        self.url_cache_hits = 0
        #: Serialized-subtree cache shared by this generator's runs.
        self.segment_cache = SegmentCache()
        #: Payload-encoded (JSON-string + js_escape) subtree cache.
        self.encoded_cache = SegmentCache()
        #: Retained incremental state per mode_key.
        self._modes: Dict[str, _ModeState] = {}

    def generate(
        self,
        document: Document,
        base_url: Url,
        doc_time: int,
        cache_session: Optional[CacheReadSession] = None,
        cache_mode: bool = False,
        url_map: Optional[Dict[str, str]] = None,
        user_actions_json: str = "[]",
        sign_target=None,
        should_cache=None,
        cookies_json: str = "[]",
        mode_key: Optional[str] = None,
        build_canonical: bool = False,
    ) -> GeneratedContent:
        """Produce the envelope for the document's current state.

        ``url_map`` maps raw attribute values to the absolute URLs the
        observer recorded during the host's own download (Fig. 3 step 2);
        values not in the map are resolved against ``base_url``.

        ``sign_target``, when given, is applied to every agent object URL
        written into the clone (cache mode under HMAC authentication: the
        host signs the URLs with the shared session secret so the
        participant browser's plain GETs verify).

        ``should_cache`` refines cache mode per object: a callable
        ``(object_url, content_type, size) -> bool`` consulted for every
        cached object (paper §4.1.2: different objects on the same page
        may use different modes).

        ``mode_key`` opts into incremental generation: the rewritten
        clone is retained under that key and later calls rebuild only
        version-changed subtrees.  For the reuse fence to ever hold,
        pass the *same* ``sign_target``/``should_cache`` objects across
        calls — fresh closures per call force a full rebuild every time.
        ``build_canonical`` additionally builds the canonical content
        tree (:func:`repro.core.delta.content_tree` shape) with
        unchanged subtrees shared against the previous build.  Each
        section's payload is also exposed pre-encoded to ASCII bytes
        (cached per clone element, like the payload strings), for the
        zero-copy wire templates.
        """
        started = time.perf_counter()
        root = document.document_element
        if root is None:
            raise ValueError("document has no <html> element")

        url_hits_before = self.url_cache_hits
        gen = _GenPass(base_url, url_map, cache_mode, cache_session, sign_target, should_cache)
        state = self._modes.get(mode_key) if mode_key is not None else None
        fingerprint = self._fingerprint(gen)
        incremental = (
            state is not None
            and state.src_root is root
            and state.fingerprint == fingerprint
            and state.url_map == (url_map or {})
        )

        # Steps 1-4 in one traversal: clone + rewrite, reusing unchanged
        # subtrees of the previous clone in incremental mode.
        counters = [0] * len(_EVENT_TAGS)
        if incremental:
            gen.object_map = state.object_map
            clone = self._sync_node(root, state.clone_root, counters, gen)
        else:
            clone = self._build_element(root, None, counters, gen)

        # Step 5: extract per-child attribute lists and innerHTML values,
        # through the per-section payload cache.
        head_children: List[HeadChild] = []
        head_payloads: List[str] = []
        head_clones: List[Element] = []
        top_elements: List[TopElement] = []
        top_payloads: List[Tuple[str, str]] = []
        top_clones: List[Element] = []
        head_segments: List[bytes] = []
        top_segments: List[Tuple[str, bytes]] = []
        for child in clone.children:
            if child.tag == "head":
                for head_child in child.children:
                    record, payload = self._segment(head_child, True, gen)
                    head_children.append(record)
                    head_payloads.append(payload)
                    head_clones.append(head_child)
                    head_segments.append(self._segment_bytes(head_child))
            elif child.tag in ("body", "frameset", "noframes"):
                record, payload = self._segment(child, False, gen)
                top_elements.append(record)
                top_payloads.append((record.name, payload))
                top_clones.append(child)
                top_segments.append((record.name, self._segment_bytes(child)))

        content = NewContent(
            doc_time, head_children, top_elements, user_actions_json, cookies_json
        )
        xml_text = assemble_envelope(
            doc_time, head_payloads, top_payloads, user_actions_json, cookies_json
        )
        canonical_root = None
        if build_canonical:
            canonical_root = self._canonical(head_clones, top_clones)

        if mode_key is not None:
            if state is None:
                state = self._modes[mode_key] = _ModeState()
            state.src_root = root
            state.clone_root = clone
            state.fingerprint = fingerprint
            state.url_map = dict(url_map or {})
            state.object_map = gen.object_map

        elapsed = time.perf_counter() - started
        self.generations += 1
        return GeneratedContent(
            content,
            xml_text,
            dict(gen.object_map),
            elapsed,
            gen.urls_rewritten,
            gen.cache_rewrites,
            mode="incremental" if incremental else "full",
            segments_reused=gen.segments_reused,
            segments_total=gen.segments_total,
            dirty_subtrees=gen.dirty_subtrees,
            reused_subtrees=gen.reused_subtrees,
            urlcache_hits=self.url_cache_hits - url_hits_before,
            canonical_root=canonical_root,
            head_segments=head_segments,
            top_segments=top_segments,
        )

    def forget(self, mode_key: Optional[str] = None) -> None:
        """Drop retained incremental state (all modes when key is None)."""
        if mode_key is None:
            self._modes.clear()
        else:
            self._modes.pop(mode_key, None)

    # -- reuse fence ---------------------------------------------------------------

    @staticmethod
    def _callable_key(fn) -> Optional[tuple]:
        """Identity of a rewrite callable, unwrapping bound methods so a
        re-bound ``obj.method`` still fingerprints as the same thing."""
        if fn is None:
            return None
        return (getattr(fn, "__func__", fn), id(getattr(fn, "__self__", None)))

    def _fingerprint(self, gen: _GenPass) -> tuple:
        session = gen.cache_session
        cache_id = None
        cache_revision = None
        if session is not None:
            backing = getattr(session, "backing", None)
            cache_id = id(backing) if backing is not None else id(session)
            cache_revision = getattr(session, "revision", None)
        return (
            gen.base_key,
            bool(gen.cache_mode),
            cache_id,
            cache_revision,
            self._callable_key(gen.sign_target),
            self._callable_key(gen.should_cache),
        )

    # -- clone + rewrite (Fig. 3 steps 1-4) ------------------------------------------

    def _sync_node(self, src: Node, old_clone, counters: List[int], gen: _GenPass) -> Node:
        """A rewritten clone of ``src``, reusing ``old_clone`` when the
        source subtree and the incoming interactive-tag counters are
        both unchanged since ``old_clone`` was built."""
        if isinstance(src, Element):
            if (
                old_clone is not None
                and old_clone._rcb_src is src
                and old_clone._rcb_sub == src._subtree_version
                and old_clone._rcb_in == tuple(counters)
            ):
                counters[:] = old_clone._rcb_out
                gen.reused_subtrees += 1
                return old_clone
            return self._build_element(src, old_clone, counters, gen)
        return src.clone(deep=False)

    def _build_element(
        self, src: Element, old_clone: Optional[Element], counters: List[int], gen: _GenPass
    ) -> Element:
        """Clone + rewrite one element, syncing its children against the
        old clone's children (matched by source-node identity).

        When the old clone maps to the same source element at the same
        incoming counters, it is *repaired in place*: its attributes are
        reset and re-rewritten, and its child list is only reassigned if
        the synced children actually differ — so a dirty ancestor chain
        costs O(its own children), not a detach/re-append of every
        reused descendant.  The repaired element is version-stamped,
        which both invalidates its cached segments/payloads/canonicals
        and (via parent propagation) those of its in-place ancestors.
        """
        gen.dirty_subtrees += 1
        entry_counters = tuple(counters)
        in_place = (
            old_clone is not None
            and getattr(old_clone, "_rcb_src", None) is src
            and old_clone._rcb_in == entry_counters
        )
        old_children: List[Node] = list(old_clone.child_nodes) if old_clone is not None else []
        if in_place:
            element = old_clone
            element._attributes.clear()
            element._attributes.update(src._attributes)
        else:
            element = src.clone(deep=False)
        element._rcb_src = src
        element._rcb_sub = src._subtree_version
        element._rcb_in = entry_counters

        gen.urls_rewritten += self._rewrite_urls_memo(element, gen)
        if gen.cache_mode and gen.cache_session is not None:
            gen.cache_rewrites += self._rewrite_for_cache(
                element, gen.cache_session, gen.object_map, gen.sign_target, gen.should_cache
            )
        slot = _EVENT_SLOT.get(element.tag)
        if slot is not None:
            self._rewrite_events(element, counters[slot])
            counters[slot] += 1

        old_by_src: Optional[Dict[int, Node]] = None
        if old_children:
            old_by_src = {}
            for old_child in old_children:
                src_ref = getattr(old_child, "_rcb_src", None)
                if src_ref is not None:
                    # The clone's strong _rcb_src reference keeps the
                    # source node alive, so this id cannot be recycled.
                    old_by_src[id(src_ref)] = old_child
        new_children: List[Node] = []
        for child in src.child_nodes:
            old_child = old_by_src.get(id(child)) if old_by_src is not None else None
            new_children.append(self._sync_node(child, old_child, counters, gen))
        if in_place:
            if len(new_children) != len(old_children) or any(
                new is not old for new, old in zip(new_children, old_children)
            ):
                element.child_nodes[:] = new_children
                for child_node in new_children:
                    child_node.parent = element
            element._stamp_mutation()
        else:
            for child_node in new_children:
                element.append_child(child_node)
        element._rcb_out = tuple(counters)
        return element

    # -- envelope sections -----------------------------------------------------------

    def _segment(self, element: Element, is_head_child: bool, gen: _GenPass):
        """``(record, payload)`` for one envelope section, cached on the
        clone element keyed by its subtree version."""
        gen.segments_total += 1
        if getattr(element, "_rcb_seg_ver", None) == element._subtree_version:
            gen.segments_reused += 1
            return element._rcb_record, element._rcb_payload
        inner = serialize_children_cached(element, self.segment_cache)
        # Spliced payload: escaped record prefix + cached per-subtree
        # encoded segments + constant closer.  Byte-identical to
        # js_escape(json.dumps(record)) because both component escapes
        # map code units independently (see repro.core.xmlformat).
        encoded = transform_children_cached(
            element, payload_encode, self.encoded_cache, self.segment_cache
        )
        if is_head_child:
            record = HeadChild(element.tag, element.attributes, inner)
            payload = head_child_prefix(record.tag, record.attributes) + encoded + PAYLOAD_SUFFIX
        else:
            record = TopElement(element.tag, element.attributes, inner)
            payload = top_element_prefix(record.attributes) + encoded + PAYLOAD_SUFFIX
        element._rcb_record = record
        element._rcb_payload = payload
        element._rcb_seg_ver = element._subtree_version
        return record, payload

    @staticmethod
    def _segment_bytes(element: Element) -> bytes:
        """The element's payload pre-encoded to immutable ASCII bytes,
        cached alongside the payload string (payloads are pure ASCII:
        js_escape leaves nothing above 0x7F unescaped)."""
        if getattr(element, "_rcb_payload_b_ver", None) == element._subtree_version:
            return element._rcb_payload_b
        payload_b = element._rcb_payload.encode("ascii")
        element._rcb_payload_b = payload_b
        element._rcb_payload_b_ver = element._subtree_version
        return payload_b

    # -- canonical snapshot tree -------------------------------------------------------

    def _canonical(self, head_clones: List[Element], top_clones: List[Element]) -> Element:
        """The canonical content tree for this generation, mirroring what
        a participant holds after parsing the envelope sections.

        Section subtrees come from :meth:`_canonical_for`, which caches
        its result on each clone element keyed by subtree version, so an
        unchanged section (or any unchanged subtree of a dirty section)
        contributes the *same* node objects as the previous snapshot.
        They are appended raw — no reparenting, no version stamping:
        snapshots are read-only diff inputs, and object identity across
        snapshots is exactly what lets the version-guided diff skip
        unchanged regions without descending.
        """
        html = Element("html")
        head = Element("head")
        html.child_nodes.append(head)
        head.parent = html
        for clone_el in head_clones:
            head.child_nodes.append(self._canonical_for(clone_el))
        for clone_el in top_clones:
            html.child_nodes.append(self._canonical_for(clone_el))
        return html

    def _canonical_for(self, clone_el: Element) -> Element:
        """The parse-normalized mirror of one clone element, cached by
        subtree version.

        Participants re-parse each section's innerHTML, so the snapshot
        must be node-for-node what :func:`repro.html.parser.parse_fragment`
        would produce from the serialized markup.  A direct structural
        mirror matches that parse for every tree the parser itself could
        have produced; the exceptions are its normalizations — adjacent
        text merging, empty text dropping, void children, implied end
        tags, raw-text and comment delimiter ambiguities.  The cheap
        normalizations are applied inline; a subtree whose shape the
        parser would genuinely restructure falls back to a *localized*
        serialize-and-parse round trip, keeping the cost O(subtree)
        rather than O(page).
        """
        if getattr(clone_el, "_rcb_canon_ver", None) == clone_el._subtree_version:
            return clone_el._rcb_canon
        canon = Element(clone_el.tag, dict(clone_el._attributes))
        mirrored = True
        if canon.is_void:
            pass  # the parser never attaches children to a void element
        elif clone_el.tag in RAW_TEXT_ELEMENTS:
            data = "".join(
                child.data for child in clone_el.child_nodes if isinstance(child, Text)
            )
            if any(not isinstance(c, Text) for c in clone_el.child_nodes) or (
                "</" + clone_el.tag
            ) in data.lower():
                mirrored = False
            elif data:
                canon.child_nodes.append(Text(data))
                canon.child_nodes[-1].parent = canon
        else:
            pending: List[str] = []
            for child in clone_el.child_nodes:
                if isinstance(child, Text):
                    if child.data:
                        pending.append(child.data)
                    continue
                if pending:
                    canon.child_nodes.append(Text("".join(pending)))
                    canon.child_nodes[-1].parent = canon
                    pending = []
                if isinstance(child, Comment):
                    if "-->" in child.data:
                        mirrored = False
                        break
                    canon.child_nodes.append(Comment(child.data))
                    canon.child_nodes[-1].parent = canon
                elif isinstance(child, Element):
                    if clone_el.tag in _SELF_CLOSING_SIBLINGS.get(child.tag, ()):
                        # The parser would close clone_el at this child's
                        # start tag and restructure the section.
                        mirrored = False
                        break
                    canon.child_nodes.append(self._canonical_for(child))
                else:
                    mirrored = False
                    break
            else:
                if pending:
                    canon.child_nodes.append(Text("".join(pending)))
                    canon.child_nodes[-1].parent = canon
        if not mirrored:
            canon = Element(clone_el.tag, dict(clone_el._attributes))
            canon.inner_html = serialize_children(clone_el)
        clone_el._rcb_canon = canon
        clone_el._rcb_canon_ver = clone_el._subtree_version
        return canon

    # -- traversal -----------------------------------------------------------------

    @staticmethod
    def _walk(root: Element):
        """The clone root plus its descendant elements, pre-order —
        matching the traversal order used to resolve references on the
        host document."""
        yield root
        yield from root.descendant_elements()

    # -- step 2: relative -> absolute ------------------------------------------------

    def _rewrite_urls_memo(self, element: Element, gen: _GenPass) -> int:
        attributes = _URL_ATTRIBUTES_BY_TAG.get(element.tag)
        if attributes is None:
            return 0
        rewritten = 0
        for attribute in attributes:
            raw = element.get_attribute(attribute)
            if not raw:
                continue
            absolute = self._resolve_memo(raw, gen)
            if absolute is not None and absolute != raw:
                element.set_attribute(attribute, absolute)
                rewritten += 1
        return rewritten

    def _resolve_memo(self, raw: str, gen: _GenPass) -> Optional[str]:
        if gen.url_map and raw in gen.url_map:
            return gen.url_map[raw]
        memo = self._url_memo
        key = (gen.base_key, raw)
        if key in memo:
            memo.move_to_end(key)
            self.url_cache_hits += 1
            return memo[key]
        try:
            parsed = parse_url(raw)
            absolute = raw if parsed.is_absolute else str(resolve_url(gen.base_url, parsed))
        except UrlError:
            absolute = None
        memo[key] = absolute
        if len(memo) > self._url_cache_size:
            memo.popitem(last=False)
        return absolute

    def _rewrite_urls(
        self, element: Element, base_url: Url, url_map: Optional[Dict[str, str]]
    ) -> int:
        """Uncached single-element form (kept for direct callers)."""
        attributes = _URL_ATTRIBUTES_BY_TAG.get(element.tag)
        if attributes is None:
            return 0
        rewritten = 0
        for attribute in attributes:
            raw = element.get_attribute(attribute)
            if not raw:
                continue
            absolute = self._to_absolute(raw, base_url, url_map)
            if absolute is not None and absolute != raw:
                element.set_attribute(attribute, absolute)
                rewritten += 1
        return rewritten

    @staticmethod
    def _to_absolute(
        raw: str, base_url: Url, url_map: Optional[Dict[str, str]]
    ) -> Optional[str]:
        if url_map and raw in url_map:
            return url_map[raw]
        try:
            parsed = parse_url(raw)
            if parsed.is_absolute:
                return raw
            return str(resolve_url(base_url, parsed))
        except UrlError:
            return None

    # -- step 3: absolute -> agent URL (cache mode) -------------------------------------

    def _rewrite_for_cache(
        self,
        element: Element,
        cache_session: CacheReadSession,
        object_map: Dict[str, str],
        sign_target=None,
        should_cache=None,
    ) -> int:
        attributes = _CACHE_ATTRIBUTES_BY_TAG.get(element.tag)
        if attributes is None:
            return 0
        tag = element.tag
        if tag == "link":
            rel = (element.get_attribute("rel") or "").lower()
            if rel not in ("stylesheet", "icon", "shortcut icon"):
                return 0
        if tag == "input" and element.get_attribute("type") != "image":
            return 0
        rewritten = 0
        for attribute in attributes:
            url = element.get_attribute(attribute)
            if not url or not cache_session.contains(url):
                continue
            if should_cache is not None:
                entry = cache_session.peek(url)
                if entry is None or not should_cache(url, entry.content_type, entry.size):
                    continue
            target = "%s?key=%s" % (self.agent_object_path, quote(url))
            object_map[target] = url
            written = sign_target(target) if sign_target is not None else target
            element.set_attribute(attribute, written)
            rewritten += 1
        return rewritten

    # -- step 4: event-attribute rewriting ------------------------------------------------

    @staticmethod
    def _rewrite_events(element: Element, same_tag_index: int) -> None:
        rewrite = _EVENT_REWRITES.get(element.tag)
        if rewrite is None:
            return
        attribute, call = rewrite
        element.set_attribute(attribute, call)
        element.set_attribute(
            REF_ATTRIBUTE, "%s:%d" % (element.tag, same_tag_index)
        )

"""The XML response envelope (paper Fig. 4): build and parse.

RCB-Agent answers an Ajax polling request that needs new content with an
``application/xml`` document of this exact shape::

    <?xml version='1.0' encoding='utf-8'?>
    <newContent>
      <docTime>documentTimestamp</docTime>
      <docContent>
        <docHead>
          <hChild1><![CDATA[escape(hData1)]]></hChild1>
          ...
        </docHead>
        <docBody><![CDATA[escape(bData)]]></docBody>
        <!-- or, for frame pages -->
        <docFrameSet><![CDATA[escape(fData)]]></docFrameSet>
        <docNoFrames><![CDATA[escape(nData)]]></docNoFrames>
      </docContent>
      <userActions>userActionData</userActions>
    </newContent>

Each CDATA payload is a JavaScript-``escape()``-encoded record carrying
an element's attribute name-value list and its innerHTML value — the
combination of DOM structure and innerHTML performance the paper calls
out in §4.1.2.  The escape encoding leaves no ``]``, ``<`` or ``&``
characters in the payload, which is what makes the content "precisely
contained" in the XML message.

**Delta envelopes** extend the format: when the agent can diff the
participant's last-acknowledged document state against the current one
(see :mod:`repro.core.delta`), ``docContent`` is replaced by a
``baseTime`` marker plus a ``delta`` section carrying the JSON-encoded
node operations::

    <newContent>
      <docTime>documentTimestamp</docTime>
      <baseTime>participantTimestamp</baseTime>
      <delta><![CDATA[escape(opsJson)]]></delta>
      <userActions>userActionData</userActions>
    </newContent>

A receiver whose document is not exactly at ``baseTime`` discards the
delta and resyncs with a full envelope.
"""

from __future__ import annotations

import json
import re
from typing import Dict, List, Optional, Tuple

__all__ = [
    "NewContent",
    "HeadChild",
    "TopElement",
    "build_envelope",
    "head_child_payload",
    "top_element_payload",
    "payload_encode",
    "head_child_prefix",
    "top_element_prefix",
    "PAYLOAD_SUFFIX",
    "assemble_envelope",
    "parse_envelope",
    "js_escape",
    "js_unescape",
    "EnvelopeError",
    "WireTemplate",
    "wire_envelope_template",
    "wire_delta_template",
    "EMPTY_ACTIONS_WIRE",
    "WIRE_ACTIONS_OPEN",
    "WIRE_ACTIONS_CLOSE",
]

#: Characters JavaScript's escape() leaves unencoded.
_JS_SAFE = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789@*_+-./"
)


class EnvelopeError(Exception):
    """Malformed envelope."""


class _JsEscapeTable(dict):
    """``str.translate`` table computing escapes lazily, memoized per
    code point (the working set is the page's alphabet, not Unicode)."""

    def __missing__(self, code: int) -> str:
        char = chr(code)
        if char in _JS_SAFE:
            result = char
        elif code < 256:
            result = "%%%02X" % code
        elif code <= 0xFFFF:
            result = "%%u%04X" % code
        else:
            offset = code - 0x10000
            result = "%%u%04X%%u%04X" % (
                0xD800 + (offset >> 10),
                0xDC00 + (offset & 0x3FF),
            )
        self[code] = result
        return result


_JS_ESCAPE_TABLE = _JsEscapeTable()


def js_escape(text: str) -> str:
    """JavaScript ``escape()``: %XX below 256, %uXXXX above.

    Like the real function, operates on UTF-16 code units: astral-plane
    characters are emitted as a surrogate pair of %uXXXX escapes.
    """
    return text.translate(_JS_ESCAPE_TABLE)


#: Entries the unescape memo keeps at most (hostile spellings such as
#: ``%u00e9`` beside ``%u00E9`` are decoded, just not remembered).
_UNESCAPE_MEMO_LIMIT = 1 << 14

#: One escape: a high+low surrogate pair first (so it recombines), then
#: ``%uXXXX``, then ``%XX``.  The group makes ``split`` keep the escapes
#: at the odd indices of its result.
_JS_ESCAPE_RE = re.compile(
    r"(%[uU][dD][89abAB][0-9a-fA-F]{2}%[uU][dD][c-fC-F][0-9a-fA-F]{2}"
    r"|%[uU][0-9a-fA-F]{4}"
    r"|%[0-9a-fA-F]{2})"
)


class _JsUnescapeTable(dict):
    """Escape -> text, computed lazily and memoized per escape: the
    mirror of :class:`_JsEscapeTable`, keyed by whole matches of
    :data:`_JS_ESCAPE_RE`."""

    def __missing__(self, escape: str) -> str:
        if len(escape) == 12:  # %uD8xx%uDCxx: one astral character
            high = int(escape[2:6], 16)
            low = int(escape[8:12], 16)
            result = chr(0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00))
        elif len(escape) == 6:
            result = chr(int(escape[2:], 16))
        else:
            result = chr(int(escape[1:], 16))
        if len(self) < _UNESCAPE_MEMO_LIMIT:
            self[escape] = result
        return result


_JS_UNESCAPE_TABLE = _JsUnescapeTable()


def js_unescape(text: str) -> str:
    """Invert :func:`js_escape` (JavaScript ``unescape()``).

    %uXXXX surrogate pairs are recombined into their astral character; a
    lone surrogate, or one split from its partner by anything else,
    decodes to itself.  A ``%`` that starts no escape stays literal.
    """
    parts = _JS_ESCAPE_RE.split(text)
    parts[1::2] = map(_JS_UNESCAPE_TABLE.__getitem__, parts[1::2])
    return "".join(parts)


class HeadChild:
    """One child element of the cloned document's head."""

    __slots__ = ("tag", "attributes", "inner_html")

    def __init__(self, tag: str, attributes: List[Tuple[str, str]], inner_html: str):
        self.tag = tag
        self.attributes = list(attributes)
        self.inner_html = inner_html

    def __eq__(self, other):
        return (
            isinstance(other, HeadChild)
            and self.tag == other.tag
            and self.attributes == other.attributes
            and self.inner_html == other.inner_html
        )

    def __repr__(self):
        return "HeadChild(<%s>, %d attrs)" % (self.tag, len(self.attributes))


class TopElement:
    """A top-level child of the cloned document: body/frameset/noframes."""

    __slots__ = ("name", "attributes", "inner_html")

    def __init__(self, name: str, attributes: List[Tuple[str, str]], inner_html: str):
        if name not in ("body", "frameset", "noframes"):
            raise EnvelopeError("unsupported top element %r" % (name,))
        self.name = name
        self.attributes = list(attributes)
        self.inner_html = inner_html

    def __eq__(self, other):
        return (
            isinstance(other, TopElement)
            and self.name == other.name
            and self.attributes == other.attributes
            and self.inner_html == other.inner_html
        )

    def __repr__(self):
        return "TopElement(<%s>, %d attrs)" % (self.name, len(self.attributes))


class NewContent:
    """The decoded payload of one envelope."""

    def __init__(
        self,
        doc_time: int,
        head_children: Optional[List[HeadChild]] = None,
        top_elements: Optional[List[TopElement]] = None,
        user_actions_json: str = "[]",
        cookies_json: str = "[]",
        base_time: Optional[int] = None,
        delta_ops_json: Optional[str] = None,
    ):
        self.doc_time = int(doc_time)
        self.head_children = list(head_children or [])
        self.top_elements = list(top_elements or [])
        self.user_actions_json = user_actions_json
        #: Optional replicated host cookies (extension feature; the
        #: paper mentions the capability without needing it).
        self.cookies_json = cookies_json
        #: Delta envelopes: the document timestamp the operations apply
        #: against, and the JSON-encoded ops (repro.core.delta format).
        self.base_time = None if base_time is None else int(base_time)
        self.delta_ops_json = delta_ops_json
        if delta_ops_json is not None:
            if self.base_time is None:
                raise EnvelopeError("delta content requires a base_time")
            if self.head_children or self.top_elements:
                raise EnvelopeError("delta and full content are mutually exclusive")

    @property
    def uses_frames(self) -> bool:
        """Whether the content carries a frameset page."""
        return any(top.name == "frameset" for top in self.top_elements)

    @property
    def is_delta(self) -> bool:
        """Whether this envelope carries incremental operations instead
        of the full document content."""
        return self.delta_ops_json is not None

    def __eq__(self, other):
        return (
            isinstance(other, NewContent)
            and self.doc_time == other.doc_time
            and self.head_children == other.head_children
            and self.top_elements == other.top_elements
            and self.user_actions_json == other.user_actions_json
            and self.cookies_json == other.cookies_json
            and self.base_time == other.base_time
            and self.delta_ops_json == other.delta_ops_json
        )

    def __repr__(self):
        if self.is_delta:
            return "NewContent(t=%d, delta from t=%d)" % (self.doc_time, self.base_time)
        return "NewContent(t=%d, %d head children, %s)" % (
            self.doc_time,
            len(self.head_children),
            "+".join(t.name for t in self.top_elements) or "empty",
        )


_TOP_TAG_NAMES = {"body": "docBody", "frameset": "docFrameSet", "noframes": "docNoFrames"}
_TOP_NAME_TAGS = {v: k for k, v in _TOP_TAG_NAMES.items()}


def head_child_payload(child: HeadChild) -> str:
    """The escaped CDATA payload of one head child (index-independent,
    so the incremental generator can cache it across positions)."""
    return js_escape(
        json.dumps({"tag": child.tag, "attrs": child.attributes, "inner": child.inner_html})
    )


def top_element_payload(top: TopElement) -> str:
    """The escaped CDATA payload of one top element."""
    return js_escape(json.dumps({"attrs": top.attributes, "inner": top.inner_html}))


# -- spliced payload construction ---------------------------------------------------
#
# A payload is js_escape(json.dumps({..., "inner": inner})) with "inner"
# as the record's final key.  Both the JSON string escape (with
# ensure_ascii, json.dumps' default) and js_escape map each UTF-16 code
# unit independently, so both distribute over concatenation.  That lets
# the incremental generator assemble a payload from three spans — the
# escaped record prefix up to the opening quote of the "inner" value,
# per-subtree *encoded* segments (see :func:`payload_encode`) cached
# across generations, and the constant closing span — byte-identical to
# the monolithic helpers above.


def payload_encode(text: str) -> str:
    """``js_escape`` of the JSON string-escape of ``text``.

    ``payload_encode(a + b) == payload_encode(a) + payload_encode(b)``
    for any split point, which is what makes per-subtree encoded
    segments spliceable.
    """
    return js_escape(json.dumps(text)[1:-1])


def head_child_prefix(tag: str, attributes) -> str:
    """Escaped head-child payload up to (and including) the opening
    quote of the ``inner`` JSON string value."""
    return js_escape(json.dumps({"tag": tag, "attrs": list(attributes), "inner": ""})[:-2])


def top_element_prefix(attributes) -> str:
    """Escaped top-element payload up to (and including) the opening
    quote of the ``inner`` JSON string value."""
    return js_escape(json.dumps({"attrs": list(attributes), "inner": ""})[:-2])


#: Escaped closer for a spliced payload: the quote ending the ``inner``
#: string value plus the record's closing brace.
PAYLOAD_SUFFIX = js_escape('"}')


def assemble_envelope(
    doc_time: int,
    head_payloads: List[str],
    top_payloads: List[Tuple[str, str]],
    user_actions_json: str = "[]",
    cookies_json: str = "[]",
) -> str:
    """Assemble a full (non-delta) envelope from pre-escaped payloads.

    Byte-identical to :func:`build_envelope` on the equivalent
    :class:`NewContent` — both routes share the same payload encoding
    (the helpers above) and the same wrapper format strings.
    ``top_payloads`` pairs each payload with its top-element *name*
    (``body``/``frameset``/``noframes``).
    """
    parts = ["<?xml version='1.0' encoding='utf-8'?>", "<newContent>"]
    parts.append("<docTime>%d</docTime>" % doc_time)
    parts.append("<docContent>")
    parts.append("<docHead>")
    for index, payload in enumerate(head_payloads, start=1):
        parts.append("<hChild%d><![CDATA[%s]]></hChild%d>" % (index, payload, index))
    parts.append("</docHead>")
    for name, payload in top_payloads:
        tag = _TOP_TAG_NAMES[name]
        parts.append("<%s><![CDATA[%s]]></%s>" % (tag, payload, tag))
    parts.append("</docContent>")
    parts.append(
        "<userActions><![CDATA[%s]]></userActions>" % js_escape(user_actions_json)
    )
    if cookies_json not in ("", "[]"):
        parts.append(
            "<docCookies><![CDATA[%s]]></docCookies>" % js_escape(cookies_json)
        )
    parts.append("</newContent>")
    return "".join(parts)


def build_envelope(content: NewContent) -> str:
    """Serialize a :class:`NewContent` to the Fig. 4 XML text."""
    if not content.is_delta:
        return assemble_envelope(
            content.doc_time,
            [head_child_payload(child) for child in content.head_children],
            [(top.name, top_element_payload(top)) for top in content.top_elements],
            content.user_actions_json,
            content.cookies_json,
        )
    parts = ["<?xml version='1.0' encoding='utf-8'?>", "<newContent>"]
    parts.append("<docTime>%d</docTime>" % content.doc_time)
    parts.append("<baseTime>%d</baseTime>" % content.base_time)
    parts.append("<delta><![CDATA[%s]]></delta>" % js_escape(content.delta_ops_json))
    parts.append(
        "<userActions><![CDATA[%s]]></userActions>"
        % js_escape(content.user_actions_json)
    )
    if content.cookies_json not in ("", "[]"):
        parts.append(
            "<docCookies><![CDATA[%s]]></docCookies>" % js_escape(content.cookies_json)
        )
    parts.append("</newContent>")
    return "".join(parts)


# -- bytes-level wire assembly -------------------------------------------------------
#
# Every character an envelope can carry is ASCII: payloads, the delta
# ops, userActions, and docCookies are all js_escape output (the safe
# set is ASCII and every escape is %XX/%uXXXX), and the XML wrapper is
# ASCII by construction.  UTF-8 encoding of ASCII text distributes over
# concatenation, so an envelope's bytes can be spliced from
# per-section *pre-encoded* bytes segments wrapped in the constants
# below — byte-for-byte equal to ``assemble_envelope(...).encode()``.
# A :class:`WireTemplate` is that splice with the userActions CDATA
# payload left open: ``pre`` ends with the CDATA opener, ``post``
# begins with its closer, and a receiver-specific body drops in
# between (see :mod:`repro.core.serveplan`).

_WIRE_XML_DECL = b"<?xml version='1.0' encoding='utf-8'?>"
_WIRE_OPEN = b"<newContent>"
_WIRE_CLOSE = b"</newContent>"
_WIRE_HEAD_OPEN = b"<docHead>"
_WIRE_HEAD_CLOSE = b"</docHead>"
_WIRE_CONTENT_OPEN = b"<docContent>"
_WIRE_CONTENT_CLOSE = b"</docContent>"

#: The userActions CDATA slot a wire template leaves open.
WIRE_ACTIONS_OPEN = b"<userActions><![CDATA["
WIRE_ACTIONS_CLOSE = b"]]></userActions>"

#: ``js_escape("[]")`` pre-encoded: the shared empty-actions payload.
EMPTY_ACTIONS_WIRE = js_escape("[]").encode("ascii")

#: Memoized per-index head-child wrappers and per-name top wrappers.
_HCHILD_WRAPS: Dict[int, Tuple[bytes, bytes]] = {}
_TOP_WRAPS: Dict[str, Tuple[bytes, bytes]] = {
    name: (("<%s><![CDATA[" % tag).encode(), ("]]></%s>" % tag).encode())
    for name, tag in _TOP_TAG_NAMES.items()
}


def _hchild_wrap(index: int) -> Tuple[bytes, bytes]:
    wrap = _HCHILD_WRAPS.get(index)
    if wrap is None:
        wrap = _HCHILD_WRAPS[index] = (
            ("<hChild%d><![CDATA[" % index).encode(),
            ("]]></hChild%d>" % index).encode(),
        )
    return wrap


class WireTemplate:
    """One envelope's bytes, split around the userActions CDATA slot.

    ``pre`` and ``post`` are shared immutable buffer lists with their
    total lengths precomputed; per-receiver plans splice a personalized
    actions payload between them without copying either side.

    ``buckets`` labels the *payload* bytes the template carries
    (``head`` / ``body`` / ``delta`` / ``docCookies`` — see
    :mod:`repro.obs.attribution`); wrapper scaffolding is deliberately
    unlabeled and lands in the ``framing`` residual at ship time.  The
    dict is computed once per template, so attribution adds nothing to
    the per-receiver splice.
    """

    __slots__ = ("pre", "post", "pre_len", "post_len", "buckets")

    def __init__(self, pre, post, buckets=None):
        self.pre = pre
        self.post = post
        self.pre_len = sum(len(buffer) for buffer in pre)
        self.post_len = sum(len(buffer) for buffer in post)
        self.buckets: Optional[Dict[str, int]] = buckets

    def __repr__(self):
        return "WireTemplate(%d+%d buffers, %d+%d bytes)" % (
            len(self.pre),
            len(self.post),
            self.pre_len,
            self.post_len,
        )


def wire_envelope_template(
    doc_time: int,
    head_payloads: List[bytes],
    top_payloads: List[Tuple[str, bytes]],
    cookies_json: str = "[]",
) -> WireTemplate:
    """A full-envelope template from pre-encoded payload bytes.

    Mirrors :func:`assemble_envelope` piece by piece — same wrapper
    strings, same section order, same docCookies omission rule — so
    splicing any actions payload into the slot yields exactly
    ``assemble_envelope(..., user_actions_json).encode()``.
    """
    pre = [
        _WIRE_XML_DECL,
        _WIRE_OPEN,
        b"<docTime>%d</docTime>" % doc_time,
        _WIRE_CONTENT_OPEN,
        _WIRE_HEAD_OPEN,
    ]
    head_bytes = 0
    for index, payload in enumerate(head_payloads, start=1):
        open_b, close_b = _hchild_wrap(index)
        pre.append(open_b)
        pre.append(payload)
        pre.append(close_b)
        head_bytes += len(payload)
    pre.append(_WIRE_HEAD_CLOSE)
    body_bytes = 0
    for name, payload in top_payloads:
        open_b, close_b = _TOP_WRAPS[name]
        pre.append(open_b)
        pre.append(payload)
        pre.append(close_b)
        body_bytes += len(payload)
    pre.append(_WIRE_CONTENT_CLOSE)
    pre.append(WIRE_ACTIONS_OPEN)
    post = [WIRE_ACTIONS_CLOSE]
    buckets = {"head": head_bytes, "body": body_bytes}
    if cookies_json not in ("", "[]"):
        cookies_payload = js_escape(cookies_json).encode("ascii")
        post.append(b"<docCookies><![CDATA[" + cookies_payload + b"]]></docCookies>")
        buckets["docCookies"] = len(cookies_payload)
    post.append(_WIRE_CLOSE)
    return WireTemplate(pre, post, buckets)


def wire_delta_template(doc_time: int, base_time: int, delta_ops_json: str) -> WireTemplate:
    """A delta-envelope template, mirroring :func:`build_envelope`'s
    delta branch (deltas never carry docCookies: the agent replicates
    cookies only on full envelopes)."""
    delta_payload = js_escape(delta_ops_json).encode("ascii")
    pre = [
        _WIRE_XML_DECL,
        _WIRE_OPEN,
        b"<docTime>%d</docTime>" % doc_time,
        b"<baseTime>%d</baseTime>" % base_time,
        b"<delta><![CDATA[" + delta_payload + b"]]></delta>",
        WIRE_ACTIONS_OPEN,
    ]
    post = [WIRE_ACTIONS_CLOSE, _WIRE_CLOSE]
    return WireTemplate(pre, post, {"delta": len(delta_payload)})


def parse_envelope(text: str) -> NewContent:
    """Parse Fig. 4 XML text back into a :class:`NewContent`."""
    if "<newContent>" not in text:
        raise EnvelopeError("not a newContent envelope")
    doc_time = _stamp(_extract(text, "docTime"), "missing or bad docTime")

    head_children: List[HeadChild] = []
    index = 1
    while True:
        raw = _extract(text, "hChild%d" % index)
        if raw is None:
            break
        where = "hChild%d" % index
        record = _decode_payload(raw)
        attributes, inner = _payload_fields(record, where)
        tag = record.get("tag")
        if not isinstance(tag, str) or not tag:
            raise EnvelopeError("bad %s payload: tag must be a non-empty string" % where)
        head_children.append(HeadChild(tag, attributes, inner))
        index += 1

    top_elements: List[TopElement] = []
    for tag, name in _TOP_NAME_TAGS.items():
        raw = _extract(text, tag)
        if raw is None:
            continue
        attributes, inner = _payload_fields(_decode_payload(raw), tag)
        top_elements.append(TopElement(name, attributes, inner))

    actions_raw = _extract(text, "userActions")
    actions_json = js_unescape(_strip_cdata(actions_raw)) if actions_raw else "[]"
    cookies_raw = _extract(text, "docCookies")
    cookies_json = js_unescape(_strip_cdata(cookies_raw)) if cookies_raw else "[]"

    base_time: Optional[int] = None
    delta_ops_json: Optional[str] = None
    delta_raw = _extract(text, "delta")
    if delta_raw is not None:
        base_time = _stamp(_extract(text, "baseTime"), "delta envelope missing or bad baseTime")
        delta_ops_json = js_unescape(_strip_cdata(delta_raw))
        if head_children or top_elements:
            raise EnvelopeError("envelope carries both delta and full content")

    return NewContent(
        doc_time,
        head_children,
        top_elements,
        actions_json,
        cookies_json,
        base_time=base_time,
        delta_ops_json=delta_ops_json,
    )


_STAMP_RE = re.compile(r"-?[0-9]+")


def _stamp(raw: Optional[str], problem: str) -> int:
    """A ``docTime``/``baseTime`` value: optional minus, ASCII digits
    only (``str.isdigit`` would pass ``²``, which ``int`` rejects)."""
    stamp = raw.strip() if raw is not None else ""
    if _STAMP_RE.fullmatch(stamp) is None:
        raise EnvelopeError(problem)
    return int(stamp)


def _extract(text: str, tag: str) -> Optional[str]:
    open_tag = "<%s>" % tag
    close_tag = "</%s>" % tag
    start = text.find(open_tag)
    if start == -1:
        return None
    start += len(open_tag)
    end = text.find(close_tag, start)
    if end == -1:
        raise EnvelopeError("unterminated <%s>" % (tag,))
    return text[start:end]


def _strip_cdata(raw: str) -> str:
    raw = raw.strip()
    if raw.startswith("<![CDATA[") and raw.endswith("]]>"):
        return raw[len("<![CDATA[") : -len("]]>")]
    return raw


def _decode_payload(raw: str) -> Dict:
    decoded = js_unescape(_strip_cdata(raw))
    try:
        record = json.loads(decoded)
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise EnvelopeError("payload is not valid JSON: %s" % (exc,))
    if not isinstance(record, dict):
        raise EnvelopeError("payload must be an object")
    return record


def _payload_fields(record: Dict, where: str) -> Tuple[List[Tuple[str, str]], str]:
    """A decoded payload's attribute pairs and innerHTML, type-checked
    before they reach the DOM: attributes are [name, value] string pairs
    with a non-empty name, innerHTML a string."""
    try:
        attributes = [tuple(pair) for pair in record["attrs"]]
        inner = record["inner"]
    except (KeyError, TypeError) as exc:
        raise EnvelopeError("bad %s payload: %s" % (where, exc))
    for pair in attributes:
        if len(pair) != 2 or not all(isinstance(part, str) for part in pair) or not pair[0]:
            raise EnvelopeError("bad %s payload: attribute %r" % (where, pair))
    if not isinstance(inner, str):
        raise EnvelopeError("bad %s payload: inner must be a string" % where)
    return attributes, inner

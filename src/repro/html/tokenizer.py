"""HTML tokenizer: markup text to a stream of tokens.

Covers the HTML subset produced by the simulated web and by the RCB
serializer: start/end tags with quoted, unquoted and boolean attributes,
self-closing syntax, comments, doctype, raw-text elements (``script`` /
``style``, whose content runs to the matching end tag without entity
processing), and character references in text and attribute values.

Each tokenizer state is one compiled pattern matched at the cursor (or
a ``str.find`` for a fixed needle), so the per-character work runs in
the regex engine rather than in Python.
"""

from __future__ import annotations

import re
from typing import Dict, Iterator, Tuple

from .entities import decode_entities
from .dom import RAW_TEXT_ELEMENTS

__all__ = [
    "Token",
    "StartTagToken",
    "EndTagToken",
    "TextToken",
    "CommentToken",
    "DoctypeToken",
    "tokenize",
]

#: ``<name``: a start tag opens only with an ASCII letter.  Group 2
#: closes a tag that has no attributes at once (``>`` or ``/>``); any
#: other tag goes on to :data:`_ATTRIBUTE` from the end of its name.
_START_TAG = re.compile(r"<([a-zA-Z][a-zA-Z0-9-]*)(?:[ \t\n\r\f]*(/?>))?")

#: ``</name ...>``: anything after the name up to the first ``>`` (or
#: EOF) is skipped.
_END_TAG = re.compile(r"</([a-zA-Z0-9-]+)[^>]*>?")

#: ASCII case only: plain ``re.I`` would follow Unicode case folding,
#: under which ``ſ`` matches ``s`` and the Kelvin sign matches ``k``.
_ASCII_CI = re.IGNORECASE | re.ASCII

_DOCTYPE = re.compile(r"<!doctype", _ASCII_CI)

#: One step inside a start tag, after any whitespace (HTML's five; not
#: ``\v``).  Group 1 is an attribute name; group 2, 3 or 4 holds its
#: double-quoted, single-quoted or unquoted value, and none of them
#: matches for a boolean attribute.  An unterminated quote runs to EOF.
#: Group 5 ends the tag: ``>``, ``/>``, or '' at EOF.  A match with no
#: group is one junk ``=`` or ``/``, which is skipped.
_ATTRIBUTE = re.compile(
    r"[ \t\n\r\f]*(?:"
    r"([^ \t\n\r\f=>/]+)"
    r"(?:[ \t\n\r\f]*=[ \t\n\r\f]*(?:\"([^\"]*)\"?|'([^']*)'?|([^ \t\n\r\f>]*)))?"
    r"|(/>|>|\Z)"
    r"|[=/])"
)
_TAG_END = 5

#: Raw-text element -> its end tag: ``</name`` in any ASCII case,
#: followed by ``>``, ``/``, space, tab, LF, CR or EOF.
_RAW_TEXT_END = {
    tag: re.compile("</" + tag + r"(?=[>/ \t\n\r]|\Z)", _ASCII_CI)
    for tag in RAW_TEXT_ELEMENTS
}


class Token:
    """Base class for tokenizer output tokens."""
    __slots__ = ()


class StartTagToken(Token):
    """``<tag attr=...>`` (possibly self-closing)."""
    __slots__ = ("name", "attributes", "self_closing")

    def __init__(self, name: str, attributes: Dict[str, str], self_closing: bool):
        self.name = name
        self.attributes = attributes
        self.self_closing = self_closing

    def __repr__(self) -> str:
        return "StartTag(%s%s)" % (self.name, "/" if self.self_closing else "")


class EndTagToken(Token):
    """``</tag>``."""
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:
        return "EndTag(%s)" % (self.name,)


class TextToken(Token):
    """A run of character data (``raw`` for script/style content)."""
    __slots__ = ("data", "raw")

    def __init__(self, data: str, raw: bool = False):
        self.data = data
        self.raw = raw

    def __repr__(self) -> str:
        return "Text(%r)" % (self.data[:30],)


class CommentToken(Token):
    """``<!-- ... -->``."""
    __slots__ = ("data",)

    def __init__(self, data: str):
        self.data = data

    def __repr__(self) -> str:
        return "Comment(%r)" % (self.data[:30],)


class DoctypeToken(Token):
    """``<!DOCTYPE ...>``."""
    __slots__ = ("data",)

    def __init__(self, data: str):
        self.data = data

    def __repr__(self) -> str:
        return "Doctype(%r)" % (self.data,)


def tokenize(markup: str) -> Iterator[Token]:
    """Yield tokens for ``markup``."""
    find = markup.find
    start_tag = _START_TAG.match
    end = len(markup)
    pos = 0
    while pos < end:
        if markup[pos] != "<":
            lt = find("<", pos)
            if lt == -1:
                lt = end
            yield TextToken(decode_entities(markup[pos:lt]))
            pos = lt
            continue
        match = start_tag(markup, pos)
        if match is not None:
            name = match.group(1).lower()
            closer = match.group(2)
            if closer is None:
                attributes, self_closing, pos = _attributes(markup, match.end())
            else:
                attributes, self_closing, pos = {}, closer == "/>", match.end()
            yield StartTagToken(name, attributes, self_closing)
            if name in RAW_TEXT_ELEMENTS and not self_closing:
                close = _RAW_TEXT_END[name].search(markup, pos)
                raw_end = end if close is None else close.start()
                if raw_end > pos:
                    yield TextToken(markup[pos:raw_end], raw=True)
                pos = raw_end
                if close is not None:
                    gt = find(">", close.end())
                    pos = end if gt == -1 else gt + 1
                    yield EndTagToken(name)
            continue
        after = markup[pos + 1 : pos + 2]
        if after == "/":
            match = _END_TAG.match(markup, pos)
            if match is not None:
                yield EndTagToken(match.group(1).lower())
                pos = match.end()
                continue
        elif after == "!":
            if markup.startswith("<!--", pos):
                close = find("-->", pos + 4)
                if close == -1:
                    yield CommentToken(markup[pos + 4 :])
                    pos = end
                else:
                    yield CommentToken(markup[pos + 4 : close])
                    pos = close + 3
                continue
            if _DOCTYPE.match(markup, pos):
                close = find(">", pos + 2)
                if close == -1:
                    yield DoctypeToken(markup[pos + 2 :].strip())
                    pos = end
                else:
                    yield DoctypeToken(markup[pos + 2 : close].strip())
                    pos = close + 1
                continue
        # A stray '<' that opens nothing is literal text.
        yield TextToken("<")
        pos += 1


def _attributes(markup: str, pos: int) -> Tuple[Dict[str, str], bool, int]:
    """Scan a start tag's attributes from ``pos`` to the tag's end: the
    attributes (lowercased by name, the first of a duplicated name
    wins, values entity-decoded), whether the tag self-closes, and the
    position after it."""
    attributes: Dict[str, str] = {}
    # The pattern matches at every position (past the whitespace, any
    # character starts a name, a tag end or junk), so finditer never
    # skips input: its matches are the consecutive steps, and the last
    # is the tag's end, which matches at EOF too.
    for step in _ATTRIBUTE.finditer(markup, pos):
        kind = step.lastindex
        if kind == _TAG_END:
            break
        if kind is not None:
            name = step.group(1).lower()
            if name not in attributes:
                attributes[name] = decode_entities(step.group(kind)) if kind > 1 else ""
    return attributes, step.group(_TAG_END) == "/>", step.end()

"""The reference tokenizer oracle for ``repro.html.tokenizer``.

A frozen copy of the original per-character scanner, kept as the
reference the compiled-regex :func:`repro.html.tokenizer.tokenize` must
match token for token (class, name, attributes in order,
``self_closing``, ``data`` and ``raw``) on every input, well-formed or
not.  Apart from this docstring, only the imports differ from the
original.  One known defect is kept as it was: :func:`_scan_raw_text`
applies indices found in ``text.lower()`` to the original text, which
is wrong once a character before the cursor lowercases to two
(``"İ".lower()`` is two characters long), so inputs where
``len(s.lower()) != len(s)`` are not compared.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

from repro.html.dom import RAW_TEXT_ELEMENTS
from repro.html.entities import decode_entities

__all__ = [
    "Token",
    "StartTagToken",
    "EndTagToken",
    "TextToken",
    "CommentToken",
    "DoctypeToken",
    "tokenize",
]

_WHITESPACE = " \t\n\r\f"
_TAG_NAME_CHARS = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-"
)


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


class _Scanner:
    """Cursor over the source text."""

    __slots__ = ("text", "pos")

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    @property
    def exhausted(self) -> bool:
        """True once the cursor is past the end of the input."""
        return self.pos >= len(self.text)

    def peek(self, offset: int = 0) -> str:
        """The character ``offset`` ahead of the cursor ('' at EOF)."""
        index = self.pos + offset
        return self.text[index] if index < len(self.text) else ""

    def startswith(self, prefix: str) -> bool:
        """Whether the input at the cursor starts with ``prefix``."""
        return self.text.startswith(prefix, self.pos)

    def startswith_ci(self, prefix: str) -> bool:
        """Case-insensitive :meth:`startswith`."""
        return self.text[self.pos : self.pos + len(prefix)].lower() == prefix.lower()

    def advance(self, count: int = 1) -> None:
        """Move the cursor forward by ``count`` characters."""
        self.pos += count

    def take_until(self, needle: str) -> str:
        """Consume and return text up to ``needle`` (needle not consumed);
        consumes to EOF if absent."""
        index = self.text.find(needle, self.pos)
        if index == -1:
            chunk = self.text[self.pos :]
            self.pos = len(self.text)
        else:
            chunk = self.text[self.pos : index]
            self.pos = index
        return chunk

    def skip_whitespace(self) -> None:
        """Advance the cursor past any whitespace."""
        while not self.exhausted and self.peek() in _WHITESPACE:
            self.advance()


def tokenize(markup: str) -> Iterator[Token]:
    """Yield tokens for ``markup``."""
    scanner = _Scanner(markup)
    while not scanner.exhausted:
        if scanner.peek() == "<":
            token = _scan_markup(scanner)
            if token is None:
                # A stray '<' that opens nothing is literal text.
                yield TextToken("<")
                scanner.advance()
                continue
            yield token
            if isinstance(token, StartTagToken) and token.name in RAW_TEXT_ELEMENTS:
                if not token.self_closing:
                    raw, end = _scan_raw_text(scanner, token.name)
                    if raw:
                        yield TextToken(raw, raw=True)
                    if end is not None:
                        yield end
        else:
            text = scanner.take_until("<")
            yield TextToken(decode_entities(text))


def _scan_markup(scanner: _Scanner) -> Optional[Token]:
    if scanner.startswith("<!--"):
        scanner.advance(4)
        data = scanner.take_until("-->")
        if not scanner.exhausted:
            scanner.advance(3)
        return CommentToken(data)
    if scanner.startswith_ci("<!doctype"):
        scanner.advance(2)
        data = scanner.take_until(">")
        if not scanner.exhausted:
            scanner.advance(1)
        return DoctypeToken(data.strip())
    if scanner.startswith("</"):
        return _scan_end_tag(scanner)
    if scanner.peek(1) in _TAG_NAME_CHARS and scanner.peek(1).isalpha():
        return _scan_start_tag(scanner)
    return None


def _scan_end_tag(scanner: _Scanner) -> Optional[Token]:
    start = scanner.pos
    scanner.advance(2)
    name = _scan_tag_name(scanner)
    if not name:
        scanner.pos = start
        return None
    scanner.take_until(">")
    if not scanner.exhausted:
        scanner.advance(1)
    return EndTagToken(name.lower())


def _scan_start_tag(scanner: _Scanner) -> Optional[Token]:
    start = scanner.pos
    scanner.advance(1)
    name = _scan_tag_name(scanner)
    if not name:
        scanner.pos = start
        return None
    attributes: Dict[str, str] = {}
    self_closing = False
    while True:
        scanner.skip_whitespace()
        char = scanner.peek()
        if char == "":
            break
        if char == ">":
            scanner.advance()
            break
        if char == "/" and scanner.peek(1) == ">":
            scanner.advance(2)
            self_closing = True
            break
        pair = _scan_attribute(scanner)
        if pair is None:
            # Unparseable junk inside the tag: skip one char and continue.
            scanner.advance()
            continue
        attr_name, attr_value = pair
        attributes.setdefault(attr_name.lower(), attr_value)
    return StartTagToken(name.lower(), attributes, self_closing)


def _scan_tag_name(scanner: _Scanner) -> str:
    chars = []
    while not scanner.exhausted and scanner.peek() in _TAG_NAME_CHARS:
        chars.append(scanner.peek())
        scanner.advance()
    return "".join(chars)


def _scan_attribute(scanner: _Scanner) -> Optional[Tuple[str, str]]:
    chars = []
    while not scanner.exhausted and scanner.peek() not in _WHITESPACE + "=>/":
        chars.append(scanner.peek())
        scanner.advance()
    name = "".join(chars)
    if not name:
        return None
    scanner.skip_whitespace()
    if scanner.peek() != "=":
        return (name, "")  # boolean attribute
    scanner.advance()
    scanner.skip_whitespace()
    quote = scanner.peek()
    if quote in ("'", '"'):
        scanner.advance()
        value = scanner.take_until(quote)
        if not scanner.exhausted:
            scanner.advance()
    else:
        value_chars = []
        while not scanner.exhausted and scanner.peek() not in _WHITESPACE + ">":
            value_chars.append(scanner.peek())
            scanner.advance()
        value = "".join(value_chars)
    return (name, decode_entities(value))


def _scan_raw_text(scanner: _Scanner, tag: str):
    """Consume raw content of <script>/<style> up to its end tag."""
    lower = scanner.text.lower()
    needle = "</" + tag
    index = lower.find(needle, scanner.pos)
    while index != -1:
        after = index + len(needle)
        next_char = lower[after : after + 1]
        if next_char in ("", ">", " ", "\t", "\n", "\r", "/"):
            break
        index = lower.find(needle, index + 1)
    if index == -1:
        raw = scanner.text[scanner.pos :]
        scanner.pos = len(scanner.text)
        return raw, None
    raw = scanner.text[scanner.pos : index]
    scanner.pos = index
    scanner.advance(2)
    name = _scan_tag_name(scanner)
    scanner.take_until(">")
    if not scanner.exhausted:
        scanner.advance(1)
    return raw, EndTagToken(name.lower())

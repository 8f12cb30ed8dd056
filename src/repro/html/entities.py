"""Character-entity encoding and decoding for the HTML subset."""

from __future__ import annotations

__all__ = ["decode_entities", "escape_text", "escape_attribute"]

NAMED_ENTITIES = {
    "amp": "&",
    "lt": "<",
    "gt": ">",
    "quot": '"',
    "apos": "'",
    "nbsp": " ",
    "copy": "©",
    "reg": "®",
    "trade": "™",
    "mdash": "—",
    "ndash": "–",
    "hellip": "…",
    "laquo": "«",
    "raquo": "»",
    "eacute": "é",
    "egrave": "è",
}

_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


def decode_entities(text: str) -> str:
    """Decode named and numeric character references."""
    if "&" not in text:
        return text
    out = []
    index = 0
    length = len(text)
    while index < length:
        char = text[index]
        if char != "&":
            out.append(char)
            index += 1
            continue
        end = text.find(";", index + 1)
        # Entities are short; an unterminated or overlong '&' is literal.
        if end == -1 or end - index > 10:
            out.append(char)
            index += 1
            continue
        name = text[index + 1 : end]
        decoded = _decode_one(name)
        if decoded is None:
            out.append(char)
            index += 1
        else:
            out.append(decoded)
            index = end + 1
    return "".join(out)


def _decode_one(name: str):
    if not name:
        return None
    if name[0] == "#":
        digits = name[1:]
        if digits[:1] in ("x", "X"):
            digits = digits[1:]
            if digits and all(d in _HEX_DIGITS for d in digits):
                return _from_codepoint(int(digits, 16))
            return None
        # ASCII digits only: str.isdigit() also accepts '²' (which int()
        # rejects) and other scripts' digits (which int() reads).
        if digits.isascii() and digits.isdigit():
            return _from_codepoint(int(digits))
        return None
    return NAMED_ENTITIES.get(name)


def _from_codepoint(codepoint: int):
    if 0 < codepoint <= 0x10FFFF:
        try:
            return chr(codepoint)
        except ValueError:
            return None
    return None


def escape_text(text: str) -> str:
    """Escape character data for serialization between tags."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def escape_attribute(value: str) -> str:
    """Escape an attribute value for double-quoted serialization."""
    return (
        value.replace("&", "&amp;")
        .replace('"', "&quot;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
    )

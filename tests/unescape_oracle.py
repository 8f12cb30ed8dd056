"""The reference decoder oracle for ``js_unescape``.

A frozen copy of the original per-character decoder, kept as the
reference the compiled-regex :func:`repro.core.xmlformat.js_unescape`
must match on every input, well-formed or not: ``%uXXXX`` escapes
collect into a run of UTF-16 units whose adjacent high/low surrogate
pairs recombine, ``%XX`` decodes one Latin-1 character, and any other
``%`` (or a lone surrogate) passes through as it is.
"""

from typing import List


def reference_unescape(text: str) -> str:
    """JavaScript ``unescape()``, one character at a time."""
    units: List[int] = []
    out: List[str] = []

    def flush_units():
        while units:
            unit = units.pop(0)
            if 0xD800 <= unit <= 0xDBFF and units and 0xDC00 <= units[0] <= 0xDFFF:
                low = units.pop(0)
                out.append(chr(0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00)))
            else:
                out.append(chr(unit))

    index = 0
    length = len(text)
    while index < length:
        char = text[index]
        if char != "%":
            flush_units()
            out.append(char)
            index += 1
            continue
        if text[index + 1 : index + 2] in ("u", "U"):
            hex_part = text[index + 2 : index + 6]
            if len(hex_part) == 4 and _is_hex(hex_part):
                units.append(int(hex_part, 16))
                index += 6
                continue
        hex_part = text[index + 1 : index + 3]
        if len(hex_part) == 2 and _is_hex(hex_part):
            flush_units()
            out.append(chr(int(hex_part, 16)))
            index += 3
            continue
        flush_units()
        out.append(char)
        index += 1
    flush_units()
    return "".join(out)


def _is_hex(text: str) -> bool:
    return all(c in "0123456789abcdefABCDEF" for c in text)

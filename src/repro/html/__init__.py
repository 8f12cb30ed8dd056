"""HTML substrate: tokenizer, tree-building parser, DOM, serializer."""

from .dom import (
    Comment,
    Document,
    DomError,
    Element,
    Node,
    RAW_TEXT_ELEMENTS,
    Text,
    VOID_ELEMENTS,
)
from .entities import decode_entities, escape_attribute, escape_text
from .parser import parse_document, parse_fragment
from .serializer import serialize_children, serialize_document, serialize_node

__all__ = [
    "Comment",
    "Document",
    "DomError",
    "Element",
    "Node",
    "RAW_TEXT_ELEMENTS",
    "Text",
    "VOID_ELEMENTS",
    "decode_entities",
    "escape_attribute",
    "escape_text",
    "parse_document",
    "parse_fragment",
    "serialize_children",
    "serialize_document",
    "serialize_node",
]

"""HTML tree builder: token stream to DOM.

A simplified but predictable tree construction: the document is
normalized to ``<html>`` with a ``<head>`` and either a ``<body>`` or a
``<frameset>`` (plus optional ``<noframes>``), which is exactly the
top-level shape RCB's XML envelope distinguishes (paper Fig. 4).
Fragment parsing backs the ``innerHTML`` setter Ajax-Snippet uses to
update the participant page.

The builder is intentionally not a full HTML5 adoption-agency
implementation: mis-nested end tags pop to the nearest matching open
element, unknown end tags are ignored, and unclosed elements are closed
at EOF — the behaviours property-tested as a serialize/parse fixed point.
"""

from __future__ import annotations

from typing import List, Optional

from .dom import Comment, Document, Element, Node, Text, VOID_ELEMENTS
from .tokenizer import (
    CommentToken,
    EndTagToken,
    StartTagToken,
    TextToken,
    tokenize,
)

__all__ = ["parse_document", "parse_fragment"]

#: Elements that the normalizer routes into <head> when they appear
#: before any body content.
_HEAD_ELEMENTS = frozenset(("title", "meta", "link", "style", "base", "script"))

#: <p> implies closing an open <p>; list items close their siblings.
_SELF_CLOSING_SIBLINGS = {
    "p": frozenset(("p",)),
    "li": frozenset(("li",)),
    "option": frozenset(("option",)),
    "tr": frozenset(("tr",)),
    "td": frozenset(("td", "th")),
    "th": frozenset(("td", "th")),
}


def parse_document(markup: str) -> Document:
    """Parse a complete HTML document, normalizing the top-level shape."""
    document = Document()
    _build_tree(document, tokenize(markup))
    _normalize_document(document)
    return document


def parse_fragment(markup: str, context_tag: str = "body") -> List[Node]:
    """Parse markup as it would appear inside a ``context_tag`` element.

    Returns the list of parsed top-level nodes, detached (parent=None), as
    the innerHTML setter expects.
    """
    container = Element(context_tag if context_tag else "body")
    _build_tree(container, tokenize(markup))
    nodes = list(container.child_nodes)
    for node in nodes:
        node.parent = None
    container.child_nodes = []
    return nodes


def _build_tree(root, tokens) -> None:
    """Stack-based tree construction below ``root``, shared by document
    and fragment parsing; elements still open at the end are closed
    there.

    ``root`` is a node the parse itself just created, and so is every
    node hung below it: nothing outside the parse can have seen them
    yet.  So a node joins its parent's child list directly, with no
    cycle check and no version stamp walked up the parent chain, and an
    element takes the tokenizer's (already lowercased) attribute dict
    as it is.  Each node keeps the unique version it drew when it was
    constructed, which keeps the stamp invariant of :mod:`.dom`: equal
    subtree versions still only ever lie on one ancestor chain.
    """
    stack: List[Element] = []
    parent = root  # the innermost open element, or the root
    for token in tokens:
        kind = type(token)
        if kind is StartTagToken:
            name = token.name
            closes = _SELF_CLOSING_SIBLINGS.get(name)
            if closes and stack and parent.tag in closes:
                stack.pop()
                parent = stack[-1] if stack else root
            element = Element(name)
            element._attributes = token.attributes
            element.parent = parent
            parent.child_nodes.append(element)
            if name not in VOID_ELEMENTS and not token.self_closing:
                stack.append(element)
                parent = element
        elif kind is EndTagToken:
            name = token.name
            for index in range(len(stack) - 1, -1, -1):
                if stack[index].tag == name:
                    del stack[index:]
                    parent = stack[-1] if stack else root
                    break
            # No matching open element: the end tag is ignored.
        elif kind is TextToken:
            data = token.data
            children = parent.child_nodes
            if children and isinstance(children[-1], Text):
                # Merge adjacent text nodes so parsing is idempotent.
                children[-1]._data += data
                continue
            text = Text(data)
            text.parent = parent
            children.append(text)
        elif kind is CommentToken:
            comment = Comment(token.data)
            comment.parent = parent
            parent.child_nodes.append(comment)
        elif isinstance(root, Document):  # a DoctypeToken
            root.doctype = token.data


def _normalize_document(document: Document) -> None:
    """Ensure the document is <html>(<head>, <body>|<frameset>[, <noframes>])."""
    html = document.document_element
    if html is None:
        html = Element("html")
        # Move any parsed top-level content under the new root.
        strays = [n for n in list(document.child_nodes) if not isinstance(n, Comment)]
        document.append_child(html)
        for node in strays:
            html.append_child(node)

    # Collect direct children of <html> into head/body buckets.
    head: Optional[Element] = None
    body: Optional[Element] = None
    frameset: Optional[Element] = None
    strays: List[Node] = []
    for node in list(html.child_nodes):
        if isinstance(node, Element) and node.tag == "head" and head is None:
            head = node
        elif isinstance(node, Element) and node.tag == "body" and body is None:
            body = node
        elif isinstance(node, Element) and node.tag == "frameset" and frameset is None:
            frameset = node
        elif isinstance(node, Element) and node.tag == "noframes":
            continue  # stays in place, after frameset
        else:
            strays.append(node)

    if head is None:
        head = Element("head")
        html.insert_before(head, html.first_child)

    if frameset is None and body is None:
        body = Element("body")
        html.append_child(body)

    for node in strays:
        if isinstance(node, Text) and not node.data.strip():
            node.detach()
            continue
        if isinstance(node, Element) and node.tag in _HEAD_ELEMENTS and body is not None and not body.child_nodes:
            node.detach()
            head.append_child(node)
            continue
        if body is not None:
            node.detach()
            body.append_child(node)
        elif frameset is not None and isinstance(node, Text) and not node.data.strip():
            node.detach()

    # Canonical order: head first, then body/frameset (+noframes).
    head.detach()
    html.insert_before(head, html.first_child)

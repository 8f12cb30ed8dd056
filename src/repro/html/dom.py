"""DOM tree: documents, elements, text, comments.

RCB-Agent's response content generation (paper Fig. 3) is DOM surgery:
clone the ``documentElement`` of the host page, rewrite URLs and event
attributes on the clone, then extract per-child attribute lists and
``innerHTML`` values.  Ajax-Snippet's update procedure (Fig. 5) is the
mirror image on the participant: set head/body innerHTML from the
received content.  This module provides the tree those procedures
operate on, with the innerHTML get/set semantics both depend on.
"""

from __future__ import annotations

from itertools import count as _count
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = [
    "Node",
    "Document",
    "Element",
    "Text",
    "Comment",
    "DomError",
    "VOID_ELEMENTS",
    "RAW_TEXT_ELEMENTS",
]

#: Global monotone mutation-version source.  Every draw is unique, and a
#: value is only ever shared between a mutated node and its ancestors at
#: propagation time — so two nodes with equal ``subtree_version`` lie on
#: one ancestor chain or are the same node, which is what makes version
#: equality a sound "nothing changed in here" certificate for the
#: serializer segment cache and the version-guided delta diff.
_next_version = _count(1).__next__

#: Elements that never have children or an end tag.
VOID_ELEMENTS = frozenset(
    "area base br col embed hr img input link meta param source track wbr".split()
)

#: Elements whose text content is not entity-decoded or escaped.
RAW_TEXT_ELEMENTS = frozenset(("script", "style"))

#: Sentinel distinguishing "attribute absent" from any real value.
_ABSENT = object()


class DomError(Exception):
    """Raised for invalid tree manipulations."""


class Node:
    """Base class for all tree nodes.

    Every node carries two monotone **version stamps** used by the
    incremental generation pipeline:

    * ``own_version`` — bumped whenever the node's *own* state mutates
      (attributes, character data, or its direct child list);
    * ``subtree_version`` — the version of the newest mutation anywhere
      in the node's subtree; every mutation propagates a fresh stamp to
      all ancestors.

    Unchanged ``subtree_version`` between two observations of the same
    node guarantees an unchanged serialization.  Clones always get
    fresh stamps (a copy is a new node, not the old one).
    """

    def __init__(self):
        self.parent: Optional["Element"] = None
        self._own_version = self._subtree_version = _next_version()

    @property
    def own_version(self) -> int:
        """Version of the last mutation of this node's own state."""
        return self._own_version

    @property
    def subtree_version(self) -> int:
        """Version of the newest mutation anywhere in this subtree."""
        return self._subtree_version

    def _stamp_mutation(self) -> int:
        """Record a mutation: fresh own version, propagated to ancestors."""
        version = _next_version()
        self._own_version = version
        node = self
        while node is not None:
            node._subtree_version = version
            node = node.parent
        return version

    @property
    def owner_document(self) -> Optional["Document"]:
        """The Document this node ultimately hangs from, or None."""
        node = self
        while node is not None:
            if isinstance(node, Document):
                return node
            node = node.parent if not isinstance(node, Document) else None
        return None

    def detach(self) -> "Node":
        """Remove this node from its parent, if any."""
        if self.parent is not None:
            self.parent.remove_child(self)
        return self

    def clone(self, deep: bool = True) -> "Node":
        """Return a copy of this node (deep copies children too)."""
        raise NotImplementedError

    def to_html(self) -> str:
        """Serialized HTML for this node (outerHTML for elements)."""
        from .serializer import serialize_node

        return serialize_node(self)


class _CharacterData(Node):
    """Shared character-data machinery for Text and Comment."""

    def __init__(self, data: str):
        super().__init__()
        self._data = data

    @property
    def data(self) -> str:
        """The node's character data; assignment stamps a mutation."""
        return self._data

    @data.setter
    def data(self, value: str) -> None:
        if value != self._data:
            self._data = value
            self._stamp_mutation()


class Text(_CharacterData):
    """A run of character data."""

    def clone(self, deep: bool = True) -> "Text":
        """Return a copy of this node (deep copies children too)."""
        return Text(self._data)

    def __repr__(self) -> str:
        preview = self._data if len(self._data) <= 30 else self._data[:27] + "..."
        return "Text(%r)" % (preview,)


class Comment(_CharacterData):
    """An HTML comment."""

    def clone(self, deep: bool = True) -> "Comment":
        """Return a copy of this node (deep copies children too)."""
        return Comment(self._data)

    def __repr__(self) -> str:
        return "Comment(%r)" % (self._data,)


class _ParentNode(Node):
    """Shared child-list machinery for Element and Document."""

    def __init__(self):
        super().__init__()
        self.child_nodes: List[Node] = []

    @property
    def children(self) -> List["Element"]:
        """Element children only (DOM's ``children`` collection)."""
        return [node for node in self.child_nodes if isinstance(node, Element)]

    @property
    def first_child(self) -> Optional[Node]:
        """The first child node, or None."""
        return self.child_nodes[0] if self.child_nodes else None

    def append_child(self, node: Node) -> Node:
        """Add ``node`` as the last child (detaching it first)."""
        return self.insert_before(node, None)

    def insert_before(self, node: Node, reference: Optional[Node]) -> Node:
        """Insert ``node`` before ``reference`` (or append if None)."""
        if not isinstance(node, Node):
            raise DomError("cannot insert %r" % (node,))
        if isinstance(node, Document):
            raise DomError("a Document cannot be a child")
        if node is self or self._is_descendant_of(node):
            raise DomError("insertion would create a cycle")
        node.detach()
        if reference is None:
            self.child_nodes.append(node)
        else:
            try:
                index = self.child_nodes.index(reference)
            except ValueError:
                raise DomError("reference node is not a child")
            self.child_nodes.insert(index, node)
        node.parent = self
        self._stamp_mutation()
        return node

    def remove_child(self, node: Node) -> Node:
        """Detach a direct child; raises DomError otherwise."""
        try:
            self.child_nodes.remove(node)
        except ValueError:
            raise DomError("node is not a child")
        node.parent = None
        self._stamp_mutation()
        return node

    def replace_child(self, new: Node, old: Node) -> Node:
        """Swap ``old`` for ``new`` in place; returns ``old``."""
        self.insert_before(new, old)
        self.remove_child(old)
        return old

    def remove_all_children(self) -> None:
        """Detach every child node."""
        for node in list(self.child_nodes):
            self.remove_child(node)

    def _is_descendant_of(self, other: Node) -> bool:
        node = self.parent
        while node is not None:
            if node is other:
                return True
            node = node.parent
        return False

    # -- traversal -------------------------------------------------------------

    def descendants(self) -> Iterator[Node]:
        """Depth-first pre-order traversal of all descendant nodes.

        A node's child list is snapshotted when the walk enters it,
        right after the node itself was yielded: children the consumer
        adds to or detaches from that node before resuming count, later
        changes to an entered child list do not.  The walk keeps its own
        stack (pending nodes, next one last), so depth costs no
        generator frames.
        """
        stack = self.child_nodes[::-1]
        pop, push = stack.pop, stack.extend
        while stack:
            node = pop()
            yield node
            if isinstance(node, _ParentNode) and node.child_nodes:
                push(node.child_nodes[::-1])

    def descendant_elements(self) -> Iterator["Element"]:
        """Depth-first pre-order traversal of descendant Elements (the
        walk of :meth:`descendants`, text and comments skipped)."""
        stack = self.child_nodes[::-1]
        pop, push = stack.pop, stack.extend
        while stack:
            node = pop()
            if isinstance(node, Element):
                yield node
                if node.child_nodes:
                    push(node.child_nodes[::-1])

    def get_elements_by_tag_name(self, tag: str) -> List["Element"]:
        """All descendant elements with the given tag, document order."""
        tag = tag.lower()
        return [el for el in self.descendant_elements() if el.tag == tag]

    def get_element_by_id(self, element_id: str) -> Optional["Element"]:
        """The first descendant with a matching id attribute, or None."""
        for element in self.descendant_elements():
            if element.get_attribute("id") == element_id:
                return element
        return None

    @property
    def text_content(self) -> str:
        """Concatenated text of every descendant Text node."""
        parts = []
        for node in self.descendants():
            if isinstance(node, Text):
                parts.append(node.data)
        return "".join(parts)

    # -- innerHTML ---------------------------------------------------------------

    @property
    def inner_html(self) -> str:
        """This node's children as markup (get) / parsed from markup (set)."""
        from .serializer import serialize_children

        return serialize_children(self)

    @inner_html.setter
    def inner_html(self, markup: str) -> None:
        """This node's children as markup (get) / parsed from markup (set)."""
        from .parser import parse_fragment

        context_tag = self.tag if isinstance(self, Element) else "body"
        nodes = parse_fragment(markup, context_tag)
        self.remove_all_children()
        for node in nodes:
            self.append_child(node)


class Element(_ParentNode):
    """An HTML element with a lowercase tag and ordered attributes."""

    def __init__(self, tag: str, attributes: Optional[Dict[str, str]] = None):
        super().__init__()
        if not tag:
            raise DomError("empty tag name")
        self.tag = tag.lower()
        self._attributes: Dict[str, str] = {}
        if attributes:
            for name, value in attributes.items():
                self.set_attribute(name, value)

    # -- attributes ---------------------------------------------------------------

    def get_attribute(self, name: str) -> Optional[str]:
        """The attribute's value, or None (names are case-insensitive)."""
        return self._attributes.get(name.lower())

    def set_attribute(self, name: str, value: str) -> None:
        """Set an attribute (name lowercased; None value becomes '')."""
        if not name:
            raise DomError("empty attribute name")
        key = name.lower()
        value = "" if value is None else str(value)
        if self._attributes.get(key, _ABSENT) != value:
            self._attributes[key] = value
            self._stamp_mutation()

    def remove_attribute(self, name: str) -> None:
        """Delete an attribute if present."""
        if self._attributes.pop(name.lower(), _ABSENT) is not _ABSENT:
            self._stamp_mutation()

    def has_attribute(self, name: str) -> bool:
        """Whether the attribute exists (even if empty)."""
        return name.lower() in self._attributes

    @property
    def attributes(self) -> List[Tuple[str, str]]:
        """Ordered (name, value) pairs — the paper's attribute
        name-value list carried per top-level child (Fig. 4)."""
        return list(self._attributes.items())

    # -- convenience ---------------------------------------------------------------

    @property
    def is_void(self) -> bool:
        """Whether this element never has children or an end tag."""
        return self.tag in VOID_ELEMENTS

    @property
    def outer_html(self) -> str:
        """This element serialized, including its own tags."""
        return self.to_html()

    def clone(self, deep: bool = True) -> "Element":
        """Return a copy of this node (deep copies children too)."""
        copy = Element(self.tag, dict(self._attributes))
        if deep:
            for child in self.child_nodes:
                copy.append_child(child.clone(deep=True))
        return copy

    def __repr__(self) -> str:
        attrs = "".join(" %s=%r" % (k, v) for k, v in self._attributes.items())
        return "<%s%s> (%d children)" % (self.tag, attrs, len(self.child_nodes))


class Document(_ParentNode):
    """The root of a page's DOM tree."""

    def __init__(self):
        super().__init__()
        self._doctype: Optional[str] = None

    @property
    def doctype(self) -> Optional[str]:
        """The doctype text (without ``<!``/``>``); assignment stamps."""
        return self._doctype

    @doctype.setter
    def doctype(self, value: Optional[str]) -> None:
        if value != self._doctype:
            self._doctype = value
            self._stamp_mutation()

    @property
    def document_element(self) -> Optional[Element]:
        """The <html> root element."""
        for child in self.children:
            if child.tag == "html":
                return child
        return None

    @property
    def head(self) -> Optional[Element]:
        """The <head> element, or None."""
        root = self.document_element
        if root is None:
            return None
        for child in root.children:
            if child.tag == "head":
                return child
        return None

    @property
    def body(self) -> Optional[Element]:
        """The <body> element, or None (frameset documents)."""
        root = self.document_element
        if root is None:
            return None
        for child in root.children:
            if child.tag == "body":
                return child
        return None

    @property
    def frameset(self) -> Optional[Element]:
        """The <frameset> element, or None (body documents)."""
        root = self.document_element
        if root is None:
            return None
        for child in root.children:
            if child.tag == "frameset":
                return child
        return None

    @property
    def title(self) -> str:
        """The text of the <title> element, or ''."""
        head = self.head
        if head is None:
            return ""
        titles = head.get_elements_by_tag_name("title")
        return titles[0].text_content if titles else ""

    def create_element(self, tag: str, **attributes: str) -> Element:
        """Element factory; trailing underscores in kwargs are stripped (``for_``)."""
        return Element(tag, {k.rstrip("_"): v for k, v in attributes.items()})

    def create_text_node(self, data: str) -> Text:
        """Text node factory."""
        return Text(data)

    def clone(self, deep: bool = True) -> "Document":
        """Return a copy of this node (deep copies children too)."""
        copy = Document()
        copy.doctype = self.doctype
        if deep:
            for child in self.child_nodes:
                copy.append_child(child.clone(deep=True))
        return copy

    def __repr__(self) -> str:
        return "Document(title=%r, %d children)" % (self.title, len(self.child_nodes))

"""The explicit-stack DOM walk against a frozen recursive reference.

``descendants()`` and ``descendant_elements()`` keep their own stack of
pending nodes.  They must yield exactly what the original recursive
generators yielded, in the same pre-order, including when the consumer
changes the tree between two steps: a node's child list is snapshotted
when the walk enters that node, right after yielding it.
"""

import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.html import Comment, Element, Text
from repro.html.dom import _ParentNode


def reference_descendants(node):
    """The original recursive pre-order walk, frozen."""
    for child in list(node.child_nodes):
        yield child
        if isinstance(child, _ParentNode):
            yield from reference_descendants(child)


def reference_descendant_elements(node):
    for child in reference_descendants(node):
        if isinstance(child, Element):
            yield child


def label(node):
    if isinstance(node, Element):
        return node.get_attribute("k")
    return node.data


def build_tree(shape):
    """A labelled tree from ``(parent choice, kind)`` pairs: each new node
    goes under an earlier element picked by the choice."""
    root = Element("div", {"k": "root"})
    elements = [root]
    for index, (choice, kind) in enumerate(shape):
        parent = elements[choice % len(elements)]
        if kind == "element":
            node = Element("span", {"k": "e%d" % index})
            elements.append(node)
        elif kind == "text":
            node = Text("t%d" % index)
        else:
            node = Comment("c%d" % index)
        parent.append_child(node)
    return root


def mutate(node, action, step):
    """Change the tree around the node just yielded; every action is
    relative to that node, so two copies of a tree change alike as long
    as both walks have yielded the same sequence so far."""
    parent = node.parent
    if action == "detach-self" and parent is not None:
        parent.remove_child(node)
    elif action == "append-child" and isinstance(node, Element):
        node.append_child(Element("b", {"k": "new%d" % step}))
        node.append_child(Text("newtext%d" % step))
    elif action == "drop-first-child" and isinstance(node, Element) and node.child_nodes:
        node.remove_child(node.child_nodes[0])
    elif action == "append-sibling" and parent is not None:
        parent.append_child(Element("i", {"k": "sib%d" % step}))
    elif action == "drop-next-sibling" and parent is not None:
        siblings = parent.child_nodes
        position = siblings.index(node)
        if position + 1 < len(siblings):
            parent.remove_child(siblings[position + 1])
    elif action == "move-into-previous" and parent is not None:
        siblings = parent.child_nodes
        position = siblings.index(node)
        if position > 0 and isinstance(siblings[position - 1], Element):
            siblings[position - 1].append_child(node)


def walk(tree, walker, plan):
    """Labels yielded by ``walker(tree)`` while applying ``plan``."""
    seen = []
    for step, node in enumerate(walker(tree)):
        seen.append(label(node))
        action = plan.get(step)
        if action is not None:
            mutate(node, action, step)
    return seen


shapes = st.lists(
    st.tuples(st.integers(0, 1000), st.sampled_from(["element", "element", "text", "comment"])),
    max_size=60,
)
plans = st.dictionaries(
    st.integers(0, 80),
    st.sampled_from(
        [
            "detach-self",
            "append-child",
            "drop-first-child",
            "append-sibling",
            "drop-next-sibling",
            "move-into-previous",
        ]
    ),
    max_size=12,
)

WALKS = [
    (lambda root: root.descendants(), reference_descendants),
    (lambda root: root.descendant_elements(), reference_descendant_elements),
]


@pytest.mark.parametrize("walker, reference", WALKS, ids=["descendants", "elements"])
@settings(max_examples=200, deadline=None)
@given(shape=shapes)
def test_same_sequence_as_reference(walker, reference, shape):
    tree = build_tree(shape)
    assert [label(n) for n in walker(tree)] == [label(n) for n in reference(tree)]


@pytest.mark.parametrize("walker, reference", WALKS, ids=["descendants", "elements"])
@settings(max_examples=300, deadline=None)
@given(shape=shapes, plan=plans)
def test_same_sequence_when_the_consumer_mutates(walker, reference, shape, plan):
    tree = build_tree(shape)
    twin = tree.clone(deep=True)
    assert walk(tree, walker, plan) == walk(twin, reference, plan)


def test_children_added_before_entry_are_walked():
    root = Element("div", {"k": "root"})
    first = root.append_child(Element("p", {"k": "p"}))
    root.append_child(Element("p", {"k": "q"}))
    seen = []
    for node in root.descendant_elements():
        seen.append(label(node))
        if node is first:
            node.append_child(Element("b", {"k": "late"}))
            root.append_child(Element("p", {"k": "ignored"}))  # root was entered already
    assert seen == ["p", "late", "q"]


def test_depth_beyond_the_recursion_limit():
    root = Element("div", {"k": "root"})
    node = root
    depth = sys.getrecursionlimit() + 500
    for level in range(depth):
        node = node.append_child(Element("div", {"k": "d%d" % level}))
    node.append_child(Text("leaf"))
    assert sum(1 for _ in root.descendant_elements()) == depth
    assert [label(n) for n in root.descendants()][-1] == "leaf"
    assert root.text_content == "leaf"

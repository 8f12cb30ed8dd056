"""DOM version-stamp invariants (repro.html.dom).

The incremental generation pipeline treats version equality as a sound
"identical subtree" certificate, so the stamps must satisfy:

* every mutation bumps the mutated node's own version and the subtree
  version of the node and every ancestor;
* untouched siblings (and their subtrees) keep their versions;
* no-op writes (same attribute value, same text data) do not bump;
* clones draw fresh stamps (never share the source's);
* equal subtree versions on two snapshots of the same node imply equal
  serialization (the property the diff and the segment cache rely on).
"""

import string

import pytest
from hypothesis import given, settings, strategies as st

from repro.html import Comment, Document, Element, Text, parse_document, serialize_node
from repro.webserver import TABLE1_SITES, generate_table1_site


def build_page():
    return parse_document(
        "<html><head><title>T</title></head>"
        "<body><div id='a'><span>one</span></div>"
        "<div id='b'><span>two</span></div></body></html>"
    )


def table1_page():
    """The smallest Table-1 page, as the parser builds it: its nodes
    carry only the stamps they drew at construction, plus those of the
    top-level normalization."""
    spec = next(spec for spec in TABLE1_SITES if spec.host == "google.com")
    return parse_document(generate_table1_site(spec).html)


PAGES = {"fixture": build_page, "table1": table1_page}


def versions(node):
    return node.own_version, node.subtree_version


def ancestors(node):
    chain = []
    current = node.parent
    while current is not None:
        chain.append(current)
        current = current.parent
    return chain


def assert_dirty_chain(node, before):
    """The node and every ancestor carry new subtree versions."""
    for ancestor in [node] + ancestors(node):
        assert ancestor.subtree_version != before[id(ancestor)][1]


def snapshot_versions(root):
    table = {}

    def walk(node):
        table[id(node)] = versions(node)
        for child in getattr(node, "child_nodes", ()):
            walk(child)

    walk(root)
    return table


def test_set_attribute_bumps_node_and_ancestors():
    document = build_page()
    target = document.get_element_by_id("a")
    sibling = document.get_element_by_id("b")
    before = snapshot_versions(document)
    target.set_attribute("class", "hot")
    assert target.own_version != before[id(target)][0]
    assert_dirty_chain(target, before)
    assert versions(sibling) == before[id(sibling)]


def test_remove_attribute_bumps_only_when_present():
    document = build_page()
    target = document.get_element_by_id("a")
    before = snapshot_versions(document)
    target.remove_attribute("nonexistent")
    assert versions(target) == before[id(target)]
    target.set_attribute("class", "x")
    mid = snapshot_versions(document)
    target.remove_attribute("class")
    assert target.subtree_version != mid[id(target)][1]


def test_noop_attribute_write_does_not_bump():
    document = build_page()
    target = document.get_element_by_id("a")
    target.set_attribute("class", "same")
    before = snapshot_versions(document)
    target.set_attribute("class", "same")
    assert snapshot_versions(document) == before


def test_text_data_bumps_node_and_ancestors():
    document = build_page()
    span = document.get_element_by_id("a").child_nodes[0]
    text = span.child_nodes[0]
    before = snapshot_versions(document)
    text.data = "changed"
    assert text.own_version != before[id(text)][0]
    assert_dirty_chain(text, before)


def test_noop_text_write_does_not_bump():
    document = build_page()
    text = document.get_element_by_id("a").child_nodes[0].child_nodes[0]
    before = snapshot_versions(document)
    text.data = text.data
    assert snapshot_versions(document) == before


def test_append_and_remove_child_bump_parent_chain():
    document = build_page()
    target = document.get_element_by_id("b")
    sibling = document.get_element_by_id("a")
    before = snapshot_versions(document)
    child = Element("em")
    target.append_child(child)
    assert_dirty_chain(target, before)
    assert versions(sibling) == before[id(sibling)]
    mid = snapshot_versions(document)
    target.remove_child(child)
    assert_dirty_chain(target, mid)


def test_comment_data_bumps():
    document = build_page()
    body = document.get_element_by_id("a").parent
    comment = Comment("note")
    body.append_child(comment)
    before = snapshot_versions(document)
    comment.data = "edited"
    assert_dirty_chain(comment, before)


def test_doctype_bumps_document():
    document = build_page()
    before = document.subtree_version
    document.doctype = "DOCTYPE html"
    assert document.subtree_version != before


def test_clone_draws_fresh_stamps():
    document = build_page()
    target = document.get_element_by_id("a")
    clone = target.clone(deep=True)
    seen = set()

    def collect(node):
        seen.add(node.own_version)
        seen.add(node.subtree_version)
        for child in getattr(node, "child_nodes", ()):
            collect(child)

    collect(target)
    originals = set(seen)
    seen.clear()
    collect(clone)
    assert not (seen & originals)


@pytest.mark.parametrize("page", sorted(PAGES))
def test_parsed_equal_subtree_versions_lie_on_one_chain(page):
    """Right after a parse, two nodes share a subtree version only if
    one is an ancestor of the other (the invariant in repro.html.dom)."""
    document = PAGES[page]()
    by_version = {}
    for node in [document, *document.descendants()]:
        by_version.setdefault(node.subtree_version, []).append(node)
    for nodes in by_version.values():
        deepest = max(nodes, key=lambda node: len(ancestors(node)))
        chain = [deepest] + ancestors(deepest)
        assert all(any(node is link for link in chain) for node in nodes)


def test_versions_monotone_across_mutations():
    document = build_page()
    target = document.get_element_by_id("a")
    observed = []
    for index in range(5):
        target.set_attribute("n", str(index))
        observed.append(target.subtree_version)
    assert observed == sorted(observed)
    assert len(set(observed)) == len(observed)


# -- property: equal versions => equal serialization -------------------------------

_words = st.text(alphabet=string.ascii_letters + string.digits + " ", min_size=1, max_size=10)


@st.composite
def mutations(draw):
    """(kind, payload) operations applied to the fixture page."""
    kind = draw(st.sampled_from(["attr", "text", "append", "remove", "noop-attr", "noop-text"]))
    return kind, draw(_words), draw(st.integers(min_value=0, max_value=7))


def mutation_targets(document):
    """Body elements whose first child is an element holding text first
    (div#a and div#b on the fixture page)."""
    return [
        element
        for element in document.body.descendant_elements()
        if element.child_nodes
        and isinstance(element.child_nodes[0], Element)
        and element.child_nodes[0].child_nodes
        and isinstance(element.child_nodes[0].child_nodes[0], Text)
    ]


def apply_mutation(document, targets, op):
    kind, word, which = op
    target = targets[which % len(targets)]
    span = target.child_nodes[0]
    if kind == "attr":
        target.set_attribute("class", word)
    elif kind == "text":
        span.child_nodes[0].data = word
    elif kind == "append":
        target.append_child(Text(word))
    elif kind == "remove":
        if len(target.child_nodes) > 1:
            target.remove_child(target.child_nodes[-1])
    elif kind == "noop-attr":
        target.set_attribute("class", target.get_attribute("class") or "")
    elif kind == "noop-text":
        span.child_nodes[0].data = span.child_nodes[0].data


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(PAGES)), st.lists(mutations(), min_size=1, max_size=12))
def test_equal_version_implies_equal_serialization(page, ops):
    """Across an arbitrary mutation sequence, any node whose subtree
    version is unchanged between two observations serializes
    identically — the soundness property behind every (id, version)
    cache and the diff's version short-circuit."""
    document = PAGES[page]()
    targets = mutation_targets(document)
    root = document.document_element

    def observe():
        table = {}

        def walk(node):
            table[id(node)] = (node.subtree_version, serialize_node(node))
            for child in getattr(node, "child_nodes", ()):
                walk(child)

        walk(root)
        return table

    previous = observe()
    for op in ops:
        apply_mutation(document, targets, op)
        current = observe()
        for node_id, (version, markup) in current.items():
            if node_id in previous and previous[node_id][0] == version:
                assert previous[node_id][1] == markup
        previous = current

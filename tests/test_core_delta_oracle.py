"""The cached, signature-LCS diff against the frozen diff oracle.

``tests/delta_oracle.py`` is the diff that :func:`diff_trees` replaced:
fresh ``to_html()`` keys memoized per diff, and one ``same_subtree``
call per LCS cell.  The rewrite takes its keys from a long-lived
:class:`SegmentCache` and compares one signature per node, so it must
emit the same ops in the same order on every pair of canonical trees:
random documents under random edit sequences (each new snapshot diffed
against the last few, in both directions, with one cache shared by
every diff as the agent shares its own), the parse-fallback shapes,
void elements, whole-body rewrites, and all 20 Table-1 pages in a
seeded navigation order.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ContentGenerator, diff_trees
from repro.html import Comment, Element, Text, parse_document
from repro.html.serializer import SegmentCache
from repro.net import parse_url
from repro.webserver import TABLE1_SITES, generate_table1_site
from tests import delta_oracle

BASE = parse_url("http://site.com/page.html")

#: One cache for every diff in this module, deliberately long-lived:
#: entries outlive the trees they were computed from, so recycled ids
#: meet stale entries as they would in a long agent session.
SHARED_CACHE = SegmentCache()

#: Diffs run against this many earlier snapshots of each sequence.
HISTORY = 3


def assert_matches_oracle(old, new, cache=SHARED_CACHE):
    assert diff_trees(old, new, cache=cache) == delta_oracle.diff_trees(old, new)


class Snapshots:
    """Generate canonical snapshots of one live document and diff each
    new one against the last few, both ways, through the shared cache."""

    def __init__(self, document):
        self.document = document
        self.generator = ContentGenerator()
        self.history = []

    def step(self):
        result = self.generator.generate(self.document, BASE, mode_key="m", build_canonical=True)
        new = result.canonical_root
        for old in self.history[-HISTORY:]:
            assert_matches_oracle(old, new)
            assert_matches_oracle(new, old)
        self.history.append(new)


# -- random documents and edit sequences ---------------------------------------------

TAGS = ["div", "p", "span", "b", "a", "ul", "li", "td", "script", "style", "br", "img"]

#: Short data with everything markup has to escape, delimiters the
#: parser reacts to, and a non-ASCII letter.
_data = st.text(alphabet="ab <&>\"'/-!é", max_size=10)
_attrs = st.dictionaries(st.sampled_from(["id", "class", "href", "title"]), _data, max_size=2)

_leaf = st.one_of(
    st.builds(Text, _data),
    st.builds(Comment, _data),
    st.builds(Text, st.sampled_from(["</script>", "x</style>y", "--> c"])),
)


def _element(tag, attributes, children):
    element = Element(tag, attributes)
    for child in children:
        element.append_child(child)
    return element


_node = st.recursive(
    _leaf,
    lambda children: st.builds(
        _element, st.sampled_from(TAGS), _attrs, st.lists(children, max_size=4)
    ),
    max_leaves=12,
)

EDITS = ["text", "attr", "append", "remove", "move", "rewrite", "fallback"]


def new_document(nodes):
    document = parse_document("<html><head><title>t</title></head><body></body></html>")
    for node in nodes:
        document.body.append_child(node)
    return document


def apply_edit(data, document):
    """Draw one edit and apply it to the live document in place."""
    body = document.body
    elements = [body] + list(body.descendant_elements())
    nodes = list(body.descendants())
    kind = data.draw(st.sampled_from(EDITS))
    if kind == "text":
        texts = [node for node in nodes if isinstance(node, (Text, Comment))]
        if texts:
            data.draw(st.sampled_from(texts)).data = data.draw(_data)
    elif kind == "attr":
        data.draw(st.sampled_from(elements)).set_attribute("class", data.draw(_data))
    elif kind == "append":
        parent = data.draw(st.sampled_from(elements))
        siblings = parent.child_nodes
        reference = data.draw(st.sampled_from(siblings + [None]))
        parent.insert_before(data.draw(_node), reference)
    elif kind == "remove":
        if nodes:
            data.draw(st.sampled_from(nodes)).detach()
    elif kind == "move":
        if nodes:
            node = data.draw(st.sampled_from(nodes))
            targets = [el for el in elements if el is not node and not el._is_descendant_of(node)]
            parent = data.draw(st.sampled_from(targets))
            others = [child for child in parent.child_nodes if child is not node]
            parent.insert_before(node, data.draw(st.sampled_from(others + [None])))
    elif kind == "rewrite":
        body.remove_all_children()
        for node in data.draw(st.lists(_node, max_size=4)):
            body.append_child(node)
    else:
        # Shapes the parser restructures: <p> holding a <div>, raw text
        # holding its own end tag, a comment holding its delimiter.
        parent = data.draw(st.sampled_from(elements))
        shape = data.draw(st.sampled_from(["p-div", "script", "comment"]))
        if shape == "p-div":
            paragraph = _element("p", {}, [_element("div", {}, [Text("in")])])
            parent.append_child(paragraph)
        elif shape == "script":
            parent.append_child(_element("script", {}, [Text("a</script>b")]))
        else:
            parent.append_child(Comment("x --> y"))


@settings(max_examples=150, deadline=None)
@given(st.lists(_node, max_size=5), st.data())
def test_edit_sequences_match_oracle(nodes, data):
    snapshots = Snapshots(new_document(nodes))
    snapshots.step()
    for _ in range(data.draw(st.integers(1, 6))):
        apply_edit(data, snapshots.document)
        snapshots.step()


# -- targeted shapes ------------------------------------------------------------------


def canonical(markup):
    document = parse_document(markup)
    return ContentGenerator().generate(document, BASE, build_canonical=True).canonical_root


def page(body):
    return "<html><head><title>t</title></head><body>%s</body></html>" % body


PAIRS = {
    # A Text and a Comment with equal data are different nodes.
    "text-vs-comment": ("<b>1</b>x<i>2</i>", "<b>9</b><!--x--><i>8</i>"),
    # Equal-length LCS candidates: the tie-break picks the anchor.
    "swap": (
        "<p>first paragraph with enough text</p><p>second paragraph with enough text</p>",
        "<p>second paragraph with enough text</p><p>first paragraph with enough text</p>",
    ),
    "rotate": ("<i>a</i><i>b</i><i>c</i><i>d</i>", "<i>c</i><i>d</i><i>a</i><i>b</i>"),
    "void-elements": ('<br><img src="a.png"><p>x</p>', '<img src="b.png"><br><p>x</p><br>'),
    "insert-between-lookalikes": (
        "<li>a</li><li>a</li><li>a</li>",
        "<li>a</li><li>b</li><li>a</li>",
    ),
    "script-end-tag": ("<script>a</script><p>x</p>", "<script>a&lt;/script&gt;b</script><p>x</p>"),
    "comment-delimiter": ("<!--a--><p>x</p>", "<!--a --><p>x</p><!--b-->"),
    "p-holding-div": ("<p>a<span>b</span></p>", "<p>a</p><div>b</div><p></p>"),
    "whole-body-rewrite": (
        "<div><ul><li>one</li><li>two</li></ul></div><p>tail text</p>",
        "<table><tr><td>cell</td></tr></table><!--c--><span>new</span>",
    ),
    "tags-differ-markup-alike": ("<b>same inner text</b>", "<i>same inner text</i>"),
}


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_targeted_pair_matches_oracle(name):
    old_body, new_body = PAIRS[name]
    old, new = canonical(page(old_body)), canonical(page(new_body))
    assert_matches_oracle(old, new)
    assert_matches_oracle(new, old)


def test_fallback_shapes_built_by_the_generator_match_oracle():
    """DOM edits the parser would restructure: the generator's localized
    parse round trip feeds the diff the same trees the oracle sees."""
    document = parse_document(page("<div><p>a</p></div><div><p>b</p></div>"))
    snapshots = Snapshots(document)
    snapshots.step()
    first, second = document.body.child_nodes
    first.child_nodes[0].append_child(_element("div", {}, [Text("block inside p")]))
    snapshots.step()
    second.append_child(_element("script", {}, [Text("var s = '</script>';")]))
    snapshots.step()
    second.append_child(Comment("closes --> early"))
    snapshots.step()
    first.append_child(_element("img", {"src": "x.png"}, [Text("void child")]))
    snapshots.step()
    first.detach()
    snapshots.step()


def test_cached_key_follows_an_in_place_mutation():
    """Keys are ``(id, subtree_version)``: a tree mutated after it was
    diffed misses the cache instead of reusing its old markup."""
    cache = SegmentCache()
    text = "a paragraph long enough to be cached"
    old = parse_document(page("<div><p>%s</p></div>" % text)).document_element
    new = parse_document(page("<div><p>%s</p></div>" % text)).document_element
    assert_matches_oracle(old, new, cache)
    new.children[-1].child_nodes[0].child_nodes[0].child_nodes[0].data = "changed"
    assert_matches_oracle(old, new, cache)
    assert diff_trees(old, new, cache=cache) != []


def test_table1_navigation_matches_oracle():
    """All 20 Table-1 pages in a seeded navigation order, each followed
    by a one-text edit, diffed against the previous snapshots."""
    order = list(TABLE1_SITES)
    random.Random(21).shuffle(order)
    generator = ContentGenerator()
    history = []
    for spec in order:
        document = parse_document(generate_table1_site(spec).html)
        base = parse_url("http://www.%s/" % spec.host)
        for _ in range(2):
            result = generator.generate(document, base, mode_key="m", build_canonical=True)
            new = result.canonical_root
            for old in history[-2:]:
                assert_matches_oracle(old, new)
            history.append(new)
            texts = [node for node in document.body.descendants() if isinstance(node, Text)]
            texts[len(texts) // 2].data = "edited on %s" % spec.host

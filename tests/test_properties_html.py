"""Property-based tests: HTML serialize/parse fixed point, URL resolution."""

import string

from hypothesis import example, given, settings, strategies as st

from repro.html import (
    Comment,
    Element,
    Text,
    decode_entities,
    escape_attribute,
    escape_text,
    parse_document,
    parse_fragment,
    serialize_document,
    serialize_node,
)
from repro.net import parse_url, resolve_url

# -- strategies ---------------------------------------------------------------

text_data = st.text(
    alphabet=string.ascii_letters + string.digits + " <>&\"'=/.-_;:#?",
    min_size=0,
    max_size=40,
)

attr_names = st.sampled_from(
    ["id", "class", "href", "src", "title", "alt", "data-x", "onclick", "value"]
)
attr_values = st.text(
    alphabet=string.ascii_letters + string.digits + " <>&\"'./-_?=%",
    max_size=30,
)

flow_tags = st.sampled_from(["div", "span", "p", "a", "b", "ul", "li", "table"])
void_tags = st.sampled_from(["br", "img", "input", "hr", "meta", "link"])


def _leaf_nodes():
    return st.one_of(
        text_data.filter(lambda t: t.strip()).map(Text),
        st.builds(
            Comment,
            st.text(alphabet=string.ascii_letters + " ", max_size=20).filter(
                lambda t: "--" not in t
            ),
        ),
        st.builds(
            lambda tag, attrs: Element(tag, attrs),
            void_tags,
            st.dictionaries(attr_names, attr_values, max_size=3),
        ),
    )


def _element_trees(children_strategy):
    return st.builds(
        _build_element,
        flow_tags,
        st.dictionaries(attr_names, attr_values, max_size=3),
        st.lists(children_strategy, max_size=4),
    )


def _build_element(tag, attrs, children):
    # Avoid structure tags that trigger sibling-implied closing rules in a
    # way that depends on nesting context.
    element = Element(tag if tag not in ("li",) else "div", attrs)
    for child in children:
        element.append_child(child)
    return element


dom_trees = st.recursive(_leaf_nodes(), _element_trees, max_leaves=25)

#: Markup soup: printable ASCII plus digits that are not ASCII (``²``,
#: ``١``) next to ``&#``, characters whose lowercase form is longer
#: (``İ``) or folds to ASCII only under Unicode rules (``ſ``), and
#: raw-text tags in both cases.
soup = st.lists(
    st.sampled_from(
        list(string.printable)
        + ["²", "١", "İ", "ſ", "é", "&#", "<script>", "</script>", "<style>", "</STYLE>"]
    ),
    max_size=150,
).map("".join)


def canonical(node):
    """Serialize a node to its parser-canonical form."""
    markup = serialize_node(node)
    reparsed = parse_fragment(markup)
    return "".join(serialize_node(n) for n in reparsed)


# -- HTML round-trip properties ------------------------------------------------


@settings(max_examples=150)
@given(dom_trees)
def test_serialize_parse_is_fixed_point(tree):
    """parse(serialize(tree)) serializes identically the second time."""
    once = canonical(tree)
    reparsed = parse_fragment(once)
    twice = "".join(serialize_node(n) for n in reparsed)
    assert once == twice


@settings(max_examples=150)
@given(dom_trees)
def test_text_content_preserved_through_round_trip(tree):
    markup = serialize_node(tree)
    reparsed = parse_fragment(markup)
    original_text = tree.text_content if hasattr(tree, "text_content") else tree.data
    if isinstance(tree, Comment):
        return
    reparsed_text = "".join(
        n.text_content if hasattr(n, "text_content") else getattr(n, "data", "")
        for n in reparsed
        if not isinstance(n, Comment)
    )
    assert reparsed_text == original_text


@settings(max_examples=150)
@given(st.text(max_size=200))
def test_escape_text_round_trips(text):
    assert decode_entities(escape_text(text)) == text


@settings(max_examples=150)
@given(st.text(max_size=200))
def test_escape_attribute_round_trips(text):
    assert decode_entities(escape_attribute(text)) == text


@settings(max_examples=100)
@given(
    st.dictionaries(attr_names, attr_values, max_size=5),
)
def test_attributes_survive_round_trip(attrs):
    element = Element("div", attrs)
    (reparsed,) = parse_fragment(serialize_node(element))
    assert dict(reparsed.attributes) == dict(element.attributes)


@settings(max_examples=100)
@given(dom_trees)
def test_clone_serializes_identically(tree):
    assert serialize_node(tree.clone()) == serialize_node(tree)


@settings(max_examples=100)
@given(dom_trees)
def test_clone_is_deep(tree):
    clone = tree.clone()
    stack = [clone]
    originals = {id(tree)}
    node = tree
    queue = [tree]
    while queue:
        node = queue.pop()
        originals.add(id(node))
        queue.extend(getattr(node, "child_nodes", []))
    queue = [clone]
    while queue:
        node = queue.pop()
        assert id(node) not in originals
        queue.extend(getattr(node, "child_nodes", []))


@settings(max_examples=100)
@given(soup)
@example("&#²;")
@example("İ<script>")
def test_parse_document_never_crashes_and_normalizes(markup):
    document = parse_document(markup)
    assert document.document_element is not None
    assert document.head is not None
    assert document.body is not None or document.frameset is not None
    # Serialization of arbitrary soup is parseable again.
    again = parse_document(serialize_document(document))
    assert again.document_element is not None


@settings(max_examples=100)
@given(soup)
@example("&#²;")
@example("İ<script>")
def test_document_parse_serialize_stabilizes(markup):
    """Soup converges to a fixed point in at most two rounds."""
    once = serialize_document(parse_document(markup))
    twice = serialize_document(parse_document(once))
    thrice = serialize_document(parse_document(twice))
    assert twice == thrice


# -- URL properties --------------------------------------------------------------

hosts = st.sampled_from(["a.com", "www.example.com", "cdn.site.org"])
path_segments = st.lists(
    st.text(alphabet=string.ascii_lowercase + string.digits, min_size=1, max_size=6),
    min_size=0,
    max_size=4,
)


@st.composite
def absolute_urls(draw):
    host = draw(hosts)
    segments = draw(path_segments)
    path = "/" + "/".join(segments)
    query = draw(st.one_of(st.none(), st.just("a=1"), st.just("q=x&y=2")))
    text = "http://" + host + path
    if query:
        text += "?" + query
    return text


@settings(max_examples=150)
@given(absolute_urls())
def test_url_str_parse_round_trip(text):
    assert str(parse_url(text)) == text


@settings(max_examples=150)
@given(absolute_urls(), path_segments)
def test_resolution_always_absolute(base_text, segments):
    base = parse_url(base_text)
    reference = parse_url("/".join(segments))
    resolved = resolve_url(base, reference)
    assert resolved.is_absolute
    assert resolved.host == base.host


@settings(max_examples=150)
@given(absolute_urls())
def test_resolving_self_relative_empty_is_identity_without_fragment(text):
    base = parse_url(text)
    resolved = resolve_url(base, parse_url(""))
    assert resolved.origin == base.origin
    assert resolved.path == (base.path or "/")


@settings(max_examples=150)
@given(absolute_urls(), absolute_urls())
def test_absolute_reference_ignores_base(base_text, ref_text):
    resolved = resolve_url(parse_url(base_text), parse_url(ref_text))
    assert str(resolved).startswith("http://" + parse_url(ref_text).host)


@settings(max_examples=150)
@given(absolute_urls())
def test_resolution_idempotent(text):
    base = parse_url("http://base.org/dir/page.html")
    once = resolve_url(base, parse_url(text))
    twice = resolve_url(base, once)
    assert str(once) == str(twice)


@settings(max_examples=150)
@given(absolute_urls())
def test_no_dot_segments_after_resolution(text):
    base = parse_url("http://base.org/a/b/c.html")
    resolved = resolve_url(base, parse_url(text))
    segments = resolved.path.split("/")
    assert "." not in segments
    assert ".." not in segments

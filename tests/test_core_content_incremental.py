"""Incremental content generation: byte-identity, reuse fences,
canonical snapshot sharing, and the spliced payload encoding.

The optimization contract is strict: with a ``mode_key``, a generation
after any DOM mutation must produce an envelope byte-identical to a
from-scratch run, while rebuilding only the dirty subtrees.  Anything
the fingerprint cannot vouch for (different base URL, changed cache
content, fresh rewrite callables, changed URL map) must fall back to a
full rebuild rather than risk a stale reuse.
"""

import json
import string

import pytest
from hypothesis import given, settings, strategies as st

from repro.browser import BrowserCache
from repro.core import ContentGenerator, diff_trees
from repro.core.actions import ClickAction, encode_actions
from repro.core.delta import content_tree
from repro.core.serveplan import BroadcastPlan
from repro.core.xmlformat import (
    PAYLOAD_SUFFIX,
    HeadChild,
    assemble_envelope,
    head_child_payload,
    head_child_prefix,
    js_escape,
    payload_encode,
    top_element_prefix,
    wire_envelope_template,
)
from repro.html import Comment, Element, Text, parse_document
from repro.net import parse_url

BASE = parse_url("http://site.com/page.html")

MARKUP = (
    "<html><head><title>T</title>"
    '<link rel="stylesheet" href="css/main.css"></head>'
    "<body>"
    + "".join(
        '<div id="d%d"><span>cell %d</span><a href="/p/%d">go</a></div>' % (i, i, i)
        for i in range(30)
    )
    + "</body></html>"
)


def fresh_envelope(document, doc_time, **kwargs):
    """A from-scratch generation with a brand-new generator."""
    return ContentGenerator().generate(document, BASE, doc_time=doc_time, **kwargs).xml_text


def assert_identical(generator, document, doc_time, **kwargs):
    """Incremental output must match a from-scratch run byte for byte,
    and the wire template built from its pre-encoded segment bytes must
    serve exactly that envelope."""
    result = generator.generate(
        document, BASE, doc_time=doc_time, mode_key="m", build_canonical=True, **kwargs
    )
    assert result.xml_text == fresh_envelope(document, doc_time, **kwargs)
    template = wire_envelope_template(
        doc_time,
        result.head_segments,
        result.top_segments,
        cookies_json=kwargs.get("cookies_json", "[]"),
    )
    served = BroadcastPlan(template).personalize(None).to_bytes()
    assert served == result.xml_text.encode("ascii")
    return result


def div(document, index):
    return document.get_element_by_id("d%d" % index)


# -- byte-identity across edit kinds ------------------------------------------------


def test_second_generation_is_incremental_and_identical():
    document = parse_document(MARKUP)
    generator = ContentGenerator()
    first = assert_identical(generator, document, 1)
    assert first.mode == "full"
    div(document, 7).child_nodes[0].child_nodes[0].data = "edited"
    second = assert_identical(generator, document, 2)
    assert second.mode == "incremental"
    assert second.reused_subtrees > 0
    assert second.dirty_subtrees < first.dirty_subtrees / 4


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: div(d, 3).set_attribute("class", "hot"),
        lambda d: div(d, 3).remove_attribute("id"),
        lambda d: div(d, 3).append_child(Text("tail")),
        lambda d: div(d, 3).remove_child(div(d, 3).child_nodes[0]),
        lambda d: div(d, 3).append_child(Element("em")),
        lambda d: d.document_element.children[0].append_child(Element("meta")),
    ],
    ids=["set-attr", "remove-attr", "append-text", "remove-child", "append-el", "head-edit"],
)
def test_edit_kinds_stay_byte_identical(edit):
    document = parse_document(MARKUP)
    generator = ContentGenerator()
    assert_identical(generator, document, 1)
    edit(document)
    result = assert_identical(generator, document, 2)
    assert result.mode == "incremental"


def random_edit(document, kind, index, text):
    target = div(document, index)
    if kind == 0:
        target.set_attribute("class", text)
    elif kind == 1:
        target.append_child(Text(text))
    elif kind == 2 and target.children:
        target.children[0].append_child(Text(text))
    elif kind == 3 and target.child_nodes:
        target.remove_child(target.child_nodes[-1])
    elif kind == 4:
        target.append_child(Element("a", {"href": "/" + text}))


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=4),
            st.integers(min_value=0, max_value=29),
            st.text(alphabet=string.ascii_letters + "<&\"' ", min_size=1, max_size=12),
        ),
        min_size=1,
        max_size=6,
    )
)
def test_random_edit_sequences_stay_byte_identical(edits):
    """Across random incremental edits, each generation's xml_text and
    its segment-built wire template agree with a from-scratch run."""
    document = parse_document(MARKUP)
    generator = ContentGenerator()
    assert_identical(generator, document, 1)
    for doc_time, (kind, index, text) in enumerate(edits, start=2):
        random_edit(document, kind, index, text)
        assert_identical(generator, document, doc_time)


def test_interactive_insertion_rebuilds_shifted_refs():
    """Inserting an <a> early shifts every later data-rcbref index; the
    counter fence must force those rebuilds, and output stays identical."""
    document = parse_document(MARKUP)
    generator = ContentGenerator()
    assert_identical(generator, document, 1)
    anchor = Element("a", {"href": "/new"})
    anchor.append_child(Text("new"))
    div(document, 0).append_child(anchor)
    result = assert_identical(generator, document, 2)
    assert result.mode == "incremental"
    # Nearly everything after the insertion point is dirty.
    assert result.reused_subtrees < 5


def test_no_change_reuses_everything():
    document = parse_document(MARKUP)
    generator = ContentGenerator()
    assert_identical(generator, document, 1)
    result = assert_identical(generator, document, 2)
    assert result.mode == "incremental"
    assert result.dirty_subtrees == 0
    assert result.segments_reused == result.segments_total


# -- reuse fences -------------------------------------------------------------------


def test_forget_drops_state():
    document = parse_document(MARKUP)
    generator = ContentGenerator()
    assert_identical(generator, document, 1)
    generator.forget("m")
    assert assert_identical(generator, document, 2).mode == "full"


def test_url_map_change_falls_back_to_full():
    document = parse_document(MARKUP)
    generator = ContentGenerator()
    assert generator.generate(
        document, BASE, doc_time=1, mode_key="m"
    ).mode == "full"
    result = generator.generate(
        document, BASE, doc_time=2, mode_key="m", url_map={"css/main.css": "http://cdn/x.css"}
    )
    assert result.mode == "full"
    link_attrs = dict(result.content.head_children[1].attributes)
    assert link_attrs["href"] == "http://cdn/x.css"


def test_fresh_callables_fall_back_stable_callables_reuse():
    document = parse_document(MARKUP)
    generator = ContentGenerator()
    cache = BrowserCache()
    cache.store("http://site.com/css/main.css", "text/css", b"body{}")

    def make_should_cache():
        return lambda url, content_type, size: True

    stable = make_should_cache()
    session = cache.open_read_session()
    first = generator.generate(
        document, BASE, doc_time=1, mode_key="m",
        cache_session=session, cache_mode=True, should_cache=stable,
    )
    assert first.mode == "full"
    again = generator.generate(
        document, BASE, doc_time=2, mode_key="m",
        cache_session=session, cache_mode=True, should_cache=stable,
    )
    assert again.mode == "incremental"
    fresh = generator.generate(
        document, BASE, doc_time=3, mode_key="m",
        cache_session=session, cache_mode=True, should_cache=make_should_cache(),
    )
    assert fresh.mode == "full"


def test_cache_revision_invalidates_reuse():
    """Storing a new cacheable object must defeat clone reuse: the old
    clone's URLs were rewritten against the previous cache content."""
    document = parse_document(MARKUP)
    generator = ContentGenerator()
    cache = BrowserCache()
    should_cache = lambda url, content_type, size: True
    session = cache.open_read_session()
    kwargs = dict(cache_session=session, cache_mode=True, should_cache=should_cache)
    generator.generate(document, BASE, doc_time=1, mode_key="m", **kwargs)
    cache.store("http://site.com/css/main.css", "text/css", b"body{}")
    result = generator.generate(document, BASE, doc_time=2, mode_key="m", **kwargs)
    assert result.mode == "full"
    assert result.xml_text == fresh_envelope(document, 2, **kwargs)
    assert result.cache_rewrites > 0


def test_distinct_mode_keys_are_independent():
    document = parse_document(MARKUP)
    generator = ContentGenerator()
    a1 = generator.generate(document, BASE, doc_time=1, mode_key="a")
    b1 = generator.generate(document, BASE, doc_time=1, mode_key="b")
    assert a1.mode == b1.mode == "full"
    assert a1.xml_text == b1.xml_text
    div(document, 2).set_attribute("class", "x")
    a2 = generator.generate(document, BASE, doc_time=2, mode_key="a")
    assert a2.mode == "incremental"
    b2 = generator.generate(document, BASE, doc_time=2, mode_key="b")
    assert b2.mode == "incremental"
    assert a2.xml_text == b2.xml_text


# -- caches and counters ------------------------------------------------------------


def test_url_memo_hits_on_regeneration():
    document = parse_document(MARKUP)
    generator = ContentGenerator()
    first = generator.generate(document, BASE, doc_time=1, mode_key="m")
    assert first.urlcache_hits == 0 or first.urls_rewritten > 0
    # Force full rebuild via forget: every URL resolves again, now memoized.
    generator.forget()
    second = generator.generate(document, BASE, doc_time=2, mode_key="m")
    assert second.mode == "full"
    assert second.urlcache_hits > 0
    assert second.urls_rewritten == first.urls_rewritten


def test_segment_cache_serves_unchanged_sections():
    document = parse_document(MARKUP)
    generator = ContentGenerator()
    generator.generate(document, BASE, doc_time=1, mode_key="m")
    div(document, 5).set_attribute("class", "x")
    result = generator.generate(document, BASE, doc_time=2, mode_key="m")
    # Head untouched: its section payload is reused outright.
    assert result.segments_reused >= 1
    assert generator.segment_cache.hits > 0
    assert result.reuse_ratio > 0.5


# -- canonical snapshot trees -------------------------------------------------------


def canonical_pair(markup, mutate):
    document = parse_document(markup)
    generator = ContentGenerator()
    first = generator.generate(document, BASE, doc_time=1, mode_key="m", build_canonical=True)
    mutate(document)
    second = generator.generate(document, BASE, doc_time=2, mode_key="m", build_canonical=True)
    return first, second


def test_canonical_matches_participant_parse():
    first, second = canonical_pair(
        MARKUP, lambda d: div(d, 4).child_nodes[0].append_child(Text("!"))
    )
    for result in (first, second):
        assert diff_trees(content_tree(result.content), result.canonical_root) == []


def test_canonical_shares_unchanged_subtrees_and_diffs_small():
    first, second = canonical_pair(
        MARKUP, lambda d: div(d, 4).child_nodes[0].child_nodes[0].__setattr__("data", "new")
    )
    stats = {}
    ops = diff_trees(first.canonical_root, second.canonical_root, stats=stats)
    assert ops == [{"op": "text", "sec": "body", "path": [4, 0, 0], "data": "new"}]
    assert stats["skipped"] > 20
    assert stats["serialized"] < 10
    # Unchanged body children are the same objects across snapshots.
    old_body = first.canonical_root.children[-1]
    new_body = second.canonical_root.children[-1]
    assert old_body.child_nodes[0] is new_body.child_nodes[0]
    assert old_body.child_nodes[4] is not new_body.child_nodes[4]


@pytest.mark.parametrize(
    "mutate",
    [
        # Parser would close the outer <p> at the nested <p>'s start tag.
        lambda d: div(d, 1).append_child(Element("p")) or div(d, 1).child_nodes[-1].append_child(Element("p")),
        # Raw-text content containing its own end tag parses shorter.
        lambda d: div(d, 1).append_child(Element("script")) or div(d, 1).child_nodes[-1].append_child(Text("x</script>y")),
        # Comment data containing the close delimiter truncates.
        lambda d: div(d, 1).append_child(Comment("a --> b")),
    ],
    ids=["nested-p", "script-end-tag", "comment-delimiter"],
)
def test_canonical_guard_fallbacks_match_parse(mutate):
    """Trees the parser would restructure must fall back to a localized
    round trip so the snapshot still mirrors the participant's parse."""
    _first, second = canonical_pair(MARKUP, mutate)
    assert diff_trees(content_tree(second.content), second.canonical_root) == []


# -- spliced payload encoding -------------------------------------------------------

_payload_text = st.text(
    alphabet=string.printable + "é☃\U0001F600", min_size=0, max_size=60
)


@settings(max_examples=100, deadline=None)
@given(_payload_text)
def test_spliced_payload_matches_monolithic(inner):
    record = HeadChild("div", [("class", "a b"), ("data-x", 'q"<&>')], inner)
    spliced = (
        head_child_prefix(record.tag, record.attributes)
        + payload_encode(inner)
        + PAYLOAD_SUFFIX
    )
    assert spliced == head_child_payload(record)


@settings(max_examples=60, deadline=None)
@given(_payload_text, _payload_text)
def test_payload_encode_distributes_over_concatenation(a, b):
    assert payload_encode(a + b) == payload_encode(a) + payload_encode(b)


def test_top_element_prefix_shape():
    assert top_element_prefix([]) + payload_encode("hi") + PAYLOAD_SUFFIX == js_escape(
        json.dumps({"attrs": [], "inner": "hi"})
    )


# -- userActions splicing into wire templates --------------------------------------


def _actions_wire(actions):
    return js_escape(encode_actions(actions)).encode("ascii")


def test_splice_preserves_sections_after_user_actions():
    """Regression: splicing userActions once truncated the envelope at
    </newContent>, silently dropping the docCookies section."""
    cookies = '[{"name":"sid","value":"1"}]'
    actions = [ClickAction("ref-1")]
    template = wire_envelope_template(7, [], [], cookies_json=cookies)
    spliced = BroadcastPlan(template).personalize(_actions_wire(actions)).to_bytes()
    assert spliced == assemble_envelope(7, [], [], encode_actions(actions), cookies).encode()
    assert b"<docCookies>" in spliced
    assert spliced.endswith(b"</newContent>")


def test_splice_equals_regenerated_envelope():
    document = parse_document(MARKUP)
    actions = [ClickAction("ref-9")]
    plain = ContentGenerator().generate(document, BASE, doc_time=5)
    direct = ContentGenerator().generate(
        document, BASE, doc_time=5, user_actions_json=encode_actions(actions)
    ).xml_text
    template = wire_envelope_template(5, plain.head_segments, plain.top_segments)
    spliced = BroadcastPlan(template).personalize(_actions_wire(actions)).to_bytes()
    assert spliced == direct.encode("ascii")

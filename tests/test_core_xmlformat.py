"""Tests for js_escape/js_unescape and the Fig. 4 XML envelope."""

import json

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import xmlformat
from repro.core import (
    EnvelopeError,
    HeadChild,
    NewContent,
    TopElement,
    build_envelope,
    js_escape,
    js_unescape,
    parse_envelope,
)
from tests.unescape_oracle import reference_unescape


class TestJsEscape:
    def test_safe_characters_untouched(self):
        safe = "abcXYZ019@*_+-./"
        assert js_escape(safe) == safe

    def test_latin1_percent_encoding(self):
        assert js_escape(" ") == "%20"
        assert js_escape("<&>") == "%3C%26%3E"
        assert js_escape("é") == "%E9"

    def test_unicode_percent_u_encoding(self):
        assert js_escape("中") == "%u4E2D"
        assert js_escape("€") == "%u20AC"

    def test_unescape_inverts(self):
        for text in ("hello world", "<p class=\"x\">&amp;</p>", "中文 mixed π"):
            assert js_unescape(js_escape(text)) == text

    def test_unescape_tolerates_bare_percent(self):
        assert js_unescape("100% sure") == "100% sure"

    def test_escape_output_is_cdata_safe(self):
        nasty = "]]> <script> & ' \""
        escaped = js_escape(nasty)
        assert "]]>" not in escaped
        assert "<" not in escaped
        assert "&" not in escaped

    @settings(max_examples=200)
    @given(st.text(max_size=200))
    def test_round_trip_property(self, text):
        assert js_unescape(js_escape(text)) == text


#: Every ASCII code point plus non-ASCII text: a superscript digit, two
#: letters whose case mappings change length, and an astral character.
ESCAPE_ALPHABET = [chr(code) for code in range(128)] + ["²", "İ", "ſ", "\U0001F600"]


class TestJsEscapeFastPath:
    """The ASCII ``str.replace`` path against the per-character table."""

    @pytest.mark.parametrize(
        "text",
        ["%", "%25", "%%41", "~", "\x00", "\x7f", "a%b c", "%\x00~\x7f", "", "safe-only_1.2"],
    )
    def test_edge_case_matches_table(self, text):
        assert js_escape(text) == text.translate(xmlformat._JS_ESCAPE_TABLE)

    def test_percent_is_escaped_once(self):
        assert js_escape("%20 %") == "%2520%20%25"

    @settings(max_examples=300)
    @given(st.text(alphabet=ESCAPE_ALPHABET, max_size=80))
    def test_matches_table(self, text):
        assert js_escape(text) == text.translate(xmlformat._JS_ESCAPE_TABLE)


#: Escape-heavy pieces: every character an escape is made of, surrogate
#: halves (as hex, as whole escapes and as raw characters), non-ASCII
#: text, and the partial escapes the decoder must leave literal.
ESCAPE_PIECES = st.one_of(
    st.sampled_from(list("%uU0123456789abcdefABCDEFxZ")),
    st.sampled_from(["D8", "DB", "DC", "DF", "d83d", "DE00", "00", "41", "E9", "4E2D"]),
    st.sampled_from(["%uD83D", "%uDE00", "%uD800", "%uDBFF", "%uDC00", "%uDFFF", "%u", "%U"]),
    st.sampled_from(["é", "中", "😀", "\ud800", "\udc00", " ", "]]>"]),
)


class TestJsUnescapeOracle:
    """The regex decoder against the frozen per-character loop."""

    @pytest.mark.parametrize(
        "text",
        [
            "%uD83D%uDE00",  # a surrogate pair: one astral character
            "%uD800",  # lone high surrogate
            "%uDC00",  # lone low surrogate
            "%uD83D%41%uDE00",  # a %XX between the halves keeps them apart
            "%U0041",  # uppercase U is an escape too
            "%u12",  # too short for %uXXXX, and "u1" is not %XX
            "%ZZ",
            "%",
            "trailing %",
            "%%41",
            "%uD800%uD800%uDC00",  # the second high pairs with the low
            "%uDC00%uD800",  # low then high never pair
            "%ud83d%Ude00",  # lowercase hex and mixed u/U
            "%E9%u4E2D%20",
            "",
            "no escapes at all",
        ],
    )
    def test_edge_cases_match_oracle(self, text):
        assert js_unescape(text) == reference_unescape(text)

    def test_surrogate_pair_recombines(self):
        assert js_unescape("%uD83D%uDE00") == "\U0001F600"
        assert js_unescape("%uD83D%41%uDE00") == "\ud83dA\ude00"

    @settings(max_examples=500)
    @given(st.lists(ESCAPE_PIECES, max_size=40).map("".join))
    @example("%uD83D%uDE00%uD800")
    def test_matches_oracle_on_escape_heavy_text(self, text):
        assert js_unescape(text) == reference_unescape(text)

    @settings(max_examples=200)
    @given(st.text(max_size=200))
    def test_matches_oracle_on_escaped_text(self, text):
        escaped = js_escape(text)
        assert js_unescape(escaped) == reference_unescape(escaped) == text

    def test_memo_stays_bounded(self, monkeypatch):
        table = xmlformat._JsUnescapeTable()
        monkeypatch.setattr(xmlformat, "_JS_UNESCAPE_TABLE", table)
        monkeypatch.setattr(xmlformat, "_UNESCAPE_MEMO_LIMIT", 64)
        text = "".join("%%u%04x" % code for code in range(0x100, 0x300))
        assert js_unescape(text) == reference_unescape(text)
        assert len(table) == 64


def sample_content():
    return NewContent(
        1234567,
        head_children=[
            HeadChild("title", [], "My Page"),
            HeadChild("style", [("type", "text/css")], "body { color: red; }"),
            HeadChild("meta", [("charset", "utf-8")], ""),
        ],
        top_elements=[
            TopElement("body", [("class", "main"), ("onload", "")], "<p>hello</p>")
        ],
        user_actions_json='[{"kind": "mousemove", "x": 1, "y": 2}]',
    )


class TestEnvelope:
    def test_build_has_paper_structure(self):
        xml = build_envelope(sample_content())
        assert xml.startswith("<?xml version='1.0' encoding='utf-8'?>")
        for tag in ("<newContent>", "<docTime>", "<docContent>", "<docHead>",
                    "<hChild1>", "<hChild2>", "<hChild3>", "<docBody>", "<userActions>"):
            assert tag in xml
        assert "<docFrameSet>" not in xml

    def test_round_trip_equality(self):
        content = sample_content()
        assert parse_envelope(build_envelope(content)) == content

    def test_frameset_round_trip(self):
        content = NewContent(
            9,
            head_children=[HeadChild("title", [], "Frames")],
            top_elements=[
                TopElement("frameset", [("rows", "50%,50%")], '<frame src="http://a.com/f.html">'),
                TopElement("noframes", [], "<p>no frames here</p>"),
            ],
        )
        xml = build_envelope(content)
        assert "<docFrameSet>" in xml
        assert "<docNoFrames>" in xml
        assert "<docBody>" not in xml
        parsed = parse_envelope(xml)
        assert parsed.uses_frames
        assert parsed == content

    def test_empty_content_round_trip(self):
        content = NewContent(5)
        parsed = parse_envelope(build_envelope(content))
        assert parsed.doc_time == 5
        assert parsed.head_children == []
        assert parsed.top_elements == []

    def test_tricky_payloads_survive(self):
        content = NewContent(
            7,
            head_children=[HeadChild("script", [("id", "x")], "if (a<b && c>d) { s='%u]]>'; }")],
            top_elements=[
                TopElement("body", [("data-x", 'quo"te & <tag>')], "<div>]]></div>中文")
            ],
        )
        assert parse_envelope(build_envelope(content)) == content

    def test_user_actions_payload_round_trip(self):
        content = sample_content()
        parsed = parse_envelope(build_envelope(content))
        assert parsed.user_actions_json == content.user_actions_json

    def test_parse_rejects_non_envelope(self):
        with pytest.raises(EnvelopeError):
            parse_envelope("<html><body>nope</body></html>")

    def test_parse_rejects_missing_doc_time(self):
        with pytest.raises(EnvelopeError):
            parse_envelope("<newContent><docContent></docContent></newContent>")

    def test_parse_rejects_bad_payload(self):
        xml = (
            "<newContent><docTime>1</docTime><docContent><docHead>"
            "<hChild1><![CDATA[notjson]]></hChild1>"
            "</docHead></docContent></newContent>"
        )
        with pytest.raises(EnvelopeError):
            parse_envelope(xml)

    def test_unsupported_top_element_rejected(self):
        with pytest.raises(EnvelopeError):
            TopElement("div", [], "")

    @pytest.mark.parametrize("stamp", ["\u00b2", "1\u00b2", "\u0663", "--5", "+5", "1_0", ""])
    def test_doc_time_must_be_ascii_digits(self, stamp):
        xml = build_envelope(NewContent(5)).replace("<docTime>5<", "<docTime>%s<" % stamp)
        with pytest.raises(EnvelopeError):
            parse_envelope(xml)

    @pytest.mark.parametrize("stamp", ["\u00b2", "--5"])
    def test_base_time_must_be_ascii_digits(self, stamp):
        xml = build_envelope(NewContent(9, base_time=5, delta_ops_json="[]"))
        xml = xml.replace("<baseTime>5<", "<baseTime>%s<" % stamp)
        with pytest.raises(EnvelopeError):
            parse_envelope(xml)

    def test_signed_stamps_still_parse(self):
        xml = build_envelope(NewContent(9, base_time=5, delta_ops_json="[]"))
        parsed = parse_envelope(xml.replace("<baseTime>5<", "<baseTime> -5 <"))
        assert parsed.base_time == -5

    @pytest.mark.parametrize(
        "fields",
        [
            {"attrs": [["a", "b", "c"]], "inner": "x"},
            {"attrs": [["", "x"]], "inner": "x"},
            {"attrs": [["a", 1]], "inner": "x"},
            {"attrs": 3, "inner": "x"},
            {"attrs": [], "inner": 5},
        ],
    )
    def test_mistyped_payload_fields_rejected(self, fields):
        record = json.dumps(fields)
        head = dict(fields, tag="title")
        for section in (
            "<docHead><hChild1><![CDATA[%s]]></hChild1></docHead>" % js_escape(json.dumps(head)),
            "<docHead></docHead><docBody><![CDATA[%s]]></docBody>" % js_escape(record),
        ):
            xml = (
                "<newContent><docTime>1</docTime><docContent>%s</docContent></newContent>"
                % section
            )
            with pytest.raises(EnvelopeError):
                parse_envelope(xml)

    @pytest.mark.parametrize("tag", ["", ["title"], None])
    def test_head_child_needs_a_tag(self, tag):
        record = {"attrs": [], "inner": "x"}
        if tag is not None:
            record["tag"] = tag
        xml = (
            "<newContent><docTime>1</docTime><docContent><docHead>"
            "<hChild1><![CDATA[%s]]></hChild1></docHead>"
            "</docContent></newContent>" % js_escape(json.dumps(record))
        )
        with pytest.raises(EnvelopeError):
            parse_envelope(xml)

    def test_deeply_nested_payload_rejected(self):
        nested = "[" * 100000 + "]" * 100000
        xml = (
            "<newContent><docTime>1</docTime><docContent><docHead></docHead>"
            "<docBody><![CDATA[%s]]></docBody></docContent></newContent>" % js_escape(nested)
        )
        with pytest.raises(EnvelopeError):
            parse_envelope(xml)


attr_pairs = st.lists(
    st.tuples(
        st.sampled_from(["id", "class", "style", "onload", "data-x"]),
        st.text(max_size=20),
    ),
    max_size=4,
)


@settings(max_examples=100)
@given(
    st.integers(min_value=0, max_value=2**53),
    st.lists(
        st.tuples(st.sampled_from(["title", "style", "script", "meta", "link"]), attr_pairs, st.text(max_size=50)),
        max_size=5,
    ),
    attr_pairs,
    st.text(max_size=80),
)
def test_envelope_round_trip_property(doc_time, head_specs, body_attrs, body_inner):
    content = NewContent(
        doc_time,
        head_children=[HeadChild(tag, attrs, inner) for tag, attrs, inner in head_specs],
        top_elements=[TopElement("body", body_attrs, body_inner)],
    )
    assert parse_envelope(build_envelope(content)) == content

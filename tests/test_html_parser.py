"""Unit tests for tokenizer, parser, serializer behaviour."""


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


class TestEntities:
    def test_decode_named(self):
        assert decode_entities("a &amp; b &lt;c&gt;") == "a & b <c>"

    def test_decode_numeric(self):
        assert decode_entities("&#65;&#x42;") == "AB"

    def test_non_ascii_digits_stay_literal(self):
        # str.isdigit() accepts both; int() rejects '²' and reads '١٢' as 12.
        assert decode_entities("&#²;") == "&#²;"
        assert decode_entities("a&#١٢;b") == "a&#١٢;b"
        assert decode_entities("&#65;&#²;&#x42;") == "A&#²;B"

    def test_unknown_entity_left_alone(self):
        assert decode_entities("&bogus; &") == "&bogus; &"

    def test_unterminated_left_alone(self):
        assert decode_entities("AT&T rocks") == "AT&T rocks"

    def test_escape_text(self):
        assert escape_text("a<b>&c") == "a&lt;b&gt;&amp;c"

    def test_escape_attribute_quotes(self):
        assert escape_attribute('say "hi" & <go>') == "say &quot;hi&quot; &amp; &lt;go&gt;"

    def test_escape_decode_round_trip(self):
        original = 'tricky <text> & "quotes"'
        assert decode_entities(escape_text(original)) == original


class TestFragmentParsing:
    def test_simple_fragment(self):
        nodes = parse_fragment("<p>one</p><p>two</p>")
        assert [n.tag for n in nodes] == ["p", "p"]
        assert all(n.parent is None for n in nodes)

    def test_text_and_elements(self):
        nodes = parse_fragment("before<b>bold</b>after")
        assert isinstance(nodes[0], Text)
        assert nodes[1].tag == "b"
        assert isinstance(nodes[2], Text)

    def test_attributes_parsed(self):
        (node,) = parse_fragment('<a href="/x" target=_blank disabled>go</a>')
        assert node.get_attribute("href") == "/x"
        assert node.get_attribute("target") == "_blank"
        assert node.get_attribute("disabled") == ""

    def test_single_quoted_attribute(self):
        (node,) = parse_fragment("<div id='main'></div>")
        assert node.get_attribute("id") == "main"

    def test_attribute_entities_decoded(self):
        (node,) = parse_fragment('<a href="/x?a=1&amp;b=2"></a>')
        assert node.get_attribute("href") == "/x?a=1&b=2"

    def test_void_elements_do_not_nest(self):
        nodes = parse_fragment("<img src=a.png><p>after</p>")
        assert [getattr(n, "tag", None) for n in nodes] == ["img", "p"]
        assert nodes[0].child_nodes == []

    def test_self_closing_syntax(self):
        (node,) = parse_fragment("<div/>")
        assert node.child_nodes == []

    def test_comment(self):
        nodes = parse_fragment("<!-- hello -->")
        assert isinstance(nodes[0], Comment)
        assert nodes[0].data == " hello "

    def test_script_raw_text(self):
        (node,) = parse_fragment("<script>if (a < b && c > d) { x(); }</script>")
        assert node.tag == "script"
        assert node.child_nodes[0].data == "if (a < b && c > d) { x(); }"

    def test_script_end_tag_lookalike_inside_string(self):
        (node,) = parse_fragment("<script>var s = '</scriptx>';</script>")
        assert "</scriptx>" in node.child_nodes[0].data

    def test_style_raw_text(self):
        (node,) = parse_fragment("<style>a > b { color: red; }</style>")
        assert node.child_nodes[0].data == "a > b { color: red; }"

    def test_mismatched_end_tag_ignored(self):
        nodes = parse_fragment("<div>x</span></div>")
        assert nodes[0].text_content == "x"

    def test_unclosed_elements_closed_at_eof(self):
        nodes = parse_fragment("<div><p>deep")
        assert nodes[0].tag == "div"
        assert nodes[0].children[0].tag == "p"

    def test_implied_p_close(self):
        nodes = parse_fragment("<p>one<p>two")
        assert [n.tag for n in nodes] == ["p", "p"]

    def test_implied_li_close(self):
        (ul,) = parse_fragment("<ul><li>a<li>b</ul>")
        assert len(ul.children) == 2

    def test_stray_angle_bracket_is_text(self):
        nodes = parse_fragment("a < b")
        assert "".join(n.data for n in nodes if isinstance(n, Text)) == "a < b"

    def test_adjacent_text_merged(self):
        nodes = parse_fragment("a&amp;b")
        assert len(nodes) == 1
        assert nodes[0].data == "a&b"

    def test_empty_fragment(self):
        assert parse_fragment("") == []

    def test_duplicate_attribute_first_wins(self):
        (node,) = parse_fragment('<a id="first" id="second"></a>')
        assert node.get_attribute("id") == "first"


class TestDocumentParsing:
    def test_full_document(self):
        doc = parse_document(
            "<!DOCTYPE html><html><head><title>T</title></head>"
            "<body><h1>Hi</h1></body></html>"
        )
        assert doc.doctype.lower() == "doctype html"
        assert doc.title == "T"
        assert doc.body.children[0].tag == "h1"

    def test_missing_html_element_synthesized(self):
        doc = parse_document("<p>bare</p>")
        assert doc.document_element is not None
        assert doc.head is not None
        assert doc.body.text_content == "bare"

    def test_head_elements_routed_to_head(self):
        doc = parse_document("<title>T</title><p>body text</p>")
        assert doc.title == "T"
        assert doc.body.text_content == "body text"

    def test_missing_head_synthesized(self):
        doc = parse_document("<html><body>x</body></html>")
        assert doc.head is not None
        assert doc.head.child_nodes == []

    def test_missing_body_synthesized(self):
        doc = parse_document("<html><head></head></html>")
        assert doc.body is not None

    def test_frameset_document_has_no_body(self):
        doc = parse_document(
            "<html><head><title>F</title></head>"
            "<frameset cols='*,*'><frame src='l.html'><frame src='r.html'></frameset>"
            "<noframes><body>no frames</body></noframes></html>"
        )
        assert doc.body is None
        assert doc.frameset is not None
        noframes = doc.document_element.get_elements_by_tag_name("noframes")
        assert len(noframes) == 1

    def test_head_comes_before_body(self):
        doc = parse_document("<html><body>x</body><head></head></html>")
        tags = [c.tag for c in doc.document_element.children]
        assert tags.index("head") < tags.index("body")


class TestSerialization:
    def test_document_round_trip_idempotent(self):
        markup = (
            '<!DOCTYPE html><html><head><title>T &amp; U</title>'
            '<style>a > b {}</style></head>'
            '<body class="main"><p>hi<br>there</p>'
            '<img src="/x.png"><!--note--></body></html>'
        )
        once = serialize_document(parse_document(markup))
        twice = serialize_document(parse_document(once))
        assert once == twice

    def test_raw_text_not_escaped(self):
        doc = parse_document("<html><head><script>a && b</script></head><body></body></html>")
        assert "a && b" in serialize_document(doc)

    def test_void_element_no_end_tag(self):
        (img,) = parse_fragment('<img src="a.png">')
        assert serialize_node(img) == '<img src="a.png">'

    def test_boolean_attribute_serialization(self):
        (inp,) = parse_fragment("<input disabled>")
        assert serialize_node(inp) == "<input disabled>"

    def test_attribute_escaping(self):
        el = Element("div", {"title": 'has "quotes" & amps'})
        assert serialize_node(el) == '<div title="has &quot;quotes&quot; &amp; amps"></div>'

    def test_comment_preserved(self):
        doc = parse_document("<html><body><!-- keep me --></body></html>")
        assert "<!-- keep me -->" in serialize_document(doc)

    def test_text_round_trip_with_specials(self):
        el = Element("div")
        el.append_child(Text('x < y & z > w "q"'))
        reparsed = parse_fragment(serialize_node(el))
        assert reparsed[0].text_content == 'x < y & z > w "q"'

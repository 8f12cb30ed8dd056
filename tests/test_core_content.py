"""Tests for the Fig. 3 content-generation pipeline."""

import pytest

from repro.browser import BrowserCache
from repro.core import ContentGenerator, REF_ATTRIBUTE
from repro.core.security import sign_request_target, verify_request_target
from repro.core.serveplan import BroadcastPlan
from repro.core.xmlformat import parse_envelope, wire_envelope_template
from repro.html import parse_document, serialize_document
from repro.net import parse_url

BASE = parse_url("http://site.com/dir/page.html")

MARKUP = (
    "<html><head><title>T</title>"
    '<link rel="stylesheet" href="css/main.css">'
    '<script src="/js/app.js"></script></head>'
    "<body>"
    '<img src="../images/logo.png">'
    '<img src="http://cdn.other.com/banner.png">'
    '<a href="next.html">next</a>'
    '<form action="/search" method="GET"><input type="text" name="q"></form>'
    "</body></html>"
)


def generate(markup=MARKUP, cache=None, cache_mode=False, sign=None, url_map=None):
    document = parse_document(markup)
    generator = ContentGenerator()
    session = cache.open_read_session() if cache is not None else None
    result = generator.generate(
        document,
        BASE,
        cache_session=session,
        cache_mode=cache_mode,
        url_map=url_map,
        sign_target=sign,
    )
    return document, result


def served_content(result, doc_time=1000):
    """The envelope the agent serves from a generation (its wire
    template with no queued actions), parsed back."""
    template = wire_envelope_template(doc_time, result.head_segments, result.top_segments)
    body = BroadcastPlan(template).personalize(None).to_bytes()
    return parse_envelope(body.decode("ascii"))


def participant_view(result):
    """Reassemble the participant-side document from the envelope."""
    from repro.html import Document, Element

    content = served_content(result)
    document = Document()
    html = Element("html")
    document.append_child(html)
    head = Element("head")
    html.append_child(head)
    for record in content.head_children:
        child = Element(record.tag, dict(record.attributes))
        child.inner_html = record.inner_html
        head.append_child(child)
    for top in content.top_elements:
        element = Element(top.name, dict(top.attributes))
        element.inner_html = top.inner_html
        html.append_child(element)
    return document


class TestClonePurity:
    def test_host_document_never_mutated(self):
        document, _result = generate()
        again = serialize_document(document)
        assert again == serialize_document(parse_document(MARKUP))

    def test_host_unchanged_in_cache_mode(self):
        cache = BrowserCache()
        cache.store("http://site.com/images/logo.png", "image/png", b"x")
        cache.store("http://site.com/css/main.css", "text/css", b"y")
        document, _result = generate(cache=cache, cache_mode=True)
        assert serialize_document(document) == serialize_document(parse_document(MARKUP))


class TestUrlRewriting:
    def test_relative_urls_become_absolute(self):
        _document, result = generate()
        view = participant_view(result)
        img = view.get_elements_by_tag_name("img")[0]
        assert img.get_attribute("src") == "http://site.com/images/logo.png"
        link = view.get_elements_by_tag_name("link")[0]
        assert link.get_attribute("href") == "http://site.com/dir/css/main.css"
        script = view.get_elements_by_tag_name("script")[0]
        assert script.get_attribute("src") == "http://site.com/js/app.js"

    def test_absolute_urls_untouched(self):
        _document, result = generate()
        view = participant_view(result)
        banner = view.get_elements_by_tag_name("img")[1]
        assert banner.get_attribute("src") == "http://cdn.other.com/banner.png"

    def test_navigation_urls_made_absolute(self):
        _document, result = generate()
        view = participant_view(result)
        anchor = view.get_elements_by_tag_name("a")[0]
        assert anchor.get_attribute("href") == "http://site.com/dir/next.html"
        form = view.get_elements_by_tag_name("form")[0]
        assert form.get_attribute("action") == "http://site.com/search"

    def test_url_map_overrides_resolution(self):
        url_map = {"../images/logo.png": "http://mirror.site.com/logo.png"}
        _document, result = generate(url_map=url_map)
        view = participant_view(result)
        img = view.get_elements_by_tag_name("img")[0]
        assert img.get_attribute("src") == "http://mirror.site.com/logo.png"

    def test_rewrite_counter(self):
        _document, result = generate()
        # logo.png, main.css, app.js, next.html, /search action
        assert result.urls_rewritten == 5


class TestCacheMode:
    def build_cache(self):
        cache = BrowserCache()
        cache.store("http://site.com/images/logo.png", "image/png", b"img")
        cache.store("http://site.com/dir/css/main.css", "text/css", b"css")
        return cache

    def test_cached_objects_point_to_agent(self):
        cache = self.build_cache()
        _document, result = generate(cache=cache, cache_mode=True)
        view = participant_view(result)
        img = view.get_elements_by_tag_name("img")[0]
        assert img.get_attribute("src").startswith("/obj?key=")
        link = view.get_elements_by_tag_name("link")[0]
        assert link.get_attribute("href").startswith("/obj?key=")

    def test_uncached_objects_stay_absolute(self):
        cache = self.build_cache()
        _document, result = generate(cache=cache, cache_mode=True)
        view = participant_view(result)
        script = view.get_elements_by_tag_name("script")[0]
        assert script.get_attribute("src") == "http://site.com/js/app.js"
        banner = view.get_elements_by_tag_name("img")[1]
        assert banner.get_attribute("src") == "http://cdn.other.com/banner.png"

    def test_mapping_table_maps_target_to_cache_key(self):
        cache = self.build_cache()
        _document, result = generate(cache=cache, cache_mode=True)
        assert set(result.object_map.values()) == {
            "http://site.com/images/logo.png",
            "http://site.com/dir/css/main.css",
        }
        for target in result.object_map:
            assert target.startswith("/obj?key=")

    def test_non_cache_mode_keeps_origin_urls(self):
        cache = self.build_cache()
        _document, result = generate(cache=cache, cache_mode=False)
        view = participant_view(result)
        img = view.get_elements_by_tag_name("img")[0]
        assert img.get_attribute("src") == "http://site.com/images/logo.png"
        assert result.object_map == {}

    def test_signed_object_urls_verify(self):
        cache = self.build_cache()
        secret = "shared-session-secret"
        sign = lambda target: sign_request_target(secret, "GET", target)
        _document, result = generate(cache=cache, cache_mode=True, sign=sign)
        view = participant_view(result)
        img_src = view.get_elements_by_tag_name("img")[0].get_attribute("src")
        unsigned = verify_request_target(secret, "GET", img_src)
        assert unsigned in result.object_map

    def test_cache_rewrite_counter(self):
        cache = self.build_cache()
        _document, result = generate(cache=cache, cache_mode=True)
        assert result.cache_rewrites == 2

    def test_image_button_type_is_case_insensitive(self):
        cache = BrowserCache()
        cache.store("http://site.com/a.png", "image/png", b"a")
        cache.store("http://site.com/b.png", "image/png", b"b")
        cache.store("http://site.com/c.png", "image/png", b"c")
        _document, result = generate(
            markup=(
                '<html><body><form><input type="IMAGE" src="/a.png">'
                '<input type="image" src="/b.png"><input type="text" src="/c.png">'
                "</form></body></html>"
            ),
            cache=cache,
            cache_mode=True,
        )
        inputs = participant_view(result).get_elements_by_tag_name("input")
        assert [field.get_attribute("src").startswith("/obj?key=") for field in inputs] == [
            True,
            True,
            False,
        ]
        assert sorted(result.object_map.values()) == [
            "http://site.com/a.png",
            "http://site.com/b.png",
        ]


class TestEventRewriting:
    def test_form_onsubmit_rewritten(self):
        _document, result = generate()
        view = participant_view(result)
        form = view.get_elements_by_tag_name("form")[0]
        assert form.get_attribute("onsubmit") == "return rcbSubmit(this)"
        assert form.get_attribute(REF_ATTRIBUTE) == "form:0"

    def test_anchor_onclick_rewritten(self):
        _document, result = generate()
        view = participant_view(result)
        anchor = view.get_elements_by_tag_name("a")[0]
        assert anchor.get_attribute("onclick") == "return rcbClick(this)"
        assert anchor.get_attribute(REF_ATTRIBUTE) == "a:0"

    def test_input_onchange_rewritten(self):
        _document, result = generate()
        view = participant_view(result)
        field = view.get_elements_by_tag_name("input")[0]
        assert field.get_attribute("onchange") == "rcbInput(this)"

    def test_references_match_host_document_order(self):
        from repro.core import resolve_reference

        document, result = generate(
            "<html><body>"
            "<a href='/1'>1</a><form id='f'></form><a href='/2'>2</a>"
            "</body></html>"
        )
        view = participant_view(result)
        second_anchor = view.get_elements_by_tag_name("a")[1]
        ref = second_anchor.get_attribute(REF_ATTRIBUTE)
        host_element = resolve_reference(document, ref)
        assert host_element.get_attribute("href") == "/2"

    def test_existing_handlers_replaced(self):
        _document, result = generate(
            "<html><body><form onsubmit='evil()'></form></body></html>"
        )
        view = participant_view(result)
        form = view.get_elements_by_tag_name("form")[0]
        assert form.get_attribute("onsubmit") == "return rcbSubmit(this)"


class TestExtraction:
    def test_head_children_extracted_in_order(self):
        _document, result = generate()
        tags = [c.tag for c in served_content(result).head_children]
        assert tags == ["title", "link", "script"]

    def test_body_extracted(self):
        _document, result = generate()
        (top,) = served_content(result).top_elements
        assert top.name == "body"
        assert "rcbSubmit" in top.inner_html

    def test_frameset_extraction(self):
        _document, result = generate(
            "<html><head><title>F</title></head>"
            "<frameset rows='1,2'><frame src='a.html'></frameset>"
            "<noframes><p>none</p></noframes></html>"
        )
        top_elements = served_content(result).top_elements
        names = [t.name for t in top_elements]
        assert names == ["frameset", "noframes"]
        frameset = top_elements[0]
        assert 'src="http://site.com/dir/a.html"' in frameset.inner_html

    def test_doc_time_carried(self):
        """The payloads carry no stamp: the wire template wrapping them
        carries whichever doc_time the agent serves them under."""
        _document, result = generate()
        for doc_time in (1000, 2000):
            content = served_content(result, doc_time)
            assert content.doc_time == doc_time
            assert content.top_elements == served_content(result).top_elements

    def test_generation_seconds_positive(self):
        _document, result = generate()
        assert result.generation_seconds > 0

    def test_document_without_root_rejected(self):
        from repro.html import Document

        with pytest.raises(ValueError):
            ContentGenerator().generate(Document(), BASE)

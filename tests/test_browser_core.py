"""Integration tests for the simulated browser against origin servers."""

import pytest

from repro.browser import (
    Browser,
    BrowserExtension,
    NavigationError,
    ScriptError,
    TOPIC_DOCUMENT_CHANGED,
    TOPIC_DOCUMENT_LOADED,
    TOPIC_OBJECT_DOWNLOADED,
)
from repro.browser.script import parse_call_expression
from repro.http import Headers, HttpResponse, html_response
from repro.net import LAN_PROFILE, Host, Network, parse_url
from repro.sim import Simulator
from repro.webserver import OriginServer, StaticSite


def build_world():
    sim = Simulator()
    network = Network(sim)
    client_host = Host(network, "user-pc", LAN_PROFILE, segment="campus")
    return sim, network, client_host


def run(sim, generator):
    return sim.run_until_complete(sim.process(generator))


def simple_site(network, host="site.com"):
    site = StaticSite(host)
    site.add_page(
        "/",
        "<html><head><title>Site</title>"
        '<link rel="stylesheet" href="/main.css"></head>'
        '<body><img src="/logo.png"><img src="images/banner.png">'
        '<a id="next" href="/page2.html">next</a></body></html>',
    )
    site.add_page("/page2.html", "<html><head><title>Two</title></head><body>p2</body></html>")
    site.add("/main.css", "text/css", b"body{}" * 100)
    site.add("/logo.png", "image/png", b"\x89PNG" + b"0" * 5000)
    site.add("/images/banner.png", "image/png", b"\x89PNG" + b"1" * 9000)
    return OriginServer(network, host, site.handle)


class TestNavigation:
    def test_navigate_loads_document_and_objects(self):
        sim, network, client_host = build_world()
        simple_site(network)
        browser = Browser(client_host)

        def scenario():
            page = yield from browser.navigate("http://site.com/")
            return page

        page = run(sim, scenario())
        assert page.document.title == "Site"
        assert len(page.objects) == 3
        assert page.html_load_time > 0
        assert browser.address_bar == "http://site.com/"
        assert browser.history == ["http://site.com/"]

    def test_relative_urls_resolved_for_objects(self):
        sim, network, client_host = build_world()
        simple_site(network)
        browser = Browser(client_host)

        def scenario():
            return (yield from browser.navigate("http://site.com/"))

        page = run(sim, scenario())
        urls = {obj.url for obj in page.objects}
        assert "http://site.com/images/banner.png" in urls

    def test_objects_cached_on_first_load(self):
        sim, network, client_host = build_world()
        simple_site(network)
        browser = Browser(client_host)

        def scenario():
            yield from browser.navigate("http://site.com/")

        run(sim, scenario())
        assert "http://site.com/logo.png" in browser.cache
        assert "http://site.com/main.css" in browser.cache

    def test_second_visit_hits_cache(self):
        sim, network, client_host = build_world()
        simple_site(network)
        browser = Browser(client_host)

        def scenario():
            yield from browser.navigate("http://site.com/")
            page = yield from browser.navigate("http://site.com/")
            return page

        page = run(sim, scenario())
        assert all(obj.from_cache for obj in page.objects)
        assert page.objects_load_time == 0.0

    def test_missing_object_does_not_fail_page(self):
        sim, network, client_host = build_world()
        site = StaticSite("s.com")
        site.add_page("/", '<html><body><img src="/ghost.png"></body></html>')
        OriginServer(network, "s.com", site.handle)
        browser = Browser(client_host)

        def scenario():
            return (yield from browser.navigate("http://s.com/"))

        page = run(sim, scenario())
        assert page.objects == []

    def test_non_ascii_digit_reference_is_literal_text(self):
        sim, network, client_host = build_world()
        site = StaticSite("site.com")
        site.add_page("/", "<html><head><title>x&#²;</title></head><body>a&#²;b&#١٢;c</body></html>")
        OriginServer(network, "site.com", site.handle)
        browser = Browser(client_host)

        page = run(sim, browser.navigate("http://site.com/"))
        assert page.document.title == "x&#²;"
        assert page.document.body.text_content == "a&#²;b&#١٢;c"

    def test_navigate_404_raises(self):
        sim, network, client_host = build_world()
        simple_site(network)
        browser = Browser(client_host)

        def scenario():
            with pytest.raises(NavigationError):
                yield from browser.navigate("http://site.com/absent.html")
            return "done"

        assert run(sim, scenario()) == "done"

    def test_navigate_unknown_host_raises(self):
        sim, _network, client_host = build_world()
        browser = Browser(client_host)

        def scenario():
            with pytest.raises(NavigationError):
                yield from browser.navigate("http://ghost.example/")
            return "done"

        assert run(sim, scenario()) == "done"

    def test_redirect_followed(self):
        sim, network, client_host = build_world()

        def handler(request, client):
            if request.path == "/old":
                return HttpResponse(302, Headers([("Location", "/new")]))
            return html_response("<html><head><title>New</title></head><body></body></html>")

        OriginServer(network, "r.com", handler)
        browser = Browser(client_host)

        def scenario():
            return (yield from browser.navigate("http://r.com/old"))

        page = run(sim, scenario())
        assert page.document.title == "New"
        assert str(page.url) == "http://r.com/new"

    def test_relative_navigation_uses_current_page(self):
        sim, network, client_host = build_world()
        simple_site(network)
        browser = Browser(client_host)

        def scenario():
            yield from browser.navigate("http://site.com/")
            page = yield from browser.navigate("page2.html")
            return page

        page = run(sim, scenario())
        assert page.document.title == "Two"

    def test_relative_navigation_without_page_rejected(self):
        sim, _network, client_host = build_world()
        browser = Browser(client_host)
        with pytest.raises(NavigationError):
            list(browser.navigate("page2.html"))

    def test_document_loaded_notification(self):
        sim, network, client_host = build_world()
        simple_site(network)
        browser = Browser(client_host)
        loads = []
        browser.observers.add_observer(TOPIC_DOCUMENT_LOADED, lambda t, p: loads.append(p))
        objects = []
        browser.observers.add_observer(TOPIC_OBJECT_DOWNLOADED, lambda t, p: objects.append(p))

        def scenario():
            yield from browser.navigate("http://site.com/")

        run(sim, scenario())
        assert len(loads) == 1
        assert len(objects) == 3


class TestObjectDiscovery:
    def test_discovery_covers_tags(self):
        from repro.html import parse_document

        doc = parse_document(
            "<html><head>"
            '<link rel="stylesheet" href="/a.css">'
            '<link rel="alternate" href="/feed.xml">'
            '<script src="/b.js"></script></head>'
            '<body background="/bg.png">'
            '<img src="/i.png"><iframe src="/f.html"></iframe>'
            '<input type="image" src="/btn.png"><input type="text" src="/ignored.png">'
            "</body></html>"
        )
        urls = Browser.discover_object_urls(doc, parse_url("http://x.com/dir/page.html"))
        assert "http://x.com/a.css" in urls
        assert "http://x.com/feed.xml" not in urls
        assert "http://x.com/b.js" in urls
        assert "http://x.com/bg.png" in urls
        assert "http://x.com/i.png" in urls
        assert "http://x.com/f.html" in urls
        assert "http://x.com/btn.png" in urls
        assert "http://x.com/ignored.png" not in urls

    def test_duplicates_removed(self):
        from repro.html import parse_document

        doc = parse_document(
            '<html><body><img src="/same.png"><img src="/same.png"></body></html>'
        )
        urls = Browser.discover_object_urls(doc, parse_url("http://x.com/"))
        assert urls == ["http://x.com/same.png"]


class TestEventsAndForms:
    def make_browser_with_page(self, body_html):
        sim, network, client_host = build_world()
        site = StaticSite("f.com")
        site.add_page("/", "<html><head></head><body>%s</body></html>" % body_html)
        site.add_page("/done", "<html><head><title>Done</title></head><body>ok</body></html>")

        def handler(request, client):
            if request.path == "/submit":
                fields = (
                    request.form_params() if request.method == "POST" else request.query_params()
                )
                rows = "".join("<li>%s=%s</li>" % (k, fields[k]) for k in sorted(fields))
                return html_response(
                    "<html><head><title>Submitted</title></head>"
                    "<body><ul id='echo'>%s</ul></body></html>" % rows
                )
            return site.handle(request, client)

        OriginServer(network, "f.com", handler)
        browser = Browser(client_host)

        def scenario():
            return (yield from browser.navigate("http://f.com/"))

        run(sim, scenario())
        return sim, browser

    def test_dispatch_event_runs_attribute_handler(self):
        sim, browser = self.make_browser_with_page(
            '<button id="b" onclick="doThing(this)">go</button>'
        )
        called = []
        browser.page.scripts.register("doThing", lambda el: called.append(el.tag))
        button = browser.page.document.get_element_by_id("b")
        browser.dispatch_event(button, "click")
        assert called == ["button"]

    def test_dispatch_without_handler_returns_none(self):
        sim, browser = self.make_browser_with_page('<button id="b">go</button>')
        button = browser.page.document.get_element_by_id("b")
        assert browser.dispatch_event(button, "click") is None

    def test_javascript_disabled_skips_handlers(self):
        sim, browser = self.make_browser_with_page(
            '<button id="b" onclick="boom(this)">go</button>'
        )
        browser.javascript_enabled = False
        button = browser.page.document.get_element_by_id("b")
        assert browser.dispatch_event(button, "click") is None

    def test_unregistered_handler_raises(self):
        sim, browser = self.make_browser_with_page(
            '<button id="b" onclick="missing(this)">go</button>'
        )
        button = browser.page.document.get_element_by_id("b")
        with pytest.raises(ScriptError):
            browser.dispatch_event(button, "click")

    def test_click_link_navigates(self):
        sim, browser = self.make_browser_with_page('<a id="l" href="/done">go</a>')
        anchor = browser.page.document.get_element_by_id("l")

        def scenario():
            return (yield from browser.click_link(anchor))

        page = run(sim, scenario())
        assert page.document.title == "Done"

    def test_click_cancelled_by_handler(self):
        sim, browser = self.make_browser_with_page(
            '<a id="l" href="/done" onclick="return intercept(this)">go</a>'
        )
        browser.page.scripts.register("intercept", lambda el: False)
        anchor = browser.page.document.get_element_by_id("l")

        def scenario():
            return (yield from browser.click_link(anchor))

        page = run(sim, scenario())
        assert str(page.url) == "http://f.com/"

    def test_form_get_submission(self):
        sim, browser = self.make_browser_with_page(
            "<form id='f' action='/submit' method='GET'>"
            "<input type='text' name='q' value=''></form>"
        )
        form = browser.page.document.get_element_by_id("f")

        def scenario():
            return (yield from browser.submit_form(form, {"q": "laptop"}))

        page = run(sim, scenario())
        assert "q=laptop" in page.document.text_content

    def test_form_post_submission(self):
        sim, browser = self.make_browser_with_page(
            "<form id='f' action='/submit' method='POST'>"
            "<input type='text' name='name' value=''>"
            "<input type='hidden' name='token' value='t1'></form>"
        )
        form = browser.page.document.get_element_by_id("f")

        def scenario():
            return (yield from browser.submit_form(form, {"name": "Alice"}))

        page = run(sim, scenario())
        text = page.document.text_content
        assert "name=Alice" in text
        assert "token=t1" in text

    def test_form_submission_intercepted(self):
        sim, browser = self.make_browser_with_page(
            "<form id='f' action='/submit' method='POST' onsubmit='return hook(this)'>"
            "<input type='text' name='x' value='1'></form>"
        )
        captured = []

        def hook(element):
            captured.append(Browser.collect_form_fields(element))
            return False

        browser.page.scripts.register("hook", hook)
        form = browser.page.document.get_element_by_id("f")

        def scenario():
            return (yield from browser.submit_form(form))

        page = run(sim, scenario())
        assert str(page.url) == "http://f.com/"  # stayed put
        assert captured == [{"x": "1"}]

    def test_collect_form_fields_controls(self):
        from repro.html import parse_fragment

        (form,) = parse_fragment(
            "<form>"
            "<input type='text' name='t' value='v'>"
            "<input type='checkbox' name='c1' value='on' checked>"
            "<input type='checkbox' name='c2' value='on'>"
            "<input type='submit' name='go' value='Go'>"
            "<textarea name='ta'>body text</textarea>"
            "<select name='s'><option value='a'>A</option>"
            "<option value='b' selected>B</option></select>"
            "</form>"
        )
        fields = Browser.collect_form_fields(form)
        assert fields == {"t": "v", "c1": "on", "ta": "body text", "s": "b"}

    def test_fill_field_textarea(self):
        sim, browser = self.make_browser_with_page(
            "<form id='f'><textarea name='ta'></textarea></form>"
        )
        form = browser.page.document.get_element_by_id("f")
        textarea = form.get_elements_by_tag_name("textarea")[0]
        browser.fill_field(textarea, "typed text")
        assert textarea.text_content == "typed text"


class TestMutation:
    def test_mutate_document_bumps_version_and_notifies(self):
        sim, browser = TestEventsAndForms().make_browser_with_page("<div id='d'>old</div>")
        changes = []
        browser.observers.add_observer(TOPIC_DOCUMENT_CHANGED, lambda t, p: changes.append(p))

        def mutate(document):
            document.get_element_by_id("d").inner_html = "new"

        browser.mutate_document(mutate)
        assert browser.page.version == 1
        assert len(changes) == 1
        assert browser.page.document.get_element_by_id("d").text_content == "new"

    def test_mutate_without_page_rejected(self):
        sim, _network, client_host = build_world()
        browser = Browser(client_host)
        with pytest.raises(NavigationError):
            browser.mutate_document(lambda d: None)


class TestExtensions:
    def test_install_and_uninstall(self):
        sim, _network, client_host = build_world()
        browser = Browser(client_host)
        events = []

        class Probe(BrowserExtension):
            def on_install(self):
                events.append("install")

            def on_uninstall(self):
                events.append("uninstall")

        probe = Probe().install(browser)
        assert browser.extensions == [probe]
        probe.uninstall()
        assert browser.extensions == []
        assert events == ["install", "uninstall"]

    def test_double_install_rejected(self):
        sim, _network, client_host = build_world()
        browser = Browser(client_host)
        ext = BrowserExtension().install(browser)
        with pytest.raises(RuntimeError):
            ext.install(browser)

    def test_close_uninstalls_extensions(self):
        sim, _network, client_host = build_world()
        browser = Browser(client_host)
        ext = BrowserExtension().install(browser)
        browser.close()
        assert ext.browser is None


class TestCallExpressionParsing:
    def test_plain_call(self):
        assert parse_call_expression("fn(this)") == "fn"

    def test_return_prefix_and_semicolon(self):
        assert parse_call_expression("return rcbSubmit(this);") == "rcbSubmit"

    def test_bad_expressions(self):
        for bad in ("", "noparens", "(x)", "a b(x)"):
            with pytest.raises(ScriptError):
                parse_call_expression(bad)

"""Supplementary-object discovery and the participant's object rescan.

``Browser.discover_object_urls`` finds each object with one tag lookup
per element and resolves every reference through a memo keyed by the
page URL and the raw reference.  It must return exactly what the
original per-element scan returned, in the same order.
"""

import pytest

from repro.browser import Browser
from repro.browser.page import Page
from repro.core import CoBrowsingSession
from repro.html import parse_document
from repro.net import LAN_PROFILE, Host, Network, parse_url, resolve_url
from repro.sim import Simulator
from repro.webserver import TABLE1_SITES, OriginServer, StaticSite, generate_table1_site

REFERENCE_SOURCES = (
    ("img", "src"),
    ("script", "src"),
    ("frame", "src"),
    ("iframe", "src"),
    ("embed", "src"),
    ("input", "src"),
    ("body", "background"),
)


def reference_discover(document, base_url):
    """The original discovery scan, frozen, except that ``<input type>``
    compares ASCII case-insensitively, as HTML keyword values do."""
    seen = set()
    urls = []

    def add(raw):
        if not raw:
            return
        try:
            absolute = resolve_url(base_url, parse_url(raw))
        except Exception:
            return
        text = str(absolute.replace(fragment=None))
        if text not in seen:
            seen.add(text)
            urls.append(text)

    for element in document.descendant_elements():
        for tag, attribute in REFERENCE_SOURCES:
            if element.tag == tag:
                if tag == "input" and (element.get_attribute("type") or "").lower() != "image":
                    continue
                add(element.get_attribute(attribute))
        if element.tag == "link":
            rel = (element.get_attribute("rel") or "").lower()
            if rel in ("stylesheet", "icon", "shortcut icon"):
                add(element.get_attribute("href"))
    return urls


MIXED_PAGE = (
    "<html><head>"
    '<link rel="Stylesheet" href="css/a.css#x"><link rel="icon" href="/fav.ico">'
    '<link rel="shortcut icon" href="//cdn.example.com/s.ico"><link rel="alternate" href="f.xml">'
    '<link rel="stylesheet"><script src="../b.js?v=1"></script><script>inline()</script>'
    "</head>"
    '<body background="bg.png">'
    '<img src="i.png"><img src="i.png#dup"><img src=""><img>'
    '<img src="http://other.com:8080/./x/../y.png"><img src="http://a@b.com/bad.png">'
    '<img src="gopher://old.net/z"><img src="http://x.com:\u00b2/port.png">'
    '<img src="?q=1"><img src="  spaced.png  ">'
    '<frameset><frame src="f1.html"></frameset><iframe src="/if.html"></iframe>'
    '<embed src="m.swf"><input type="image" src="btn.png"><input type="IMAGE" src="upper.png">'
    '<input type="text" src="ignored.png"><div><p><img src="deep/nested.png"></p></div>'
    "</body></html>"
)


@pytest.mark.parametrize("spec", TABLE1_SITES, ids=[spec.host for spec in TABLE1_SITES])
def test_table1_pages_match_reference(spec):
    document = parse_document(generate_table1_site(spec).html)
    base = parse_url("http://%s/" % spec.host)
    urls = Browser.discover_object_urls(document, base)
    assert urls == reference_discover(document, base)
    assert urls  # every Table-1 page references objects


@pytest.mark.parametrize(
    "base",
    [
        "http://x.com/dir/page.html",
        "http://x.com:8080/dir/sub/",
        "https://x.com/page?query=1#frag",
        "http://x.com",
    ],
)
def test_every_source_kind_matches_reference(base):
    document = parse_document(MIXED_PAGE)
    base_url = parse_url(base)
    assert Browser.discover_object_urls(document, base_url) == reference_discover(
        document, base_url
    )


def test_image_button_type_is_case_insensitive():
    document = parse_document(
        '<html><body><input type="IMAGE" src="/a.png"><input type="image" src="/b.png">'
        '<input type="Text" src="/c.png"><link rel="ICON" href="/d.ico"></body></html>'
    )
    assert Browser.discover_object_urls(document, parse_url("http://x.com/")) == [
        "http://x.com/a.png",
        "http://x.com/b.png",
        "http://x.com/d.ico",
    ]


def test_memo_is_keyed_by_base_url():
    document = parse_document('<html><body><img src="img/a.png"></body></html>')
    first = Browser.discover_object_urls(document, parse_url("http://x.com/dir/page.html"))
    second = Browser.discover_object_urls(document, parse_url("http://y.com/other/"))
    assert first == ["http://x.com/dir/img/a.png"]
    assert second == ["http://y.com/other/img/a.png"]


def test_long_references_resolve_without_the_memo():
    long_path = "p" * 5000 + ".png"
    inline = "data:image/png;base64," + "A" * 5000
    document = parse_document(
        '<html><body><img src="%s"><img src="%s"></body></html>' % (inline, long_path)
    )
    base = parse_url("http://x.com/")
    assert Browser.discover_object_urls(document, base) == ["http://x.com/" + long_path]


def test_rescan_with_no_objects_resets_load_time():
    sim = Simulator()
    browser = Browser(Host(Network(sim), "pc", LAN_PROFILE), name="p")
    browser.page = Page(parse_url("http://x.com/"), parse_document("<html><body></body></html>"))
    browser.page.objects_load_time = 1.5
    elapsed = sim.run_until_complete(sim.process(browser.fetch_current_objects()))
    assert elapsed == 0.0
    assert browser.page.objects == []
    assert browser.page.objects_load_time == 0.0


def test_update_removing_the_last_image_resets_load_time():
    sim = Simulator()
    network = Network(sim)
    site = StaticSite("pics.com")
    site.add_page(
        "/",
        "<html><head><title>Pics</title></head>"
        '<body><p>gallery</p><img id="only" src="/a.png"></body></html>',
    )
    site.add("/a.png", "image/png", b"\x89PNG" + b"\x00" * 4000)
    OriginServer(network, "pics.com", site.handle)
    host = Browser(Host(network, "h-pc", LAN_PROFILE, segment="lan"), name="h")
    guest = Browser(Host(network, "p-pc", LAN_PROFILE, segment="lan"), name="p")
    session = CoBrowsingSession(host, poll_interval=0.5, transport="poll")

    def scenario():
        snippet = yield from session.join(guest)
        yield from session.host_navigate("http://pics.com/")
        yield from session.wait_until_synced()
        loaded = (len(guest.page.objects), guest.page.objects_load_time)

        def drop_image(document):
            image = document.get_element_by_id("only")
            image.parent.remove_child(image)

        host.mutate_document(drop_image)
        yield from session.wait_until_synced()
        return snippet, loaded

    snippet, (objects_before, load_time_before) = sim.run_until_complete(
        sim.process(scenario())
    )
    assert objects_before == 1 and load_time_before > 0.0
    assert guest.page.document.get_element_by_id("only") is None
    assert guest.page.objects == []
    assert guest.page.objects_load_time == 0.0
    assert snippet.stats.last_objects_seconds == 0.0
    session.close()

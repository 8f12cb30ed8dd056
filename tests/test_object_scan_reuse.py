"""The participant's objects, kept across text-only deltas.

A delta made only of text and comment ops puts no element into the
document, so it cannot change the objects the document references: the
participant carries its object scan over and requests no object at all.
A full envelope, any other op, a failed apply or a local edit moves the
document's subtree version, so the next update scans afresh and fetches
every object the new content references.  These tests pin both halves:
after every sync the page's loaded objects equal a fresh scan of its
document, and a scan or fetch runs exactly when the document changed in a
way the snippet does not vouch for.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.browser import Browser
from repro.core import CoBrowsingSession, NewContent, build_envelope
from repro.html import Comment, Element, Text
from repro.net import LAN_PROFILE, Host, Network
from repro.sim import Simulator
from repro.webserver import OriginServer, StaticSite

#: The real discovery scan, kept before any test patches the class.
DISCOVER = Browser.discover_object_urls

IMAGES = 6
STYLESHEETS = 3

PAGE = (
    "<html><head><title>t0</title>"
    '<link id="css" rel="stylesheet" href="/css/0.css">'
    "</head><body>"
    "<h2 id='headline'>v0</h2><!--note-->"
    "<img id='logo' src='/img/0.png'>"
    "<form id='f'><input id='q' name='q' value=''><textarea id='notes' name='notes'></textarea>"
    "<input id='btn' type='image' src='/img/1.png'></form>"
    + "".join("<p id='p%d'>paragraph %d</p>" % (i, i) for i in range(4))
    + "</body></html>"
)


class World:
    """A host and one participant (or a relay chain) synced on PAGE."""

    def __init__(self, relays=0):
        self.sim = Simulator()
        network = Network(self.sim)
        site = StaticSite("site.com")
        site.add_page("/", PAGE)
        for n in range(IMAGES):
            site.add("/img/%d.png" % n, "image/png", b"\x89PNG" + bytes([n]) * 300)
        for n in range(STYLESHEETS):
            site.add("/css/%d.css" % n, "text/css", b"p{margin:%dpx}" % n)
        OriginServer(network, "site.com", site.handle)
        self.host = Browser(Host(network, "h-pc", LAN_PROFILE, segment="lan"), name="h")
        members = [
            Browser(Host(network, "p%d-pc" % i, LAN_PROFILE, segment="lan"), name="p%d" % i)
            for i in range(relays + 1)
        ]
        self.session = CoBrowsingSession(self.host, poll_interval=0.5, transport="poll")
        if relays:
            self.session.fanout_tree(branching=1)
        #: The browser whose scans and fetches the tests watch: the
        #: leaf of the chain, or the only member.
        self.guest = members[-1]

        def join():
            joined = []
            for member in members:
                joined.append((yield from self.session.join(member)))
            yield from self.session.host_navigate("http://site.com/")
            yield from self.session.wait_until_synced()
            return joined

        self.joined = self.run(join())
        self.snippet = self.joined[-1] if not relays else None

    def run(self, generator):
        return self.sim.run_until_complete(self.sim.process(generator))

    def host_edit(self, mutator):
        """Apply ``mutator`` to the host document and wait for the sync."""

        def edit():
            self.host.mutate_document(mutator)
            yield from self.session.wait_until_synced()

        self.run(edit())

    def fresh_scan(self, browser=None):
        page = (browser or self.guest).page
        return DISCOVER(page.document, page.url)


class Spy:
    """Counts discovery scans of each watched browser's current document
    and its object requests, and records every URL list each one
    fetched, in fetch order.  The Browser class stays patched until
    ``monkeypatch`` undoes it."""

    def __init__(self, browsers, monkeypatch):
        self.browsers = list(browsers)
        self.scans = {browser.name: 0 for browser in self.browsers}
        self.requests = {browser.name: 0 for browser in self.browsers}
        self.fetched = {browser.name: [] for browser in self.browsers}
        real_fetch_current = Browser.fetch_current_objects
        real_fetch_object = Browser._fetch_object

        def discover(document, base_url):
            for browser in self.browsers:
                if browser.page is not None and document is browser.page.document:
                    self.scans[browser.name] += 1
            return DISCOVER(document, base_url)

        def fetch_current_objects(browser):
            if browser in self.browsers:
                self.fetched[browser.name].append([])
            return (yield from real_fetch_current(browser))

        def fetch_object(browser, page, client, object_url):
            # Workers pop the shared queue in list order, and each pop is
            # followed by this call before any yield: the record is the
            # fetch list itself.
            if browser not in self.browsers:
                return (yield from real_fetch_object(browser, page, client, object_url))
            self.requests[browser.name] += 1
            self.fetched[browser.name][-1].append(object_url)
            return (yield from real_fetch_object(browser, page, client, object_url))

        monkeypatch.setattr(Browser, "discover_object_urls", staticmethod(discover))
        monkeypatch.setattr(Browser, "fetch_current_objects", fetch_current_objects)
        monkeypatch.setattr(Browser, "_fetch_object", fetch_object)

    def scan_count(self, browser):
        return self.scans[browser.name]

    def last_fetch(self, browser):
        return self.fetched[browser.name][-1]

    def assert_nothing_fetched(self, browser):
        """No fetch, no object request and no scan since the spy began."""
        assert self.fetched[browser.name] == []
        assert self.requests[browser.name] == 0
        assert self.scan_count(browser) == 0


@pytest.fixture
def spy_on(monkeypatch):
    return lambda *browsers: Spy(browsers, monkeypatch)


def set_text(element_id, data):
    def mutate(document):
        document.get_element_by_id(element_id).child_nodes[0].data = data

    return mutate


def set_logo(path):
    def mutate(document):
        document.get_element_by_id("logo").set_attribute("src", path)

    return mutate


def loaded_urls(browser):
    """The page's loaded object URLs, sorted: parallel workers finish
    out of order."""
    return sorted(loaded.url for loaded in browser.page.objects)


def assert_same_objects(browser, held):
    """The page holds exactly the ``LoadedObject`` instances in ``held``."""
    objects = browser.page.objects
    assert len(objects) == len(held)
    assert all(now is before for now, before in zip(objects, held))


class TestScanCounts:
    def test_text_only_edits_never_rescan(self, spy_on):
        world = World()
        before = world.snippet.stats.delta_updates
        held = list(world.guest.page.objects)
        spy = spy_on(world.guest)
        for n in range(5):
            world.host_edit(set_text("headline", "v%d" % (n + 1)))
            spy.assert_nothing_fetched(world.guest)
            assert loaded_urls(world.guest) == sorted(world.fresh_scan())
            assert_same_objects(world.guest, held)
        assert world.snippet.stats.delta_updates == before + 5
        assert world.snippet.stats.last_objects_seconds == 0.0
        assert world.guest.page.document.get_element_by_id("headline").text_content == "v5"

    def test_comment_edit_never_rescans(self, spy_on):
        world = World()

        def edit_comment(document):
            note = next(n for n in document.body.child_nodes if isinstance(n, Comment))
            note.data = "changed"

        held = list(world.guest.page.objects)
        spy = spy_on(world.guest)
        world.host_edit(edit_comment)
        spy.assert_nothing_fetched(world.guest)
        assert loaded_urls(world.guest) == sorted(world.fresh_scan())
        assert_same_objects(world.guest, held)

    def test_text_delta_after_cache_clear_requests_nothing(self, spy_on):
        world = World()
        held = list(world.guest.page.objects)
        world.guest.clear_cache()
        spy = spy_on(world.guest)
        world.host_edit(set_text("headline", "uncached"))
        spy.assert_nothing_fetched(world.guest)
        assert_same_objects(world.guest, held)
        world.host_edit(set_logo("/img/2.png"))
        assert len(spy.fetched[world.guest.name]) == 1
        assert spy.last_fetch(world.guest) == world.fresh_scan()
        assert loaded_urls(world.guest) == sorted(world.fresh_scan())
        assert not any(loaded.from_cache for loaded in world.guest.page.objects)

    @pytest.mark.parametrize("kind", ["attrs", "insert"])
    def test_one_structural_delta_rescans_once(self, spy_on, kind):
        world = World()

        def insert(document):
            image = Element("img", {"src": "/img/3.png"})
            document.body.insert_before(image, document.body.first_child)

        before = world.snippet.stats.delta_updates
        spy = spy_on(world.guest)
        world.host_edit(set_logo("/img/2.png") if kind == "attrs" else insert)
        world.host_edit(set_text("headline", "after"))
        assert world.snippet.stats.delta_updates == before + 2
        assert spy.scan_count(world.guest) == 1
        assert spy.last_fetch(world.guest) == world.fresh_scan()
        expected = "/img/2.png" if kind == "attrs" else "/img/3.png"
        assert any(url.endswith(expected) for url in world.fresh_scan())

    def test_fill_field_between_text_deltas_rescans_once(self, spy_on):
        world = World()
        spy = spy_on(world.guest)
        world.host_edit(set_text("headline", "a"))
        field = world.guest.page.document.get_element_by_id("q")
        world.guest.fill_field(field, "typed")
        world.host_edit(set_text("headline", "b"))
        world.host_edit(set_text("headline", "c"))
        assert spy.scan_count(world.guest) == 1
        assert spy.last_fetch(world.guest) == world.fresh_scan()

    def test_delta_failing_mid_apply_rescans_on_the_resync(self, spy_on):
        world = World()
        snippet = world.snippet
        spy = spy_on(world.guest)
        # The first op lands, the second names a node that is not
        # there: the document is left half-applied.
        image = {"t": "element", "html": '<img src="/img/4.png">'}
        ops = [
            {"op": "insert", "sec": "body", "path": [0], "node": image},
            {"op": "text", "sec": "body", "path": [99], "data": "x"},
        ]
        bogus = build_envelope(
            NewContent(
                snippet.last_doc_time + 500,
                base_time=snippet.last_doc_time,
                delta_ops_json=json.dumps(ops),
            )
        )
        world.run(snippet._process_response(bogus, world.sim.now))
        assert snippet.stats.delta_failures == 1
        assert snippet.last_doc_time == 0
        assert spy.scan_count(world.guest) == 0  # a failed apply fetches nothing

        def resync():
            yield from world.session.wait_until_synced()

        world.run(resync())
        assert spy.scan_count(world.guest) == 1
        assert spy.last_fetch(world.guest) == world.fresh_scan()
        assert not any(url.endswith("/img/4.png") for url in world.fresh_scan())

    def test_relay_chain_reuses_the_scan_at_every_tier(self, spy_on):
        world = World(relays=1)
        relay_browser, leaf = (relay.browser for relay in world.joined)
        before = world.joined[0].upstream.stats.delta_updates
        spy = spy_on(relay_browser, leaf)
        for n in range(3):
            world.host_edit(set_text("headline", "r%d" % n))
            for browser in (relay_browser, leaf):
                spy.assert_nothing_fetched(browser)
                assert loaded_urls(browser) == sorted(world.fresh_scan(browser))
        world.host_edit(set_logo("/img/5.png"))
        assert world.joined[0].upstream.stats.delta_updates == before + 4
        for browser in (relay_browser, leaf):
            assert len(spy.fetched[browser.name]) == 1
            assert spy.scan_count(browser) == 1
            assert spy.last_fetch(browser) == world.fresh_scan(browser)
            assert loaded_urls(browser) == sorted(world.fresh_scan(browser))


# -- property: the loaded objects always equal a fresh scan ------------------------------

STEPS = st.one_of(
    st.tuples(st.just("text"), st.integers(0, 3), st.text("abc <&", max_size=6)),
    st.tuples(st.just("comment"), st.text("xyz-", max_size=6)),
    st.tuples(st.just("src"), st.integers(0, 7), st.integers(0, IMAGES - 1)),
    st.tuples(st.just("href"), st.integers(0, STYLESHEETS - 1)),
    st.tuples(st.just("rel"), st.sampled_from(["stylesheet", "alternate", "ICON"])),
    st.tuples(st.just("type"), st.sampled_from(["image", "IMAGE", "text"])),
    st.tuples(st.just("insert_img"), st.integers(0, 15), st.integers(0, IMAGES - 1)),
    st.tuples(st.just("insert_p"), st.integers(0, 15)),
    st.tuples(st.just("remove"), st.integers(0, 15)),
    st.tuples(
        st.just("fill"),
        st.sampled_from(["q", "notes"]),
        st.sampled_from(["typed", "<img src='/img/5.png'>", ""]),
    ),
)


def host_mutation(step, tick):
    """The host-side edit for one step; every step also rewrites the
    title, so each one ends in an update the participant applies."""
    kind = step[0]

    def mutate(document):
        body = document.body
        if kind == "text":
            paragraph = document.get_element_by_id("p%d" % step[1])
            if paragraph is not None and paragraph.child_nodes:
                paragraph.child_nodes[0].data = step[2]
        elif kind == "comment":
            for node in body.descendants():
                if isinstance(node, Comment):
                    node.data = step[1]
                    break
        elif kind == "src":
            images = body.get_elements_by_tag_name("img")
            if images:
                images[step[1] % len(images)].set_attribute("src", "/img/%d.png" % step[2])
        elif kind in ("href", "rel"):
            link = document.get_element_by_id("css")
            if kind == "href":
                link.set_attribute("href", "/css/%d.css" % step[1])
            else:
                link.set_attribute("rel", step[1])
        elif kind == "type":
            button = document.get_element_by_id("btn")
            if button is not None:
                button.set_attribute("type", step[1])
        elif kind in ("insert_img", "insert_p"):
            if kind == "insert_img":
                node = Element("img", {"src": "/img/%d.png" % step[2]})
            else:
                node = Element("p")
                node.append_child(Text("inserted"))
            children = body.child_nodes
            index = step[1] % (len(children) + 1)
            body.insert_before(node, children[index] if index < len(children) else None)
        elif kind == "remove":
            elements = [n for n in body.children if n.get_attribute("id") != "f"]
            if elements:
                body.remove_child(elements[step[1] % len(elements)])
        document.head.get_elements_by_tag_name("title")[0].child_nodes[0].data = "t%d" % tick

    return mutate


@settings(max_examples=25, deadline=None)
@given(st.lists(STEPS, min_size=1, max_size=12))
def test_fetch_list_always_equals_a_fresh_scan(steps):
    world = World()
    with pytest.MonkeyPatch.context() as monkeypatch:
        spy = Spy([world.guest], monkeypatch)
        for tick, step in enumerate(steps, start=1):
            if step[0] == "fill":
                # Markup typed into the textarea stays text: the typed
                # <img> names no object.
                field = world.guest.page.document.get_element_by_id(step[1])
                if field is not None:
                    world.guest.fill_field(field, step[2])
            fetches = len(spy.fetched[world.guest.name])
            world.host_edit(host_mutation(step, tick))
            fresh = world.fresh_scan()
            if len(spy.fetched[world.guest.name]) > fetches:
                assert spy.last_fetch(world.guest) == fresh
            assert loaded_urls(world.guest) == sorted(fresh)
    assert world.snippet.last_doc_time == world.session.agent.doc_time

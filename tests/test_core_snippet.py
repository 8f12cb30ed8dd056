"""Unit tests for Ajax-Snippet details: update semantics, handlers,
action queueing, presence, and hostile-input robustness."""

import gc
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.browser import Browser
from repro.browser.page import Page
from repro.core import (
    AjaxSnippet,
    ClickAction,
    CoBrowsingSession,
    HeadChild,
    MouseMoveAction,
    NewContent,
    PresenceAction,
    SubmitAction,
    TopElement,
    build_envelope,
    js_escape,
)
from repro.core.actions import encode_actions
from repro.core.snippet import ACTIONS_RECEIVED_KEPT
from repro.html import Element, Text, parse_document
from repro.http import HttpResponse
from repro.net import LAN_PROFILE, Host, Network, parse_url
from repro.sim import Simulator
from repro.webserver import OriginServer, StaticSite


def offline_snippet(browser_type="firefox"):
    sim = Simulator()
    network = Network(sim)
    host = Host(network, "p-pc", LAN_PROFILE)
    browser = Browser(host, name="p")
    browser.page = Page(
        parse_url("http://agent:3000/"),
        parse_document(
            "<html><head><script id='ajax-snippet'></script></head>"
            "<body><p>waiting</p></body></html>"
        ),
    )
    snippet = AjaxSnippet(
        browser, "http://agent:3000/", poll_interval=1.0,
        browser_type=browser_type, fetch_objects=False,
    )
    snippet._register_handlers()
    return browser, snippet


def content(head=None, tops=None, **kwargs):
    return NewContent(100, head or [], tops or [], **kwargs)


class TestApplyUpdate:
    def test_snippet_script_always_survives(self):
        browser, snippet = offline_snippet()
        snippet._apply_update(
            content(
                head=[HeadChild("title", [], "New")],
                tops=[TopElement("body", [], "<p>new body</p>")],
            )
        )
        script = browser.page.document.get_element_by_id("ajax-snippet")
        assert script is not None
        assert script.parent.tag == "head"
        assert browser.page.document.title == "New"

    def test_snippet_script_recreated_if_missing(self):
        browser, snippet = offline_snippet()
        # A hostile host page update could have removed the marker.
        for node in list(browser.page.document.head.child_nodes):
            browser.page.document.head.remove_child(node)
        snippet._apply_update(content(tops=[TopElement("body", [], "x")]))
        assert browser.page.document.get_element_by_id("ajax-snippet") is not None

    def test_body_attributes_replaced_not_merged(self):
        browser, snippet = offline_snippet()
        snippet._apply_update(
            content(tops=[TopElement("body", [("class", "first"), ("id", "b1")], "x")])
        )
        snippet._apply_update(content(tops=[TopElement("body", [("class", "second")], "y")]))
        body = browser.page.document.body
        assert body.get_attribute("class") == "second"
        assert body.get_attribute("id") is None

    def test_ie_mode_produces_same_document_as_firefox(self):
        update = content(
            head=[
                HeadChild("title", [], "T"),
                HeadChild("style", [("type", "text/css")], "p { color: red }"),
            ],
            tops=[TopElement("body", [("class", "c")], "<div id='d'>v</div>")],
        )
        firefox_browser, firefox_snippet = offline_snippet("firefox")
        ie_browser, ie_snippet = offline_snippet("ie")
        firefox_snippet._apply_update(update)
        ie_snippet._apply_update(update)
        from repro.html import serialize_document

        assert serialize_document(firefox_browser.page.document) == serialize_document(
            ie_browser.page.document
        )

    def test_version_bumped(self):
        browser, snippet = offline_snippet()
        before = browser.page.version
        snippet._apply_update(content(tops=[TopElement("body", [], "x")]))
        assert browser.page.version == before + 1

    def test_invalid_browser_type_rejected(self):
        browser, _snippet = offline_snippet()
        with pytest.raises(ValueError):
            AjaxSnippet(browser, "http://agent:3000/", browser_type="netscape")

    def test_relative_agent_url_rejected(self):
        browser, _snippet = offline_snippet()
        with pytest.raises(ValueError):
            AjaxSnippet(browser, "/relative")


class TestHandlers:
    def test_rcb_submit_queues_and_cancels(self):
        browser, snippet = offline_snippet()
        form = Element("form", {"data-rcbref": "form:0", "onsubmit": "return rcbSubmit(this)"})
        field = Element("input", {"type": "text", "name": "q", "value": "laptop"})
        form.append_child(field)
        browser.page.document.body.append_child(form)
        outcome = browser.page.scripts.invoke_attribute("return rcbSubmit(this)", form)
        assert outcome is False
        assert snippet._outgoing == [SubmitAction("form:0", {"q": "laptop"})]

    def test_rcb_click_queues_and_cancels(self):
        browser, snippet = offline_snippet()
        anchor = Element("a", {"data-rcbref": "a:2", "href": "http://x.com/"})
        browser.page.document.body.append_child(anchor)
        outcome = browser.page.scripts.invoke_attribute("return rcbClick(this)", anchor)
        assert outcome is False
        assert snippet._outgoing == [ClickAction("a:2")]

    def test_rcb_input_uses_enclosing_form_ref(self):
        browser, snippet = offline_snippet()
        form = Element("form", {"data-rcbref": "form:1"})
        field = Element("input", {"type": "text", "name": "city", "value": "NY"})
        form.append_child(field)
        browser.page.document.body.append_child(form)
        browser.page.scripts.invoke_attribute("rcbInput(this)", field)
        (action,) = snippet._outgoing
        assert action.form_ref == "form:1"
        assert action.fields == {"city": "NY"}

    def test_rcb_input_outside_form_is_noop(self):
        browser, snippet = offline_snippet()
        field = Element("input", {"type": "text", "name": "orphan"})
        browser.page.document.body.append_child(field)
        browser.page.scripts.invoke_attribute("rcbInput(this)", field)
        assert snippet._outgoing == []

    def test_click_without_ref_is_noop(self):
        browser, snippet = offline_snippet()
        anchor = Element("a", {"href": "/x"})
        browser.page.document.body.append_child(anchor)
        browser.page.scripts.invoke_attribute("return rcbClick(this)", anchor)
        assert snippet._outgoing == []

    def test_report_helpers_queue(self):
        _browser, snippet = offline_snippet()
        snippet.report_mouse_move(3, 4)
        snippet.report_scroll(120)
        assert len(snippet._outgoing) == 2


class TestPresenceEndToEnd:
    def test_participants_receive_roster_updates(self):
        sim = Simulator()
        network = Network(sim)
        site = StaticSite("s.com")
        site.add_page("/", "<html><head><title>S</title></head><body>x</body></html>")
        OriginServer(network, "s.com", site.handle)
        hb = Browser(Host(network, "h-pc", LAN_PROFILE, segment="lan"), name="h")
        first_pb = Browser(Host(network, "p1-pc", LAN_PROFILE, segment="lan"), name="p1")
        second_pb = Browser(Host(network, "p2-pc", LAN_PROFILE, segment="lan"), name="p2")
        session = CoBrowsingSession(hb)
        session.agent.announce_presence = True

        def scenario():
            first = yield from session.join(first_pb, participant_id="p1")
            yield from session.host_navigate("http://s.com/")
            yield from session.wait_until_synced()
            second = yield from session.join(second_pb, participant_id="p2")
            yield sim.timeout(3)
            return first, second

        first, _second = sim.run_until_complete(sim.process(scenario()))
        presences = [
            a for a in first.stats.actions_received if isinstance(a, PresenceAction)
        ]
        assert presences, "first participant never heard about the second"
        assert presences[-1].participants == ["p1", "p2"]

    def test_presence_from_participant_is_ignored(self):
        """A hostile participant cannot spoof roster updates through the
        action channel — the agent drops non-appliable kinds."""
        sim = Simulator()
        network = Network(sim)
        site = StaticSite("s.com")
        site.add_page("/", "<html><head></head><body>x</body></html>")
        OriginServer(network, "s.com", site.handle)
        hb = Browser(Host(network, "h-pc", LAN_PROFILE, segment="lan"), name="h")
        pb = Browser(Host(network, "p-pc", LAN_PROFILE, segment="lan"), name="p")
        session = CoBrowsingSession(hb)

        def scenario():
            snippet = yield from session.join(pb, participant_id="p")
            yield from session.host_navigate("http://s.com/")
            yield from session.wait_until_synced()
            snippet.queue_action(PresenceAction(["fake", "roster"]))
            yield from snippet.flush()
            yield sim.timeout(1)

        sim.run_until_complete(sim.process(scenario()))
        assert session.agent.stats["action_errors"] == 1
        assert session.agent.roster() == ["p"]

    def test_stale_reference_does_not_crash_agent(self):
        sim = Simulator()
        network = Network(sim)
        site = StaticSite("s.com")
        site.add_page("/", "<html><head></head><body><a href='/x'>l</a></body></html>")
        OriginServer(network, "s.com", site.handle)
        hb = Browser(Host(network, "h-pc", LAN_PROFILE, segment="lan"), name="h")
        pb = Browser(Host(network, "p-pc", LAN_PROFILE, segment="lan"), name="p")
        session = CoBrowsingSession(hb)

        def scenario():
            snippet = yield from session.join(pb, participant_id="p")
            yield from session.host_navigate("http://s.com/")
            yield from session.wait_until_synced()
            snippet.queue_action(ClickAction("a:99"))  # stale/bogus
            yield from snippet.flush()
            yield sim.timeout(1)
            # Session still works.
            hb.mutate_document(lambda doc: doc.body.append_child(doc.create_element("div")))
            yield from session.wait_until_synced()

        sim.run_until_complete(sim.process(scenario()))
        assert session.agent.stats["action_errors"] == 1


class TestActionOnlyEnvelopes:
    def test_action_only_update_does_not_touch_dom(self):
        sim = Simulator()
        network = Network(sim)
        site = StaticSite("s.com")
        site.add_page("/", "<html><head><title>S</title></head><body>stable</body></html>")
        OriginServer(network, "s.com", site.handle)
        hb = Browser(Host(network, "h-pc", LAN_PROFILE, segment="lan"), name="h")
        first_pb = Browser(Host(network, "p1-pc", LAN_PROFILE, segment="lan"), name="p1")
        second_pb = Browser(Host(network, "p2-pc", LAN_PROFILE, segment="lan"), name="p2")
        session = CoBrowsingSession(hb)

        def scenario():
            first = yield from session.join(first_pb, participant_id="p1")
            second = yield from session.join(second_pb, participant_id="p2")
            yield from session.host_navigate("http://s.com/")
            yield from session.wait_until_synced()
            version_before = second_pb.page.version
            first.report_mouse_move(9, 9)
            yield from first.flush()
            yield sim.timeout(3)
            return second, version_before

        second, version_before = sim.run_until_complete(sim.process(scenario()))
        moves = [a for a in second.stats.actions_received if isinstance(a, MouseMoveAction)]
        assert moves
        # The mirror arrived via an action-only envelope: no DOM churn.
        assert second_pb.page.version == version_before
        assert second.stats.action_only_updates >= 1

    def test_received_actions_keep_only_the_newest(self):
        """``actions_received`` is bounded: after 2,000 mirrored pointer
        moves in two envelopes it holds the newest 1,024, in order."""
        _browser, snippet = offline_snippet()
        moves = [MouseMoveAction(x, 0) for x in range(2000)]
        snippet._deliver_actions(content(user_actions_json=encode_actions(moves[:1500])))
        snippet._deliver_actions(content(user_actions_json=encode_actions(moves[1500:])))
        kept = list(snippet.stats.actions_received)
        assert len(kept) == ACTIONS_RECEIVED_KEPT == 1024
        assert [action.x for action in kept] == list(range(2000 - 1024, 2000))


def hostile_full(doc_time, body_json=None, doc_time_text=None, actions_json="[]"):
    """A full envelope whose docBody carries ``body_json`` raw, so it can
    hold JSON the builder would never produce."""
    payload = body_json if body_json is not None else '{"attrs": [], "inner": "<p>ok</p>"}'
    return (
        "<?xml version='1.0' encoding='utf-8'?><newContent>"
        "<docTime>%s</docTime><docContent><docHead></docHead>"
        "<docBody><![CDATA[%s]]></docBody></docContent>"
        "<userActions><![CDATA[%s]]></userActions></newContent>"
        % (
            doc_time_text if doc_time_text is not None else doc_time,
            js_escape(payload),
            js_escape(actions_json),
        )
    )


NESTED_JSON = "[" * 100000 + "]" * 100000

#: name -> (envelope factory given the snippet's doc_time, the counter
#: that must count the reject, whether the document update still lands).
HOSTILE_BODIES = {
    "nested-full-payload": (
        lambda t: hostile_full(t + 500, body_json=NESTED_JSON),
        "empty_responses",
        False,
    ),
    "nested-delta-ops": (
        lambda t: build_envelope(
            NewContent(t + 500, base_time=t, delta_ops_json=NESTED_JSON)
        ),
        "delta_failures",
        False,
    ),
    "three-item-attribute": (
        lambda t: hostile_full(t + 500, body_json='{"attrs": [["a", "b", "c"]], "inner": "x"}'),
        "empty_responses",
        False,
    ),
    "non-string-inner": (
        lambda t: hostile_full(t + 500, body_json='{"attrs": [], "inner": 5}'),
        "empty_responses",
        False,
    ),
    "empty-attribute-name": (
        lambda t: hostile_full(t + 500, body_json='{"attrs": [["", "x"]], "inner": "x"}'),
        "empty_responses",
        False,
    ),
    "superscript-doc-time": (
        lambda t: hostile_full(t + 500, doc_time_text="²"),
        "empty_responses",
        False,
    ),
    "superscript-base-time": (
        lambda t: build_envelope(
            NewContent(t + 500, base_time=t, delta_ops_json="[]")
        ).replace("<baseTime>%d<" % t, "<baseTime>²<"),
        "empty_responses",
        False,
    ),
    # The envelope fuzzer's findings: a member that adopted docTime -1
    # was refused every later poll (the agent rejects a negative
    # timestamp), and a stamp past int()'s 4300 digits raised
    # ValueError out of the poll loop.
    "negative-doc-time": (
        lambda t: build_envelope(NewContent(t + 500, base_time=t, delta_ops_json="[]")).replace(
            "<docTime>%d<" % (t + 500), "<docTime>-1<"
        ),
        "empty_responses",
        False,
    ),
    "doc-time-4301-digits": (
        lambda t: hostile_full(t + 500, doc_time_text="9" * 4301),
        "empty_responses",
        False,
    ),
    "base-time-4301-digits": (
        lambda t: build_envelope(
            NewContent(t + 500, base_time=t, delta_ops_json="[]")
        ).replace("<baseTime>%d<" % t, "<baseTime>%s<" % ("9" * 4301)),
        "empty_responses",
        False,
    ),
    "unparseable-actions": (
        lambda t: hostile_full(t + 500, actions_json='[{"kind": "mousemove", "x": '),
        "actions_rejected",
        True,
    ),
    "non-object-actions": (
        lambda t: hostile_full(t + 500, actions_json="[1, [2]]"),
        "actions_rejected",
        True,
    ),
    "bad-coordinate-actions": (
        lambda t: hostile_full(t + 500, actions_json='[{"kind": "mousemove", "x": "left"}]'),
        "actions_rejected",
        True,
    ),
}


class TestHostileBodies:
    """A hostile poll response ends in a counted reject; the poll loop
    survives it and applies the next good envelope."""

    def build(self):
        sim = Simulator()
        network = Network(sim)
        site = StaticSite("s.com")
        site.add_page("/", "<html><head><title>S</title></head><body><p>v1</p></body></html>")
        OriginServer(network, "s.com", site.handle)
        host = Browser(Host(network, "h-pc", LAN_PROFILE, segment="lan"), name="h")
        guest = Browser(Host(network, "p-pc", LAN_PROFILE, segment="lan"), name="p")
        session = CoBrowsingSession(host, poll_interval=0.5, transport="poll")
        return sim, session, host, guest

    @pytest.mark.parametrize("name", sorted(HOSTILE_BODIES))
    def test_direct_feed_is_a_counted_reject(self, name):
        make_body, counter, applies = HOSTILE_BODIES[name]
        sim, session, host, guest = self.build()

        def scenario():
            snippet = yield from session.join(guest)
            yield from session.host_navigate("http://s.com/")
            yield from session.wait_until_synced()
            before = getattr(snippet.stats, counter)
            synced_at = snippet.last_doc_time
            yield from snippet._process_response(make_body(synced_at), sim.now)
            after = getattr(snippet.stats, counter)
            return snippet, before, after, synced_at

        snippet, before, after, synced_at = sim.run_until_complete(sim.process(scenario()))
        assert after == before + 1
        if counter == "delta_failures":
            assert snippet.last_doc_time == 0  # resync requested
        elif applies:
            assert snippet.last_doc_time == synced_at + 500
            assert guest.page.document.body.text_content == "ok"
        else:
            assert snippet.last_doc_time == synced_at
        session.close()

    @pytest.mark.parametrize("name", sorted(HOSTILE_BODIES))
    def test_poll_loop_survives_and_applies_the_next_envelope(self, name):
        make_body, counter, _applies = HOSTILE_BODIES[name]
        sim, session, host, guest = self.build()
        injected = []

        def scenario():
            snippet = yield from session.join(guest)
            yield from session.host_navigate("http://s.com/")
            yield from session.wait_until_synced()
            client = guest.client
            real_post = client.post

            def hostile_post(*args, **kwargs):
                response = yield from real_post(*args, **kwargs)
                if not injected:
                    injected.append(name)
                    body = make_body(snippet.last_doc_time).encode("utf-8")
                    return HttpResponse(200, body=body)
                return response

            client.post = hostile_post
            yield sim.timeout(2.0)  # the poll loop meets the hostile body
            host.mutate_document(lambda doc: doc.body.child_nodes[0].append_child(Text("!")))
            yield from session.wait_until_synced()
            return snippet

        snippet = sim.run_until_complete(sim.process(scenario()))
        assert injected == [name]
        assert getattr(snippet.stats, counter) >= 1
        assert snippet._poll_proc is not None and snippet._poll_proc.is_alive
        assert snippet.last_doc_time == session.agent.doc_time
        assert guest.page.document.body.text_content == "v1!"
        session.close()

    def test_poll_loop_applies_non_ascii_digit_reference_as_text(self):
        """``&#²;`` in a full envelope's body is literal text: the live
        poll loop applies it, stays up, and converges on the next edit."""
        sim, session, host, guest = self.build()
        injected = []

        def scenario():
            snippet = yield from session.join(guest)
            yield from session.host_navigate("http://s.com/")
            yield from session.wait_until_synced()
            client = guest.client
            real_post = client.post

            def hostile_post(*args, **kwargs):
                response = yield from real_post(*args, **kwargs)
                if not injected:
                    body = '{"attrs": [], "inner": "<p>&#²;</p>"}'
                    injected.append(snippet.last_doc_time + 500)
                    envelope = hostile_full(injected[0], body_json=body)
                    return HttpResponse(200, body=envelope.encode("utf-8"))
                return response

            client.post = hostile_post
            yield sim.timeout(2.0)  # the poll loop meets the envelope
            applied = (snippet.last_doc_time, guest.page.document.body.text_content)
            host.mutate_document(lambda doc: doc.body.child_nodes[0].append_child(Text("!")))
            yield from session.wait_until_synced()
            return snippet, applied

        snippet, applied = sim.run_until_complete(sim.process(scenario()))
        assert applied == (injected[0], "&#²;")
        assert snippet._poll_proc is not None and snippet._poll_proc.is_alive
        assert snippet.last_doc_time == session.agent.doc_time
        assert guest.page.document.body.text_content == "v1!"
        session.close()

    @pytest.mark.parametrize(
        "cookies_json",
        [
            "null",
            "5",
            NESTED_JSON,
            '[5, "x", [1]]',
            '[{"host": 5, "name": "a", "value": "b"}]',
            '[{"host": "s.com", "name": "a", "value": "b", "path": ["/"]}]',
            '[{"host": "s.com", "name": "", "value": "b"}]',
        ],
        ids=["null", "number", "nested", "non-objects", "int-host", "list-path", "empty-name"],
    )
    def test_hostile_cookie_records_are_skipped(self, cookies_json):
        browser, snippet = offline_snippet()
        snippet._apply_replicated_cookies(content(cookies_json=cookies_json))
        assert len(browser.cookie_jar) == 0
        good = '[{"host": "s.com", "name": "a", "value": "b", "path": "/"}]'
        snippet._apply_replicated_cookies(content(cookies_json=good))
        assert browser.cookie_jar.get("s.com", "a") == "b"


#: Characters that look like digits or letters to ``str`` methods but not
#: to ``int`` or ASCII case folding, a lone surrogate, and markup.
ENVELOPE_ALPHABET = "aA0 <>&'\"]%²١İſ\ud800"
FUZZ_BODY = "<p>v1</p><ul><li>a</li><li>b</li></ul><!--c--><p>tail</p>"
OP_KINDS = ["text", "comment", "attrs", "replace", "insert", "remove", "top", "drop", "nope"]
OP_KEYS = ["op", "sec", "path", "data", "attrs", "node"]
#: docTime / baseTime texts: "+500" and "=" stand for the member's synced
#: doc_time plus 500 ms and the synced doc_time itself.
DOC_TIMES = ["+500", "²", "١", "", "x", "-1", "9" * 4301, "+500²"]
BASE_TIMES = ["=", "0", "-1", "²", "9" * 4301, None]


def fuzz_text():
    return st.text(alphabet=ENVELOPE_ALPHABET, max_size=6)


def any_json():
    """JSON text of any type (strings raw, unusual characters and lone
    surrogates included), nested a little or far past the decoder's
    recursion limit."""
    scalars = st.one_of(
        st.none(), st.booleans(), st.integers(), st.floats(), fuzz_text()
    ).map(lambda value: json.dumps(value, ensure_ascii=False))
    deep = st.sampled_from([30, 900, 100000]).map(lambda n: "[" * n + "]" * n)
    return scalars | deep | st.recursive(
        scalars,
        lambda inner: st.one_of(
            st.lists(inner, max_size=3).map(lambda items: "[%s]" % ",".join(items)),
            st.dictionaries(st.sampled_from(OP_KEYS), inner, max_size=3).map(
                lambda d: "{%s}" % ",".join(json.dumps(k) + ":" + v for k, v in d.items())
            ),
        ),
        max_leaves=4,
    )


def well_typed_op_field(key):
    text = fuzz_text()
    node = st.fixed_dictionaries(
        {
            "t": st.sampled_from(["text", "comment", "element", "x"]),
            "data": text,
            "html": st.sampled_from(
                ["<p>x</p>", "<b>", "", "<p>a</p><p>b</p>", "<img src='/i.png'>", "²"]
            ),
        }
    )
    return {
        "op": st.sampled_from(OP_KINDS),
        "sec": st.sampled_from(["head", "body", "frameset", "noframes", "nav"]),
        "path": st.lists(st.integers(0, 3), max_size=3),
        "data": text,
        "attrs": st.lists(st.lists(text, min_size=2, max_size=2), max_size=2),
        "node": node,
    }[key].map(lambda value: json.dumps(value, ensure_ascii=False))


def delta_ops():
    """A list of ops, each key well-typed, any JSON or absent; a list
    with stray values among the ops; or any JSON text."""
    fields = {
        key: st.one_of(well_typed_op_field(key), any_json(), st.none()) for key in OP_KEYS
    }
    op = st.fixed_dictionaries(fields).map(
        lambda d: "{%s}" % ",".join(json.dumps(k) + ":" + v for k, v in d.items() if v is not None)
    )
    return st.one_of(
        st.lists(op, max_size=3).map(lambda items: "[%s]" % ",".join(items)),
        st.lists(op | any_json(), max_size=3).map(lambda items: "[%s]" % ",".join(items)),
        any_json(),
    )


def user_actions():
    return st.one_of(
        st.just('[{"kind": "mousemove", "x": 3, "y": 4}]'),
        st.just("[]"),
        any_json(),
    )


def envelopes():
    """The parts of one fuzzed envelope; :func:`assemble` writes it once
    the member's synced doc_time is known."""
    return st.fixed_dictionaries(
        {
            "doc_time": st.sampled_from(DOC_TIMES) | st.none(),
            "base_time": st.sampled_from(BASE_TIMES),
            "ops": delta_ops() | st.none(),
            "actions": user_actions() | st.none(),
            "escaped": st.booleans(),
        }
    )


def assemble(parts, synced):
    def stamp(text):
        return {"+500": str(synced + 500), "=": str(synced)}.get(
            text, text.replace("+500", str(synced + 500))
        )

    def cdata(payload):
        return "<![CDATA[%s]]>" % (js_escape(payload) if parts["escaped"] else payload)

    out = ["<?xml version='1.0' encoding='utf-8'?><newContent>"]
    if parts["doc_time"] is not None:
        out.append("<docTime>%s</docTime>" % stamp(parts["doc_time"]))
    if parts["base_time"] is not None:
        out.append("<baseTime>%s</baseTime>" % stamp(parts["base_time"]))
    if parts["ops"] is not None:
        out.append("<delta>%s</delta>" % cdata(parts["ops"]))
    if parts["actions"] is not None:
        out.append("<userActions>%s</userActions>" % cdata(parts["actions"]))
    out.append("</newContent>")
    return "".join(out)


#: The counters that say how one envelope ended.
OUTCOME_COUNTERS = (
    "content_updates",
    "action_only_updates",
    "empty_responses",
    "delta_failures",
    "actions_rejected",
)


@settings(max_examples=60, deadline=None)
@given(envelopes())
def test_fuzzed_envelopes_end_in_an_apply_or_a_counted_reject(parts):
    """Whatever envelope a joined member receives, directly or through
    its live poll loop, it ends in a clean apply or a reject counted on
    ``empty_responses``, ``delta_failures`` or ``actions_rejected``; the
    loop stays up, and the next host edit converges the member."""
    sim = Simulator()
    network = Network(sim)
    site = StaticSite("s.com")
    site.add_page("/", "<html><head><title>S</title></head><body>%s</body></html>" % FUZZ_BODY)
    OriginServer(network, "s.com", site.handle)
    host = Browser(Host(network, "h-pc", LAN_PROFILE, segment="lan"), name="h")
    guest = Browser(Host(network, "p-pc", LAN_PROFILE, segment="lan"), name="p")
    session = CoBrowsingSession(host, poll_interval=0.5, transport="poll")
    injected = []

    def scenario():
        snippet = yield from session.join(guest)
        yield from session.host_navigate("http://s.com/")
        yield from session.wait_until_synced()
        body = assemble(parts, snippet.last_doc_time)
        if "[" * 500 in body:
            gc.collect()  # no finalizer may run at the recursion limit
        before = {key: getattr(snippet.stats, key) for key in OUTCOME_COUNTERS}
        yield from snippet._process_response(body, sim.now)
        moved = {key: getattr(snippet.stats, key) - before[key] for key in OUTCOME_COUNTERS}
        client = guest.client
        real_post = client.post

        def hostile_post(*args, **kwargs):
            response = yield from real_post(*args, **kwargs)
            if not injected:
                injected.append(True)
                body = assemble(parts, snippet.last_doc_time)
                return HttpResponse(200, body=body.encode("utf-8", "surrogatepass"))
            return response

        client.post = hostile_post
        yield sim.timeout(2.0)  # the poll loop meets the same envelope
        host.mutate_document(lambda doc: doc.body.child_nodes[0].append_child(Text("!")))
        yield from session.wait_until_synced(timeout=10.0)
        return snippet, moved

    snippet, moved = sim.run_until_complete(sim.process(scenario()))
    applied = moved["content_updates"] + moved["action_only_updates"]
    rejected = moved["empty_responses"] + moved["delta_failures"]
    assert (applied, rejected) in ((1, 0), (0, 1)), moved
    # Actions are read from every envelope that parses, whatever its
    # document section did.
    assert moved["actions_rejected"] <= 1 - moved["empty_responses"]
    assert injected and snippet._poll_proc is not None and snippet._poll_proc.is_alive
    assert snippet.last_doc_time == session.agent.doc_time
    assert guest.page.document.body.text_content == host.page.document.body.text_content
    session.close()

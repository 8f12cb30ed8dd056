"""Byte-conservation invariant: attributed buckets sum to shipped bytes.

Every cost-attributed response must decompose exactly: the labeled
payload buckets (head / body / delta / userActions / docCookies) plus
the framing residual equal the bytes actually written to the
connection — for full, delta, long-poll, and push envelopes, and for
empty and action-only responses.  And holding the cost books must be
free on the wire: a session with attribution attached ships
byte-identical traffic to one without.
"""

import json
import string

from hypothesis import given, settings, strategies as st

from repro.browser import Browser
from repro.core import CoBrowsingSession, MouseMoveAction, RCBAgent, encode_actions
from repro.core.xmlformat import js_escape
from repro.http import HttpRequest
from repro.html import Text
from repro.net import LAN_PROFILE, Host, Network
from repro.net.socket import Connection
from repro.obs import PAYLOAD_BUCKETS, ByteAttribution
from repro.sim import Simulator
from repro.webserver import OriginServer, StaticSite

PAGE = (
    "<html><head><title>Conservation</title></head><body>"
    + "".join("<p id='p%d'>paragraph %d body</p>" % (i, i) for i in range(6))
    + "</body></html>"
)

ALL_BUCKETS = set(PAYLOAD_BUCKETS) | {"framing"}


class RecordingAttribution(ByteAttribution):
    """Keeps every finalized record so tests can audit each response."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.finalized = []

    def record(self, record):
        self.finalized.append(record)
        super().record(record)


def build_agent(attribution=None):
    sim = Simulator()
    network = Network(sim)
    site = StaticSite("site.com")
    site.add_page("/", PAGE)
    OriginServer(network, "site.com", site.handle)
    host_pc = Host(network, "host-pc", LAN_PROFILE, segment="campus")
    browser = Browser(host_pc, name="host")
    agent = RCBAgent(attribution=attribution)
    agent.install(browser)
    sim.run_until_complete(sim.process(browser.navigate("http://site.com/")))
    return browser, agent


def edit_paragraph(browser, index, text):
    def mutate(document):
        target = document.get_element_by_id("p%d" % index)
        target.remove_all_children()
        target.append_child(Text(text if text else "x"))

    browser.mutate_document(mutate)


def serve_and_conserve(agent, member, their_time, actions, kind_hint=None):
    """Serve one poll response and assert the conservation invariant."""
    sink = agent.attribution
    before = len(sink.finalized)
    body, is_delta = agent._serve_body(member, their_time, actions)
    kind = kind_hint or ("delta" if is_delta else "full")
    response = agent._respond(body, participant=member, kind=kind)
    assert response.attribution is not None
    shipped = len(response.to_bytes())
    response.attribution.finalize(0.0, shipped)
    assert len(sink.finalized) == before + 1
    record = sink.finalized[-1]
    assert sum(record.buckets.values()) == shipped == record.shipped
    assert set(record.buckets) <= ALL_BUCKETS
    assert record.buckets.get("framing", 0) >= 0
    return record


class TestFixedEnvelopes:
    def test_full_envelope_decomposes(self):
        browser, agent = build_agent(attribution=RecordingAttribution())
        record = serve_and_conserve(agent, "m1", 0, [])
        assert record.kind == "full"
        assert record.buckets["head"] > 0
        assert record.buckets["body"] > 0
        assert record.buckets["framing"] > 0

    def test_delta_envelope_decomposes(self):
        browser, agent = build_agent(attribution=RecordingAttribution())
        base = agent.doc_time
        agent._serve_body("m1", 0, [])  # warm the snapshot ring
        edit_paragraph(browser, 0, "changed once")
        record = serve_and_conserve(agent, "m1", base, [])
        assert record.kind == "delta"
        assert record.buckets["delta"] > 0
        assert "head" not in record.buckets and "body" not in record.buckets

    def test_user_actions_bucket_matches_the_shipped_difference(self):
        """Serving the same state with vs. without actions must differ
        on the wire by exactly the userActions bucket growth — the
        splice is the only thing that changed."""
        browser, agent = build_agent(attribution=RecordingAttribution())
        bare = serve_and_conserve(agent, "m1", 0, [])
        with_actions = serve_and_conserve(
            agent, "m2", 0, [MouseMoveAction(10, 20), MouseMoveAction(30, 40)]
        )
        grew = with_actions.buckets["userActions"] - bare.buckets["userActions"]
        assert grew > 0
        assert with_actions.shipped - bare.shipped == grew
        assert with_actions.buckets["head"] == bare.buckets["head"]
        assert with_actions.buckets["body"] == bare.buckets["body"]

    def test_empty_and_action_only_envelopes(self):
        """An empty poll is all framing; an action-only poll labels only
        its actions payload, like every other envelope kind."""
        browser, agent = build_agent(attribution=RecordingAttribution())

        def poll():
            body = json.dumps(
                {"participant": "m1", "timestamp": agent.doc_time, "transport": "poll"}
            ).encode()
            request = HttpRequest("POST", "/poll", None, body)
            response = browser.sim.run_until_complete(
                browser.sim.process(agent._poll_response(request, "m1"))
            )
            shipped = len(response.to_bytes())
            return response.attribution.finalize(0.0, shipped), shipped

        record, shipped = poll()
        assert record.kind == "empty"
        assert record.buckets == {"framing": shipped}

        action = MouseMoveAction(3, 4)
        agent.broadcast_action(action)
        record, shipped = poll()
        assert record.kind == "actions"
        actions_bytes = len(js_escape(encode_actions([action])))
        assert record.buckets == {
            "head": 0,
            "body": 0,
            "userActions": actions_bytes,
            "framing": shipped - actions_bytes,
        }
        assert sum(record.buckets.values()) == shipped == record.shipped

    def test_push_merge_preserves_bucket_sums(self):
        """``WirePlan.extend_plan`` (the push-stream envelope merge)
        must add bucket dicts the way it adds buffers."""
        browser, agent = build_agent(attribution=RecordingAttribution())
        base = agent.doc_time
        first, _ = agent._serve_body("m1", 0, [])
        edit_paragraph(browser, 0, "pushed update")
        second, _ = agent._serve_body("m1", base, [])
        merged_buckets = dict(first.buckets)
        for name, size in second.buckets.items():
            merged_buckets[name] = merged_buckets.get(name, 0) + size
        total_before = first.nbytes + second.nbytes
        first.extend_plan(second)
        assert first.buckets == merged_buckets
        assert first.nbytes == total_before
        record = agent.attribution.begin("host", "m1", "push", 0, first.buckets)
        record.finalize(0.0, first.nbytes + 90)  # + any HTTP head
        assert sum(record.buckets.values()) == first.nbytes + 90


class TestDisabledByDefaultIsFree:
    def test_attributed_and_dark_responses_are_byte_identical(self):
        browser_a, agent_a = build_agent(attribution=RecordingAttribution())
        browser_b, agent_b = build_agent(attribution=None)
        base = agent_a.doc_time
        for browser in (browser_a, browser_b):
            edit_paragraph(browser, 1, "same everywhere")
        for member, their_time in (("m1", 0), ("m2", base)):
            body_a, delta_a = agent_a._serve_body(member, their_time, [])
            body_b, delta_b = agent_b._serve_body(member, their_time, [])
            assert delta_a == delta_b
            response_a = agent_a._respond(body_a, participant=member)
            response_b = agent_b._respond(body_b, participant=member)
            assert response_a.to_bytes() == response_b.to_bytes()
            assert response_a.attribution is not None
            assert response_b.attribution is None


class TestSessionConservation:
    """End-to-end: every byte ``Connection.sendv`` ships for attributed
    responses is accounted for, across all three transports."""

    def run_session(self, transport, monkeypatch):
        sendv_totals = []
        original_sendv = Connection.sendv

        def counting_sendv(self, buffers):
            sendv_totals.append(sum(len(buffer) for buffer in buffers))
            return original_sendv(self, buffers)

        monkeypatch.setattr(Connection, "sendv", counting_sendv)

        sim = Simulator()
        network = Network(sim)
        site = StaticSite("site.com")
        site.add_page("/", PAGE)
        OriginServer(network, "site.com", site.handle)
        host_pc = Host(network, "host-pc", LAN_PROFILE, segment="campus")
        host = Browser(host_pc, name="host")
        attribution = RecordingAttribution()
        session = CoBrowsingSession(
            host, poll_interval=0.2, transport=transport, attribution=attribution
        )
        guests = [
            Browser(
                Host(network, "pc-%d" % i, LAN_PROFILE, segment="campus"),
                name="guest-%d" % i,
            )
            for i in range(3)
        ]

        def scenario():
            for guest in guests:
                yield from session.join(guest)
            yield from session.host_navigate("http://site.com/")
            yield from session.wait_until_synced()
            for tick in range(4):
                edit_paragraph(host, tick % 6, "tick %d over %s" % (tick, transport))
                yield sim.timeout(0.5)
            yield sim.timeout(1.0)

        sim.run_until_complete(sim.process(scenario()))
        session.close()
        return attribution, sendv_totals

    def check(self, attribution, sendv_totals):
        assert attribution.finalized, "the run must attribute responses"
        for record in attribution.finalized:
            assert sum(record.buckets.values()) == record.shipped
            assert set(record.buckets) <= ALL_BUCKETS
        # Every poll response, empty and action-only included, is a
        # scatter-gather send: the independent per-send byte counts
        # match the records one for one.
        planned = sorted(record.shipped for record in attribution.finalized)
        assert sorted(sendv_totals) == planned
        assert attribution.total_bytes == sum(
            record.shipped for record in attribution.finalized
        )

    def test_poll_transport_conserves(self, monkeypatch):
        self.check(*self.run_session("poll", monkeypatch))

    def test_longpoll_transport_conserves(self, monkeypatch):
        attribution, sendv_totals = self.run_session("longpoll", monkeypatch)
        self.check(attribution, sendv_totals)

    def test_push_transport_conserves(self, monkeypatch):
        attribution, sendv_totals = self.run_session("push", monkeypatch)
        self.check(attribution, sendv_totals)
        assert "push" in attribution.per_kind


edits = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=5),
        st.text(alphabet=string.ascii_letters + string.digits + " .,!-", max_size=24),
    ),
    min_size=1,
    max_size=3,
)
polls = st.lists(
    st.tuples(st.integers(min_value=0, max_value=4), st.booleans()),
    min_size=1,
    max_size=5,
)


@settings(max_examples=20, deadline=None)
@given(edit_seq=edits, poll_mix=polls)
def test_conservation_property(edit_seq, poll_mix):
    """For random edit histories and member laggards, every attributed
    response conserves: bucket sum == serialized wire size."""
    browser, agent = build_agent(attribution=RecordingAttribution())
    history = [agent.doc_time]
    for index, text in edit_seq:
        agent._serve_body("warm", 0, [])
        edit_paragraph(browser, index, text)
        history.append(agent.doc_time)
    for slot, (behind, with_actions) in enumerate(poll_mix):
        their_time = 0 if behind >= len(history) else history[-1 - behind]
        actions = [MouseMoveAction(slot, behind)] if with_actions else []
        serve_and_conserve(agent, "m%d" % slot, their_time, actions)

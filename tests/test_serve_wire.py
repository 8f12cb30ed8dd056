"""Zero-copy wire path: WirePlan mechanics and the one serve pipeline.

Every poll body is a wire plan.  Content and action-only envelopes come
from a broadcast plan: shared pre-encoded template buffers plus a
per-member userActions splice; an empty answer is an empty plan.  Two
oracles pin the bytes the agent ships:

* **Golden fixtures** (``fixtures/serve_wire_golden.json``) hold the
  exact responses, fallback stats and fallback events of the fixed cases
  in :data:`GOLDEN_CASES`.  They were captured while the per-member
  string serve path still existed, and checked equal to it byte for byte;
  the empty and action-only cases while a string builder still wrote
  those responses.
* **The reference builder** (:func:`repro.core.xmlformat.build_envelope`)
  must reproduce every served envelope from its parsed content, its
  userActions must decode to the member's queued actions, and a delta
  ships only when strictly shorter than the full envelope carrying the
  same actions (``tests/serve_oracle.py``).

The random sweep over the same oracle lives in test_properties_wire.py.
After an intended wire-format change, rewrite the fixtures with::

    PYTHONPATH=src python -m tests.test_serve_wire
"""

import json
import os
from collections import namedtuple

from repro.browser import Browser
from repro.core import FormFillAction, MouseMoveAction, RCBAgent
from repro.core.security import HMAC_PARAM, sign_request_target
from repro.core.serveplan import BroadcastPlan, PlanFallback
from repro.core.xmlformat import (
    EMPTY_ACTIONS_WIRE,
    NewContent,
    WireTemplate,
    build_envelope,
    parse_envelope,
    wire_delta_template,
)
from repro.html import Text
from repro.http import Headers, HttpClient, HttpRequest, HttpResponse, WirePlan
from repro.net import LAN_PROFILE, Host, Network
from repro.obs import DELTA_FALLBACK, EventBus
from repro.sim import Simulator
from repro.webserver import OriginServer, StaticSite
from tests.serve_oracle import assert_reference_envelope

PAGE = (
    "<html><head><title>Wire test</title><meta charset='utf-8'></head>"
    "<body><h2 id='headline'>News</h2>"
    "<img src='/logo.png'>"
    + "".join("<p id='p%d'>paragraph %d body text</p>" % (i, i) for i in range(10))
    + "</body></html>"
)

GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "fixtures", "serve_wire_golden.json"
)


def build_agent(**agent_kwargs):
    sim = Simulator()
    network = Network(sim)
    site = StaticSite("site.com")
    site.add_page("/", PAGE)
    site.add("/logo.png", "image/png", b"\x89PNG" + b"l" * 800)
    OriginServer(network, "site.com", site.handle)
    host_pc = Host(network, "host-pc", LAN_PROFILE, segment="campus")
    browser = Browser(host_pc, name="host")
    agent = RCBAgent(**agent_kwargs)
    agent.install(browser)
    sim.run_until_complete(sim.process(browser.navigate("http://site.com/")))
    return sim, browser, agent


def edit_headline(browser, text):
    def mutate(document):
        target = document.get_element_by_id("headline")
        target.remove_all_children()
        target.append_child(Text(text))

    browser.mutate_document(mutate)


def rewrite_everything(document):
    body = document.body
    for child in list(body.children):
        body.remove_child(child)
    for i in range(40):
        body.append_child(document.create_element("div", id="new-%d" % i))


def body_bytes(agent, participant, their_time, actions):
    """Serve one poll body; ``(response bytes, is_delta, response)``."""
    body, is_delta = agent._serve_body(participant, their_time, actions)
    response = agent._respond(body)
    return response.to_bytes(), is_delta, response


#: One logged response: the whole HTTP message (``wire``) or, for polls
#: that crossed the simulated network, just its body; plus what the
#: oracle needs to check the envelope body.
Served = namedtuple("Served", "label is_delta wire body actions full_body")


class Playback:
    """One fixed case: a host agent on :data:`PAGE` plus a log of every
    response it served and every delta fallback it emitted."""

    def __init__(self, **agent_kwargs):
        self.events = EventBus()
        self.sim, self.browser, self.agent = build_agent(
            events=self.events, **agent_kwargs
        )
        self.fallbacks = []
        self.events.subscribe(
            lambda e: self.fallbacks.append(e) if e.type == DELTA_FALLBACK else None
        )
        self.served = []
        #: Full envelopes by doc_time, for deltas inside push responses.
        self.full_bodies = {}

    def serve(self, member, their_time, actions=()):
        """Serve one poll body directly; log the whole HTTP response."""
        actions = list(actions)
        wire, is_delta, response = body_bytes(self.agent, member, their_time, actions)
        full_body = self._full_body(member) if is_delta else None
        self.served.append(Served(member, is_delta, wire, response.body, actions, full_body))
        return response, is_delta

    def log_body(self, member, label, body):
        """Log a body that crossed the simulated network."""
        is_delta = parse_envelope(body.decode("ascii")).is_delta
        full_body = self._full_body(member) if is_delta else None
        self.served.append(Served(label, is_delta, body, body, [], full_body))

    def start_poll(self, member, their_time, transport="poll"):
        """Send one poll to the agent's poll endpoint, signed when the
        session has a secret; returns the sim process answering it."""
        body = poll_payload(member, their_time, transport)
        target = "/poll"
        if self.agent.secret is not None:
            target = sign_request_target(self.agent.secret, "POST", target, body)
        request = HttpRequest("POST", target, None, body)
        return self.sim.process(self.agent._poll_response(request, member))

    def log_poll(self, label, process, actions=()):
        """Run a poll process to its end and log the whole HTTP response,
        which must carry exactly ``actions``.  Every poll response, empty
        ones included, must leave as a wire plan."""
        response = self.sim.run_until_complete(process)
        assert response.status == 200
        assert response.wire_plan is not None, "%s: not a wire plan" % label
        body = response.body
        is_delta = bool(body) and parse_envelope(envelopes_of(body)[-1].decode("ascii")).is_delta
        self.served.append(
            Served(label, is_delta, response.to_bytes(), body, list(actions), None)
        )
        return response

    def poll(self, member, their_time, label, actions=(), transport="poll"):
        """Answer one poll through the poll endpoint and log it."""
        return self.log_poll(label, self.start_poll(member, their_time, transport), actions)

    def _full_body(self, member):
        """The member's full envelope at the current document state."""
        full, _ = self.agent._serve_body(member, 0, [])
        return self.agent._respond(full).body

    def note_full_body(self, member):
        """Keep the member's full envelope of the current state, which
        the oracle needs for a delta this state ships inside a push
        response."""
        self.full_bodies[self.agent.doc_time] = self._full_body(member)

    def client(self, name):
        network = self.browser.host.network
        return HttpClient(Host(network, name, LAN_PROFILE, segment="campus"))

    def record(self):
        """The JSON-able record the golden fixture stores."""
        return {
            "served": [
                {"label": s.label, "is_delta": s.is_delta, "wire": s.wire.decode("ascii")}
                for s in self.served
            ],
            "stats": {
                key: self.agent.stats[key]
                for key in ("delta_fallbacks", "delta_bytes_saved")
            },
            "fallbacks": [
                [e.data["participant"], e.data["reason"], e.data["base_time"]]
                for e in self.fallbacks
            ],
        }


def envelopes_of(body):
    """A served body split into its envelopes: a push response ships
    several back to back, each opening with the XML declaration."""
    return [b"<?xml" + chunk for chunk in body.split(b"<?xml") if chunk]


def poll_payload(member, their_time, transport=None):
    payload = {"participant": member, "timestamp": their_time, "actions": []}
    if transport is not None:
        payload["transport"] = transport
    return json.dumps(payload).encode()


GOLDEN_CASES = {}


def golden(case):
    GOLDEN_CASES[case.__name__] = case
    return case


@golden
def full_envelope_no_actions():
    play = Playback()
    play.serve("alice", 0)
    return play


@golden
def full_envelope_and_actions():
    play = Playback()
    play.serve("alice", 0, [MouseMoveAction(5, 9), MouseMoveAction(1, 2)])
    return play


@golden
def delta_envelope_after_edit():
    play = Playback()
    base = play.agent.doc_time
    # Serve once at the base state so it enters the snapshot ring.
    play.serve("alice", 0)
    edit_headline(play.browser, "updated")
    play.serve("alice", base, [MouseMoveAction(3, 4)])
    return play


@golden
def broadcast_shared_actions():
    play = Playback()
    base = play.agent.doc_time
    play.serve("m1", 0)
    edit_headline(play.browser, "tick")
    shared = [MouseMoveAction(7, 7)]
    for member in ("m0", "m1", "m2", "m3"):
        play.serve(member, 0 if member in ("m0", "m2") else base, shared)
    return play


@golden
def no_snapshot_fallback():
    play = Playback()
    # their_time=999 was never snapshotted: full envelope, and one
    # DELTA_FALLBACK per serve.
    for member in ("m0", "m1"):
        play.serve(member, 999)
    return play


@golden
def oversize_fallback():
    play = Playback()
    base = play.agent.doc_time
    play.serve("alice", 0)
    play.browser.mutate_document(rewrite_everything)
    play.serve("alice", base)
    return play


@golden
def cookie_replication():
    play = Playback(replicate_cookies=True)
    play.browser.cookie_jar.set("site.com", "sid", "s3cr3t")
    edit_headline(play.browser, "with-cookies")
    play.serve("alice", 0)
    return play


@golden
def hmac_signed_object_urls():
    play = Playback(secret="golden-secret")
    base = play.agent.doc_time
    play.serve("alice", 0, [FormFillAction("f", {"q": "signed"})])
    edit_headline(play.browser, "signed edit")
    play.serve("alice", base)
    return play


@golden
def poll_sequence():
    play = Playback()
    members = ["m%d" % i for i in range(6)]
    acked = {m: 0 for m in members}
    for tick in range(4):
        edit_headline(play.browser, "tick-%d" % tick)
        shared = [MouseMoveAction(tick, tick)]
        for index, member in enumerate(members):
            play.serve(member, acked[member], shared if index % 2 == 0 else [])
            if index % 3 != 2:  # stragglers never ack
                acked[member] = play.agent.doc_time
    return play


@golden
def poll_over_http():
    play = Playback()
    edit_headline(play.browser, "wire-check")
    client = play.client("part-pc")

    def poll():
        return (
            yield from client.post(
                "http://host-pc:3000/poll", body=poll_payload("alice", 0)
            )
        )

    response = play.sim.run_until_complete(play.sim.process(poll()))
    assert response.status == 200
    play.log_body("alice", "alice over http", response.body)
    return play


@golden
def released_hold():
    """Two long polls parked at the base state, released by one edit."""
    play = Playback(transport="longpoll")
    base = play.agent.doc_time
    # Warm the snapshot ring at the base state so the release is a delta.
    play.serve("m0", 0)
    clients = {member: play.client("pc-" + member) for member in ("m0", "m1")}
    done = {}

    def member_poll(member):
        done[member] = yield from clients[member].post(
            "http://host-pc:3000/poll", body=poll_payload(member, base, "longpoll")
        )

    for member in clients:
        play.sim.process(member_poll(member))
    play.sim.run(until=play.sim.now + 0.5)
    assert not done, "nothing to send: both polls must be parked"
    edit_headline(play.browser, "identity probe")
    play.sim.run(until=play.sim.now + 2.0)
    for member in ("m0", "m1"):
        play.log_body(member, member + " released", done[member].body)
    return play


def broadcast_then_polls(pointer, **agent_kwargs):
    """A host broadcast with no document change: the next poll carries
    only the actions, the one after it nothing."""
    play = Playback(transport="poll", **agent_kwargs)
    play.poll("alice", 0, "alice joins")
    base = play.agent.doc_time
    play.agent.broadcast_action(pointer)
    play.poll("alice", base, "alice action-only", [pointer])
    play.poll("alice", base, "alice empty")
    return play


@golden
def action_only_then_empty():
    return broadcast_then_polls(MouseMoveAction(5, 9))


@golden
def hmac_action_only_then_empty():
    return broadcast_then_polls(MouseMoveAction(8, 1), secret="golden-secret")


def held_then_broadcast(transport, pointer):
    """A poll parked at the current state and released by a host
    broadcast with no document change: an action-only response."""
    play = Playback(transport=transport)
    play.poll("m0", 0, "m0 joins", transport=transport)
    base = play.agent.doc_time
    held = play.start_poll("m0", base, transport)
    play.sim.run(until=play.sim.now + 0.5)
    assert not held.triggered, "nothing to send: the poll must be parked"
    play.agent.broadcast_action(pointer)
    play.log_poll("m0 released by broadcast", held, [pointer])
    assert play.agent.doc_time == base
    return play


@golden
def hold_released_by_broadcast():
    return held_then_broadcast("longpoll", MouseMoveAction(2, 4))


@golden
def push_released_by_broadcast():
    return held_then_broadcast("push", MouseMoveAction(6, 3))


@golden
def push_stream_of_three_edits():
    """A push poll parked at the base state, released by an edit, with
    two more edits inside its linger: one response of three envelopes,
    each a delta from the one before it."""
    play = Playback(transport="push")
    base = play.agent.doc_time
    # Warm the snapshot ring at the base state so the release is a delta.
    play.serve("m0", 0)
    held = play.start_poll("m0", base, "push")
    play.sim.run(until=play.sim.now + 0.5)
    assert not held.triggered, "nothing to send: the poll must be parked"
    for index in range(3):
        edit_headline(play.browser, "burst %d" % index)
        play.note_full_body("m0")
        play.sim.run(until=play.sim.now + 0.01)
    response = play.log_poll("m0 streamed", held)
    assert len(envelopes_of(response.body)) == 3
    return play


@golden
def push_hold_times_out_empty():
    """A push poll parked with nothing happening until its hold timeout:
    an empty 200."""
    play = Playback(transport="push")
    play.poll("m0", 0, "m0 joins", transport="push")
    held = play.start_poll("m0", play.agent.doc_time, "push")
    play.log_poll("m0 hold timed out", held)
    return play


def play_golden(name):
    """Play one fixed case; assert it matches its golden record and that
    every served envelope passes the reference-builder oracle."""
    with open(GOLDEN_PATH) as handle:
        expected = json.load(handle)["cases"][name]
    play = GOLDEN_CASES[name]()
    actual = play.record()
    assert len(actual["served"]) == len(expected["served"])
    for index, (got, want) in enumerate(zip(actual["served"], expected["served"])):
        assert got == want, "%s: serve %d (%s) diverged" % (name, index, want["label"])
    assert actual["stats"] == expected["stats"]
    assert actual["fallbacks"] == expected["fallbacks"]
    for served in play.served:
        if not served.body:
            # An empty poll: nothing was due, and the golden wire above
            # pins its headers.
            assert not served.actions
            continue
        # Each envelope of a push response passes on its own; the
        # member's queued actions ride the first.
        actions = served.actions
        for body in envelopes_of(served.body):
            full_body = served.full_body
            if full_body is None:
                doc_time = parse_envelope(body.decode("ascii")).doc_time
                full_body = play.full_bodies.get(doc_time)
            assert_reference_envelope(body, actions, full_body)
            actions = []
    return play


def write_golden():
    """Rewrite the fixture from the current serve pipeline."""
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(
            {
                "comment": (
                    "Served responses, delta-fallback stats and fallback events "
                    "of the fixed cases in tests/test_serve_wire.py."
                ),
                "cases": {name: case().record() for name, case in GOLDEN_CASES.items()},
            },
            handle,
            indent=1,
            sort_keys=True,
        )
        handle.write("\n")


class TestWirePlan:
    def test_shared_and_owned_accounting(self):
        plan = WirePlan()
        plan.append_shared(b"shared-segment")
        plan.append_owned(b"owned")
        assert plan.zero_copy_bytes == len(b"shared-segment")
        assert plan.copied_bytes == len(b"owned")
        assert len(plan) == plan.zero_copy_bytes + plan.copied_bytes
        assert plan.to_bytes() == b"shared-segmentowned"

    def test_extend_shared_uses_premeasured_length(self):
        plan = WirePlan()
        plan.extend_shared([b"ab", b"cde"], 5)
        assert plan.nbytes == 5
        assert plan.to_bytes() == b"abcde"

    def test_to_bytes_memoized(self):
        plan = WirePlan()
        plan.append_owned(b"x" * 64)
        assert plan.to_bytes() is plan.to_bytes()

    def test_memoryview_buffers_join(self):
        data = b"0123456789"
        plan = WirePlan()
        plan.append_shared(memoryview(data)[2:5])
        assert plan.to_bytes() == b"234"


class TestHttpResponseWirePlan:
    def make_plan(self, payload=b"<xml>body</xml>"):
        plan = WirePlan()
        plan.append_shared(payload)
        return plan

    def test_wire_buffers_share_plan_segments(self):
        payload = b"<xml>" + b"z" * 100 + b"</xml>"
        plan = self.make_plan(payload)
        response = HttpResponse(200, Headers(), plan)
        buffers = response.wire_buffers()
        # The payload segment rides along by reference, not as a copy,
        # after the (also unjoined) status line + header lines.
        assert any(part is payload for part in buffers)
        assert b"".join(buffers) == response.to_bytes()

    def test_content_length_header_and_property(self):
        plan = self.make_plan()
        response = HttpResponse(200, Headers(), plan)
        assert response.content_length == len(plan.to_bytes())
        assert response.headers.get("Content-Length") == str(response.content_length)

    def test_body_property_materializes(self):
        plan = self.make_plan(b"abc")
        response = HttpResponse(200, Headers(), plan)
        assert response.body == b"abc"
        assert response.wire_plan is plan

    def test_plain_bytes_body_has_no_plan(self):
        response = HttpResponse(200, Headers(), b"plain")
        assert response.wire_plan is None
        assert response.wire_buffers()[-1] == b"plain"

    def test_headers_preset_equals_normal_construction(self):
        normal = Headers([("Content-Type", "text/plain"), ("X-N", "1")])
        preset = Headers.preset([("Content-Type", "text/plain"), ("X-N", "1")])
        assert list(normal) == list(preset)


class TestConnectionSendv:
    def test_sendv_delivers_joined_stream(self):
        sim = Simulator()
        network = Network(sim)
        a = Host(network, "a", LAN_PROFILE, segment="campus")
        b = Host(network, "b", LAN_PROFILE, segment="campus")
        listener = b.listen(7000)
        received = []

        def server():
            connection = yield listener.accept()
            received.append((yield connection.recv()))

        def client():
            connection = yield a.connect("b", 7000)
            yield connection.sendv([b"one,", memoryview(b"two,"), bytearray(b"three")])

        sim.process(server())
        sim.run_until_complete(sim.process(client()))
        sim.run(until=sim.now + 5)
        assert received == [b"one,two,three"]

    def test_sendv_counts_total_bytes(self):
        sim = Simulator()
        network = Network(sim)
        a = Host(network, "a", LAN_PROFILE, segment="campus")
        b = Host(network, "b", LAN_PROFILE, segment="campus")
        listener = b.listen(7000)

        def server():
            connection = yield listener.accept()
            yield connection.recv()

        def client():
            connection = yield a.connect("b", 7000)
            yield connection.sendv([b"12345", b"678"])
            return connection

        sim.process(server())
        connection = sim.run_until_complete(sim.process(client()))
        assert connection.bytes_sent == 8


class TestWireTemplates:
    def test_envelope_template_round_trips(self):
        _sim, _browser, agent = build_agent()
        mode_key = agent.cache_policy.mode_key("alice")
        plan = agent._full_plan("alice", mode_key)
        template = plan.template
        assert isinstance(template, WireTemplate)
        joined = (
            b"".join(template.pre) + EMPTY_ACTIONS_WIRE + b"".join(template.post)
        )
        assert_reference_envelope(joined, [])
        assert agent._plans == {(0, mode_key): plan}
        assert agent._full_plan("alice", mode_key) is plan

    def test_delta_template_matches_legacy_builder(self):
        ops_json = json.dumps([{"op": "text", "sec": "body", "path": [0], "data": "x"}])
        content = NewContent(
            7, user_actions_json="[]", base_time=3, delta_ops_json=ops_json
        )
        template = wire_delta_template(7, 3, ops_json)
        plan = BroadcastPlan(template, is_delta=True)
        assert plan.personalize(None).to_bytes() == build_envelope(content).encode(
            "utf-8"
        )


class TestBatchedByteIdentity:
    """The broadcast-plan pipeline serves exactly the golden bytes."""

    def test_full_envelope_no_actions(self):
        play = play_golden("full_envelope_no_actions")
        assert [served.is_delta for served in play.served] == [False]
        response, _ = play.serve("bob", 0)
        assert response.wire_plan is not None

    def test_full_envelope_with_actions(self):
        play_golden("full_envelope_and_actions")

    def test_delta_envelope_after_edit(self):
        play = play_golden("delta_envelope_after_edit")
        assert [served.is_delta for served in play.served] == [False, True]

    def test_broadcast_shared_actions_identity(self):
        play_golden("broadcast_shared_actions")

    def test_no_snapshot_fallback_identity_and_events(self):
        play = play_golden("no_snapshot_fallback")
        assert [served.is_delta for served in play.served] == [False, False]
        assert [e.data["reason"] for e in play.fallbacks] == ["no-snapshot"] * 2
        assert play.agent.stats["delta_fallbacks"] == 2

    def test_oversize_fallback_identity(self):
        play = play_golden("oversize_fallback")
        assert [e.data["reason"] for e in play.fallbacks] == ["oversize"]
        (event,) = play.fallbacks
        assert event.data["delta_bytes"] >= event.data["full_bytes"]

    def test_cookie_replication_identity(self):
        play = play_golden("cookie_replication")
        assert b"docCookies" in play.served[0].body

    def test_hmac_signed_object_urls(self):
        play = play_golden("hmac_signed_object_urls")
        assert HMAC_PARAM.encode("ascii") in play.served[0].body

    def test_stats_parity_over_poll_sequence(self):
        play = play_golden("poll_sequence")
        assert any(served.is_delta for served in play.served)
        assert play.agent.stats["delta_bytes_saved"] > 0

    def test_batched_instruments_progress(self):
        _sim, browser, agent = build_agent()
        edit_headline(browser, "tick")
        for member in ("m0", "m1", "m2"):
            body_bytes(agent, member, 0, [])
        stats = agent.stats
        assert stats["serve_plans_built"] >= 1
        assert stats["serve_batched_polls"] >= 2
        assert stats["wire_bytes_zero_copy"] > 0
        assert stats["serve_amortization"] > 1.0


class TestEmptyAndActionOnlyResponses:
    """Empty and action-only polls leave through the same wire plans as
    content envelopes, with the golden bytes of the string builder that
    used to write them."""

    def test_action_only_then_empty(self):
        play = play_golden("action_only_then_empty")
        _join, actions_only, empty = play.served
        content = parse_envelope(actions_only.body.decode("ascii"))
        assert not content.head_children and not content.top_elements
        assert content.doc_time == play.agent.doc_time
        assert empty.body == b""

    def test_hmac_action_only_then_empty(self):
        play = play_golden("hmac_action_only_then_empty")
        assert [bool(served.body) for served in play.served] == [True, True, False]

    def test_hold_released_by_broadcast(self):
        play = play_golden("hold_released_by_broadcast")
        released = play.served[-1]
        assert not parse_envelope(released.body.decode("ascii")).top_elements

    def test_push_released_by_broadcast(self):
        play = play_golden("push_released_by_broadcast")
        released = play.served[-1]
        assert not parse_envelope(released.body.decode("ascii")).top_elements

    def test_push_hold_times_out_into_an_empty_200(self):
        play = play_golden("push_hold_times_out_empty")
        assert play.served[-1].body == b""


class TestPlanFallbackMemo:
    def test_fallback_is_remembered_not_rediffed(self):
        _sim, browser, agent = build_agent()
        edit_headline(browser, "x")
        agent._serve_body("m0", 999, [])
        mode_key = agent.cache_policy.mode_key("m0")
        entry = agent._plans[(999, mode_key)]
        assert isinstance(entry, PlanFallback)
        assert entry.reason == "no-snapshot"
        # A co-due member hits the memo; fallback stats still replay.
        before = agent.stats["delta_fallbacks"]
        agent._serve_body("m1", 999, [])
        assert agent._plans[(999, mode_key)] is entry
        assert agent.stats["delta_fallbacks"] == before + 1


class TestServeOverHttp:
    def test_poll_over_wire_parses_and_matches_legacy(self):
        play = play_golden("poll_over_http")
        envelope = parse_envelope(play.served[0].body.decode("ascii"))
        assert envelope.doc_time > 0


class TestHeldPollBroadcastPlan:
    """A long poll released by a document change joins that tick's
    broadcast plan: the golden bytes of a direct serve, batched-serve
    counters advancing, and shared segments carried zero-copy."""

    def test_released_holds_join_the_tick_plan(self):
        sim, browser, agent = build_agent(transport="longpoll")
        base = agent.doc_time
        done = {}
        network = browser.host.network
        clients = {
            member: HttpClient(Host(network, "pc-" + member, LAN_PROFILE, segment="campus"))
            for member in ("m0", "m1")
        }

        def member_poll(member):
            done[member] = yield from clients[member].post(
                "http://host-pc:3000/poll", body=poll_payload(member, base, "longpoll")
            )

        for member in clients:
            sim.process(member_poll(member))
        sim.run(until=sim.now + 0.5)
        # Both polls are parked: nothing to send, so nothing answered.
        assert not done
        assert agent.stats["held_polls_open"] == 2

        batched_before = agent.stats["serve_batched_polls"]
        edit_headline(browser, "released together")
        sim.run(until=sim.now + 2.0)
        assert set(done) == {"m0", "m1"}
        assert done["m0"].body == done["m1"].body
        # The two co-released holds shared one broadcast plan...
        assert agent.stats["serve_batched_polls"] > batched_before
        # ...assembled from shared pre-encoded segments.
        assert agent.stats["wire_bytes_zero_copy"] > 0
        assert agent.stats["held_polls_open"] == 0

    def test_released_hold_bytes_match_direct_serve(self):
        """The body a released hold ships is byte for byte the golden
        body, captured where the per-member string pipeline served the
        same delta directly."""
        play = play_golden("released_hold")
        released = [served for served in play.served if "released" in served.label]
        assert [served.is_delta for served in released] == [True, True]

    def test_push_stream_bytes_match_the_golden_envelopes(self):
        """A released push poll ships the edits inside its linger as
        chained deltas in one response, with the golden bytes."""
        play = play_golden("push_stream_of_three_edits")
        streamed = [
            parse_envelope(body.decode("ascii"))
            for body in envelopes_of(play.served[-1].body)
        ]
        assert all(envelope.is_delta for envelope in streamed)
        for previous, envelope in zip(streamed, streamed[1:]):
            assert envelope.base_time == previous.doc_time


if __name__ == "__main__":
    write_golden()

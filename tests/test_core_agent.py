"""Tests for RCB-Agent request processing (paper Fig. 2)."""

import gc
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.browser import Browser
from repro.core import (
    ClickAction,
    CoBrowsingSession,
    ConfirmPolicy,
    FormFillAction,
    MouseMoveAction,
    ObserveOnlyPolicy,
    RCBAgent,
    SubmitAction,
    TOPIC_ROSTER_CHANGED,
    parse_envelope,
    sign_request_target,
)
from repro.core.agent import MAX_PARTICIPANT_ID_CHARS, OUTBOUND_ACTIONS_KEPT
from repro.html import Text
from repro.http import Headers, HttpClient, HttpRequest, HttpResponse
from repro.net import LAN_PROFILE, Host, Network
from repro.obs import FleetView, TelemetryDigest
from repro.obs.fleet import render_fleet_view
from repro.sim import Simulator
from repro.webserver import OriginServer, StaticSite


def build_world(agent_kwargs=None):
    sim = Simulator()
    network = Network(sim)
    site = StaticSite("site.com")
    site.add_page(
        "/",
        "<html><head><title>Host page</title></head>"
        '<body><img src="/pic.png"><form action="/go" method="POST">'
        '<input type="text" name="f"></form></body></html>',
    )
    site.add("/pic.png", "image/png", b"\x89PNG" + b"p" * 2000)
    OriginServer(network, "site.com", site.handle)
    host_pc = Host(network, "host-pc", LAN_PROFILE, segment="campus")
    part_pc = Host(network, "part-pc", LAN_PROFILE, segment="campus")
    host_browser = Browser(host_pc, name="bob")
    agent = RCBAgent(**(agent_kwargs or {}))
    agent.install(host_browser)
    client = HttpClient(part_pc)
    return sim, host_browser, agent, client


def run(sim, generator):
    return sim.run_until_complete(sim.process(generator))


def poll_body(participant="alice", timestamp=0, actions=()):
    return json.dumps(
        {"participant": participant, "timestamp": timestamp, "actions": [a.to_dict() for a in actions]}
    ).encode()


class TestRequestClassification:
    def test_new_connection_request_returns_initial_page(self):
        sim, _hb, _agent, client = build_world()

        def scenario():
            return (yield from client.get("http://host-pc:3000/"))

        response = run(sim, scenario())
        assert response.status == 200
        assert response.content_type == "text/html"
        assert 'id="ajax-snippet"' in response.text()

    def test_unknown_path_404(self):
        sim, _hb, _agent, client = build_world()

        def scenario():
            return (yield from client.get("http://host-pc:3000/nothing"))

        assert run(sim, scenario()).status == 404

    def test_get_poll_is_not_a_poll(self):
        sim, _hb, _agent, client = build_world()

        def scenario():
            return (yield from client.get("http://host-pc:3000/poll"))

        assert run(sim, scenario()).status == 404

    def test_poll_with_no_page_is_empty(self):
        sim, _hb, agent, client = build_world()

        def scenario():
            response = yield from client.post(
                "http://host-pc:3000/poll", poll_body(), content_type="application/json"
            )
            return response

        response = run(sim, scenario())
        assert response.status == 200
        assert response.body == b""
        assert agent.stats["empty_responses"] == 1

    def test_poll_after_host_navigation_returns_envelope(self):
        sim, host_browser, agent, client = build_world()

        def scenario():
            yield from host_browser.navigate("http://site.com/")
            response = yield from client.post(
                "http://host-pc:3000/poll", poll_body(), content_type="application/json"
            )
            return response

        response = run(sim, scenario())
        assert response.content_type == "application/xml"
        content = parse_envelope(response.text())
        assert content.doc_time == agent.doc_time
        assert any("Host page" in c.inner_html for c in content.head_children)

    def test_poll_with_current_timestamp_is_empty(self):
        sim, host_browser, agent, client = build_world()

        def scenario():
            yield from host_browser.navigate("http://site.com/")
            first = yield from client.post(
                "http://host-pc:3000/poll", poll_body(), content_type="application/json"
            )
            content = parse_envelope(first.text())
            second = yield from client.post(
                "http://host-pc:3000/poll",
                poll_body(timestamp=content.doc_time),
                content_type="application/json",
            )
            return second

        assert run(sim, scenario()).body == b""

    def test_bad_poll_body_400(self):
        sim, _hb, _agent, client = build_world()

        def scenario():
            return (
                yield from client.post(
                    "http://host-pc:3000/poll", b"{bad json", content_type="application/json"
                )
            )

        assert run(sim, scenario()).status == 400


class TestCacheModeObjects:
    def test_object_served_from_host_cache(self):
        sim, host_browser, agent, client = build_world()

        def scenario():
            yield from host_browser.navigate("http://site.com/")
            poll = yield from client.post(
                "http://host-pc:3000/poll", poll_body(), content_type="application/json"
            )
            content = parse_envelope(poll.text())
            body_html = content.top_elements[0].inner_html
            start = body_html.index("/obj?key=")
            end = body_html.index('"', start)
            target = body_html[start:end].replace("&amp;", "&")
            response = yield from client.get("http://host-pc:3000" + target)
            return response

        response = run(sim, scenario())
        assert response.status == 200
        assert response.content_type == "image/png"
        assert response.body.startswith(b"\x89PNG")
        assert agent.stats["object_requests"] == 1

    def test_uncached_object_404(self):
        sim, host_browser, _agent, client = build_world()

        def scenario():
            yield from host_browser.navigate("http://site.com/")
            return (
                yield from client.get(
                    "http://host-pc:3000/obj?key=http%3A%2F%2Fsite.com%2Fghost.png"
                )
            )

        assert run(sim, scenario()).status == 404

    def test_non_cache_mode_keeps_origin_urls(self):
        sim, host_browser, _agent, client = build_world({"cache_mode": False})

        def scenario():
            yield from host_browser.navigate("http://site.com/")
            poll = yield from client.post(
                "http://host-pc:3000/poll", poll_body(), content_type="application/json"
            )
            return parse_envelope(poll.text())

        content = run(sim, scenario())
        assert "/obj?key=" not in content.top_elements[0].inner_html
        assert "http://site.com/pic.png" in content.top_elements[0].inner_html


class TestAuthentication:
    SECRET = "shared-key-123"

    def test_unsigned_poll_rejected(self):
        sim, host_browser, agent, client = build_world({"secret": SECRET_VALUE})

        def scenario():
            yield from host_browser.navigate("http://site.com/")
            return (
                yield from client.post(
                    "http://host-pc:3000/poll", poll_body(), content_type="application/json"
                )
            )

        assert run(sim, scenario()).status == 401
        assert agent.stats["auth_failures"] == 1

    def test_signed_poll_accepted(self):
        sim, host_browser, _agent, client = build_world({"secret": SECRET_VALUE})

        def scenario():
            yield from host_browser.navigate("http://site.com/")
            body = poll_body()
            target = sign_request_target(SECRET_VALUE, "POST", "/poll", body)
            return (
                yield from client.post(
                    "http://host-pc:3000" + target, body, content_type="application/json"
                )
            )

        response = run(sim, scenario())
        assert response.status == 200
        assert response.content_type == "application/xml"

    def test_initial_page_needs_no_signature(self):
        sim, _hb, _agent, client = build_world({"secret": SECRET_VALUE})

        def scenario():
            return (yield from client.get("http://host-pc:3000/"))

        response = run(sim, scenario())
        assert response.status == 200
        assert "secret key" in response.text()

    def test_object_requests_carry_host_signed_urls(self):
        sim, host_browser, _agent, client = build_world({"secret": SECRET_VALUE})

        def scenario():
            yield from host_browser.navigate("http://site.com/")
            body = poll_body()
            target = sign_request_target(SECRET_VALUE, "POST", "/poll", body)
            poll = yield from client.post(
                "http://host-pc:3000" + target, body, content_type="application/json"
            )
            content = parse_envelope(poll.text())
            body_html = content.top_elements[0].inner_html
            start = body_html.index("/obj?key=")
            end = body_html.index('"', start)
            signed_target = body_html[start:end].replace("&amp;", "&")
            return (yield from client.get("http://host-pc:3000" + signed_target))

        assert run(sim, scenario()).status == 200


SECRET_VALUE = TestAuthentication.SECRET


class TestModeration:
    def test_observe_only_drops_actions(self):
        sim, host_browser, agent, client = build_world({"policy": ObserveOnlyPolicy()})

        def scenario():
            yield from host_browser.navigate("http://site.com/")
            action = ClickAction("a:0")
            yield from client.post(
                "http://host-pc:3000/poll",
                poll_body(actions=[action]),
                content_type="application/json",
            )

        run(sim, scenario())
        assert agent.stats["actions_dropped"] == 1
        assert agent.stats["actions_applied"] == 0

    def test_confirm_policy_holds_then_applies(self):
        sim, host_browser, agent, client = build_world({"policy": ConfirmPolicy()})

        def scenario():
            yield from host_browser.navigate("http://site.com/")
            action = FormFillAction("form:0", {"f": "from-alice"})
            yield from client.post(
                "http://host-pc:3000/poll",
                poll_body(actions=[action]),
                content_type="application/json",
            )
            held = len(agent.pending_actions)
            applied = yield from agent.confirm_pending()
            return held, applied

        held, applied = run(sim, scenario())
        assert (held, applied) == (1, 1)
        form = host_browser.page.document.get_elements_by_tag_name("form")[0]
        field = form.get_elements_by_tag_name("input")[0]
        assert field.get_attribute("value") == "from-alice"

    def test_confirm_policy_mousemove_auto_applied(self):
        sim, host_browser, agent, client = build_world({"policy": ConfirmPolicy()})

        def scenario():
            yield from host_browser.navigate("http://site.com/")
            yield from client.post(
                "http://host-pc:3000/poll",
                poll_body(actions=[MouseMoveAction(5, 6)]),
                content_type="application/json",
            )

        run(sim, scenario())
        assert agent.stats["actions_applied"] == 1
        assert agent.pending_actions == []

    def test_reject_pending(self):
        sim, host_browser, agent, client = build_world({"policy": ConfirmPolicy()})

        def scenario():
            yield from host_browser.navigate("http://site.com/")
            yield from client.post(
                "http://host-pc:3000/poll",
                poll_body(actions=[ClickAction("a:0")]),
                content_type="application/json",
            )

        run(sim, scenario())
        assert agent.reject_pending() == 1
        assert agent.pending_actions == []


class TestRosterAndReuse:
    def test_roster_tracks_participants(self):
        sim, host_browser, agent, client = build_world()
        events = []
        host_browser.observers.add_observer(TOPIC_ROSTER_CHANGED, lambda t, p: events.append(p))

        def scenario():
            yield from client.post(
                "http://host-pc:3000/poll", poll_body("alice"), content_type="application/json"
            )
            yield from client.post(
                "http://host-pc:3000/poll", poll_body("carol"), content_type="application/json"
            )

        run(sim, scenario())
        assert agent.roster() == ["alice", "carol"]
        assert events == [["alice"], ["alice", "carol"]]
        agent.disconnect("alice")
        assert agent.roster() == ["carol"]
        assert events == [["alice"], ["alice", "carol"], ["carol"]]

    @staticmethod
    def count_roster_builds(agent):
        builds = []
        roster = agent.roster

        def counting_roster():
            builds.append(len(agent.participants))
            return roster()

        agent.roster = counting_roster
        return builds

    def test_membership_changes_without_readers_build_no_roster(self):
        """No roster observer and presence off: joins and a leave never
        sort the roster, so membership bookkeeping stays O(1)."""
        sim, host_browser, agent, client = build_world()
        assert host_browser.observers.observer_count(TOPIC_ROSTER_CHANGED) == 0
        assert not agent.announce_presence
        builds = self.count_roster_builds(agent)
        members = ["m%02d" % index for index in range(50)]

        def scenario():
            for member in members:
                yield from client.post(
                    "http://host-pc:3000/poll", poll_body(member),
                    content_type="application/json",
                )

        run(sim, scenario())
        agent.disconnect("m07")
        assert len(agent.participants) == 49
        assert builds == []

    def test_a_silent_member_keeps_the_newest_outbound_actions(self):
        """A member that joined and went silent holds at most
        ``OUTBOUND_ACTIONS_KEPT`` queued actions, the newest, however
        many the host broadcasts; a polling member's queue drains."""
        sim, _host_browser, agent, client = build_world()

        def scenario():
            for member in ("silent", "active"):
                yield from client.post(
                    "http://host-pc:3000/poll", poll_body(member),
                    content_type="application/json",
                )

        run(sim, scenario())
        for tick in range(5000):
            agent.broadcast_action(MouseMoveAction(tick, 0))
            if tick % 100 == 0:
                agent.participants["active"].outbound_actions = []
        queue = agent.participants["silent"].outbound_actions
        assert OUTBOUND_ACTIONS_KEPT == 1024
        assert len(queue) == 1024
        assert [action.x for action in queue] == list(range(5000 - 1024, 5000))
        assert agent.stats["outbound_actions_dropped"] == 5000 - 1024

    def test_readers_share_one_roster_build_per_change(self):
        """An observer and the presence broadcast read one roster build
        per membership change, and see the payloads in join order."""
        sim, host_browser, agent, client = build_world({"announce_presence": True})
        observed = []
        host_browser.observers.add_observer(
            TOPIC_ROSTER_CHANGED, lambda t, p: observed.append(list(p))
        )
        announced = []
        broadcast = agent.broadcast_action

        def recording_broadcast(action, exclude=None):
            announced.append(action.to_dict()["participants"])
            broadcast(action, exclude)

        agent.broadcast_action = recording_broadcast
        builds = self.count_roster_builds(agent)

        def scenario():
            for member in ("alice", "carol"):
                yield from client.post(
                    "http://host-pc:3000/poll", poll_body(member),
                    content_type="application/json",
                )

        run(sim, scenario())
        agent.disconnect("alice")
        expected = [["alice"], ["alice", "carol"], ["carol"]]
        assert observed == expected
        assert announced == expected
        assert builds == [1, 2, 1]

    def test_content_generated_once_for_many_participants(self):
        sim, host_browser, agent, client = build_world()

        def scenario():
            yield from host_browser.navigate("http://site.com/")
            for name in ("p1", "p2", "p3", "p4"):
                yield from client.post(
                    "http://host-pc:3000/poll", poll_body(name), content_type="application/json"
                )

        run(sim, scenario())
        assert agent.stats["content_responses"] == 4
        assert agent.generation_count == 1

    def test_regeneration_after_dom_change(self):
        sim, host_browser, agent, client = build_world()

        def scenario():
            yield from host_browser.navigate("http://site.com/")
            yield from client.post(
                "http://host-pc:3000/poll", poll_body("p1"), content_type="application/json"
            )
            host_browser.mutate_document(
                lambda doc: doc.body.append_child(doc.create_element("div", id="x"))
            )
            yield from client.post(
                "http://host-pc:3000/poll", poll_body("p1", timestamp=agent.doc_time - 1),
                content_type="application/json",
            )

        run(sim, scenario())
        assert agent.generation_count == 2

    def test_agent_url(self):
        _sim, _hb, agent, _client = build_world()
        assert agent.url == "http://host-pc:3000/"

    def test_uninstall_closes_port(self):
        sim, host_browser, agent, client = build_world()
        agent.uninstall()

        def scenario():
            from repro.http import RequestFailed

            with pytest.raises(RequestFailed):
                yield from client.get("http://host-pc:3000/")
            return "done"

        assert run(sim, scenario()) == "done"


#: Poll bodies that do not have the shape Ajax-Snippet sends: the wrong
#: JSON type, nesting past the recursion limit, a mistyped or
#: out-of-range field.  A ``participant`` of 5 would also break every
#: later ``roster()``, which sorts the member ids.
MALFORMED_POLL_BODIES = {
    "array": b"[]",
    "number": b"1",
    "string": b'"x"',
    "nested-too-deep": b"[" * 100000 + b"]" * 100000,
    "timestamp-string": b'{"participant": "m", "timestamp": "x"}',
    "timestamp-null": b'{"participant": "m", "timestamp": null}',
    "timestamp-overflow": b'{"participant": "m", "timestamp": 1e400}',
    "timestamp-negative": b'{"participant": "m", "timestamp": -1}',
    "timestamp-bool": b'{"participant": "m", "timestamp": true}',
    "timestamp-float": b'{"participant": "m", "timestamp": 1.5}',
    "participant-list": b'{"participant": ["p"], "timestamp": 0}',
    "participant-number": b'{"participant": 5, "timestamp": 0}',
    "participant-empty": b'{"participant": "", "timestamp": 0}',
    "participant-too-long": json.dumps(
        {"participant": "m" * (MAX_PARTICIPANT_ID_CHARS + 1), "timestamp": 0}
    ).encode(),
    "participant-100k": json.dumps({"participant": "m" * 100000, "timestamp": 0}).encode(),
    "actions-object": b'{"participant": "m", "timestamp": 0, "actions": {}}',
    "actions-null": b'{"participant": "m", "timestamp": 0, "actions": null}',
}


#: Piggybacked action lists of well-formed poll bodies that fail action
#: validation.
BAD_PIGGYBACKED_ACTIONS = {
    "not-an-object": [1],
    "unknown-kind": [{"kind": "nope"}],
    "bad-coordinate": [{"kind": "mousemove", "x": "left"}],
}


class TestMalformedPollBodies:
    """A poll body of the wrong shape gets a counted 400; the agent
    keeps serving everyone else."""

    @pytest.mark.parametrize("name", sorted(BAD_PIGGYBACKED_ACTIONS))
    def test_bad_piggybacked_actions_are_rejected_before_side_effects(self, name):
        """A poll whose actions fail validation is a counted 400 that
        registers no member and ingests no telemetry digest (the
        snippet resends a rejected poll's digest)."""
        fleet = FleetView()
        sim, host_browser, agent, _client = build_world({"telemetry": fleet})
        digest = TelemetryDigest()
        digest.member("mallory").bump("polls")
        blob = digest.encode()

        def body(actions):
            return json.dumps(
                {"participant": "mallory", "timestamp": 0, "actions": actions, "telemetry": blob}
            ).encode()

        def scenario():
            yield from host_browser.navigate("http://site.com/")
            bad = yield from agent._poll_response(
                HttpRequest("POST", "/poll", None, body(BAD_PIGGYBACKED_ACTIONS[name])),
                "mallory-pc",
            )
            rejected = (agent.roster(), fleet.digests_ingested)
            good = yield from agent._poll_response(
                HttpRequest("POST", "/poll", None, body([])), "mallory-pc"
            )
            return bad, rejected, good

        bad, rejected, good = run(sim, scenario())
        assert (bad.status, bad.body) == (400, b"bad piggybacked actions")
        assert agent.stats["bad_poll_bodies"] == 1
        assert rejected == ([], 0)
        # The same digest on a valid poll is ingested: the reject, not
        # the blob, kept it out.
        assert good.status == 200
        assert (agent.roster(), fleet.digests_ingested) == (["mallory"], 1)

    @pytest.mark.parametrize("name", sorted(MALFORMED_POLL_BODIES))
    def test_direct_poll_is_a_counted_400(self, name):
        sim, host_browser, agent, _client = build_world()

        def scenario():
            yield from host_browser.navigate("http://site.com/")
            gc.collect()  # no finalizer may run at the recursion limit
            bad = yield from agent._poll_response(
                HttpRequest("POST", "/poll", None, MALFORMED_POLL_BODIES[name]), "mallory"
            )
            good = yield from agent._poll_response(
                HttpRequest("POST", "/poll", None, poll_body("alice")), "alice-pc"
            )
            return bad, good

        bad, good = run(sim, scenario())
        assert (bad.status, bad.body) == (400, b"bad poll body")
        assert agent.stats["bad_poll_bodies"] == 1
        assert good.status == 200
        assert parse_envelope(good.body.decode()).top_elements
        assert agent.roster() == ["alice"]

    def test_well_formed_bodies_are_accepted(self):
        sim, host_browser, agent, _client = build_world()
        longest = "g" * MAX_PARTICIPANT_ID_CHARS
        bodies = {
            "carol-pc": b"",
            "dave-pc": b"{}",
            "erin-pc": b'{"participant": "erin"}',
            "frank-pc": b'{"timestamp": 0, "actions": []}',
            "gina-pc": json.dumps({"participant": longest}).encode(),
        }

        def scenario():
            yield from host_browser.navigate("http://site.com/")
            responses = []
            for client_name, body in bodies.items():
                request = HttpRequest("POST", "/poll", None, body)
                responses.append((yield from agent._poll_response(request, client_name)))
            return responses

        responses = run(sim, scenario())
        assert [response.status for response in responses] == [200] * 5
        assert agent.stats["bad_poll_bodies"] == 0
        assert agent.roster() == ["carol-pc", "dave-pc", "erin", "frank-pc", longest]

    @pytest.mark.parametrize(
        "name", ["array", "timestamp-null", "participant-number", "participant-100k"]
    )
    def test_session_survives_and_the_honest_member_converges(self, name):
        sim = Simulator()
        network = Network(sim)
        site = StaticSite("s.com")
        site.add_page("/", "<html><head><title>S</title></head><body><p>v1</p></body></html>")
        OriginServer(network, "s.com", site.handle)
        host = Browser(Host(network, "h-pc", LAN_PROFILE, segment="lan"), name="h")
        guest = Browser(Host(network, "p-pc", LAN_PROFILE, segment="lan"), name="p")
        intruder = HttpClient(Host(network, "x-pc", LAN_PROFILE, segment="lan"))
        session = CoBrowsingSession(host, poll_interval=0.5, transport="poll")

        def scenario():
            yield from session.join(guest)
            yield from session.host_navigate("http://s.com/")
            yield from session.wait_until_synced()
            response = yield from intruder.post(
                session.agent.url + "poll",
                MALFORMED_POLL_BODIES[name],
                content_type="application/json",
            )
            host.mutate_document(lambda doc: doc.body.child_nodes[0].append_child(Text("!")))
            yield from session.wait_until_synced()
            return response

        response = sim.run_until_complete(sim.process(scenario()))
        assert response.status == 400
        assert session.agent.stats["bad_poll_bodies"] == 1
        assert session.agent.roster() == ["p"]
        assert guest.page.document.body.text_content == "v1!"
        session.close()


def hostile_session(markup="", handler=None):
    """A LAN session on s.com with one honest member and a third host:
    ``(sim, host, guest, intruder_host, session)``.  The page's body
    holds ``<p>v1</p>`` then ``markup``; ``handler`` wraps the site's."""
    sim = Simulator()
    network = Network(sim)
    site = StaticSite("s.com")
    site.add_page(
        "/", "<html><head><title>S</title></head><body><p>v1</p>%s</body></html>" % markup
    )
    OriginServer(network, "s.com", handler(site.handle) if handler else site.handle)
    host = Browser(Host(network, "h-pc", LAN_PROFILE, segment="lan"), name="h")
    guest = Browser(Host(network, "p-pc", LAN_PROFILE, segment="lan"), name="p")
    intruder_host = Host(network, "x-pc", LAN_PROFILE, segment="lan")
    session = CoBrowsingSession(host, poll_interval=0.5, transport="poll")
    return sim, host, guest, intruder_host, session


def run_hostile(sim, host, guest, session, intrude):
    """Sync the member, run ``intrude()`` (a generator), then edit the
    host page and wait for the member: returns what ``intrude`` did."""

    def scenario():
        yield from session.join(guest)
        yield from session.host_navigate("http://s.com/")
        yield from session.wait_until_synced()
        outcome = yield from intrude()
        host.mutate_document(lambda doc: doc.body.child_nodes[0].append_child(Text("!")))
        yield from session.wait_until_synced()
        return outcome

    return sim.run_until_complete(sim.process(scenario()))


def send_raw(sim, intruder_host, session, wire, wait=5.0):
    """An ``intrude`` generator for :func:`run_hostile`: send ``wire``
    to the agent's port and return the reply, or ``b""`` when none came
    within ``wait`` simulated seconds."""

    def intrude():
        connection = yield intruder_host.connect("h-pc", session.agent.port)
        yield connection.send(wire)
        reply = connection.recv()
        # The agent's hold idiom: the reply and a timer release one waiter.
        waiter = sim.event()

        def release(_event):
            if not waiter.triggered:
                waiter.succeed()

        reply.callbacks.append(release)
        sim.timeout(wait).callbacks.append(release)
        yield waiter
        return reply.value if reply.triggered else b""

    return intrude


def post_action(intruder_host, session, action):
    """An ``intrude`` generator for :func:`run_hostile`: one poll from a
    third party carrying ``action`` (its wire dict); returns the agent's
    response."""
    body = json.dumps({"participant": "mallory", "timestamp": 0, "actions": [action]})

    def intrude():
        return (
            yield from HttpClient(intruder_host).post(
                session.agent.url + "poll", body.encode(), content_type="application/json"
            )
        )

    return intrude


def redirect_to(location):
    """A site handler wrapper answering ``/go`` with a 302 to ``location``."""

    def wrap(handle):
        def handler(request, client_name):
            if request.target == "/go":
                return HttpResponse(302, Headers([("Location", location)]), b"")
            return handle(request, client_name)

        return handler

    return wrap


class TestHostileParticipantInputs:
    """No bad reference, dead link or hostile byte from a participant
    ends the session: the agent rejects and counts it, the host stays
    on its page and the honest member converges on the next edit."""

    def test_non_ascii_content_length_gets_400_and_close(self):
        sim, host, guest, intruder_host, session = hostile_session()
        wire = b"POST /poll HTTP/1.1\r\nContent-Length: \xb2\r\n\r\n"
        reply = run_hostile(sim, host, guest, session, send_raw(sim, intruder_host, session, wire))
        assert reply.startswith(b"HTTP/1.1 400")
        assert b"Connection: close" in reply
        assert guest.page.document.body.child_nodes[0].text_content == "v1!"
        session.close()

    def test_declared_body_over_the_cap_gets_400_and_close(self):
        # A tebibyte: without a cap the agent would buffer toward it.
        sim, host, guest, intruder_host, session = hostile_session()
        wire = b"POST /poll HTTP/1.1\r\nContent-Length: 1099511627776\r\n\r\n"
        reply = run_hostile(sim, host, guest, session, send_raw(sim, intruder_host, session, wire))
        assert reply.startswith(b"HTTP/1.1 400")
        assert b"Connection: close" in reply
        assert guest.page.document.body.child_nodes[0].text_content == "v1!"
        session.close()

    @pytest.mark.parametrize(
        "anchor_href, ref, handler",
        [
            ("/", "a:\u00b2", None),
            # int() raises ValueError on more than 4300 digits.
            ("/", "a:" + "9" * 4301, None),
            ("http://nohost.example/", "a:0", None),
            ("http://s.com:abc/", "a:0", None),
            ("http://s.com:99999/", "a:0", None),
            ("/go", "a:0", redirect_to("http://nohost.example/")),
        ],
        ids=[
            "superscript-ref",
            "past-int-digits-ref",
            "dead-host",
            "bad-port",
            "port-range",
            "redirect-dead-host",
        ],
    )
    def test_failed_click_is_a_counted_action_error(self, anchor_href, ref, handler):
        sim, host, guest, intruder_host, session = hostile_session(
            '<a href="%s">go</a>' % anchor_href, handler
        )
        intrude = post_action(intruder_host, session, ClickAction(ref).to_dict())
        response = run_hostile(sim, host, guest, session, intrude)
        assert response.status == 200
        assert session.agent.stats["action_errors"] == 1
        assert session.agent.stats["actions_applied"] == 0
        assert str(host.page.url) == "http://s.com/"
        assert guest.page.document.body.child_nodes[0].text_content == "v1!"
        session.close()

    @pytest.mark.parametrize("method", ["GET", "POST"])
    @pytest.mark.parametrize(
        "form_action",
        ["http://nohost.example/", "http://s.com:abc/", "http://s.com:99999/"],
        ids=["dead-host", "bad-port", "port-range"],
    )
    def test_failed_submit_is_a_counted_action_error(self, form_action, method):
        form = '<form action="%s" method="%s"><input name="q" value=""></form>'
        sim, host, guest, intruder_host, session = hostile_session(form % (form_action, method))
        intrude = post_action(
            intruder_host, session, SubmitAction("form:0", {"q": "x"}).to_dict()
        )
        response = run_hostile(sim, host, guest, session, intrude)
        assert response.status == 200
        assert session.agent.stats["action_errors"] == 1
        assert session.agent.stats["actions_applied"] == 0
        assert str(host.page.url) == "http://s.com/"
        assert guest.page.document.body.child_nodes[0].text_content == "v1!"
        session.close()

    def test_typed_markup_stays_text_in_the_merged_textarea(self):
        typed = "<img src='/img/5.png'> a &amp; b"
        form = '<form action="/"><textarea name="notes"></textarea></form>'
        sim, host, guest, intruder_host, session = hostile_session(form)
        action = FormFillAction("form:0", {"notes": typed}).to_dict()
        response = run_hostile(
            sim, host, guest, session, post_action(intruder_host, session, action)
        )
        assert response.status == 200
        assert session.agent.stats["actions_applied"] == 1
        for browser in (host, guest):
            document = browser.page.document
            assert document.get_elements_by_tag_name("textarea")[0].text_content == typed
            assert document.get_elements_by_tag_name("img") == []
        session.close()

    @pytest.mark.parametrize(
        "action",
        [
            {"kind": "click", "ref": 5},
            {"kind": "submit", "form_ref": 7, "fields": {}},
            {"kind": "formfill", "form_ref": "form:0", "fields": {"notes": 5}},
            # UTF-8 cannot encode it, so the host's form submission could not.
            {"kind": "submit", "form_ref": "form:0", "fields": {"notes": "\ud800"}},
        ],
        ids=[
            "click-number-ref",
            "submit-number-form-ref",
            "formfill-number-value",
            "submit-lone-surrogate-value",
        ],
    )
    def test_mistyped_action_is_a_counted_400(self, action):
        """A reference that is not a string, or a field value that is not
        text, is rejected with the poll, before the sender joins."""
        form = '<form action="/"><textarea name="notes"></textarea></form>'
        sim, host, guest, intruder_host, session = hostile_session(form)
        response = run_hostile(
            sim, host, guest, session, post_action(intruder_host, session, action)
        )
        assert (response.status, response.body) == (400, b"bad piggybacked actions")
        assert session.agent.stats["bad_poll_bodies"] == 1
        assert session.agent.roster() == ["p"]
        assert guest.page.document.body.child_nodes[0].text_content == "v1!"
        session.close()


# -- fuzzing piggybacked action lists -----------------------------------------------------

#: Characters whose digit, case or length behaviour differs from ASCII:
#: '²' passes str.isdigit(), '١' is a digit int() reads, 'İ' lowercases
#: to two characters and 'ſ' uppercases to 'S'.  A JSON string can also
#: escape a lone surrogate, which UTF-8 cannot encode.
UNUSUAL = "\u00b2\u0661\u0130\u017f"
ACTION_ALPHABET = "aAq:0<>&'\" \ud800" + UNUSUAL
#: References to the elements of FUZZ_PAGE, and near misses.
REFERENCES = [
    "a:0", "a:1", "form:0", "input:0", "textarea:0", "select:0", "button:0",
    "a:", ":0", "a", "a:-1", "a:\u00b2", "a:\u0661", "\u0130:0", "a:" + "9" * 4301,
]
FIELD_NAMES = ["q", "notes", "pick", "\u017f", ""]
#: The keys each action kind reads ("nope" is no kind).
KIND_KEYS = {
    "click": ["ref"],
    "formfill": ["form_ref", "fields"],
    "submit": ["form_ref", "fields"],
    "mousemove": ["x", "y"],
    "scroll": ["offset"],
    "presence": ["participants"],
    "nope": ["ref"],
}
FUZZ_PAGE = (
    "<html><head><title>F</title></head><body>"
    '<a href="/">home</a><a href="/missing">gone</a>'
    '<form action="/" method="GET"><input type="text" name="q">'
    '<textarea name="notes">n</textarea>'
    '<select name="pick"><option value="1">one</option></select>'
    "<button>go</button></form></body></html>"
)


def json_texts():
    """JSON text of any type, nested a little or far past the decoder's
    recursion limit."""
    scalars = st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.floats(),
        st.text(alphabet=ACTION_ALPHABET, max_size=8),
        st.sampled_from(REFERENCES),
    ).map(json.dumps)
    deep = st.sampled_from([30, 900, 100000]).map(lambda n: "[" * n + "]" * n)
    return scalars | st.recursive(
        scalars | deep,
        lambda inner: st.one_of(
            st.lists(inner, max_size=3).map(lambda items: "[%s]" % ",".join(items)),
            st.dictionaries(st.sampled_from(FIELD_NAMES), inner, max_size=3).map(
                lambda d: "{%s}" % ",".join(json.dumps(k) + ":" + v for k, v in d.items())
            ),
        ),
        max_leaves=4,
    )


def well_typed(key):
    """A value of the type the snippet sends for ``key``."""
    text = st.text(alphabet=ACTION_ALPHABET, max_size=8)
    return {
        "ref": st.sampled_from(REFERENCES),
        "form_ref": st.sampled_from(REFERENCES),
        "fields": st.dictionaries(st.sampled_from(FIELD_NAMES), text, max_size=3),
        "x": st.integers(),
        "y": st.integers(),
        "offset": st.integers(),
        "participants": st.lists(text, max_size=3),
    }[key].map(json.dumps)


def action_objects(kind):
    """A ``kind`` action whose keys each hold a well-typed value or any
    JSON text."""
    values = {key: st.one_of(well_typed(key), json_texts()) for key in KIND_KEYS[kind]}
    return st.fixed_dictionaries(values).map(
        lambda fields: "{%s}"
        % ",".join(
            json.dumps(k) + ":" + v for k, v in [("kind", json.dumps(kind))] + list(fields.items())
        )
    )


def action_lists():
    """A list of actions, a list with stray JSON values among them, or
    any JSON text."""
    action = st.sampled_from(sorted(KIND_KEYS)).flatmap(action_objects)
    return st.one_of(
        action.map(lambda item: "[%s]" % item),
        st.lists(action | json_texts(), max_size=3).map(lambda items: "[%s]" % ",".join(items)),
        json_texts(),
    )


@settings(max_examples=200, deadline=None)
@given(action_lists())
def test_fuzzed_action_lists_end_in_200_or_a_counted_400(actions):
    """Whatever a participant piggybacks, the poll on a live page ends in
    a 200 or in a 400 counted on ``bad_poll_bodies``."""
    sim = Simulator()
    network = Network(sim)
    site = StaticSite("s.com")
    site.add_page("/", FUZZ_PAGE)
    OriginServer(network, "s.com", site.handle)
    host = Browser(Host(network, "h-pc", LAN_PROFILE, segment="lan"), name="h")
    agent = RCBAgent()
    agent.install(host)
    body = '{"participant": "mallory", "timestamp": 0, "actions": %s}' % actions

    def scenario():
        yield from host.navigate("http://s.com/")
        if "[" * 500 in body:
            gc.collect()  # no finalizer may run at the recursion limit
        return (
            yield from agent._poll_response(
                HttpRequest("POST", "/poll", None, body.encode()), "x-pc"
            )
        )

    response = run(sim, scenario())
    assert response.status in (200, 400)
    assert agent.stats["bad_poll_bodies"] == (response.status == 400)


# -- hostile telemetry digests ------------------------------------------------------------


def telemetry_world():
    """A fleet-telemetry session on s.com, synced: the host, a relay
    member ``r`` and its leaf ``p`` — ``(sim, host, leaf, session)``."""
    sim = Simulator()
    network = Network(sim)
    site = StaticSite("s.com")
    site.add_page("/", "<html><head><title>S</title></head><body><p>v1</p></body></html>")
    OriginServer(network, "s.com", site.handle)
    host = Browser(Host(network, "h-pc", LAN_PROFILE, segment="lan"), name="h")
    session = CoBrowsingSession(host, poll_interval=0.5, transport="poll", telemetry=True)
    session.fanout_tree(branching=1)
    relay_guest, leaf = (
        Browser(Host(network, "%s-pc" % name, LAN_PROFILE, segment="lan"), name=name)
        for name in ("r", "p")
    )

    def scenario():
        yield from session.join(relay_guest)
        yield from session.join(leaf)
        yield from session.host_navigate("http://s.com/")
        yield from session.wait_until_synced()

    run(sim, scenario())
    return sim, host, leaf, session


def intrude_with_body(sim, host, leaf, session, body):
    """Send ``body`` (poll-body text) to the host's poll endpoint and to
    the relay's, then check each ended in a 200, in a 400 counted on
    ``bad_poll_bodies`` or in one ``ingest_errors`` at that agent's
    telemetry sink; then edit the host page and wait out two telemetry
    flushes.  Returns the statuses."""
    relay = session.relays["r"]
    statuses = []

    def scenario():
        for agent in (session.agent, relay):
            bad_before = agent.stats["bad_poll_bodies"]
            errors_before = agent.telemetry.ingest_errors
            if "[" * 500 in body:
                gc.collect()  # no finalizer may run at the recursion limit
            response = yield from agent._poll_response(
                HttpRequest("POST", "/poll", None, body.encode()), "x-pc"
            )
            bad = agent.stats["bad_poll_bodies"] - bad_before
            errors = agent.telemetry.ingest_errors - errors_before
            if response.status == 400:
                assert (bad, errors) == (1, 0)
            else:
                assert response.status == 200
                assert bad == 0 and errors in (0, 1)
            statuses.append((response.status, errors))
        host.mutate_document(lambda doc: doc.body.child_nodes[0].append_child(Text("!")))
        yield from session.wait_until_synced()
        yield sim.timeout(2 * session.fleet.flush_interval)

    run(sim, scenario())
    assert leaf.page.document.body.child_nodes[0].text_content == "v1!"
    fleet = session.fleet
    fleet.staleness_p95()
    fleet.apply_p99()
    fleet.stragglers()
    json.dumps(fleet.to_dict())
    render_fleet_view(fleet)
    session.close()
    return statuses


def digest_poll(*members):
    """A poll body from ``mallory`` carrying a digest of ``members``,
    each a JSON text."""
    return '{"participant": "mallory", "timestamp": 0, "actions": [], "telemetry": %s}' % (
        '{"v": 1, "members": [%s]}' % ", ".join(members)
    )


class TestHostileTelemetryDigests:
    """A piggybacked digest that does not decode is dropped whole and
    counted on the sink's ``ingest_errors``, at the host and at a relay:
    the session goes on, the rollups stay finite and the honest member
    converges on the next edit."""

    @pytest.mark.parametrize(
        "record",
        [
            '{"id": "x", "w": Infinity}',
            '{"id": "x", "c": {"polls": 1e400}}',
            '{"id": "x", "a": {"n": 1, "s": 3, "lo": 3, "hi": 3, "b": [[3]]}}',
            # 2.0 ** (100000 - 0.5) overflows in every rollup after it.
            '{"id": "x", "s": {"n": 1, "s": 5, "lo": 5, "hi": 5, "b": [[100000, 1]]}}',
            '{"id": "x", "s": {"n": 10, "s": 50, "lo": 5, "hi": 5, "b": [[3, 1]]}}',
            # The fuzzer's first new finding: .items() on a bool.
            '{"id": "x", "c": true}',
        ],
        ids=[
            "weight-infinity",
            "counter-1e400",
            "bucket-pair-of-one",
            "bucket-index-100000",
            "ten-samples-one-bucketed",
            "counters-not-an-object",
        ],
    )
    def test_malformed_record_is_one_ingest_error(self, record):
        sim, host, leaf, session = telemetry_world()
        body = digest_poll('{"id": "honest", "c": {"polls": 1}}', record)
        assert intrude_with_body(sim, host, leaf, session, body) == [(200, 1), (200, 1)]
        assert session.fleet.member("honest") is None
        assert session.fleet.member("x") is None

    @pytest.mark.parametrize(
        "members",
        [
            ['{"id": "m%d", "c": {"polls": 1}}' % index for index in range(10000)],
            [
                '{"id": "*", "m": {%s}}'
                % ", ".join('"mode-%d": 1' % index for index in range(10000))
            ],
        ],
        ids=["ten-thousand-ids", "ten-thousand-modes"],
    )
    def test_one_poll_adds_at_most_a_cap_of_state(self, members):
        sim, host, leaf, session = telemetry_world()
        relay = session.relays["r"]
        body = digest_poll(*members)
        assert intrude_with_body(sim, host, leaf, session, body) == [(200, 1), (200, 1)]
        fleet = session.fleet
        assert fleet.member("m0") is None and fleet.member_count <= 3
        assert set(fleet.totals().mode_polls) <= {"poll", "longpoll", "push"}
        pending = relay.telemetry.unreported().totals()
        assert set(pending.mode_polls) <= {"poll", "longpoll", "push"}


#: Numbers Python's JSON decoder reads that no float or 64-bit count
#: holds, and one it refuses (more digits than ``int()`` converts).
ODD_NUMBERS = [
    "NaN", "Infinity", "-Infinity", "1e400", "-1e400", "-1", "2.5", "true",
    "18446744073709551616", "1" + "0" * 40, "9" * 4301,
]
COUNTER_NAMES = ["polls", "bytes_seen", "resyncs", "bogus", ""]


def digest_field_texts():
    """Any JSON text for one field: every type, nested or not, and the
    odd numbers."""
    return json_texts() | st.sampled_from(ODD_NUMBERS)


def mostly(well_typed):
    """JSON text from ``well_typed`` four times in five, any JSON text
    otherwise."""
    return st.sampled_from(range(5)).flatmap(
        lambda k: well_typed if k else digest_field_texts()
    )


def object_text(fields):
    """JSON text of an object from ``{key: JSON text}``."""
    return "{%s}" % ",".join(json.dumps(key) + ":" + value for key, value in fields.items())


def well(strategy):
    return mostly(strategy.map(json.dumps))


def sketch_texts():
    """A sketch record whose bucket counts sum to its ``n``, each field
    of which may be any JSON text instead."""
    pairs = st.lists(st.tuples(st.integers(0, 64), st.integers(0, 4)).map(list), max_size=3)
    bound = st.integers(0, 2**64 - 1)
    return st.tuples(pairs, bound, bound, bound).flatmap(
        lambda drawn: st.fixed_dictionaries(
            {
                "n": well(st.just(sum(count for _, count in drawn[0]))),
                "s": well(st.just(drawn[1])),
                "lo": well(st.just(min(drawn[2:]))),
                "hi": well(st.just(max(drawn[2:]))),
                "b": well(st.just(drawn[0])),
            }
        )
    ).map(object_text)


def member_texts():
    counters = st.dictionaries(st.sampled_from(COUNTER_NAMES), st.integers(0, 9), max_size=3)
    modes = st.dictionaries(st.sampled_from(["poll", "push", "x"]), st.integers(0, 9), max_size=2)
    return st.fixed_dictionaries(
        {
            "id": well(st.sampled_from(["x", "*", "\u0130"])),
            "w": well(st.integers(0, 3)),
            "c": well(counters),
            "m": well(modes),
            "a": mostly(sketch_texts()),
            "s": mostly(sketch_texts()),
        }
    ).map(object_text)


def poll_body_texts():
    """A whole poll body: the snippet's fields and a digest of member
    records, each field well typed or any JSON text."""
    members = st.lists(mostly(member_texts()), max_size=3).map(
        lambda items: "[%s]" % ",".join(items)
    )
    digest = st.fixed_dictionaries({"v": well(st.just(1)), "members": mostly(members)})
    return st.fixed_dictionaries(
        {
            "participant": well(st.just("mallory")),
            "timestamp": well(st.just(0)),
            "actions": well(st.just([])),
            "transport": well(st.sampled_from(["poll", "longpoll", "push"])),
            "telemetry": mostly(digest.map(object_text)),
        }
    ).map(object_text)


@settings(max_examples=60, deadline=None)
@given(poll_body_texts())
def test_fuzzed_poll_bodies_end_in_200_400_or_one_ingest_error(body):
    """Whatever a poll body holds, the host's and a relay's poll
    endpoints end it in a 200, a counted 400 or one counted
    ``ingest_errors``; the fleet rollups never raise and the honest
    member converges on the next edit."""
    sim, host, leaf, session = telemetry_world()
    intrude_with_body(sim, host, leaf, session, body)

"""Tests for RCB-Agent request processing (paper Fig. 2)."""

import json

import pytest

from repro.browser import Browser
from repro.core import (
    ClickAction,
    ConfirmPolicy,
    MouseMoveAction,
    ObserveOnlyPolicy,
    RCBAgent,
    TOPIC_ROSTER_CHANGED,
    parse_envelope,
    sign_request_target,
)
from repro.http import HttpClient
from repro.net import LAN_PROFILE, Host, Network
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
            from repro.core import FormFillAction

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

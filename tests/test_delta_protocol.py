"""Delta envelopes over the polling protocol: end-to-end tests.

Covers the agent/snippet delta exchange (new <delta> envelope section),
every resync fallback — stale participant, evicted snapshot, mid-stream
``enable_delta`` toggles, corrupted deltas — and a property-style check
that delta-applied participant documents are byte-identical (serialized)
to full-envelope documents across randomized edit sequences.
"""

import json
import random

import pytest

from repro.browser import Browser
from repro.core import (
    CoBrowsingSession,
    NewContent,
    build_envelope,
    content_tree,
    parse_envelope,
)
from repro.html import Element, Text, serialize_node
from repro.net import LAN_PROFILE, Host, Network
from repro.sim import Simulator
from repro.webserver import OriginServer, StaticSite

PAGE = (
    "<html><head><title>Delta test</title><style>p { margin: 0; }</style></head>"
    "<body><h1 id='headline'>News</h1>"
    + "".join("<p id='p%d'>paragraph %d body text</p>" % (i, i) for i in range(20))
    + "<div id='footer'>fin</div></body></html>"
)


def build_world(participants=1, **session_kwargs):
    sim = Simulator()
    network = Network(sim)
    site = StaticSite("site.com")
    site.add_page("/", PAGE)
    OriginServer(network, "site.com", site.handle)
    host_pc = Host(network, "host-pc", LAN_PROFILE, segment="campus")
    host_browser = Browser(host_pc, name="bob")
    session_kwargs.setdefault("poll_interval", 0.2)
    session = CoBrowsingSession(host_browser, **session_kwargs)
    browsers = []
    for index in range(participants):
        pc = Host(network, "part-pc-%d" % index, LAN_PROFILE, segment="campus")
        browsers.append(Browser(pc, name="alice-%d" % index))
    return sim, session, browsers


def run(sim, generator):
    return sim.run_until_complete(sim.process(generator))


def participant_canonical(browser):
    """The participant document, serialized, minus Ajax-Snippet's script."""
    html = browser.page.document.document_element.clone(deep=True)
    head = [c for c in html.children if c.tag == "head"][0]
    for node in list(head.children):
        if node.tag == "script" and node.get_attribute("id") == "ajax-snippet":
            head.remove_child(node)
    return serialize_node(html)


def agent_canonical(agent, participant_id):
    """What a full envelope would currently give this participant."""
    body, _ = agent._serve_body(participant_id, 0, [])
    return serialize_node(content_tree(parse_envelope(body.to_bytes().decode("ascii"))))


def edit_paragraph(browser, index, text):
    def mutate(document):
        target = document.get_element_by_id("p%d" % index)
        target.remove_all_children()
        target.append_child(Text(text))

    browser.mutate_document(mutate)


class TestDeltaExchange:
    def test_small_edit_travels_as_delta(self):
        sim, session, (alice,) = build_world()

        def scenario():
            snippet = yield from session.join(alice)
            yield from session.host_navigate("http://site.com/")
            yield from session.wait_until_synced()
            edit_paragraph(session.host_browser, 3, "breaking news")
            yield from session.wait_until_synced()
            return snippet

        snippet = run(sim, scenario())
        assert session.agent.stats["delta_responses"] == 1
        assert snippet.stats.delta_updates == 1
        assert snippet.stats.delta_failures == 0
        assert participant_canonical(alice) == agent_canonical(
            session.agent, snippet.participant_id
        )
        assert "breaking news" in participant_canonical(alice)

    def test_delta_is_much_smaller_than_full(self):
        sim, session, (alice,) = build_world()

        def scenario():
            yield from session.join(alice)
            yield from session.host_navigate("http://site.com/")
            yield from session.wait_until_synced()
            edit_paragraph(session.host_browser, 0, "tiny edit")
            yield from session.wait_until_synced()

        run(sim, scenario())
        stats = session.agent.stats
        assert stats["delta_responses"] == 1
        full_equivalent = stats["delta_bytes_sent"] + stats["delta_bytes_saved"]
        assert full_equivalent >= 5 * stats["delta_bytes_sent"]

    def test_disabled_delta_always_sends_full(self):
        sim, session, (alice,) = build_world(enable_delta=False)

        def scenario():
            yield from session.join(alice)
            yield from session.host_navigate("http://site.com/")
            yield from session.wait_until_synced()
            edit_paragraph(session.host_browser, 1, "no deltas here")
            yield from session.wait_until_synced()

        run(sim, scenario())
        assert session.agent.stats["delta_responses"] == 0
        assert session.agent.stats["full_responses"] == 2
        assert participant_canonical(alice) == agent_canonical(session.agent, "alice-0")

    def test_coalesced_delta_spans_multiple_edits(self):
        """Several host edits between two polls arrive as one delta
        against the participant's older (but still retained) snapshot.

        Coalescing-between-polls only exists under interval polling —
        a held transport releases on the first edit — so the transport
        is pinned to "poll" regardless of any forced RCB_TRANSPORT.
        """
        sim, session, (alice,) = build_world(poll_interval=5.0, transport="poll")

        def scenario():
            snippet = yield from session.join(alice)
            yield from session.host_navigate("http://site.com/")
            yield from session.wait_until_synced()
            for index in range(3):
                edit_paragraph(session.host_browser, index, "multi %d" % index)
                yield sim.timeout(0.01)
            yield from session.wait_until_synced(timeout=30)
            return snippet

        snippet = run(sim, scenario())
        assert snippet.stats.delta_updates == 1
        assert participant_canonical(alice) == agent_canonical(
            session.agent, snippet.participant_id
        )

    def test_actions_piggyback_on_delta_envelopes(self):
        from repro.core import MouseMoveAction

        sim, session, (alice,) = build_world()

        def scenario():
            snippet = yield from session.join(alice)
            yield from session.host_navigate("http://site.com/")
            yield from session.wait_until_synced()
            session.agent.broadcast_action(MouseMoveAction(5, 7))
            edit_paragraph(session.host_browser, 2, "with actions")
            yield from session.wait_until_synced()
            return snippet

        snippet = run(sim, scenario())
        assert session.agent.stats["delta_responses"] == 1
        assert any(
            getattr(action, "x", None) == 5 for action in snippet.stats.actions_received
        )


class TestResyncFallbacks:
    def test_evicted_snapshot_falls_back_to_full(self):
        sim, session, (alice, carol) = build_world(participants=2)
        session.agent.delta_history = 2

        def scenario():
            lazy = yield from session.join(carol)
            busy = yield from session.join(alice)
            yield from session.host_navigate("http://site.com/")
            yield from session.wait_until_synced()
            lazy.disconnect()  # stops polling; keeps its document state
            for index in range(4):
                edit_paragraph(session.host_browser, index, "round %d" % index)
                yield from session.wait_until_synced(busy)
            # The lazy participant's base state has been evicted from the
            # two-entry ring by now; its next poll must get a full envelope.
            fallbacks_before = session.agent.stats["delta_fallbacks"]
            yield from lazy.poll_once()
            return lazy, busy, fallbacks_before

        lazy, busy, fallbacks_before = run(sim, scenario())
        assert session.agent.stats["delta_fallbacks"] == fallbacks_before + 1
        assert lazy.stats.delta_failures == 0
        assert lazy.last_doc_time == session.agent.doc_time
        assert participant_canonical(carol) == agent_canonical(
            session.agent, lazy.participant_id
        )

    def test_stale_participant_converges_via_full(self):
        """A participant that reports a timestamp the agent never
        generated (e.g. it re-joined) is answered with a full envelope.

        The stale timestamp is injected between polls, which requires
        interval polling — under a held transport the in-flight poll
        already carries the real timestamp — so the mode is pinned.
        """
        sim, session, (alice,) = build_world(transport="poll")

        def scenario():
            snippet = yield from session.join(alice)
            yield from session.host_navigate("http://site.com/")
            yield from session.wait_until_synced()
            snippet.last_doc_time = 7  # a doc_time the agent never saw
            edit_paragraph(session.host_browser, 4, "post-stale")
            yield from session.wait_until_synced()
            return snippet

        snippet = run(sim, scenario())
        assert session.agent.stats["delta_fallbacks"] >= 1
        assert participant_canonical(alice) == agent_canonical(
            session.agent, snippet.participant_id
        )

    def test_midstream_toggle_converges_both_ways(self):
        sim, session, (alice,) = build_world()
        states = []

        def checkpoint(snippet):
            states.append(
                participant_canonical(alice)
                == agent_canonical(session.agent, snippet.participant_id)
            )

        def scenario():
            snippet = yield from session.join(alice)
            yield from session.host_navigate("http://site.com/")
            yield from session.wait_until_synced()
            edit_paragraph(session.host_browser, 0, "delta on")
            yield from session.wait_until_synced()
            checkpoint(snippet)
            session.agent.enable_delta = False
            edit_paragraph(session.host_browser, 1, "delta off")
            yield from session.wait_until_synced()
            checkpoint(snippet)
            session.agent.enable_delta = True
            edit_paragraph(session.host_browser, 2, "delta back on")
            yield from session.wait_until_synced()
            checkpoint(snippet)
            edit_paragraph(session.host_browser, 3, "delta warm again")
            yield from session.wait_until_synced()
            checkpoint(snippet)
            return snippet

        snippet = run(sim, scenario())
        assert states == [True, True, True, True]
        assert snippet.stats.delta_failures == 0
        # The first post-re-enable edit lacks a base snapshot (generated
        # while deltas were off) and goes full; the next one is a delta.
        assert session.agent.stats["delta_responses"] >= 2

    def test_corrupted_delta_forces_resync(self):
        sim, session, (alice,) = build_world()

        def scenario():
            snippet = yield from session.join(alice)
            yield from session.host_navigate("http://site.com/")
            yield from session.wait_until_synced()
            bogus = build_envelope(
                NewContent(
                    snippet.last_doc_time + 500,
                    base_time=snippet.last_doc_time,
                    delta_ops_json=json.dumps(
                        [{"op": "remove", "sec": "body", "path": [99]}]
                    ),
                )
            )
            yield from snippet._process_response(bogus, sim.now)
            assert snippet.stats.delta_failures == 1
            assert snippet.last_doc_time == 0  # resync requested
            # The next regular poll repairs the document with a full envelope.
            yield from snippet.poll_once()
            return snippet

        snippet = run(sim, scenario())
        assert snippet.last_doc_time == session.agent.doc_time
        assert participant_canonical(alice) == agent_canonical(
            session.agent, snippet.participant_id
        )

    def test_base_time_mismatch_forces_resync(self):
        sim, session, (alice,) = build_world()

        def scenario():
            snippet = yield from session.join(alice)
            yield from session.host_navigate("http://site.com/")
            yield from session.wait_until_synced()
            stale = build_envelope(
                NewContent(
                    snippet.last_doc_time + 500,
                    base_time=snippet.last_doc_time - 3,
                    delta_ops_json="[]",
                )
            )
            yield from snippet._process_response(stale, sim.now)
            return snippet

        snippet = run(sim, scenario())
        assert snippet.stats.delta_failures == 1
        assert snippet.last_doc_time == 0


class TestDeltaEnvelopeFormat:
    def test_delta_envelope_roundtrip(self):
        ops = [{"op": "text", "sec": "body", "path": [0, 0], "data": "new & <shiny>"}]
        content = NewContent(42, base_time=17, delta_ops_json=json.dumps(ops))
        parsed = parse_envelope(build_envelope(content))
        assert parsed == content
        assert parsed.is_delta
        assert parsed.base_time == 17
        assert json.loads(parsed.delta_ops_json) == ops

    def test_delta_without_base_time_rejected(self):
        from repro.core import EnvelopeError

        with pytest.raises(EnvelopeError):
            NewContent(42, delta_ops_json="[]")

    def test_parse_rejects_delta_missing_base_time(self):
        from repro.core import EnvelopeError

        text = (
            "<?xml version='1.0' encoding='utf-8'?><newContent>"
            "<docTime>9</docTime><delta><![CDATA[%5B%5D]]></delta>"
            "<userActions><![CDATA[%5B%5D]]></userActions></newContent>"
        )
        with pytest.raises(EnvelopeError):
            parse_envelope(text)

    def test_full_envelope_unaffected(self):
        content = NewContent(7)
        parsed = parse_envelope(build_envelope(content))
        assert not parsed.is_delta
        assert parsed.base_time is None


class TestRandomizedEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_delta_documents_match_full_documents(self, seed):
        """Property-style end-to-end check: across a randomized edit
        sequence, the delta-updated participant document serializes
        byte-identically to the full-envelope reconstruction."""
        rng = random.Random(seed)
        sim, session, (alice,) = build_world()

        def random_edit(document):
            roll = rng.random()
            body = document.body
            paragraphs = [e for e in body.children if e.tag == "p"]
            if roll < 0.4 and paragraphs:
                target = rng.choice(paragraphs)
                target.remove_all_children()
                target.append_child(Text("edit %d" % rng.randrange(10000)))
            elif roll < 0.6 and paragraphs:
                rng.choice(paragraphs).set_attribute(
                    "data-rev", str(rng.randrange(10000))
                )
            elif roll < 0.8:
                fresh = Element("p", {"id": "new%d" % rng.randrange(10000)})
                fresh.append_child(Text("inserted %d" % rng.randrange(10000)))
                siblings = body.children
                body.insert_before(fresh, rng.choice(siblings) if siblings else None)
            elif len(paragraphs) > 1:
                body.remove_child(rng.choice(paragraphs))

        def scenario():
            snippet = yield from session.join(alice)
            yield from session.host_navigate("http://site.com/")
            yield from session.wait_until_synced()
            mismatches = []
            for _ in range(10):
                session.host_browser.mutate_document(random_edit)
                yield from session.wait_until_synced(timeout=30)
                if participant_canonical(alice) != agent_canonical(
                    session.agent, snippet.participant_id
                ):
                    mismatches.append(session.agent.doc_time)
            return snippet, mismatches

        snippet, mismatches = run(sim, scenario())
        assert mismatches == []
        assert snippet.stats.delta_failures == 0
        # The whole sequence should ride the delta path.
        assert snippet.stats.delta_updates >= 8

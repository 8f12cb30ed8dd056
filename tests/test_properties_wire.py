"""Property-based test: every served body passes the reference oracle.

For random edit sequences and member mixes, each broadcast-plan body
(shared templates + per-member userActions splice) must be exactly the
reference builder's encoding of the content it carries, carry the
member's own actions and the current docTime, and ship a delta only
when strictly shorter than the full envelope carrying the same actions.
A delta applied to the member's base must give the full envelope's
content.  The delta-fallback stats
and events must match those verdicts — in plain and HMAC-enabled worlds
alike.  The fixed cases, pinned byte for byte by golden fixtures, live
in test_serve_wire.py.
"""

import json
import string

from hypothesis import given, settings, strategies as st

from repro.browser import Browser
from repro.core import FormFillAction, MouseMoveAction, RCBAgent
from repro.core.delta import apply_delta, content_tree
from repro.core.xmlformat import parse_envelope
from repro.html import Text, serialize_node
from repro.net import LAN_PROFILE, Host, Network
from repro.obs import DELTA_FALLBACK, EventBus
from repro.sim import Simulator
from repro.webserver import OriginServer, StaticSite
from tests.serve_oracle import assert_reference_envelope, reference_full_length

PAGE = (
    "<html><head><title>Prop</title></head>"
    "<body><h2 id='headline'>start</h2>"
    "<form id='f'><input name='q' value=''></form>"
    + "".join("<p id='p%d'>seed %d</p>" % (i, i) for i in range(6))
    + "</body></html>"
)


def build_agent(secret=None, events=None):
    sim = Simulator()
    network = Network(sim)
    site = StaticSite("site.com")
    site.add_page("/", PAGE)
    OriginServer(network, "site.com", site.handle)
    host_pc = Host(network, "host-pc", LAN_PROFILE, segment="campus")
    browser = Browser(host_pc, name="host")
    agent = RCBAgent(secret=secret, events=events)
    agent.install(browser)
    sim.run_until_complete(sim.process(browser.navigate("http://site.com/")))
    return browser, agent


# One edit = (paragraph index, replacement text); index -1 rewrites the
# whole body, so a diff across it loses on size and falls back.
edits = st.lists(
    st.tuples(
        st.integers(min_value=-1, max_value=5),
        st.text(alphabet=string.ascii_letters + string.digits + " .,!-", max_size=30),
    ),
    min_size=1,
    max_size=4,
)

# One member = (how many ticks behind its ack is, action payload kind).
members = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=5),
        st.sampled_from(["none", "shared", "own", "both"]),
    ),
    min_size=1,
    max_size=6,
)


def apply_edit(browser, index, text):
    def mutate(document):
        if index < 0:
            body = document.body
            for child in list(body.children):
                body.remove_child(child)
            for i in range(6):
                paragraph = document.create_element("p", id="p%d" % i)
                paragraph.append_child(Text("%s rewritten %d" % (text, i)))
                body.append_child(paragraph)
            for i in range(40):
                body.append_child(document.create_element("div", id="new-%d" % i))
            return
        target = document.get_element_by_id("p%d" % index)
        target.remove_all_children()
        target.append_child(Text(text if text else "empty"))

    browser.mutate_document(mutate)


@settings(max_examples=25, deadline=None)
@given(edit_seq=edits, member_mix=members, use_secret=st.booleans())
def test_batched_serve_is_byte_identical(edit_seq, member_mix, use_secret):
    events = EventBus()
    fallbacks = []
    events.subscribe(lambda e: fallbacks.append(e) if e.type == DELTA_FALLBACK else None)
    browser, agent = build_agent(secret="prop-secret" if use_secret else None, events=events)

    # Run the edit sequence tick by tick; a poll at each state puts it
    # in the snapshot ring, so every member's base can be diffed.  The
    # full content of each state is kept as the base a delta applies to.
    history = [agent.doc_time]
    fulls = {}
    for index, text in edit_seq:
        warm, _ = agent._serve_body("warm", 0, [])
        fulls[agent.doc_time] = parse_envelope(warm.to_bytes().decode("ascii"))
        apply_edit(browser, index, text)
        history.append(agent.doc_time)

    shared = [MouseMoveAction(11, 22)]
    expected_fallbacks = expected_saved = 0
    for slot, (behind, action_kind) in enumerate(member_mix):
        member = "m%d" % slot
        their_time = 0 if behind >= len(history) else history[-1 - behind]
        actions = {
            "none": [],
            "shared": shared,
            "own": [FormFillAction("f", {"q": "member %d" % slot})],
            "both": shared + [MouseMoveAction(slot, slot)],
        }[action_kind]
        body, is_delta = agent._serve_body(member, their_time, actions)
        wire = agent._respond(body).body
        full, _ = agent._serve_body(member, 0, [])
        content = assert_reference_envelope(wire, actions, full.to_bytes())
        assert content.is_delta == is_delta
        # The current state, not a body left over from an older one.
        current = parse_envelope(full.to_bytes().decode("ascii"))
        fulls.setdefault(agent.doc_time, current)
        assert content.doc_time == current.doc_time == agent.doc_time
        if is_delta:
            # Applied to the member's base, the delta gives the full
            # envelope's content.
            assert content.base_time == their_time
            tree = content_tree(fulls[their_time])
            apply_delta(tree, json.loads(content.delta_ops_json))
            assert serialize_node(tree) == serialize_node(content_tree(current))
            full_length = reference_full_length(full.to_bytes(), content.user_actions_json)
            expected_saved += full_length - len(wire)
        elif their_time > 0:
            expected_fallbacks += 1

    # Every full answer to a known base is an oversize fallback: the
    # stats and events agree with the verdicts above.
    assert agent.stats["delta_fallbacks"] == expected_fallbacks == len(fallbacks)
    assert agent.stats["delta_bytes_saved"] == expected_saved
    for event in fallbacks:
        assert event.data["reason"] == "oversize"
        assert event.data["delta_bytes"] >= event.data["full_bytes"]

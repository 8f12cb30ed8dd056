"""Ablation: delta envelopes vs full envelopes for small edits.

When the host makes a small change to a shared page (one text node on a
~50-object page), the full-envelope protocol resends the entire document
content on the next poll.  The delta protocol diffs the retained
snapshot of the participant's last-acknowledged state against the
current document and ships only the changed nodes.

Two measurements:

* bytes on the wire — the same small-edit workload run with
  ``enable_delta`` on and off; delta responses must be >= 5x smaller
  than the full envelopes they replace;
* Table-1-style processing time — wall-clock cost of the real compute
  paths (agent-side content generation / diff, participant-side
  document update) for the same one-text-node edit.
"""

import json
import time

from repro.browser import Browser
from repro.core import (
    AjaxSnippet,
    ContentGenerator,
    CoBrowsingSession,
    apply_delta,
    content_tree,
    diff_trees,
    parse_envelope,
)
from repro.browser.page import Page
from repro.core.xmlformat import wire_envelope_template
from repro.html import Text, parse_document
from repro.net import LAN_PROFILE, Host, Network, parse_url
from repro.sim import Simulator
from repro.webserver import OriginServer, StaticSite

from _rcb_compute import served_envelope
from conftest import write_result

OBJECT_COUNT = 50
EDITS = 5

PAGE = (
    "<html><head><title>Gallery</title><style>img { border: 0; }</style></head>"
    "<body><p id='status'>fresh</p>"
    + "".join(
        "<div class='cell'><img src='/img-%d.png' alt='photo %d'>"
        "<span>caption %d</span></div>" % (i, i, i)
        for i in range(OBJECT_COUNT)
    )
    + "</body></html>"
)


def build_gallery_world(enable_delta):
    """A LAN host+participant pair sharing a ~50-object gallery page."""
    sim = Simulator()
    network = Network(sim)
    site = StaticSite("gallery.com")
    site.add_page("/", PAGE)
    for index in range(OBJECT_COUNT):
        site.add("/img-%d.png" % index, "image/png", b"\x89PNG" + bytes(800))
    OriginServer(network, "gallery.com", site.handle)
    host_pc = Host(network, "host-pc", LAN_PROFILE, segment="campus")
    host_browser = Browser(host_pc, name="host")
    session = CoBrowsingSession(
        host_browser, poll_interval=0.2, enable_delta=enable_delta
    )
    participant_pc = Host(network, "participant-pc", LAN_PROFILE, segment="campus")
    participant = Browser(participant_pc, name="participant")
    return sim, session, participant


def edit_status(browser, text):
    def mutate(document):
        target = document.get_element_by_id("status")
        target.remove_all_children()
        target.append_child(Text(text))

    browser.mutate_document(mutate)


def measure_bytes(enable_delta):
    sim, session, participant = build_gallery_world(enable_delta)
    outcome = {}

    def scenario():
        snippet = yield from session.join(participant)
        yield from session.host_navigate("http://gallery.com/")
        yield from session.wait_until_synced()
        baseline = dict(session.agent.stats)
        for index in range(EDITS):
            edit_status(session.host_browser, "update %d" % index)
            yield from session.wait_until_synced()
        for key in (
            "delta_responses",
            "full_responses",
            "delta_bytes_sent",
            "delta_bytes_saved",
            "full_bytes_sent",
        ):
            outcome[key] = session.agent.stats[key] - baseline[key]
        outcome["delta_failures"] = snippet.stats.delta_failures

    sim.run_until_complete(sim.process(scenario()))
    session.close()
    return outcome


def _best_of(callable_, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - started)
    return best


def test_delta_bytes_small_edit(benchmark, results_dir):
    """One short text node edited on a ~50-object page: delta responses
    are >= 5x smaller than the full envelopes they replace."""

    def both():
        return measure_bytes(enable_delta=True), measure_bytes(enable_delta=False)

    with_delta, full_only = benchmark.pedantic(both, rounds=1, iterations=1)

    assert with_delta["delta_failures"] == 0
    assert with_delta["delta_responses"] == EDITS
    assert full_only["delta_responses"] == 0
    assert full_only["full_responses"] == EDITS

    delta_bytes = with_delta["delta_bytes_sent"]
    full_equivalent = delta_bytes + with_delta["delta_bytes_saved"]
    shrink = full_equivalent / max(1, delta_bytes)

    text = "\n".join(
        [
            "Ablation: delta vs full envelopes"
            " (%d small edits, %d-object page, LAN)" % (EDITS, OBJECT_COUNT),
            "%-22s %18s %18s" % ("variant", "content bytes", "responses"),
            "%-22s %18d %18d"
            % ("delta envelopes", delta_bytes, with_delta["delta_responses"]),
            "%-22s %18d %18d"
            % (
                "full envelopes",
                full_only["full_bytes_sent"],
                full_only["full_responses"],
            ),
            "shrink factor vs the full envelopes replaced: %.1fx" % shrink,
        ]
    )
    write_result(results_dir, "ablation_delta_bytes.txt", text)

    # Acceptance: >= 5x smaller for the small-edit workload.
    assert shrink >= 5.0
    # Cross-check against the ablated run: the full-envelope variant
    # really did pay the full price for the same edits.
    assert full_only["full_bytes_sent"] >= 5.0 * delta_bytes


def test_delta_processing_time_small_edit(benchmark, results_dir):
    """Table-1-style processing time (M5 generation, M6 update) for one
    small edit, full pipeline vs delta pipeline."""
    base_url = parse_url("http://gallery.com/")
    old_document = parse_document(PAGE)
    new_document = parse_document(PAGE)
    target = new_document.get_element_by_id("status")
    target.remove_all_children()
    target.append_child(Text("edited"))
    generator = ContentGenerator()

    def generate(document, doc_time):
        generated = generator.generate(document, base_url, cache_session=None)
        return wire_envelope_template(
            doc_time, generated.head_segments, generated.top_segments
        )

    old_envelope = served_envelope(generate(old_document, 1))
    new_envelope = served_envelope(generate(new_document, 2))
    old_tree = content_tree(parse_envelope(old_envelope))
    new_tree = content_tree(parse_envelope(new_envelope))

    def make_snippet():
        sim = Simulator()
        network = Network(sim)
        host = Host(network, "bench-host-%d" % id(sim), LAN_PROFILE)
        browser = Browser(host, name="bench-participant")
        initial = parse_document(
            "<html><head><script id='ajax-snippet'></script></head>"
            "<body><p>waiting</p></body></html>"
        )
        browser.page = Page(parse_url("http://agent:3000/"), initial)
        return AjaxSnippet(
            browser, "http://agent:3000/", poll_interval=1.0, fetch_objects=False
        )

    snippet = make_snippet()
    snippet._apply_update(parse_envelope(old_envelope))

    def timings():
        full_generate = _best_of(lambda: generate(new_document, 2))
        full_apply = _best_of(
            lambda: snippet._apply_update(parse_envelope(new_envelope))
        )
        delta_generate = _best_of(
            lambda: json.dumps(diff_trees(old_tree, new_tree), separators=(",", ":"))
        )
        ops = diff_trees(old_tree, new_tree)

        def apply_once():
            working = old_tree.clone(deep=True)
            apply_delta(working, ops)

        delta_apply = _best_of(apply_once)
        return full_generate, full_apply, delta_generate, delta_apply

    full_generate, full_apply, delta_generate, delta_apply = benchmark.pedantic(
        timings, rounds=1, iterations=1
    )

    text = "\n".join(
        [
            "Processing time for one small edit (%d-object page)" % OBJECT_COUNT,
            "%-18s %16s %16s" % ("pipeline", "agent side", "participant side"),
            "%-18s %15.5fs %15.5fs" % ("full envelope", full_generate, full_apply),
            "%-18s %15.5fs %15.5fs" % ("delta envelope", delta_generate, delta_apply),
        ]
    )
    write_result(results_dir, "ablation_delta_processing.txt", text)

    # The participant-side update is where the paper's M6 metric lives:
    # applying a one-node delta must beat rebuilding the whole document.
    assert delta_apply < full_apply

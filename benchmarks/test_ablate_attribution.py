"""Ablation: wire-byte attribution at fan-out scale, and profiler cost.

Two claims the observability layer makes:

* **Conservation** — at N=64 over a cascaded relay tree, every
  attributed response's labeled buckets sum exactly to the bytes its
  serving node shipped (independently counted at the socket layer),
  and the top-cost member/tier ranking is a *stable* fact of the
  workload, not of the seed that shuffled the edit history.
* **The books are cheap** — running a session with the tracer and the
  byte-attribution sink attached costs <5% of serve throughput (the
  absolute floor `profiler-overhead` in floors.json gates the ratio).
"""

import gc
import random
import time

from repro.browser import Browser
from repro.core import CoBrowsingSession
from repro.html import Text
from repro.net import LAN_PROFILE, Host, Network
from repro.net.socket import Connection
from repro.obs import ByteAttribution, Tracer
from repro.sim import Simulator
from repro.webserver import OriginServer, StaticSite

from conftest import write_result

PAGE = (
    "<html><head><title>Attribution ablation</title></head><body>"
    + "".join("<p id='p%d'>paragraph %d body text</p>" % (i, i) for i in range(8))
    + "</body></html>"
)

N_MEMBERS = 64
BRANCHING = 8
SEEDS = (7, 23, 91)


class RecordingAttribution(ByteAttribution):
    """Keeps every finalized record so the run can be audited."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.finalized = []

    def record(self, record):
        self.finalized.append(record)
        super().record(record)


def _build_world(attribution=None, tracer=None, poll_interval=0.25):
    sim = Simulator()
    network = Network(sim)
    site = StaticSite("site.com")
    site.add_page("/", PAGE)
    OriginServer(network, "site.com", site.handle)
    host_pc = Host(network, "host-pc", LAN_PROFILE, segment="campus")
    host = Browser(host_pc, name="bob")
    session = CoBrowsingSession(
        host, poll_interval=poll_interval, tracer=tracer, attribution=attribution
    )
    return sim, network, host, session


def _edit(browser, index, text):
    def mutate(document):
        target = document.get_element_by_id("p%d" % index)
        target.remove_all_children()
        target.append_child(Text(text))

    browser.mutate_document(mutate)


def _run_fanout(seed, sendv_totals):
    """One attributed N=64 tree session with a seeded edit history and
    one deliberately hot tier-1 member (a forced-resync storm)."""
    rng = random.Random(seed)
    attribution = RecordingAttribution()
    sim, network, host, session = _build_world(attribution=attribution)
    session.fanout_tree(branching=BRANCHING)
    guests = [
        Browser(
            Host(network, "pc-%d" % i, LAN_PROFILE, segment="campus"),
            name="g%02d" % i,
        )
        for i in range(N_MEMBERS)
    ]

    def storm(upstream):
        while upstream.connected:
            upstream.last_doc_time = 0
            yield sim.timeout(0.11)

    def scenario():
        for guest in guests:
            yield from session.join(guest)
        yield from session.host_navigate("http://site.com/")
        yield from session.wait_until_synced()
        hog = min(m for m in session.relays if session.member_tier(m) == 1)
        sim.process(storm(session.relays[hog].upstream))
        for tick in range(10):
            _edit(
                host,
                rng.randrange(8),
                "tick %d %s" % (tick, "x" * rng.randrange(8, 64)),
            )
            yield sim.timeout(0.5)
        yield sim.timeout(1.0)
        return hog

    hog = sim.run_until_complete(sim.process(scenario()))
    session.close()
    return attribution, hog


def test_fanout_attribution_conserves_and_ranks_stably(
    benchmark, results_dir, monkeypatch
):
    sendv_totals = []
    original_sendv = Connection.sendv

    def counting_sendv(self, buffers):
        sendv_totals.append(sum(len(buffer) for buffer in buffers))
        return original_sendv(self, buffers)

    monkeypatch.setattr(Connection, "sendv", counting_sendv)

    runs = {}

    def run_all():
        for seed in SEEDS:
            del sendv_totals[:]
            attribution, hog = _run_fanout(seed, sendv_totals)
            runs[seed] = (attribution, hog, list(sendv_totals))

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    lines = [
        "Ablation: wire-byte attribution (N=%d, branching=%d, resync-storm hog)"
        % (N_MEMBERS, BRANCHING),
        "%6s %10s %12s %-6s %12s %s"
        % ("seed", "responses", "bytes", "top", "top bytes", "tier ranking"),
    ]
    rankings = []
    for seed in SEEDS:
        attribution, hog, totals = runs[seed]
        # Conservation, twice over: each record internally, and the
        # record set (every poll response is a scatter-gather send)
        # against the independent socket-layer byte counts.
        for record in attribution.finalized:
            assert sum(record.buckets.values()) == record.shipped
        planned = sorted(record.shipped for record in attribution.finalized)
        assert sorted(totals) == planned
        top_member, top_bytes = attribution.top_members(1)[0]
        assert top_member == hog, (
            "seed %d: the storming member must rank top-cost" % seed
        )
        tier_order = [tier for tier, _bytes in attribution.top_tiers()]
        rankings.append(tier_order)
        lines.append(
            "%6d %10d %12d %-6s %12d %s"
            % (
                seed,
                attribution.responses,
                attribution.total_bytes,
                top_member,
                top_bytes,
                " > ".join(tier_order),
            )
        )
    assert all(order == rankings[0] for order in rankings), (
        "tier cost ranking must not depend on the seed"
    )
    write_result(results_dir, "ablation_attribution.txt", "\n".join(lines))


# -- profiler overhead: tracer + attribution attached vs dark -------------------------


def _measure_session(profiled, rounds=3):
    """Best-of wall-clock for a serve-heavy flat session, polls/s."""
    best = float("inf")
    polls = 0
    for _round in range(rounds):
        tracer = Tracer() if profiled else None
        attribution = ByteAttribution() if profiled else None
        sim, network, host, session = _build_world(
            attribution=attribution, tracer=tracer, poll_interval=0.1
        )
        guests = [
            Browser(
                Host(network, "ppc-%d" % i, LAN_PROFILE, segment="campus"),
                name="m%02d" % i,
            )
            for i in range(16)
        ]

        def setup():
            for guest in guests:
                yield from session.join(guest)
            yield from session.host_navigate("http://site.com/")
            yield from session.wait_until_synced()

        def churn():
            for tick in range(40):
                _edit(host, tick % 8, "tick %d" % tick)
                yield sim.timeout(0.25)

        sim.run_until_complete(sim.process(setup()))
        started = time.perf_counter()
        sim.run_until_complete(sim.process(churn()))
        best = min(best, time.perf_counter() - started)
        polls = session.agent.stats["polls"]
        session.close()
    return polls / best


def test_profiler_overhead(benchmark, results_dir):
    """Profiling enabled must stay within a few percent of dark."""
    measurements = {}

    def run_both():
        # Interleave so a noisy scheduling window skews both alike.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            measurements["dark"] = _measure_session(False)
            measurements["profiled"] = _measure_session(True)
        finally:
            if gc_was_enabled:
                gc.enable()

    benchmark.pedantic(run_both, rounds=1, iterations=1)

    ratio = measurements["profiled"] / measurements["dark"]
    text = (
        "Profiler overhead (flat session, 16 members, 400 sim-polls): "
        "profiled %.1f polls/s vs dark %.1f polls/s (%.3fx ratio)"
        % (measurements["profiled"], measurements["dark"], ratio)
    )
    write_result(results_dir, "profiler_overhead.txt", text)
    # The CI floor (floors.json: profiler-overhead >= 0.95) is the real
    # <5% gate; locally only guard against something pathological.
    assert ratio > 0.5

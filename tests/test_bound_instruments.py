"""Per-poll bookkeeping through bound instruments.

The agent, each Ajax-Snippet and the delta diff/apply resolve the
instruments they update on every poll once, when their owner is built
(or on their first use), and then write them directly.  These tests pin
the two halves of that contract:

* **Same numbers.**  A seeded 8-member long-poll session ends with the
  counter values, gauge values and histogram counts recorded while every
  update still resolved its instrument by name, in
  ``tests/fixtures/registry_longpoll_session.json``
  (regenerate with ``PYTHONPATH=src python -m tests.test_bound_instruments``).
  Wall-clock readings (``*_seconds`` gauges, histogram sums) are left
  out: they differ on every run.
* **No lookups in the steady state.**  After warm-up, polls, diffs and
  delta applies under every transport make no
  ``MetricsRegistry._get_or_create`` call.
"""

import json
import os

import pytest

from repro.browser import Browser
from repro.core import CoBrowsingSession, SnippetStats
from repro.core.actions import ClickAction, MouseMoveAction
from repro.html import Text
from repro.net import LAN_PROFILE, WAN_HOME_PROFILE, Host, Network
from repro.obs import Counter, Gauge, Histogram, MetricsRegistry
from repro.sim import Simulator
from repro.webserver import OriginServer, StaticSite

FIXTURE_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "fixtures", "registry_longpoll_session.json"
)

PAGE = (
    "<html><head><title>Bound</title><link rel='stylesheet' href='/s.css'></head>"
    "<body><h2>tick 0</h2><p>text <a href='/next'>next</a></p>"
    "<img src='/a.png'><img src='/b.png'></body></html>"
)


def build_session(members, transport):
    """A LAN host on s.com with ``members`` WAN guests: ``(sim, host,
    guests, session)``."""
    sim = Simulator()
    network = Network(sim)
    site = StaticSite("s.com")
    site.add_page("/", PAGE)
    site.add_page("/next", "<html><head></head><body><p>next page</p></body></html>")
    site.add("/s.css", "text/css", b"p { color: red }")
    site.add("/a.png", "image/png", b"\x89PNG" + b"a" * 600)
    site.add("/b.png", "image/png", b"\x89PNG" + b"b" * 900)
    OriginServer(network, "s.com", site.handle)
    host = Browser(Host(network, "h-pc", LAN_PROFILE, segment="lan"), name="h")
    guests = [
        Browser(
            Host(network, "g%d-pc" % i, WAN_HOME_PROFILE, segment="home-%d" % i), name="g%d" % i
        )
        for i in range(members)
    ]
    session = CoBrowsingSession(host, poll_interval=0.5, transport=transport)
    return sim, host, guests, session


def edit_heading(host, tick):
    def mutate(document):
        heading = document.get_elements_by_tag_name("h2")[0]
        heading.remove_all_children()
        heading.append_child(Text("tick %d" % tick))

    host.mutate_document(mutate)


def play_longpoll_session():
    """The seeded session the fixture records: 8 long-poll members, six
    heading edits each with a broadcast action (a pointer move, a click
    at the third), one member's click on a stale reference, a pointer
    move from a member, and a quiet stretch longer than the hold
    timeout.  Returns the registry."""
    sim, host, guests, session = build_session(8, "longpoll")

    def scenario():
        snippets = []
        for guest in guests:
            snippets.append((yield from session.join(guest)))
        yield from session.host_navigate("http://s.com/")
        yield from session.wait_until_synced()
        for tick in range(1, 7):
            edit_heading(host, tick)
            session.agent.broadcast_action(ClickAction("a:0") if tick == 3 else _pointer(tick))
            yield from session.wait_until_synced()
            yield sim.timeout(0.25)
        snippets[2].queue_action(ClickAction("a:99"))
        snippets[5].report_mouse_move(40, 50)
        yield sim.timeout(30.0)
        edit_heading(host, 7)
        yield from session.wait_until_synced()

    sim.run_until_complete(sim.process(scenario()))
    session.close()
    return session.metrics


def _pointer(tick):
    return MouseMoveAction(10 * tick, 20 * tick)


def registry_record(registry):
    """Every sim-time number in ``registry``: counter values, gauge
    values other than wall-clock ``*_seconds`` readings, and histogram
    counts, keyed by ``name{labels}``."""
    record = {"counters": {}, "gauges": {}, "histogram_counts": {}}
    for instrument in registry.collect():
        key = instrument.name + instrument.label_text()
        if isinstance(instrument, Histogram):
            record["histogram_counts"][key] = instrument.count
        elif isinstance(instrument, Counter):
            record["counters"][key] = instrument.value
        elif not instrument.name.endswith("_seconds"):
            record["gauges"][key] = instrument.value
    return record


def write_fixture():
    """Rewrite the fixture from the current program."""
    os.makedirs(os.path.dirname(FIXTURE_PATH), exist_ok=True)
    with open(FIXTURE_PATH, "w") as handle:
        json.dump(
            {
                "comment": (
                    "Counter values, sim-time gauge values and histogram counts "
                    "of play_longpoll_session in tests/test_bound_instruments.py."
                ),
                "registry": registry_record(play_longpoll_session()),
            },
            handle,
            indent=1,
            sort_keys=True,
        )
        handle.write("\n")


def test_seeded_longpoll_session_matches_the_recorded_registry():
    with open(FIXTURE_PATH) as handle:
        expected = json.load(handle)["registry"]
    actual = registry_record(play_longpoll_session())
    assert actual == expected


@pytest.mark.parametrize("transport", ["poll", "longpoll", "push"])
def test_steady_state_polls_resolve_no_instrument(transport, monkeypatch):
    """After warm-up (joins, the first sync, one delta each), further
    polls, diffs and delta applies resolve no instrument by name."""
    sim, host, guests, session = build_session(4, transport)
    lookups = []
    real_get_or_create = MetricsRegistry._get_or_create

    def counting(self, kind, name, labels, **kwargs):
        lookups.append(name)
        return real_get_or_create(self, kind, name, labels, **kwargs)

    def scenario():
        snippets = []
        for guest in guests:
            snippets.append((yield from session.join(guest)))
        yield from session.host_navigate("http://s.com/")
        yield from session.wait_until_synced()
        edit_heading(host, 1)
        yield from session.wait_until_synced()
        before = (session.agent.stats["polls"], sum(s.stats.delta_updates for s in snippets))
        monkeypatch.setattr(MetricsRegistry, "_get_or_create", counting)
        for tick in range(2, 12):
            edit_heading(host, tick)
            session.agent.broadcast_action(_pointer(tick))
            yield from session.wait_until_synced()
            yield sim.timeout(1.0)
        monkeypatch.setattr(MetricsRegistry, "_get_or_create", real_get_or_create)
        after = (session.agent.stats["polls"], sum(s.stats.delta_updates for s in snippets))
        return before, after

    before, after = sim.run_until_complete(sim.process(scenario()))
    session.close()
    assert after[0] - before[0] >= 40  # polls served in the window
    assert after[1] - before[1] == 40  # every member applied every delta
    assert lookups == []


class TestSnippetStatsDescriptors:
    def test_counters_and_gauges_write_through_to_the_registry(self):
        registry = MetricsRegistry()
        stats = SnippetStats(registry, node="p")
        stats.polls_sent += 1
        stats.polls_sent += 2
        stats.last_sync_seconds = 0.25
        stats.last_sync_seconds = 0.5
        assert registry.find("snippet_polls_sent", node="p").value == 3
        assert stats.facade["polls_sent"] == 3
        gauge = registry.find("snippet_last_sync_seconds", node="p")
        assert isinstance(gauge, Gauge) and gauge.value == 0.5
        assert stats.histogram("sync_seconds").values == [0.25, 0.5]

    def test_two_members_keep_their_own_values(self):
        registry = MetricsRegistry()
        first, second = SnippetStats(registry, node="a"), SnippetStats(registry, node="b")
        first.delta_updates += 1
        assert (first.delta_updates, second.delta_updates) == (1, 0)
        # Same (name, labels): the same instruments, as get-or-create gives.
        again = SnippetStats(registry, node="a")
        assert again.delta_updates == 1


if __name__ == "__main__":
    write_fixture()

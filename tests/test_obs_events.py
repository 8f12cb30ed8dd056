"""The structured event log: EventBus semantics and wire neutrality.

Covers the observability tentpole's emission layer: typed sim-time
events with trace correlation, per-component ring buffers (a chatty
tier cannot evict a quiet tier's evidence), eviction-proof all-time
totals, query filters, subscribers — and the opt-in contract: a session
run with the bus attached carries exactly the same wire bytes as one
without, because events never ride the protocol.
"""

import pytest

from repro.browser import Browser
from repro.core import CoBrowsingSession
from repro.net import LAN_PROFILE, Host, Network
from repro.obs import events as event_module
from repro.obs import (
    HMAC_REJECT,
    MEMBER_JOIN,
    POLL_SERVED,
    RESYNC_FORCED,
    EventBus,
    MetricsRegistry,
    SpanContext,
    Tracer,
    events_to_jsonl,
)
from repro.sim import Simulator
from repro.webserver import OriginServer, StaticSite


class TestEvent:
    def test_to_dict_omits_absent_fields(self):
        bus = EventBus()
        bare = bus.emit(MEMBER_JOIN, 1.0, node="agent")
        assert bare.to_dict() == {
            "seq": 1,
            "t": 1.0,
            "type": MEMBER_JOIN,
            "node": "agent",
        }

    def test_to_dict_carries_trace_and_data(self):
        bus = EventBus()
        context = SpanContext("t7", "s3")
        event = bus.emit(POLL_SERVED, 2.5, node="agent", trace=context, bytes=512)
        row = event.to_dict()
        assert row["trace_id"] == "t7"
        assert row["span_id"] == "s3"
        assert row["data"] == {"bytes": 512}

    def test_trace_accepts_span_or_context(self):
        tracer = Tracer()
        span = tracer.start_span("poll", t=0.0)
        bus = EventBus()
        from_span = bus.emit(POLL_SERVED, 0.0, trace=span)
        from_context = bus.emit(POLL_SERVED, 0.0, trace=span.context)
        assert from_span.trace_id == from_context.trace_id == span.trace_id
        assert from_span.span_id == from_context.span_id == span.span_id


class TestEventBus:
    def test_seq_is_global_emission_order(self):
        bus = EventBus()
        first = bus.emit(MEMBER_JOIN, 5.0, node="b")
        second = bus.emit(MEMBER_JOIN, 1.0, node="a")
        assert (first.seq, second.seq) == (1, 2)
        # Queries sort by seq (emission order), not by timestamp.
        assert [e.node for e in bus.events()] == ["b", "a"]

    def test_per_node_rings_isolate_eviction(self):
        bus = EventBus(ring_size=3)
        bus.emit(MEMBER_JOIN, 0.0, node="quiet")
        for tick in range(50):
            bus.emit(POLL_SERVED, float(tick), node="chatty")
        # The chatty component evicted its own history only.
        assert bus.count(node="chatty") == 3
        assert bus.count(node="quiet") == 1
        assert bus.events(node="quiet")[0].type == MEMBER_JOIN

    def test_totals_survive_eviction(self):
        bus = EventBus(ring_size=2)
        for tick in range(10):
            bus.emit(POLL_SERVED, float(tick), node="agent")
        assert bus.count(type=POLL_SERVED) == 2
        assert bus.total(POLL_SERVED) == 10
        assert bus.total(HMAC_REJECT) == 0

    def test_filters_compose(self):
        bus = EventBus()
        bus.emit(POLL_SERVED, 1.0, node="agent")
        bus.emit(POLL_SERVED, 2.0, node="relay")
        bus.emit(RESYNC_FORCED, 3.0, node="relay")
        bus.emit(POLL_SERVED, 4.0, node="relay")
        assert bus.count(type=POLL_SERVED) == 3
        assert bus.count(node="relay") == 3
        assert bus.count(type=POLL_SERVED, node="relay", since=2.5) == 1
        tail = bus.events(last=2)
        assert [event.t for event in tail] == [3.0, 4.0]
        assert bus.events(node="nobody") == []

    def test_subscribers_observe_synchronously(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        emitted = bus.emit(MEMBER_JOIN, 0.0, node="agent")
        bus.unsubscribe(seen.append)
        bus.emit(MEMBER_JOIN, 1.0, node="agent")
        assert seen == [emitted]

    def test_clear_keeps_totals(self):
        bus = EventBus()
        bus.emit(POLL_SERVED, 0.0, node="agent")
        bus.clear()
        assert len(bus) == 0
        assert bus.events() == []
        assert bus.total(POLL_SERVED) == 1

    def test_nodes_lists_components(self):
        bus = EventBus()
        bus.emit(POLL_SERVED, 0.0, node="b")
        bus.emit(POLL_SERVED, 0.0, node="a")
        assert bus.nodes() == ["a", "b"]

    def test_ring_size_must_be_positive(self):
        with pytest.raises(ValueError):
            EventBus(ring_size=0)

    def test_budget_caps_total_retained_memory(self):
        bus = EventBus(ring_size=1024, max_total_events=64)
        for index in range(16):
            for tick in range(100):
                bus.emit(POLL_SERVED, float(tick), node="n%02d" % index)
            # The invariant holds after every component joins, not just
            # at the end: total retained never exceeds the budget.
            assert len(bus) <= 64
        # Each of the 16 rings got the power-of-two floor of 64/16.
        assert all(ring.maxlen == 4 for ring in bus._rings.values())
        # All-time totals are unaffected by the bounded retention.
        assert bus.total(POLL_SERVED) == 1600

    def test_budget_shrinks_rings_as_components_appear(self):
        bus = EventBus(max_total_events=32)
        for tick in range(40):
            bus.emit(POLL_SERVED, float(tick), node="first")
        # Alone, the first component gets the whole budget.
        assert bus.count(node="first") == 32
        for index in range(7):
            bus.emit(MEMBER_JOIN, 0.0, node="late%d" % index)
        # Eight components now share the budget: 32/8 = 4 each, and the
        # first ring was shrunk (newest kept, drop counted as eviction).
        assert bus.count(node="first") == 4
        assert [e.t for e in bus.events(node="first")] == [36.0, 37.0, 38.0, 39.0]
        assert bus.evicted("first") == 8 + 28  # ring overflow + shrink
        assert len(bus) <= 32

    def test_budget_eviction_counts_reach_the_registry(self):
        registry = MetricsRegistry()
        bus = EventBus(max_total_events=4)
        bus.attach_registry(registry)
        for tick in range(10):
            bus.emit(POLL_SERVED, float(tick), node="agent")
        bus.emit(MEMBER_JOIN, 0.0, node="other")  # shrinks agent's ring
        assert registry.gauge("events_evicted", node="agent").value == bus.evicted(
            "agent"
        )

    def test_budget_floors_at_one_event_per_component(self):
        bus = EventBus(max_total_events=2)
        for index in range(10):
            bus.emit(POLL_SERVED, 0.0, node="n%d" % index)
        # More components than budget: degrade to one event each rather
        # than dropping components entirely.
        assert all(ring.maxlen == 1 for ring in bus._rings.values())
        assert bus.count() == 10

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            EventBus(max_total_events=0)

    def test_jsonl_export_round_trips(self):
        import json

        bus = EventBus()
        bus.emit(POLL_SERVED, 1.0, node="agent", participant="alice")
        lines = events_to_jsonl(bus).strip().split("\n")
        assert len(lines) == 1
        row = json.loads(lines[0])
        assert row["type"] == POLL_SERVED
        assert row["data"] == {"participant": "alice"}


def _build_world():
    sim = Simulator()
    network = Network(sim)
    site = StaticSite("site.com")
    site.add_page(
        "/",
        "<html><head><title>One</title></head><body><p>hello</p></body></html>",
    )
    OriginServer(network, "site.com", site.handle)
    host_pc = Host(network, "host-pc", LAN_PROFILE, segment="campus")
    part_pc = Host(network, "part-pc", LAN_PROFILE, segment="campus")
    return sim, Browser(host_pc, name="bob"), Browser(part_pc, name="alice")


def _run_session(with_events):
    sim, hb, pb = _build_world()
    bus = EventBus() if with_events else None
    session = CoBrowsingSession(hb, events=bus)

    def scenario():
        yield from session.join(pb)
        yield from session.host_navigate("http://site.com/")
        yield from session.wait_until_synced()
        hb.mutate_document(
            lambda doc: setattr(
                doc.get_elements_by_tag_name("p")[0], "inner_html", "changed"
            )
        )
        yield from session.wait_until_synced()
        yield sim.timeout(2)

    sim.run_until_complete(sim.process(scenario()))
    wire = sum(
        link.up.bytes_carried + link.down.bytes_carried
        for link in (hb.host.link, pb.host.link)
    )
    session.close()
    return bus, wire


class TestSessionIntegration:
    def test_session_emits_known_typed_events(self):
        bus, _wire = _run_session(with_events=True)
        types = {event.type for event in bus.events()}
        assert MEMBER_JOIN in types
        assert POLL_SERVED in types
        # Every emitted type is one of the module's named constants.
        known = {
            getattr(event_module, name)
            for name in event_module.__all__
            if name.isupper()
        }
        assert types <= known
        served = bus.events(type=POLL_SERVED)
        assert all(event.data.get("bytes", 0) > 0 for event in served)
        # sim-time stamps are monotone in emission order.
        times = [event.t for event in bus.events()]
        assert times == sorted(times)

    def test_disabled_bus_costs_zero_wire_bytes(self):
        _bus, wired = _run_session(with_events=True)
        none_bus, dark = _run_session(with_events=False)
        assert none_bus is None
        assert wired == dark

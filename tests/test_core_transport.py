"""The pluggable transport layer and its adaptive controller.

Covers mode coercion and environment forcing, per-member negotiation on
the wire (request key, grant header, snippet adoption), survival of a
negotiated mode across relay death and re-attachment, byte-identity of
a pinned ``transport="poll"`` session with the seed default, and the
:class:`AdaptiveTransportController`'s escalation / de-escalation state
machine — including a hypothesis property that dwell-window hysteresis
never lets a member's mode flap faster than the dwell.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.browser import Browser
from repro.core import (
    CoBrowsingSession,
    TRANSPORT_LONGPOLL,
    TRANSPORT_MODES,
    TRANSPORT_POLL,
    TRANSPORT_PUSH,
    AdaptiveTransportController,
    IntervalPollTransport,
    LongPollTransport,
    MouseMoveAction,
    PushTransport,
    coerce_transport,
    coerce_transport_mode,
    default_transport_mode,
    transport_for_mode,
)
from repro.core.transport import MODE_INDEX, TRANSPORT_ENV
from repro.net import LAN_PROFILE, Host, Network
from repro.obs import EventBus, TRANSPORT_SWITCH
from repro.sim import Simulator
from repro.webserver import OriginServer, StaticSite

PAGE = (
    "<html><head><title>Transport test</title></head><body>"
    + "".join("<p id='p%d'>paragraph %d body</p>" % (i, i) for i in range(8))
    + "</body></html>"
)


def build_world(participants=2, **session_kwargs):
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
        browsers.append(Browser(pc, name="p%d" % index))
    return sim, session, browsers


def run(sim, generator, limit=1e9):
    return sim.run_until_complete(sim.process(generator), limit=limit)


def edit_paragraph(browser, index, text):
    from repro.html import Text

    def mutate(document):
        target = document.get_element_by_id("p%d" % index)
        target.remove_all_children()
        target.append_child(Text(text))

    browser.mutate_document(mutate)


class TestModesAndCoercion:
    def test_mode_ladder_order(self):
        assert TRANSPORT_MODES == ("poll", "longpoll", "push")
        assert [MODE_INDEX[m] for m in TRANSPORT_MODES] == [0, 1, 2]

    def test_transport_for_mode_roundtrip(self):
        for mode in TRANSPORT_MODES:
            assert transport_for_mode(mode).mode == mode
        with pytest.raises(ValueError):
            transport_for_mode("carrier-pigeon")

    def test_coerce_transport_accepts_instance_and_string(self):
        instance = LongPollTransport(hold_timeout=3.0)
        assert coerce_transport(instance) is instance
        assert coerce_transport("push").mode == TRANSPORT_PUSH
        with pytest.raises(TypeError):
            coerce_transport(42)

    def test_coerce_transport_mode(self):
        assert coerce_transport_mode(PushTransport()) == TRANSPORT_PUSH
        assert coerce_transport_mode("longpoll") == TRANSPORT_LONGPOLL
        with pytest.raises(ValueError):
            coerce_transport_mode("smoke-signals")

    def test_env_forces_default_mode(self, monkeypatch):
        monkeypatch.setenv(TRANSPORT_ENV, "longpoll")
        assert default_transport_mode() == TRANSPORT_LONGPOLL
        assert coerce_transport(None).mode == TRANSPORT_LONGPOLL
        monkeypatch.setenv(TRANSPORT_ENV, "bogus")
        with pytest.raises(ValueError):
            default_transport_mode()
        monkeypatch.delenv(TRANSPORT_ENV)
        assert default_transport_mode() == TRANSPORT_POLL

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            LongPollTransport(hold_timeout=0)
        with pytest.raises(ValueError):
            PushTransport(max_envelopes=0)
        with pytest.raises(ValueError):
            PushTransport(stream_linger=-1.0)
        assert IntervalPollTransport().holds is False
        assert "hold" in PushTransport().describe()


class TestNegotiation:
    def test_session_transport_reaches_both_ends(self):
        sim, session, (alice,) = build_world(
            participants=1, transport="longpoll"
        )

        def scenario():
            snippet = yield from session.join(alice)
            yield from session.host_navigate("http://site.com/")
            yield from session.wait_until_synced()
            return snippet

        snippet = run(sim, scenario())
        assert snippet.transport_mode == TRANSPORT_LONGPOLL
        assert session.agent.transport.mode == TRANSPORT_LONGPOLL
        assert (
            session.agent.transport_mode_for(snippet.participant_id)
            == TRANSPORT_LONGPOLL
        )

    def test_member_override_adopted_via_header(self):
        events = EventBus()
        sim, session, (alice,) = build_world(
            participants=1, transport="poll", events=events
        )

        def scenario():
            snippet = yield from session.join(alice)
            yield from session.host_navigate("http://site.com/")
            yield from session.wait_until_synced()
            pid = snippet.participant_id
            session.agent.set_member_transport(pid, "longpoll", reason="test")
            # The member learns its new mode from X-RCB-Transport on its
            # next *answered* exchange — its freshly-held poll releases
            # on the edit and carries the grant header back.
            yield sim.timeout(0.5)
            edit_paragraph(session.host_browser, 1, "release the hold")
            yield from session.wait_until_synced(timeout=10.0)
            yield sim.timeout(0.5)
            return snippet

        snippet = run(sim, scenario())
        assert snippet.transport_mode == TRANSPORT_LONGPOLL
        assert session.agent.stats["transport_switches"] >= 1
        switches = events.events(type=TRANSPORT_SWITCH)
        assert switches
        assert switches[0].data["participant"] == snippet.participant_id
        assert switches[0].data["to_mode"] == TRANSPORT_LONGPOLL

    def test_negotiated_mode_survives_relay_death_and_reattach(self):
        """An orphan re-attaching to its grandparent keeps the mode it
        had negotiated with the dead parent (salvaged upstream state)."""
        sim, session, browsers = build_world(participants=2)
        session.fanout_tree(branching=1)  # chain: root -> p0 -> p1

        def scenario():
            for browser in browsers:
                yield from session.join(browser)
            yield from session.host_navigate("http://site.com/")
            yield from session.wait_until_synced()
            # p1 polls the relay p0; escalate p1 at *that* agent.
            session.relays["p0"].set_member_transport("p1", "longpoll")
            # An edit releases p1's freshly-held poll so the grant
            # header reaches it.
            edit_paragraph(session.host_browser, 0, "carry the grant")
            yield from session.wait_until_synced(timeout=10.0)
            yield sim.timeout(0.5)
            assert session.relays["p1"].upstream.transport_mode == TRANSPORT_LONGPOLL
            session.fail_relay("p0")
            yield sim.timeout(10.0)  # orphan climbs to the root
            edit_paragraph(session.host_browser, 2, "after rescue")
            yield from session.wait_until_synced(timeout=30.0)

        run(sim, scenario())
        survivor = session.relays["p1"]
        assert survivor.upstream is not None
        # The re-attached upstream snippet kept requesting long poll,
        # and the root granted it.
        assert survivor.upstream.transport_mode == TRANSPORT_LONGPOLL
        assert session.agent.transport_mode_for("p1") == TRANSPORT_LONGPOLL

    def test_pinned_poll_is_byte_identical_to_seed_default(self, monkeypatch):
        """``transport="poll"`` (what a disabled controller leaves you
        with) moves exactly the seed's bytes: same request count, same
        bytes on both directions of the wire."""

        def traffic(session_kwargs):
            sim, session, (alice,) = build_world(participants=1, **session_kwargs)

            def scenario():
                snippet = yield from session.join(alice)
                yield from session.host_navigate("http://site.com/")
                yield from session.wait_until_synced()
                for index in range(3):
                    edit_paragraph(session.host_browser, index, "edit %d" % index)
                    yield from session.wait_until_synced(timeout=10.0)
                yield sim.timeout(2.0)
                return snippet

            snippet = run(sim, scenario())
            client = snippet.browser.client
            return (
                client.requests_sent,
                client.bytes_received,
                session.agent.stats["full_bytes_sent"],
                session.agent.stats["delta_bytes_sent"],
            )

        monkeypatch.delenv(TRANSPORT_ENV, raising=False)
        seed = traffic({})  # transport unset: the seed construction
        pinned = traffic({"transport": "poll"})
        assert pinned == seed


class TestHeldPollRegistrations:
    """A held poll registers its waiter twice: in the agent's
    document-change table and in its member's wake table.  However the
    hold ends — a document change, a member wake, or the timeout — both
    entries must go, or one table grows with every release."""

    @pytest.mark.parametrize("mode", [TRANSPORT_LONGPOLL, TRANSPORT_PUSH])
    @pytest.mark.parametrize("release", ["edit", "broadcast"])
    def test_registrations_bounded_by_open_holds(self, mode, release):
        sim, session, browsers = build_world(participants=3, transport=mode)
        agent = session.agent
        samples = []

        def scenario():
            for browser in browsers:
                yield from session.join(browser)
            yield from session.host_navigate("http://site.com/")
            yield from session.wait_until_synced()
            for tick in range(12):
                if release == "edit":
                    edit_paragraph(session.host_browser, tick % 8, "edit %d" % tick)
                else:
                    agent.broadcast_action(MouseMoveAction(tick, tick))
                yield sim.timeout(2.0)
                samples.append(
                    (
                        len(agent._change_waiters),
                        sum(len(state.wake_events) for state in agent.participants.values()),
                        agent.stats["held_polls_open"],
                    )
                )

        run(sim, scenario())
        # Every member is parked again between releases...
        assert [held for _, _, held in samples] == [3] * len(samples)
        # ...and neither table holds more than the open holds.
        for change_waiters, wake_events, held in samples:
            assert change_waiters <= held
            assert wake_events <= held


class _StubAgent:
    def __init__(self, poll_interval=1.0):
        self.poll_interval = poll_interval
        self.stats = {"polls": 0}
        self.switches = []

    def transport_mode_for(self, member):
        return TRANSPORT_POLL

    def set_member_transport(self, member, mode, reason=None):
        self.switches.append((member, mode, reason))


class _StubSim:
    def __init__(self):
        self.now = 0.0


class _StubSession:
    def __init__(self, members, agent):
        self.sim = _StubSim()
        self.agent = agent
        self._members = list(members)

    def member_times(self):
        return {member: 0 for member in self._members}


class _StubMonitor:
    """staleness_p95 answered from a settable per-member table."""

    rules = ()

    def __init__(self):
        self.staleness = {}

    def staleness_p95(self, member):
        return self.staleness.get(member, 0.0)


def make_controller(members=("m0",), **kwargs):
    agent = _StubAgent()
    session = _StubSession(members, agent)
    monitor = _StubMonitor()
    kwargs.setdefault("stale_breach_ms", 1000.0)
    kwargs.setdefault("stale_clear_ms", 500.0)
    controller = AdaptiveTransportController(session, monitor, **kwargs)
    return controller, session, monitor, agent


class TestAdaptiveController:
    def test_breach_streak_escalates_one_step(self):
        controller, session, monitor, agent = make_controller(
            escalate_after=2, dwell=0.0
        )
        monitor.staleness["m0"] = 5000.0
        controller.check()  # streak 1: no switch yet
        assert not agent.switches
        session.sim.now = 1.0
        controller.check()  # streak 2: escalate
        assert agent.switches == [("m0", TRANSPORT_LONGPOLL, "staleness-breach")]
        assert controller.member_mode("m0") == TRANSPORT_LONGPOLL

    def test_escalation_climbs_the_full_ladder(self):
        controller, session, monitor, agent = make_controller(
            escalate_after=1, dwell=0.0
        )
        monitor.staleness["m0"] = 9999.0
        for tick in range(3):
            session.sim.now = float(tick)
            controller.check()
        modes = [mode for _, mode, _ in agent.switches]
        assert modes == [TRANSPORT_LONGPOLL, TRANSPORT_PUSH]
        assert controller.member_mode("m0") == TRANSPORT_PUSH

    def test_clear_staleness_resets_the_streak(self):
        controller, session, monitor, agent = make_controller(escalate_after=2)
        monitor.staleness["m0"] = 5000.0
        controller.check()
        monitor.staleness["m0"] = 100.0  # below the clear threshold
        session.sim.now = 1.0
        controller.check()
        monitor.staleness["m0"] = 5000.0
        session.sim.now = 2.0
        controller.check()  # streak restarted: still only 1
        assert not agent.switches

    def test_host_pressure_widens_interval_and_demotes(self):
        controller, session, monitor, agent = make_controller(
            members=("m0", "m1"),
            escalate_after=1,
            deescalate_after=2,
            dwell=0.0,
            host_poll_budget=10.0,
            widen_factor=2.0,
        )
        monitor.staleness["m0"] = 9999.0
        controller.check()  # escalates m0 to longpoll
        assert controller.member_mode("m0") == TRANSPORT_LONGPOLL
        monitor.staleness["m0"] = 0.0
        # Feed a poll rate far above budget for two consecutive checks.
        for tick in (1, 2):
            agent.stats["polls"] += 1000
            session.sim.now = float(tick)
            controller.check()
        assert agent.poll_interval == 2.0  # widened once by factor 2
        assert controller.member_mode("m0") == TRANSPORT_POLL
        assert ("m0", TRANSPORT_POLL, "host-pressure") in agent.switches

    def test_poll_interval_widening_is_capped(self):
        controller, session, monitor, agent = make_controller(
            deescalate_after=1,
            host_poll_budget=0.5,
            widen_factor=10.0,
            max_poll_interval=4.0,
        )
        for tick in (1, 2, 3):
            agent.stats["polls"] += 1000
            session.sim.now = float(tick)
            controller.check()
        assert agent.poll_interval == 4.0

    def test_departed_members_are_pruned(self):
        controller, session, monitor, agent = make_controller(
            members=("m0", "m1")
        )
        controller.check()
        assert set(controller._members) == {"m0", "m1"}
        session._members = ["m0"]
        session.sim.now = 1.0
        controller.check()
        assert set(controller._members) == {"m0"}

    def test_switch_log_records_every_transition(self):
        controller, session, monitor, agent = make_controller(
            escalate_after=1, dwell=0.0
        )
        monitor.staleness["m0"] = 9999.0
        session.sim.now = 3.5
        controller.check()
        assert controller.switches == [
            (3.5, "m0", TRANSPORT_POLL, TRANSPORT_LONGPOLL, "staleness-breach")
        ]

    @settings(max_examples=60, deadline=None)
    @given(
        staleness=st.lists(
            st.floats(min_value=0.0, max_value=20000.0, allow_nan=False),
            min_size=4,
            max_size=60,
        ),
        pressure=st.lists(st.booleans(), min_size=4, max_size=60),
        dwell=st.floats(min_value=0.5, max_value=20.0, allow_nan=False),
    )
    def test_no_flap_within_dwell(self, staleness, pressure, dwell):
        """Property: however the signals dance, two switches of the same
        member are never closer together than the dwell window."""
        controller, session, monitor, agent = make_controller(
            escalate_after=1, deescalate_after=1, dwell=dwell,
            host_poll_budget=10.0,
        )
        for tick, p95 in enumerate(staleness):
            session.sim.now = tick * 0.25
            monitor.staleness["m0"] = p95
            if pressure[tick % len(pressure)]:
                agent.stats["polls"] += 1000
            controller.check()
        times = [t for t, member, _, _, _ in controller.switches if member == "m0"]
        for earlier, later in zip(times, times[1:]):
            assert later - earlier >= dwell


class TestSessionFactory:
    def test_session_builds_controller(self):
        sim, session, _ = build_world(participants=0)

        class _Monitor(_StubMonitor):
            pass

        controller = session.adaptive_transport(_Monitor(), dwell=2.0)
        assert isinstance(controller, AdaptiveTransportController)
        assert controller.agent is session.agent
        assert controller.dwell == 2.0

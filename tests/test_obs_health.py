"""The SLO engine: rules, hysteresis, and the breach acceptance path.

Unit-tests the declarative machinery over a stub session (grading
boundaries, breach→recovery hysteresis, transition events, recorder
coupling, staleness windowing), then drives the headline acceptance
scenario end to end: a fan-out session whose tier-1 relay is killed
mid-run must produce a BREACH verdict naming the orphaned members, and
the flight recorder's black box must share trace IDs with real spans.
"""

import pytest

from repro.browser import Browser
from repro.core import CoBrowsingSession
from repro.net import LAN_PROFILE, Host, Network
from repro.obs import (
    BREACH,
    OK,
    RELAY_DEATH,
    SLO_BREACH,
    SLO_RECOVER,
    WARN,
    ByteAttribution,
    EventBus,
    FlightRecorder,
    HealthMonitor,
    HealthReport,
    MetricsRegistry,
    Profiler,
    SloRule,
    Tracer,
    Verdict,
    default_rules,
    perf_budget_rules,
)
from repro.sim import Simulator
from repro.webserver import OriginServer, StaticSite


class StubSim:
    def __init__(self):
        self.now = 0.0


class StubAgent:
    def __init__(self):
        self.doc_time = 0


class StubSession:
    """The minimal session surface HealthMonitor samples."""

    def __init__(self, events=None):
        self.sim = StubSim()
        self.metrics = MetricsRegistry()
        self.events = events
        self.agent = StubAgent()
        self.branching = None
        self.times = {}

    def member_times(self):
        return dict(self.times)


def dial_rule(readings):
    """A one-subject rule whose value is read from a mutable dict."""
    return SloRule(
        "dial", lambda monitor: dict(readings), warn=10.0, breach=20.0, unit="x"
    )


class TestSloRule:
    def test_grade_boundaries(self):
        rule = SloRule("r", lambda m: {}, warn=10.0, breach=20.0)
        assert rule.grade(9.99) == OK
        assert rule.grade(10.0) == WARN
        assert rule.grade(19.99) == WARN
        assert rule.grade(20.0) == BREACH

    def test_breach_below_warn_rejected(self):
        with pytest.raises(ValueError):
            SloRule("r", lambda m: {}, warn=10.0, breach=5.0)

    def test_default_rules_thresholds_are_tunable(self):
        rules = {
            rule.name: rule
            for rule in default_rules(
                staleness_warn_ms=400.0, staleness_breach_ms=750.0
            )
        }
        assert rules["staleness_p95"].breach == 750.0
        assert rules["staleness_p95"].grade(750.0) == BREACH

    def test_lowered_breach_requires_lowered_warn(self):
        with pytest.raises(ValueError):
            default_rules(staleness_breach_ms=750.0)  # warn still 2500


class TestReport:
    def verdict(self, level, subject="alice", rule="staleness_p95"):
        return Verdict(rule, subject, level, 1.0, 10.0, 20.0, "ms", 0.0)

    def test_level_is_worst_verdict(self):
        report = HealthReport(0.0, [self.verdict(OK), self.verdict(WARN)])
        assert report.level == WARN
        assert not report.ok
        assert HealthReport(0.0, []).ok

    def test_breached_subjects_dedup_across_rules(self):
        report = HealthReport(
            0.0,
            [
                self.verdict(BREACH, subject="carol"),
                self.verdict(BREACH, subject="carol", rule="resync_rate"),
                self.verdict(BREACH, subject="dave"),
                self.verdict(WARN, subject="erin"),
            ],
        )
        assert report.breached_subjects() == ["carol", "dave"]
        assert len(report.breaches()) == 3
        assert len(report.warnings()) == 1

    def test_to_dict_shape(self):
        verdict = Verdict("r", "s", WARN, 1.5, 1.0, 2.0, "ms", 3.0, detail="recovering")
        row = verdict.to_dict()
        assert row["detail"] == "recovering"
        assert "detail" not in self.verdict(OK).to_dict()
        report = HealthReport(3.0, [verdict])
        assert report.to_dict()["level"] == WARN


class TestHysteresis:
    def monitor(self, readings, **kwargs):
        session = StubSession(events=EventBus())
        kwargs.setdefault("rules", [dial_rule(readings)])
        return session, HealthMonitor(session, **kwargs)

    def test_breach_holds_warn_until_consecutive_oks(self):
        readings = {"alice": 25.0}
        _session, monitor = self.monitor(readings, recovery_checks=2)
        assert monitor.check().level == BREACH
        readings["alice"] = 1.0  # raw OK, but the subject just breached
        report = monitor.check()
        assert report.level == WARN
        assert report.verdicts[0].detail == "recovering"
        # Second consecutive OK clears the latch.
        assert monitor.check().level == OK
        assert monitor.worst_level == BREACH  # the CI gate remembers

    def test_warn_during_recovery_resets_the_streak(self):
        readings = {"alice": 25.0}
        _session, monitor = self.monitor(readings, recovery_checks=2)
        monitor.check()
        readings["alice"] = 1.0
        assert monitor.check().level == WARN  # OK streak = 1
        readings["alice"] = 15.0
        assert monitor.check().level == WARN  # raw WARN resets the streak
        readings["alice"] = 1.0
        assert monitor.check().level == WARN  # OK streak = 1 again
        assert monitor.check().level == OK

    def test_transitions_emit_bus_events_and_fire_recorder(self):
        readings = {"alice": 25.0}
        session, monitor = self.monitor(readings, recovery_checks=1)
        recorder = FlightRecorder(session.events, min_dump_interval=0.0)
        monitor.recorder = recorder
        monitor.check()
        breaches = session.events.events(type=SLO_BREACH)
        assert [event.node for event in breaches] == ["alice"]
        assert breaches[0].data["rule"] == "dial"
        assert breaches[0].data["value"] == 25.0
        assert [box["reason"] for box in recorder.dumps] == ["slo-breach:dial@alice"]
        # Staying breached is not a new transition.
        monitor.check()
        assert session.events.count(type=SLO_BREACH) == 1
        # Recovery emits exactly one slo.recover.
        readings["alice"] = 1.0
        monitor.check()
        recovers = session.events.events(type=SLO_RECOVER)
        assert [event.node for event in recovers] == ["alice"]


class TestStalenessSampling:
    def test_window_prunes_and_p95_follows(self):
        session = StubSession()
        monitor = HealthMonitor(session, window=5.0, rules=[])
        session.agent.doc_time = 1000
        session.times = {"alice": 0}
        session.sim.now = 1.0
        monitor.sample()
        assert monitor.staleness_p95("alice") == 1000.0
        # The member catches up; old samples age out of the window.
        session.times = {"alice": 1000}
        for step in range(2, 9):
            session.sim.now = float(step)
            monitor.sample()
        assert monitor.staleness_p95("alice") == 0.0
        # Sampling keeps no per-member instrument in the registry.
        assert session.metrics.find("health_staleness_ms", node="alice") is None

    def test_departed_member_ages_out(self):
        session = StubSession()
        monitor = HealthMonitor(session, window=2.0, rules=[])
        session.times = {"alice": 0}
        monitor.sample()
        session.times = {}
        session.sim.now = 5.0
        monitor.sample()
        assert monitor.staleness_p95("alice") == 0.0
        assert "alice" not in monitor._staleness

    def test_registry_fallback_without_bus(self):
        # No EventBus anywhere: the resync-rate rule falls back to the
        # registry's all-time counters and check() still grades.
        session = StubSession(events=None)
        monitor = HealthMonitor(session, rules=default_rules())
        session.sim.now = 60.0
        report = monitor.check()
        assert report.level == OK
        assert monitor.events is None


PAGE = (
    "<html><head><title>Health test</title></head>"
    "<body><h1>News</h1><p id='tick'>start</p></body></html>"
)


def build_world(participants=6):
    sim = Simulator()
    network = Network(sim)
    site = StaticSite("site.com")
    site.add_page("/", PAGE)
    OriginServer(network, "site.com", site.handle)
    host_pc = Host(network, "host-pc", LAN_PROFILE, segment="campus")
    host_browser = Browser(host_pc, name="bob")
    browsers = []
    for index in range(participants):
        pc = Host(network, "part-pc-%d" % index, LAN_PROFILE, segment="campus")
        browsers.append(Browser(pc, name="p%d" % index))
    return sim, host_browser, browsers


class TestBreachAcceptance:
    def test_relay_death_breaches_orphans_with_correlated_black_box(self):
        sim, host_browser, browsers = build_world()
        tracer = Tracer()
        events = EventBus()
        session = CoBrowsingSession(
            host_browser, poll_interval=0.2, tracer=tracer, events=events
        )
        session.fanout_tree(branching=2)
        recorder = FlightRecorder(events, registry=session.metrics, tracer=tracer)
        monitor = HealthMonitor(
            session,
            rules=default_rules(staleness_warn_ms=500.0, staleness_breach_ms=1000.0),
            window=10.0,
            recorder=recorder,
            sample_interval=0.1,
        )

        def scenario():
            for browser in browsers:
                yield from session.join(browser)
            yield from session.host_navigate("http://site.com/")
            yield from session.wait_until_synced()
            sim.process(monitor.run())
            orphans = list(session._nodes["p0"].children)
            for tick in range(40):
                if tick == 4:
                    session.fail_relay("p0")
                host_browser.mutate_document(
                    lambda doc, tick=tick: setattr(
                        doc.get_element_by_id("tick"), "inner_html", "tick %d" % tick
                    )
                )
                yield sim.timeout(0.25)
            monitor.sample()
            monitor.check()
            return orphans

        orphans = sim.run_until_complete(sim.process(scenario()))
        assert orphans == ["p2", "p4"]

        # The run breached, and the verdicts named the orphaned members.
        assert monitor.worst_level == BREACH
        breached = {
            event.node for event in events.events(type=SLO_BREACH)
            if event.data["rule"] == "staleness_p95"
        }
        assert breached
        assert breached <= set(orphans)

        # The injected death hit the log attributed to the dead relay,
        # and each orphan logged losing its upstream in its own ring.
        deaths = events.events(type=RELAY_DEATH)
        by_reason = {}
        for event in deaths:
            by_reason.setdefault(event.data["reason"], []).append(event.node)
        assert by_reason["injected"] == ["p0"]
        assert sorted(by_reason["upstream-lost"]) == orphans

        # The black box is correlated: the relay-death dump exists and
        # every trace it references is a real recorded trace.
        assert recorder.dumps
        box = recorder.dumps[0]
        assert box["reason"] == "event:%s" % RELAY_DEATH
        assert box["trace_ids"]
        span_traces = {span.trace_id for span in tracer.spans}
        assert set(box["trace_ids"]) <= span_traces
        assert box["spans"]
        assert any(row["name"] for row in box["metrics"])
        session.close()


class TestPerfBudgetRules:
    def test_no_feeds_means_no_subjects(self):
        session = StubSession()
        monitor = HealthMonitor(session, rules=perf_budget_rules())
        report = monitor.check()
        assert report.verdicts == []
        assert report.level == OK

    def test_rules_auto_append_only_with_a_feed(self):
        plain = HealthMonitor(StubSession())
        assert not any(r.name == "serve_self_p95" for r in plain.rules)
        profiled = HealthMonitor(StubSession(), profiler=Profiler(Tracer()))
        assert any(r.name == "serve_self_p95" for r in profiled.rules)
        attributed = HealthMonitor(StubSession(), attribution=ByteAttribution())
        assert any(r.name == "member_uplink_bytes" for r in attributed.rules)

    def test_serve_self_p95_grades_from_the_window_profile(self):
        tracer = Tracer()
        serve = tracer.start_span("host.serve", t=0.0, node="host")
        serve.finish(0.7)  # 700 ms of self-time: past the 500 ms breach
        session = StubSession()
        session.sim.now = 1.0
        monitor = HealthMonitor(
            session, rules=perf_budget_rules(), profiler=Profiler(tracer)
        )
        report = monitor.check()
        verdict = next(v for v in report.verdicts if v.rule == "serve_self_p95")
        assert verdict.subject == "host"
        assert verdict.level == BREACH
        assert verdict.value == pytest.approx(700.0)

    def test_hold_children_do_not_count_as_serve_work(self):
        tracer = Tracer()
        serve = tracer.start_span("host.serve", t=0.0, node="host")
        tracer.start_span("transport.hold", t=0.0, parent=serve, node="host").finish(0.69)
        serve.finish(0.7)  # 10 ms of actual work under a 690 ms hold
        session = StubSession()
        session.sim.now = 1.0
        monitor = HealthMonitor(
            session, rules=perf_budget_rules(), profiler=Profiler(tracer)
        )
        report = monitor.check()
        verdict = next(v for v in report.verdicts if v.rule == "serve_self_p95")
        assert verdict.level == OK
        assert verdict.value == pytest.approx(10.0)

    def test_generate_wall_p95_uses_the_wall_axis(self):
        tracer = Tracer()
        tracer.start_span(
            "host.generate", t=0.5, node="host", wall_seconds=0.06
        ).finish(0.5)
        session = StubSession()
        session.sim.now = 1.0
        monitor = HealthMonitor(
            session, rules=perf_budget_rules(), profiler=Profiler(tracer)
        )
        report = monitor.check()
        verdict = next(v for v in report.verdicts if v.rule == "generate_wall_p95")
        assert verdict.level == BREACH  # 60 ms wall > 50 ms budget
        assert verdict.value == pytest.approx(60.0)

    def test_member_uplink_grades_attribution_rates(self):
        attribution = ByteAttribution(window=10.0)
        attribution.begin("host", "hog", "full", 1, {}).finalize(5.0, 10 * 300000)
        attribution.begin("host", "mouse", "delta", 1, {}).finalize(5.0, 100)
        session = StubSession()
        session.sim.now = 10.0
        monitor = HealthMonitor(
            session, rules=perf_budget_rules(), attribution=attribution
        )
        report = monitor.check()
        by_subject = {
            v.subject: v for v in report.verdicts if v.rule == "member_uplink_bytes"
        }
        assert by_subject["hog"].level == BREACH
        assert by_subject["mouse"].level == OK

    def test_window_profile_cached_per_check_time(self):
        tracer = Tracer()
        tracer.start_span("host.serve", t=0.0, node="host").finish(0.1)
        session = StubSession()
        session.sim.now = 1.0
        monitor = HealthMonitor(session, profiler=Profiler(tracer))
        assert monitor.window_profile() is monitor.window_profile()
        session.sim.now = 2.0
        first = monitor._profile_cache[1]
        assert monitor.window_profile() is not first


class TestHotMemberBreachAcceptance:
    def test_resync_storm_breaches_uplink_budget_with_evidence(self):
        """A hot member that keeps forcing full resyncs must trip the
        ``member_uplink_bytes`` perf budget *naming that member*, and
        the breach black box must land with the trailing-window flame
        graph and the attribution table pointing at the same member."""
        sim, host_browser, browsers = build_world(participants=3)
        tracer = Tracer()
        events = EventBus()
        attribution = ByteAttribution(window=5.0)
        profiler = Profiler(tracer)
        session = CoBrowsingSession(
            host_browser,
            poll_interval=0.2,
            tracer=tracer,
            events=events,
            attribution=attribution,
        )
        recorder = FlightRecorder(
            events,
            registry=session.metrics,
            tracer=tracer,
            profiler=profiler,
            attribution=attribution,
            min_dump_interval=0.0,
        )
        monitor = HealthMonitor(
            session,
            rules=default_rules()
            + perf_budget_rules(
                uplink_warn_bytes_s=1200.0, uplink_breach_bytes_s=2400.0
            ),
            window=5.0,
            recorder=recorder,
            profiler=profiler,
            attribution=attribution,
            sample_interval=0.25,
        )

        def scenario():
            snippets = {}
            for index, browser in enumerate(browsers):
                snippets["p%d" % index] = yield from session.join(
                    browser, participant_id="p%d" % index
                )
            yield from session.host_navigate("http://site.com/")
            yield from session.wait_until_synced()
            sim.process(monitor.run())
            hot = snippets["p1"]

            def storm():
                # The hot member's state keeps regressing: every poll
                # advertises ackTime 0, so the host serves it the full
                # envelope every interval while its peers ride deltas.
                while hot.connected:
                    hot.last_doc_time = 0
                    yield sim.timeout(0.05)

            sim.process(storm())
            for tick in range(32):
                host_browser.mutate_document(
                    lambda doc, tick=tick: setattr(
                        doc.get_element_by_id("tick"),
                        "inner_html",
                        "storm tick %d with enough text to weigh the envelope down %d"
                        % (tick, tick),
                    )
                )
                yield sim.timeout(0.25)
            monitor.sample()
            monitor.check()

        sim.run_until_complete(sim.process(scenario()))

        # The budget breached and the verdict names the hot member.
        assert monitor.worst_level == BREACH
        breaches = [
            event
            for event in events.events(type=SLO_BREACH)
            if event.data["rule"] == "member_uplink_bytes"
        ]
        assert breaches, "the uplink budget must trip"
        assert {event.node for event in breaches} == {"p1"}

        # The hot member is the fleet's top cost, with clear daylight.
        top_member, top_bytes = attribution.top_members(1)[0]
        assert top_member == "p1"
        runner_up = attribution.top_members(2)[1][1]
        assert top_bytes > 1.25 * runner_up

        # The breach black box carries the evidence: the flame graph
        # (trailing-window profile) and the attribution rollups that
        # point at the same member.
        box = next(
            box
            for box in recorder.dumps
            if box["reason"] == "slo-breach:member_uplink_bytes@p1"
        )
        assert box["profile"]["spans"] > 0
        # LAN serves are sim-instantaneous, so the flame graph lives on
        # the wall-compute axis here.
        assert box["profile"]["collapsed_wall"], "the box embeds flame-graph stacks"
        assert "host.serve" in box["profile"]["kinds"]
        per_member = box["attribution"]["per_member"]
        assert "p1" in per_member
        assert sum(per_member["p1"].values()) == max(
            sum(row.values()) for row in per_member.values()
        )
        session.close()


class TestIdleWindowEviction:
    """Large sim-time jumps between samples must not leave stale
    staleness observations grading the present."""

    def test_check_after_idle_jump_reads_an_empty_window(self):
        session = StubSession()
        monitor = HealthMonitor(session, window=5.0, rules=[])
        session.agent.doc_time = 1000
        session.times = {"alice": 0}
        session.sim.now = 1.0
        monitor.sample()
        assert monitor.staleness_p95("alice") == 1000.0
        # The session idles: sim-time jumps far past the window with no
        # intervening sample().  A direct read must prune, not grade on
        # the pre-jump observation.
        session.sim.now = 500.0
        assert monitor.staleness_p95("alice") == 0.0
        assert "alice" not in monitor._staleness

    def test_fresh_sample_after_the_jump_stands_alone(self):
        session = StubSession()
        monitor = HealthMonitor(session, window=5.0, rules=[])
        session.agent.doc_time = 10
        session.times = {"alice": 0}
        session.sim.now = 1.0
        monitor.sample()
        session.sim.now = 500.0
        session.agent.doc_time = 12
        session.times = {"alice": 11}
        monitor.sample()
        # Only the post-jump observation (staleness 1 tick = ms-scaled
        # doc-time gap) is in the window.
        assert len(monitor._staleness["alice"]) == 1
        assert monitor.staleness_p95("alice") == monitor.staleness_ms()["alice"]

    def test_rule_values_prune_through_the_same_path(self):
        session = StubSession()
        monitor = HealthMonitor(session, window=5.0, rules=default_rules())
        session.agent.doc_time = 10000
        session.times = {"alice": 0}
        session.sim.now = 1.0
        monitor.sample()
        report_hot = monitor.check()
        assert report_hot.level == BREACH
        # Idle jump: the same rule set reads a pruned (zero) staleness
        # without any new sample; hysteresis holds the grade at WARN
        # for one recovering check, then releases to OK.
        session.agent.doc_time = 0
        session.times = {"alice": 0}
        session.sim.now = 500.0
        report_idle = monitor.check()
        staleness = [
            v for v in report_idle.verdicts if v.rule == "staleness_p95"
        ]
        assert [v.value for v in staleness] == [0.0]
        assert report_idle.level == WARN  # recovering, not still-breached
        session.sim.now = 501.0
        assert monitor.check().level == OK

"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``demo``
    A narrated minimal co-browsing session (host + one participant).
``experiment {fig6,fig7,fig8,table1,table2,table4,all}``
    Regenerate one of the paper's figures/tables and print it.
``scenario {maps,shop}``
    Run a usability scenario end-to-end and print the transcript.
``sites``
    List the 20 Table-1 sample sites with sizes and regions.
``trace``
    Run a traced relayed session and print the end-to-end span trees;
    optionally export JSONL / Chrome trace-event / flame-graph files
    (``--collapsed`` for flamegraph.pl, ``--speedscope`` for
    https://www.speedscope.app).
``metrics``
    Run a small instrumented session and dump the metrics registry
    (``--format json`` for the machine-readable snapshot).
``health``
    Run a monitored relayed session, evaluate the SLO rules, and print
    the verdict table.  ``--fail-relay`` injects a mid-session relay
    death; ``--check`` exits nonzero if any check BREACHed; ``--dump`` /
    ``--dump-on-breach`` write the flight recorder's black box;
    ``--format json`` emits the report as JSON.
``top``
    Run the monitored session with continuous profiling and wire-byte
    attribution attached, then print the fleet table: per-node
    self-time, wall compute, downlink bytes/s, transport mode, and
    health grade, plus the per-kind profile and per-member byte
    attribution tables.
``logs``
    Run the same monitored session and print the structured event tail,
    filterable by ``--type`` / ``--node``.
``fleet``
    Run the monitored session with the fleet telemetry plane enabled —
    every member accumulates a client-measured digest (apply latency,
    end-to-end staleness, resyncs, bytes, transport mode) piggybacked
    upstream inside its polls — then print the host-side fleet view:
    per-member / per-tier / fleet-wide rollups, detected stragglers,
    and the telemetry wire overhead.  ``--json PATH`` also writes the
    machine-readable fleet snapshot.
``shards``
    Run a sharded-serving session — an :class:`~repro.core.AgentPool`
    of consistent-hash-placed serving instances behind the session
    directory — and print the per-shard table (members, polls,
    doc_time, state).  ``--fail-shard`` injects a shard host death a
    few seconds in, exercising the standby promotion path.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse parser for the ``repro`` CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of RCB: Real-time Collaborative Browsing (USENIX ATC 2009)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("demo", help="run a narrated minimal co-browsing session")

    experiment = subparsers.add_parser(
        "experiment", help="regenerate one of the paper's figures/tables"
    )
    experiment.add_argument(
        "target",
        choices=["fig6", "fig7", "fig8", "table1", "table2", "table4", "all"],
    )
    experiment.add_argument(
        "--repetitions",
        type=int,
        default=3,
        help="experiment rounds to average (paper: 5; default: 3)",
    )

    scenario = subparsers.add_parser("scenario", help="run a usability scenario")
    scenario.add_argument("which", choices=["maps", "shop"])

    subparsers.add_parser("sites", help="list the Table-1 sample sites")

    trace = subparsers.add_parser(
        "trace", help="trace a relayed co-browsing session end to end"
    )
    trace.add_argument(
        "--participants", type=int, default=6, help="session members (default: 6)"
    )
    trace.add_argument(
        "--branching", type=int, default=2, help="relay fan-out per node (default: 2)"
    )
    trace.add_argument(
        "--jsonl", metavar="PATH", help="write spans as JSON lines to PATH"
    )
    trace.add_argument(
        "--chrome",
        metavar="PATH",
        help="write a chrome://tracing-loadable trace-event file to PATH",
    )
    trace.add_argument(
        "--collapsed",
        metavar="PATH",
        help="write collapsed flame-graph stacks (flamegraph.pl input) to PATH",
    )
    trace.add_argument(
        "--speedscope",
        metavar="PATH",
        help="write a speedscope-JSON profile (both cost axes) to PATH",
    )

    metrics = subparsers.add_parser(
        "metrics", help="run an instrumented session and dump the metrics registry"
    )
    metrics.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="output format (default: text)",
    )

    health = subparsers.add_parser(
        "health", help="run a monitored session and print the SLO verdicts"
    )
    _add_monitored_session_args(health)
    health.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="output format (default: text)",
    )
    health.add_argument(
        "--check",
        action="store_true",
        help="exit 1 if any health check BREACHed during the run",
    )
    health.add_argument(
        "--dump",
        metavar="PATH",
        help="always write the flight recorder's black box (JSON) to PATH",
    )
    health.add_argument(
        "--dump-on-breach",
        metavar="PATH",
        help="write the black box to PATH only when the run BREACHed",
    )

    top = subparsers.add_parser(
        "top", help="run a profiled session and print the fleet cost table"
    )
    _add_monitored_session_args(top)
    top.add_argument(
        "--speedscope",
        metavar="PATH",
        help="also write the trailing-window speedscope profile to PATH",
    )

    logs = subparsers.add_parser(
        "logs", help="run a monitored session and print the structured event tail"
    )
    _add_monitored_session_args(logs)
    logs.add_argument("--type", dest="event_type", help="only events of this type")
    logs.add_argument("--node", help="only events from this component")
    logs.add_argument(
        "--limit", type=int, default=40, help="newest events to keep (default: 40)"
    )
    logs.add_argument(
        "--json", action="store_true", help="print events as JSON lines instead of a table"
    )

    fleet = subparsers.add_parser(
        "fleet", help="run a telemetry-enabled session and print the fleet view"
    )
    _add_monitored_session_args(fleet)
    fleet.add_argument(
        "--byte-cap",
        type=int,
        default=2048,
        help="per-poll telemetry digest byte cap (default: 2048)",
    )
    fleet.add_argument(
        "--json",
        metavar="PATH",
        help="also write the fleet view snapshot as JSON to PATH",
    )

    shards = subparsers.add_parser(
        "shards", help="run a sharded-serving session and print the shard table"
    )
    shards.add_argument(
        "--participants", type=int, default=24, help="session members (default: 24)"
    )
    shards.add_argument(
        "--shards", type=int, default=4, help="serving instances (default: 4)"
    )
    shards.add_argument(
        "--duration",
        type=float,
        default=10.0,
        help="edited sim-seconds after the first sync (default: 10)",
    )
    shards.add_argument(
        "--fail-shard",
        action="store_true",
        help="inject a shard host death a few seconds into the run",
    )
    return parser


def _add_monitored_session_args(command: argparse.ArgumentParser) -> None:
    command.add_argument(
        "--participants", type=int, default=6, help="session members (default: 6)"
    )
    command.add_argument(
        "--branching", type=int, default=2, help="relay fan-out per node (default: 2)"
    )
    command.add_argument(
        "--duration",
        type=float,
        default=20.0,
        help="monitored sim-seconds after the first sync (default: 20)",
    )
    command.add_argument(
        "--fail-relay",
        action="store_true",
        help="inject a relay death a few seconds into the run",
    )


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "demo":
        return _demo()
    if args.command == "experiment":
        return _experiment(args.target, args.repetitions)
    if args.command == "scenario":
        return _scenario(args.which)
    if args.command == "sites":
        return _sites()
    if args.command == "trace":
        return _trace(args)
    if args.command == "metrics":
        return _metrics(args)
    if args.command == "health":
        return _health(args)
    if args.command == "top":
        return _top(args)
    if args.command == "logs":
        return _logs(args)
    if args.command == "fleet":
        return _fleet(args)
    if args.command == "shards":
        return _shards(args)
    return 2  # pragma: no cover - argparse enforces choices


def _demo() -> int:
    from .browser import Browser
    from .core import CoBrowsingSession
    from .net import LAN_PROFILE, Host, Network
    from .sim import Simulator
    from .webserver import OriginServer, StaticSite

    sim = Simulator()
    network = Network(sim)
    site = StaticSite("demo.example.com")
    site.add_page(
        "/",
        "<html><head><title>RCB demo</title></head>"
        "<body><h1>Hello from the host</h1></body></html>",
    )
    OriginServer(network, "demo.example.com", site.handle)
    host = Browser(Host(network, "host-pc", LAN_PROFILE, segment="lan"), name="host")
    guest = Browser(Host(network, "guest-pc", LAN_PROFILE, segment="lan"), name="guest")
    session = CoBrowsingSession(host)
    print("Host started RCB-Agent at %s" % session.agent.url)

    def scenario():
        snippet = yield from session.join(guest, participant_id="guest")
        print("Participant joined (address bar: %s)" % guest.address_bar)
        yield from session.host_navigate("http://demo.example.com/")
        waited = yield from session.wait_until_synced()
        print(
            "Synchronized %r to the participant in %.3f simulated seconds."
            % (guest.page.document.title, waited)
        )
        session.leave(snippet)

    sim.run_until_complete(sim.process(scenario()))
    print("Done. Try: python -m repro experiment fig6")
    return 0


def _sites() -> int:
    from .webserver import TABLE1_SITES, generate_table1_site

    print("%-4s %-16s %10s %-8s %14s" % ("#", "site", "size (KB)", "region", "objects"))
    for spec in TABLE1_SITES:
        site = generate_table1_site(spec)
        print(
            "%-4d %-16s %10.1f %-8s %14d"
            % (spec.index, spec.host, spec.page_kb, spec.region, len(site.objects))
        )
    return 0


def _experiment(target: str, repetitions: int) -> int:
    from .metrics import (
        render_figure_m1_m2,
        render_figure_m3_m4,
        render_table1,
        run_experiment,
    )

    started = time.perf_counter()
    wanted = (
        ["fig6", "fig7", "fig8", "table1", "table2", "table4"]
        if target == "all"
        else [target]
    )

    lan_cache = lan_non_cache = None
    if {"fig6", "fig8", "table1"} & set(wanted):
        lan_cache = run_experiment("lan", cache_mode=True, repetitions=repetitions)
    if {"fig8", "table1"} & set(wanted):
        lan_non_cache = run_experiment("lan", cache_mode=False, repetitions=repetitions)

    if "fig6" in wanted:
        print(render_figure_m1_m2(lan_cache.rows, "LAN"))
    if "fig7" in wanted:
        wan_cache = run_experiment("wan", cache_mode=True, repetitions=repetitions)
        print(render_figure_m1_m2(wan_cache.rows, "WAN"))
    if "fig8" in wanted:
        print(render_figure_m3_m4(lan_non_cache.rows, lan_cache.rows, "LAN"))
    if "table1" in wanted:
        distributions = {
            "M5 non-cache": lan_non_cache.distribution("m5_seconds"),
            "M5 cache": lan_cache.distribution("m5_seconds"),
            "M6": lan_non_cache.distribution("m6_seconds"),
        }
        print(render_table1(lan_non_cache.rows, lan_cache.rows, distributions))
    if "table2" in wanted:
        _run_table2()
    if "table4" in wanted:
        _run_table4()
    print("(%.1f s wall time)" % (time.perf_counter() - started))
    return 0


def _run_table2() -> None:
    from .workloads import ScenarioRunner, build_lan

    testbed = build_lan(deploy_sites=False, with_map=True, with_shop=True)
    runner = ScenarioRunner(testbed)
    results = testbed.run(
        runner.run_session(testbed.host_browser, testbed.participant_browser)
    )
    for task in results:
        print(
            "%-7s %-4s %s"
            % (task.task_id, "ok" if task.completed else "FAIL", task.description)
        )
    print("completed: %d / %d" % (sum(t.completed for t in results), len(results)))


def _run_table4() -> None:
    from .workloads import (
        LIKERT_LEVELS,
        analyze_questionnaire,
        generate_questionnaire_responses,
    )

    summaries = analyze_questionnaire(generate_questionnaire_responses())
    print(("%-4s" + "%22s" * 5 + "%8s %8s") % (("Q",) + LIKERT_LEVELS + ("Median", "Mode")))
    for summary in summaries:
        print(
            ("%-4s" + "%21.1f%%" * 5 + "%8s %8s")
            % ((summary.question,) + summary.percentages + (summary.median, summary.mode))
        )


def _build_traced_world(participants: int):
    """A LAN world with one demo origin and ``participants`` guests."""
    from .browser import Browser
    from .net import LAN_PROFILE, Host, Network
    from .sim import Simulator
    from .webserver import OriginServer, StaticSite

    sim = Simulator()
    network = Network(sim)
    site = StaticSite("traced.example.com")
    site.add_page(
        "/",
        "<html><head><title>Traced RCB session</title></head>"
        "<body><h1>Observability demo</h1>"
        "<p>This document's journey is being traced.</p></body></html>",
    )
    OriginServer(network, "traced.example.com", site.handle)
    host = Browser(Host(network, "host-pc", LAN_PROFILE, segment="lan"), name="host")
    guests = []
    for index in range(participants):
        pc = Host(network, "guest-pc-%d" % index, LAN_PROFILE, segment="lan")
        guests.append(Browser(pc, name="guest-%d" % index))
    return sim, host, guests


def _trace(args) -> int:
    from .core import CoBrowsingSession
    from .metrics import render_trace_summary
    from .obs import (
        Tracer,
        write_chrome_trace,
        write_collapsed,
        write_spans_jsonl,
        write_speedscope,
    )

    sim, host, guests = _build_traced_world(args.participants)
    tracer = Tracer()
    session = CoBrowsingSession(host, tracer=tracer)
    session.fanout_tree(branching=args.branching)

    def scenario():
        for guest in guests:
            yield from session.join(guest)
        yield from session.host_navigate("http://traced.example.com/")
        yield from session.wait_until_synced()

    sim.run_until_complete(sim.process(scenario()))
    if len(tracer) == 0:
        print(
            "repro trace: the session produced no spans "
            "(no content was generated or served — try --participants >= 1)",
            file=sys.stderr,
        )
        session.close()
        return 1
    print(render_trace_summary(tracer))
    if args.jsonl:
        count = write_spans_jsonl(tracer, args.jsonl)
        print("wrote %d spans to %s" % (count, args.jsonl))
    if args.chrome:
        count = write_chrome_trace(tracer, args.chrome)
        print("wrote %d trace events to %s (load in chrome://tracing)" % (count, args.chrome))
    if args.collapsed:
        count = write_collapsed(tracer, args.collapsed)
        axis = "sim self-time"
        if count == 0:
            # A LAN run is sim-instantaneous; the wall-compute axis is
            # where its flame graph lives.
            count = write_collapsed(tracer, args.collapsed, wall=True)
            axis = "wall compute"
        print("wrote %d collapsed stacks to %s (%s)" % (count, args.collapsed, axis))
    if args.speedscope:
        count = write_speedscope(tracer, args.speedscope, name="repro trace")
        print(
            "wrote %d flame-graph samples to %s (load at speedscope.app)"
            % (count, args.speedscope)
        )
    session.close()
    return 0


def _metrics(args) -> int:
    import json as _json

    from .core import CoBrowsingSession

    sim, host, guests = _build_traced_world(2)
    session = CoBrowsingSession(host)

    def scenario():
        for guest in guests:
            yield from session.join(guest)
        yield from session.host_navigate("http://traced.example.com/")
        yield from session.wait_until_synced()

    sim.run_until_complete(sim.process(scenario()))
    if not session.metrics.collect():
        print(
            "repro metrics: the session produced no metrics "
            "(no instrument was ever registered)",
            file=sys.stderr,
        )
        session.close()
        return 1
    if args.format == "json":
        print(_json.dumps(session.metrics.snapshot(), indent=1, sort_keys=True))
    else:
        print(session.metrics.render("Session metrics"))
    session.close()
    return 0


def _run_monitored_session(args, telemetry=None):
    """Run the health/logs scenario: a fanout session with the EventBus,
    tracer, flight recorder, and SLO monitor attached; the host mutates
    its document once per sim-second for ``--duration`` seconds, with an
    optional injected relay death a few seconds in.  ``telemetry`` (a
    :class:`~repro.obs.FleetView`) additionally enables the fleet
    telemetry plane.

    Returns ``(session, monitor, recorder)`` after the run completes.
    """
    from .core import CoBrowsingSession
    from .obs import (
        ByteAttribution,
        EventBus,
        FlightRecorder,
        HealthMonitor,
        Profiler,
        Tracer,
    )

    sim, host, guests = _build_traced_world(args.participants)
    tracer = Tracer()
    events = EventBus()
    attribution = ByteAttribution()
    session = CoBrowsingSession(
        host,
        tracer=tracer,
        events=events,
        attribution=attribution,
        telemetry=telemetry,
    )
    session.fanout_tree(branching=args.branching)
    profiler = Profiler(tracer)
    recorder = FlightRecorder(
        events,
        registry=session.metrics,
        tracer=tracer,
        profiler=profiler,
        attribution=attribution,
        fleet=session.fleet,
    )
    monitor = HealthMonitor(
        session, recorder=recorder, profiler=profiler, attribution=attribution
    )

    def scenario():
        for guest in guests:
            yield from session.join(guest)
        yield from session.host_navigate("http://traced.example.com/")
        yield from session.wait_until_synced()
        sim.process(monitor.run())
        fail_at = 3 if args.fail_relay else None
        for tick in range(max(1, int(args.duration))):
            if fail_at is not None and tick == fail_at:
                victim = next(
                    (rid for rid, r in session.relays.items() if r.participants),
                    next(iter(session.relays), None),
                )
                if victim is not None:
                    print("injecting relay death: %s" % victim)
                    session.fail_relay(victim)
            host.mutate_document(
                lambda doc, tick=tick: setattr(
                    doc.get_elements_by_tag_name("p")[0],
                    "inner_html",
                    "monitored state %d" % tick,
                )
            )
            yield sim.timeout(1.0)
        monitor.sample()
        monitor.check()

    sim.run_until_complete(sim.process(scenario()))
    return session, monitor, recorder


def _health(args) -> int:
    import json as _json

    from .metrics import render_health_summary

    session, monitor, recorder = _run_monitored_session(args)
    if not session.member_times():
        print(
            "repro health: the session produced no members "
            "(nothing to grade — try --participants >= 1)",
            file=sys.stderr,
        )
        session.close()
        return 1
    report = monitor.last_report
    if args.format == "json":
        document = report.to_dict()
        document["worst_level"] = monitor.worst_level
        print(_json.dumps(document, indent=1, sort_keys=True))
    else:
        print(render_health_summary(report))
        print("worst level during run: %s" % monitor.worst_level)
    breached = monitor.worst_level == "BREACH"
    if args.dump:
        recorder.dump("on-demand", t=session.sim.now)
        recorder.write_last(args.dump)
        print("wrote black box to %s" % args.dump)
    if args.dump_on_breach and breached:
        if recorder.last_dump is None:
            recorder.dump("slo-breach", t=session.sim.now)
        recorder.write_last(args.dump_on_breach)
        print("wrote breach black box to %s" % args.dump_on_breach)
    session.close()
    if args.check and breached:
        return 1
    return 0


def _top(args) -> int:
    from .metrics import render_fleet_table, render_health_summary
    from .obs import render_attribution_table, render_profile_summary, write_speedscope

    session, monitor, _recorder = _run_monitored_session(args)
    now = session.sim.now
    profile = monitor.window_profile() if monitor.profiler is not None else None
    print(
        render_fleet_table(
            session,
            profile=profile,
            report=monitor.last_report,
            now=now,
            title="Fleet at t=%.3fs" % now,
        )
    )
    print()
    if profile is not None:
        print(
            render_profile_summary(
                profile, title="Profile (trailing %.0fs)" % monitor.window
            )
        )
        print()
    if session.attribution is not None:
        print(render_attribution_table(session.attribution))
        print()
    print(render_health_summary(monitor.last_report))
    if getattr(args, "speedscope", None) and profile is not None:
        count = write_speedscope(profile, args.speedscope, name="repro top")
        print(
            "wrote %d flame-graph samples to %s (load at speedscope.app)"
            % (count, args.speedscope)
        )
    session.close()
    return 0


def _logs(args) -> int:
    from .obs import events_to_jsonl

    session, monitor, _recorder = _run_monitored_session(args)
    events = session.events.events(
        type=args.event_type, node=args.node or None, last=args.limit
    )
    if not events:
        print("repro logs: no events matched the filters", file=sys.stderr)
        session.close()
        return 1
    if args.json:
        print(events_to_jsonl(events))
    else:
        print(
            "%9s %-20s %-14s %-18s %s" % ("t (s)", "type", "node", "trace", "data")
        )
        for event in events:
            print(
                "%9.3f %-20s %-14s %-18s %s"
                % (
                    event.t,
                    event.type,
                    event.node,
                    event.trace_id or "-",
                    event.data or "",
                )
            )
    session.close()
    return 0


def _fleet(args) -> int:
    import json as _json

    from .obs import FleetView, render_fleet_view

    session, _monitor, _recorder = _run_monitored_session(
        args, telemetry=FleetView(byte_cap=args.byte_cap)
    )
    if not session.member_times():
        print(
            "repro fleet: the session produced no members "
            "(no digests to aggregate — try --participants >= 1)",
            file=sys.stderr,
        )
        session.close()
        return 1
    view = session.fleet
    print(
        render_fleet_view(
            view, title="Fleet telemetry at t=%.3fs" % session.sim.now
        )
    )
    if args.json:
        with open(args.json, "w") as handle:
            _json.dump(view.to_dict(), handle, indent=1, sort_keys=True)
            handle.write("\n")
        print("wrote fleet view to %s" % args.json)
    session.close()
    return 0


def _shards(args) -> int:
    from .core import AgentPool, CoBrowsingSession, render_shard_table
    from .obs import SHARD_MIGRATE, SHARD_PROMOTE, EventBus

    sim, host, guests = _build_traced_world(args.participants)
    events = EventBus(max_total_events=4096)
    session = CoBrowsingSession(host, events=events)
    pool = AgentPool(session, shards=args.shards)

    def scenario():
        yield from pool.start()
        for guest in guests:
            yield from pool.join_browser(guest)
        yield from session.host_navigate("http://traced.example.com/")
        yield from session.wait_until_synced()
        fail_at = 3 if args.fail_shard else None
        for tick in range(max(1, int(args.duration))):
            if fail_at is not None and tick == fail_at and pool.relays:
                victim = sorted(pool.relays)[0]
                print("injecting shard host death: %s" % victim)
                pool.fail_shard(victim)
            host.mutate_document(
                lambda doc, tick=tick: setattr(
                    doc.get_elements_by_tag_name("p")[0],
                    "inner_html",
                    "sharded state %d" % tick,
                )
            )
            yield sim.timeout(1.0)
        yield from session.wait_until_synced()

    sim.run_until_complete(sim.process(scenario()))
    if not session.member_times():
        print(
            "repro shards: the session produced no members "
            "(nothing was served — try --participants >= 1)",
            file=sys.stderr,
        )
        session.close()
        return 1
    print(render_shard_table(pool, title="Shard pool at t=%.3fs" % sim.now))
    print(
        "events: %d shard.promote, %d shard.migrate"
        % (events.total(SHARD_PROMOTE), events.total(SHARD_MIGRATE))
    )
    session.close()
    return 0


def _scenario(which: str) -> int:
    if which == "maps":
        from .workloads import ScenarioRunner, build_lan

        testbed = build_lan(deploy_sites=False, with_map=True, with_shop=True)
        runner = ScenarioRunner(testbed)
        results = testbed.run(
            runner.run_session(testbed.host_browser, testbed.participant_browser)
        )
        for task in results[:10]:  # T1..T5 pairs are the maps half
            print("%-7s %-4s %s" % (task.task_id, "ok" if task.completed else "FAIL", task.detail))
        return 0
    if which == "shop":
        from .workloads import ScenarioRunner, build_lan

        testbed = build_lan(deploy_sites=False, with_map=True, with_shop=True)
        runner = ScenarioRunner(testbed)
        results = testbed.run(
            runner.run_session(testbed.host_browser, testbed.participant_browser)
        )
        for task in results[10:]:
            print("%-7s %-4s %s" % (task.task_id, "ok" if task.completed else "FAIL", task.detail))
        return 0
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

"""Text renderers for the paper's figures and tables.

The benchmark harness prints the same rows/series the paper reports:
Figure 6/7 (M1 vs M2 per site), Figure 8 (M3 vs M4 per site), Table 1
(page size, M5 non-cache, M5 cache, M6), and the derived shape claims.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..obs import Histogram, percentile
from .metrics import SiteMeasurement

__all__ = [
    "render_figure_m1_m2",
    "render_figure_m3_m4",
    "render_fleet_table",
    "render_health_summary",
    "render_table1",
    "render_trace_summary",
    "render_shape_checks",
    "bar",
]


def bar(value: float, scale: float, width: int = 40) -> str:
    """A crude text bar for figure-style output."""
    if scale <= 0:
        return ""
    filled = int(round(min(value / scale, 1.0) * width))
    return "#" * filled


def render_figure_m1_m2(
    rows: Sequence[SiteMeasurement], environment: str
) -> str:
    """Figure 6/7: per-site HTML document load time, M1 vs M2."""
    scale = max(max(r.m1 for r in rows), max(r.m2 for r in rows))
    lines = [
        "Figure (%s): HTML document load time — M1 (host<-server) vs M2 (participant<-host)"
        % environment,
        "%-4s %-16s %9s %9s  %s" % ("#", "site", "M1 (s)", "M2 (s)", "bars: M1 then M2"),
    ]
    for index, row in enumerate(rows, start=1):
        lines.append(
            "%-4d %-16s %9.3f %9.3f  |%s" % (index, row.site, row.m1, row.m2, bar(row.m1, scale))
        )
        lines.append("%-4s %-16s %9s %9s  |%s" % ("", "", "", "", bar(row.m2, scale)))
    faster = sum(1 for r in rows if r.m2 < r.m1)
    lines.append(
        "M2 < M1 on %d of %d sites; max M2 = %.3f s"
        % (faster, len(rows), max(r.m2 for r in rows))
    )
    return "\n".join(lines)


def render_figure_m3_m4(
    non_cache_rows: Sequence[SiteMeasurement],
    cache_rows: Sequence[SiteMeasurement],
    environment: str,
) -> str:
    """Figure 8: supplementary-object download time, M3 vs M4."""
    cache_by_site = {r.site: r for r in cache_rows}
    pairs = [(r, cache_by_site[r.site]) for r in non_cache_rows if r.site in cache_by_site]
    scale = max(
        max((r.m3 or 0.0) for r, _c in pairs), max((c.m4 or 0.0) for _r, c in pairs)
    )
    lines = [
        "Figure (%s): supplementary object download — M3 (origin) vs M4 (host cache)"
        % environment,
        "%-4s %-16s %9s %9s %8s" % ("#", "site", "M3 (s)", "M4 (s)", "gain"),
    ]
    for index, (non_cache, cache) in enumerate(pairs, start=1):
        m3 = non_cache.m3 or 0.0
        m4 = cache.m4 or 0.0
        gain = (m3 / m4) if m4 > 0 else float("inf")
        lines.append(
            "%-4d %-16s %9.3f %9.3f %7.2fx" % (index, non_cache.site, m3, m4, gain)
        )
    wins = sum(1 for nc, c in pairs if (c.m4 or 0) < (nc.m3 or 0))
    lines.append("M4 < M3 on %d of %d sites" % (wins, len(pairs)))
    return "\n".join(lines)


def render_table1(
    non_cache_rows: Sequence[SiteMeasurement],
    cache_rows: Sequence[SiteMeasurement],
    distributions: Optional[Dict[str, Histogram]] = None,
) -> str:
    """Table 1: homepage size and processing time of the 20 sites.

    ``distributions`` (label -> histogram of raw observations, e.g. from
    :meth:`~repro.metrics.harness.ExperimentResult.distribution`) appends
    a p50/p95/p99 block — per-site means hide the tail the paper's
    slowest sites live in.
    """
    cache_by_site = {r.site: r for r in cache_rows}
    lines = [
        "Table 1: homepage size and processing time",
        "%-4s %-16s %10s %14s %12s %10s"
        % ("#", "site", "size (KB)", "M5 non-cache", "M5 cache", "M6"),
    ]
    for index, row in enumerate(non_cache_rows, start=1):
        cache_row = cache_by_site.get(row.site)
        lines.append(
            "%-4d %-16s %10.1f %13.4fs %11.4fs %9.4fs"
            % (
                index,
                row.site,
                row.page_kb,
                row.m5,
                cache_row.m5 if cache_row else float("nan"),
                row.m6,
            )
        )
    if distributions:
        lines.append("Distributions over raw per-site observations (all rounds):")
        lines.append(
            "  %-16s %6s %10s %10s %10s %10s"
            % ("metric", "n", "mean", "p50", "p95", "p99")
        )
        for label, histogram in distributions.items():
            if histogram is None:
                continue
            lines.append(
                "  %-16s %6d %9.4fs %9.4fs %9.4fs %9.4fs"
                % (
                    label,
                    histogram.count,
                    histogram.mean,
                    histogram.p50,
                    histogram.p95,
                    histogram.p99,
                )
            )
    return "\n".join(lines)


def render_shape_checks(checks: Dict[str, bool]) -> str:
    """A PASS/FAIL list for the paper's qualitative claims."""
    lines = ["Shape checks (paper claim -> this reproduction):"]
    for name, passed in checks.items():
        lines.append("  [%s] %s" % ("PASS" if passed else "FAIL", name))
    return "\n".join(lines)


def render_health_summary(report, title: str = "Session health") -> str:
    """One verdict table from a :class:`~repro.obs.health.HealthReport`:
    every (rule, subject) row with its windowed value against the WARN /
    BREACH thresholds, worst verdicts first, breached subjects named in
    the footer."""
    lines = [
        "%s at t=%.3fs: %s (%d verdicts, %d breaching, %d warning)"
        % (
            title,
            report.t,
            report.level,
            len(report.verdicts),
            len(report.breaches()),
            len(report.warnings()),
        ),
        "  %-7s %-22s %-14s %12s %12s %12s"
        % ("level", "rule", "subject", "value", "warn", "breach"),
    ]
    severity = {"BREACH": 0, "WARN": 1, "OK": 2}
    ordered = sorted(
        report.verdicts,
        key=lambda v: (severity.get(v.level, 3), v.rule, v.subject),
    )
    for verdict in ordered:
        suffix = " (%s)" % verdict.detail if verdict.detail else ""
        lines.append(
            "  %-7s %-22s %-14s %12.3f %12.3f %12.3f%s%s"
            % (
                verdict.level,
                verdict.rule,
                verdict.subject,
                verdict.value,
                verdict.warn,
                verdict.breach,
                " " + verdict.unit if verdict.unit else "",
                suffix,
            )
        )
    breached = report.breached_subjects()
    if breached:
        lines.append("  BREACH affects: %s" % ", ".join(breached))
    return "\n".join(lines)


def render_trace_summary(source, max_traces: int = 8) -> str:
    """A per-trace span-tree listing plus per-stage duration percentiles.

    ``source`` is a :class:`~repro.obs.trace.Tracer` or an iterable of
    spans.  Each trace renders as an indented tree (parent-linked spans
    under their parents, in sim-time order), so one participant poll in
    a relayed session reads top to bottom: host.generate, host.serve,
    relay.apply, relay.serve, snippet.apply.
    """
    spans = source.spans if hasattr(source, "spans") else list(source)
    if not spans:
        return "Trace summary: no spans recorded"
    by_trace: Dict[str, List] = {}
    for span in spans:
        by_trace.setdefault(span.trace_id, []).append(span)
    lines = ["Trace summary: %d spans in %d traces" % (len(spans), len(by_trace))]

    shown = 0
    for trace_id, members in by_trace.items():
        if shown >= max_traces:
            lines.append(
                "  ... %d more traces not shown" % (len(by_trace) - shown)
            )
            break
        shown += 1
        lines.append("  trace %s (%d spans)" % (trace_id, len(members)))
        ids = {span.span_id for span in members}
        children: Dict[str, List] = {}
        roots = []
        for span in members:
            if span.parent_id in ids:
                children.setdefault(span.parent_id, []).append(span)
            else:
                roots.append(span)

        def walk(span, depth):
            lines.append(
                "    %s%-16s @%-16s %8.3fs +%.3fs %s"
                % (
                    "  " * depth,
                    span.name,
                    span.node or "?",
                    span.start,
                    span.duration,
                    span.tags.get("kind", ""),
                )
            )
            for child in sorted(children.get(span.span_id, []), key=lambda s: s.start):
                walk(child, depth + 1)

        for root in sorted(roots, key=lambda s: s.start):
            walk(root, 0)

    durations: Dict[str, List[float]] = {}
    for span in spans:
        durations.setdefault(span.name, []).append(span.duration)
    lines.append("  Per-stage sim-time durations:")
    lines.append(
        "  %-18s %6s %10s %10s %10s" % ("span", "n", "p50", "p95", "p99")
    )
    for name in sorted(durations):
        samples = durations[name]
        lines.append(
            "  %-18s %6d %9.3fs %9.3fs %9.3fs"
            % (
                name,
                len(samples),
                percentile(samples, 50),
                percentile(samples, 95),
                percentile(samples, 99),
            )
        )
    return "\n".join(lines)


def render_fleet_table(
    session,
    profile=None,
    report=None,
    now: Optional[float] = None,
    title: str = "Fleet",
) -> str:
    """The ``repro top`` body: one row per pipeline node.

    Host first, then relay tiers, then flat participants.  Per-node
    sim self-time and wall compute come from a
    :class:`~repro.obs.profile.Profile` (when given), downlink bytes/s
    from the session's attached :class:`~repro.obs.ByteAttribution`,
    and the grade column is the worst health verdict naming that node
    or member in ``report``.
    """
    by_node: Dict[str, Dict[str, float]] = profile.by_node() if profile is not None else {}
    attribution = getattr(session, "attribution", None)
    rates: Dict[str, float] = {}
    if attribution is not None and now is not None:
        rates = attribution.member_rates(now)

    severity = {"BREACH": 0, "WARN": 1, "OK": 2}

    def grade(*names: str) -> str:
        if report is None:
            return "-"
        worst = "OK"
        for verdict in report.verdicts:
            if verdict.subject in names and severity.get(verdict.level, 3) < severity.get(
                worst, 3
            ):
                worst = verdict.level
        return worst

    def costs(node_name: str) -> tuple:
        row = by_node.get(node_name)
        if row is None:
            return 0.0, 0.0
        return row["self"] * 1e3, row["wall"] * 1e3

    lines = [
        "%s: %d relays, %d flat participants"
        % (title, len(session.relays), len(session.participants)),
        "%-14s %5s %-9s %11s %11s %12s %-7s"
        % ("node", "tier", "transport", "self(ms)", "wall(ms)", "bytes/s", "grade"),
    ]

    def row(name, tier, transport, node_name, member_id=None):
        self_ms, wall_ms = costs(node_name)
        rate = rates.get(member_id, 0.0) if member_id is not None else 0.0
        lines.append(
            "%-14s %5s %-9s %11.3f %11.3f %12.1f %-7s"
            % (
                name,
                tier,
                transport,
                self_ms,
                wall_ms,
                rate,
                grade(name, node_name),
            )
        )

    host_node = session.agent._node_name()
    row(host_node, 0, "-", host_node)
    for member_id in sorted(session.relays):
        relay = session.relays[member_id]
        tier = session.member_tier(member_id)
        upstream = getattr(relay, "upstream", None)
        transport = getattr(upstream, "transport_mode", "?") if upstream else "?"
        row(member_id, tier if tier is not None else "?", transport, relay._node_name(), member_id)
    for member_id in sorted(session.participants):
        snippet = session.participants[member_id]
        tier = session.member_tier(member_id)
        row(
            member_id,
            tier if tier is not None else "?",
            getattr(snippet, "transport_mode", "?"),
            member_id,
            member_id,
        )
    return "\n".join(lines)

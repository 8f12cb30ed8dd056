"""Continuous sim-time profiling: self vs inclusive span time.

The PR-3 tracer answers "where did *this* document state go"; this
module answers the aggregate question the ROADMAP's sharding work
needs: **where does the time go, across every state served** — which
pipeline stage is hot, on which node, and how much of a stage's
inclusive time is really its own.

Two time dimensions ride on every span, and the profiler keeps them
apart:

* **Sim self-time** — the span's sim-clock extent minus the portion
  covered by its direct children (clipped to the parent's interval, so
  a child that outlives its parent credits only the overlap).  A
  ``host.serve`` span that parked a long poll for 20 s carries a
  ``transport.hold`` child for the parked stretch, so its *self* time
  is the actual serving work, not the wait.  Sibling overlap is not
  deduplicated (instantaneous parents make it moot in practice);
  self-time is clamped at zero.
* **Wall compute** — the ``wall_seconds`` tag some spans attach
  (generation, apply).  Spans like ``host.generate`` are
  *instantaneous in sim-time* (the kernel charges CPU separately), so
  their cost only shows up on this axis.  Wall tags are per-span
  exclusive measurements already; no child subtraction applies.

A :class:`Profile` is one aggregation pass over finished spans: a
weighted call tree keyed by span-kind path (``host.generate →
host.serve → relay.apply → ...``), per-kind and per-node rollups, and
collapsed-stack lines ready for the flame-graph exporters in
:mod:`repro.obs.export`.  :class:`Profiler` is the continuous front
end — it wraps a live tracer and snapshots windows of it on demand
(the SLO engine, ``repro top``, and the flight recorder all pull from
one).  Like the tracer itself, everything here is strictly opt-in and
off the wire: profiling a session changes no protocol bytes.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from .trace import Span, Tracer

__all__ = ["FrameStat", "Profile", "Profiler", "build_profile", "render_profile_summary"]


class FrameStat:
    """One node of the weighted call tree (a span-kind path prefix)."""

    __slots__ = ("name", "count", "inclusive", "self_seconds", "wall_seconds", "children")

    def __init__(self, name: str):
        self.name = name
        #: Finished spans aggregated at this path.
        self.count = 0
        #: Total sim-time the spans covered (children included).
        self.inclusive = 0.0
        #: Total sim-time exclusive of direct children.
        self.self_seconds = 0.0
        #: Total wall compute the spans' ``wall_seconds`` tags reported.
        self.wall_seconds = 0.0
        self.children: Dict[str, "FrameStat"] = {}

    def child(self, name: str) -> "FrameStat":
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = FrameStat(name)
        return node

    def to_dict(self) -> Dict[str, object]:
        row: Dict[str, object] = {
            "name": self.name,
            "count": self.count,
            "inclusive": self.inclusive,
            "self": self.self_seconds,
            "wall": self.wall_seconds,
        }
        if self.children:
            row["children"] = [
                self.children[name].to_dict() for name in sorted(self.children)
            ]
        return row

    def __repr__(self):
        return "FrameStat(%s: n=%d self=%.6fs wall=%.6fs)" % (
            self.name,
            self.count,
            self.self_seconds,
            self.wall_seconds,
        )


def _span_list(source) -> List[Span]:
    if isinstance(source, Tracer):
        return source.spans
    return list(source)


class Profile:
    """One aggregation pass over a set of finished spans."""

    def __init__(self, spans: Iterable[Span], since: float = 0.0):
        finished = [
            span for span in _span_list(spans) if span.finished and span.start >= since
        ]
        self.since = since
        #: ``(span, sim_self_seconds, wall_seconds)`` per finished span.
        self.records: List[Tuple[Span, float, float]] = []
        by_id: Dict[str, Span] = {span.span_id: span for span in finished}
        by_parent: Dict[str, List[Span]] = {}
        for span in finished:
            if span.parent_id is not None:
                by_parent.setdefault(span.parent_id, []).append(span)
        for span in finished:
            child_overlap = 0.0
            for child in by_parent.get(span.span_id, ()):
                overlap = min(child.end, span.end) - max(child.start, span.start)
                if overlap > 0.0:
                    child_overlap += overlap
            span.child_seconds = child_overlap
            wall = float(span.tags.get("wall_seconds", 0.0) or 0.0)
            self.records.append((span, span.self_seconds, wall))
        #: The weighted call tree, keyed by span-kind path from the root.
        self.root = FrameStat("")
        self._paths: Dict[str, Tuple[str, ...]] = {}
        for span, self_seconds, wall in self.records:
            frame = self.root
            for name in self._path(span, by_id):
                frame = frame.child(name)
            frame.count += 1
            frame.inclusive += span.duration
            frame.self_seconds += self_seconds
            frame.wall_seconds += wall

    def _path(self, span: Span, by_id: Dict[str, Span]) -> Tuple[str, ...]:
        cached = self._paths.get(span.span_id)
        if cached is not None:
            return cached
        names: List[str] = [span.name]
        cursor = span
        # Walk the parent chain; a parent outside the window roots here.
        while cursor.parent_id is not None:
            parent = by_id.get(cursor.parent_id)
            if parent is None:
                break
            names.append(parent.name)
            cursor = parent
        path = tuple(reversed(names))
        self._paths[span.span_id] = path
        return path

    # -- rollups ------------------------------------------------------------------------

    def by_kind(self) -> Dict[str, Dict[str, float]]:
        """Per span-kind totals: ``{name: {count, inclusive, self, wall}}``."""
        out: Dict[str, Dict[str, float]] = {}
        for span, self_seconds, wall in self.records:
            row = out.get(span.name)
            if row is None:
                row = out[span.name] = {
                    "count": 0,
                    "inclusive": 0.0,
                    "self": 0.0,
                    "wall": 0.0,
                }
            row["count"] += 1
            row["inclusive"] += span.duration
            row["self"] += self_seconds
            row["wall"] += wall
        return out

    def by_node(self) -> Dict[str, Dict[str, float]]:
        """Per pipeline-node totals (host, each relay, each member)."""
        out: Dict[str, Dict[str, float]] = {}
        for span, self_seconds, wall in self.records:
            node = span.node or "?"
            row = out.get(node)
            if row is None:
                row = out[node] = {"count": 0, "self": 0.0, "wall": 0.0}
            row["count"] += 1
            row["self"] += self_seconds
            row["wall"] += wall
        return out

    def self_samples(self, suffix: str, wall: bool = False) -> Dict[str, List[float]]:
        """Per-span cost samples for spans whose kind ends in ``suffix``,
        grouped by node (the SLO engine's percentile feed).  ``wall``
        selects the wall-compute axis instead of sim self-time."""
        out: Dict[str, List[float]] = {}
        for span, self_seconds, wall_seconds in self.records:
            if not span.name.endswith(suffix):
                continue
            out.setdefault(span.node or "?", []).append(wall_seconds if wall else self_seconds)
        return out

    def stacks(self) -> List[Tuple[Tuple[str, ...], float, float, int]]:
        """Flattened call-tree rows: ``(path, self_s, wall_s, count)``,
        depth-first in sorted child order (deterministic exports)."""
        rows: List[Tuple[Tuple[str, ...], float, float, int]] = []

        def walk(frame: FrameStat, prefix: Tuple[str, ...]) -> None:
            path = prefix + (frame.name,) if frame.name else prefix
            if frame.count and path:
                rows.append((path, frame.self_seconds, frame.wall_seconds, frame.count))
            for name in sorted(frame.children):
                walk(frame.children[name], path)

        walk(self.root, ())
        return rows

    def collapsed(self, wall: bool = False) -> List[str]:
        """Collapsed-stack lines (``frame;frame value``), value in whole
        microseconds — the Brendan-Gregg flame-graph input format."""
        lines: List[str] = []
        for path, self_seconds, wall_seconds, _count in self.stacks():
            value = wall_seconds if wall else self_seconds
            micros = int(round(value * 1e6))
            if micros > 0:
                lines.append("%s %d" % (";".join(path), micros))
        return lines

    def total_self(self) -> float:
        return sum(self_seconds for _s, self_seconds, _w in self.records)

    def total_wall(self) -> float:
        return sum(wall for _s, _self, wall in self.records)

    def to_dict(self) -> Dict[str, object]:
        """A JSON-ready summary (what the flight recorder embeds)."""
        return {
            "since": self.since,
            "spans": len(self.records),
            "total_self_seconds": self.total_self(),
            "total_wall_seconds": self.total_wall(),
            "kinds": self.by_kind(),
            "collapsed": self.collapsed(),
            "collapsed_wall": self.collapsed(wall=True),
        }

    def __repr__(self):
        return "Profile(%d spans, %.6fs self, %.6fs wall)" % (
            len(self.records),
            self.total_self(),
            self.total_wall(),
        )


def build_profile(source, since: float = 0.0) -> Profile:
    """Aggregate ``source`` (a Tracer or span iterable) into a Profile."""
    if isinstance(source, Tracer) and since > 0.0:
        return Profile(source.spans_since(since), since=since)
    return Profile(_span_list(source), since=since)


class Profiler:
    """The continuous-profiling front end over a live tracer.

    Wraps the session tracer and snapshots :class:`Profile` windows on
    demand; the SLO engine, ``repro top``, and the flight recorder all
    share one instance.  Holding a Profiler costs nothing per span —
    aggregation happens only when a consumer asks.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def profile(self, since: float = 0.0) -> Profile:
        """Aggregate the spans that started at or after ``since``."""
        return build_profile(self.tracer, since=since)

    def window(self, now: float, window: float) -> Profile:
        """The trailing-window profile ending at sim-time ``now``."""
        return self.profile(since=max(0.0, now - window))

    def __repr__(self):
        return "Profiler(%r)" % (self.tracer,)


def render_profile_summary(profile: Profile, title: str = "Profile") -> str:
    """A fixed-width per-kind cost table (the ``repro top`` footer)."""
    lines = [title, "=" * len(title)]
    kinds = profile.by_kind()
    if not kinds:
        lines.append("(no finished spans)")
        return "\n".join(lines)
    lines.append(
        "%-20s %8s %12s %12s %12s" % ("kind", "count", "incl(ms)", "self(ms)", "wall(ms)")
    )
    for name in sorted(kinds, key=lambda k: -kinds[k]["self"]):
        row = kinds[name]
        lines.append(
            "%-20s %8d %12.3f %12.3f %12.3f"
            % (
                name,
                row["count"],
                row["inclusive"] * 1e3,
                row["self"] * 1e3,
                row["wall"] * 1e3,
            )
        )
    return "\n".join(lines)

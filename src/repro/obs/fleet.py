"""The host-side fleet view: merged client-measured telemetry rollups.

The :class:`FleetView` is the terminal sink of the fleet telemetry
plane: every digest blob that reaches the root agent (one bounded blob
per poll, relays having merged their subtrees on the way up) lands in
:meth:`FleetView.ingest`, which accumulates per-member deltas, folded
aggregates, and the plane's own wire cost.  From that it serves:

* fleet-wide / per-tier / per-member rollups with **true
  client-measured** ``staleness_p95`` (ms, at apply time) and
  ``apply_p99`` (µs, wall) — not the host-inferred staleness the SLO
  engine samples from sim attributes;
* the ``telemetry_overhead_ratio`` — digest wire bytes over the content
  bytes members reported seeing, the budget that keeps the reporting
  channel from eating the coherence win it measures;
* straggler detection by **modified z-score** (median/MAD, the robust
  form that one outlier cannot drag) over per-member staleness p95;
* a JSON export (:meth:`to_dict`) and a CLI table
  (:func:`render_fleet_view`) — the ``repro fleet`` command.

Wired into a :class:`~repro.core.session.CoBrowsingSession` via its
``telemetry=`` argument; the session resolves tiers through
``tier_of`` exactly like byte attribution does.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from .digest import FOLDED_ID, MemberDelta, TelemetryDigest

__all__ = ["FleetView", "render_fleet_view"]


def _median(values: List[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


class FleetView:
    """Aggregates piggybacked telemetry digests into fleet rollups."""

    #: Minimum seconds between a reporter's piggybacked flushes (the
    #: session hands this to every member's ClientTelemetry).
    flush_interval = 2.0
    #: Modified-z threshold for flagging a straggler (3.5 is the
    #: standard Iglewicz–Hoaglin cut).
    straggler_threshold = 3.5
    #: Robust statistics need a minimum population.
    straggler_min_members = 4

    def __init__(
        self,
        byte_cap: int = 2048,
        tier_of: Optional[Callable[[str], Optional[int]]] = None,
        shard_of: Optional[Callable[[str], Optional[str]]] = None,
    ):
        #: Compact-encoding budget each reporter folds under; the
        #: session hands this to every member's ClientTelemetry.
        self.byte_cap = byte_cap
        #: ``member_id -> tier`` resolver (the session wires its
        #: ``member_tier``); None leaves every member untiered.
        self.tier_of = tier_of
        #: ``member_id -> shard id`` resolver (an
        #: :class:`~repro.core.shard.AgentPool` wires its ``shard_of``);
        #: None leaves every member unsharded.
        self.shard_of = shard_of

        self._members: Dict[str, MemberDelta] = {}
        #: Fold-under-cap aggregates, identity lost upstream (the record
        #: weight counts the collapsed member-records — reported, never
        #: silent).
        self._folded: Optional[MemberDelta] = None
        self.digests_ingested = 0
        self.ingest_errors = 0
        #: Compact wire bytes of every ingested blob — the numerator of
        #: the overhead ratio and the max-blob cap assertion.
        self.telemetry_wire_bytes = 0
        self.max_blob_bytes = 0
        self.last_ingest_t: Optional[float] = None

    # -- intake ------------------------------------------------------------------------

    def ingest(self, blob, t: Optional[float] = None) -> None:
        """Accumulate one piggybacked digest blob.  A blob that does not
        decode, or is over :attr:`byte_cap` (:meth:`TelemetryDigest.admit`),
        is counted on ``ingest_errors`` and dropped whole: a hostile
        client can neither crash the host, land half a blob, nor add
        more than a cap's worth of records in one poll."""
        try:
            digest, size = TelemetryDigest.admit(blob, self.byte_cap)
        except ValueError:
            self.ingest_errors += 1
            return
        self.digests_ingested += 1
        self.telemetry_wire_bytes += size
        if size > self.max_blob_bytes:
            self.max_blob_bytes = size
        if t is not None:
            self.last_ingest_t = t
        for delta in digest.members.values():
            if delta.member_id == FOLDED_ID:
                if self._folded is None:
                    self._folded = MemberDelta(FOLDED_ID, weight=0)
                self._folded.merge_from(delta)
            else:
                mine = self._members.get(delta.member_id)
                if mine is None:
                    mine = self._members[delta.member_id] = MemberDelta(
                        delta.member_id, weight=0
                    )
                mine.merge_from(delta)

    # -- rollups -----------------------------------------------------------------------

    @property
    def member_count(self) -> int:
        return len(self._members)

    @property
    def folded_records(self) -> int:
        """Member-records that arrived collapsed into ``*`` aggregates."""
        return self._folded.weight if self._folded is not None else 0

    def member_ids(self) -> List[str]:
        return sorted(self._members)

    def member(self, member_id: str) -> Optional[MemberDelta]:
        return self._members.get(member_id)

    def totals(self) -> MemberDelta:
        """The fleet aggregate: every member plus folded records.  Pure
        counter/sketch sums, so this equals Σ per-member locals whenever
        nothing is pending or lost in transit."""
        aggregate = MemberDelta("fleet", weight=0)
        for delta in self._members.values():
            aggregate.merge_from(delta)
        if self._folded is not None:
            aggregate.merge_from(self._folded)
        return aggregate

    def staleness_p95(self) -> float:
        """Fleet-wide client-measured staleness p95, milliseconds."""
        return self.totals().staleness.percentile(95)

    def apply_p99(self) -> float:
        """Fleet-wide client-measured apply latency p99, microseconds."""
        return self.totals().apply.percentile(99)

    def member_staleness_p95(self) -> Dict[str, float]:
        """Per-member staleness p95 (ms) for members with apply samples."""
        return {
            member_id: delta.staleness.percentile(95)
            for member_id, delta in self._members.items()
            if delta.staleness.count
        }

    def per_tier(self) -> Dict[Optional[int], MemberDelta]:
        """Member deltas aggregated by relay-tree tier (None: untiered /
        flat members; folded records land in tier None too — their
        member identity, and hence tier, folded away upstream)."""
        tiers: Dict[Optional[int], MemberDelta] = {}
        for member_id, delta in self._members.items():
            tier = self.tier_of(member_id) if self.tier_of is not None else None
            aggregate = tiers.get(tier)
            if aggregate is None:
                aggregate = tiers[tier] = MemberDelta(
                    "tier:%s" % ("?" if tier is None else tier), weight=0
                )
            aggregate.merge_from(delta)
        if self._folded is not None:
            aggregate = tiers.get(None)
            if aggregate is None:
                aggregate = tiers[None] = MemberDelta("tier:?", weight=0)
            aggregate.merge_from(self._folded)
        return tiers

    def per_shard(self) -> Dict[Optional[str], MemberDelta]:
        """Member deltas aggregated by serving instance (None: members
        the resolver does not know, and folded records — their member
        identity, and hence shard, folded away upstream)."""
        shards: Dict[Optional[str], MemberDelta] = {}
        for member_id, delta in self._members.items():
            shard = self.shard_of(member_id) if self.shard_of is not None else None
            aggregate = shards.get(shard)
            if aggregate is None:
                aggregate = shards[shard] = MemberDelta(
                    "shard:%s" % ("?" if shard is None else shard), weight=0
                )
            aggregate.merge_from(delta)
        if self._folded is not None:
            aggregate = shards.get(None)
            if aggregate is None:
                aggregate = shards[None] = MemberDelta("shard:?", weight=0)
            aggregate.merge_from(self._folded)
        return shards

    def telemetry_overhead_ratio(self) -> float:
        """Digest wire bytes over client-reported content bytes seen —
        the plane's own cost, self-measured on the same channel."""
        content = self.totals().counters.get("bytes_seen", 0)
        if not content:
            return 0.0
        return self.telemetry_wire_bytes / content

    # -- stragglers --------------------------------------------------------------------

    def stragglers(self) -> List[Dict[str, object]]:
        """Members whose staleness p95 is a robust outlier against the
        fleet distribution: modified z-score ``0.6745·(x − median)/MAD``
        (falling back to the mean absolute deviation when the MAD
        degenerates to zero), flagged above ``straggler_threshold``.
        Only *lagging* outliers count — unusually fresh members are not
        a problem."""
        p95s = self.member_staleness_p95()
        if len(p95s) < self.straggler_min_members:
            return []
        values = list(p95s.values())
        center = _median(values)
        deviations = [abs(v - center) for v in values]
        mad = _median(deviations)
        flagged: List[Dict[str, object]] = []
        if mad > 0:
            scale = mad / 0.6745
        else:
            mean_ad = sum(deviations) / len(deviations)
            if mean_ad == 0:
                return []
            scale = 1.2533 * mean_ad
        for member_id, value in p95s.items():
            score = (value - center) / scale
            if score >= self.straggler_threshold:
                flagged.append(
                    {
                        "member": member_id,
                        "staleness_p95_ms": value,
                        "score": score,
                    }
                )
        flagged.sort(key=lambda row: -float(row["score"]))
        return flagged

    # -- export ------------------------------------------------------------------------

    def _delta_row(self, delta: MemberDelta) -> Dict[str, object]:
        return {
            "counters": dict(delta.counters),
            "mode_polls": dict(delta.mode_polls),
            "staleness_p95_ms": delta.staleness.percentile(95),
            "apply_p99_us": delta.apply.percentile(99),
            "apply_samples": delta.apply.count,
        }

    def to_dict(self) -> Dict[str, object]:
        """The JSON export (``repro fleet --json``, flight-recorder
        ``fleet`` section)."""
        fleet = self.totals()
        members = {}
        for member_id in self.member_ids():
            delta = self._members[member_id]
            row = self._delta_row(delta)
            if self.tier_of is not None:
                row["tier"] = self.tier_of(member_id)
            members[member_id] = row
        tiers = {
            str("?" if tier is None else tier): self._delta_row(delta)
            for tier, delta in sorted(
                self.per_tier().items(), key=lambda item: (item[0] is None, item[0] or 0)
            )
        }
        shards = {}
        if self.shard_of is not None:
            shards = {
                "?" if shard is None else shard: self._delta_row(delta)
                for shard, delta in sorted(
                    self.per_shard().items(),
                    key=lambda item: (item[0] is None, item[0] or ""),
                )
            }
        return {
            "byte_cap": self.byte_cap,
            "digests_ingested": self.digests_ingested,
            "ingest_errors": self.ingest_errors,
            "telemetry_wire_bytes": self.telemetry_wire_bytes,
            "max_blob_bytes": self.max_blob_bytes,
            "telemetry_overhead_ratio": self.telemetry_overhead_ratio(),
            "members_reporting": self.member_count,
            "folded_records": self.folded_records,
            "fleet": self._delta_row(fleet),
            "tiers": tiers,
            "shards": shards,
            "members": members,
            "stragglers": self.stragglers(),
        }

    def __repr__(self):
        return "FleetView(%d members, %d digests, %d wire bytes)" % (
            self.member_count,
            self.digests_ingested,
            self.telemetry_wire_bytes,
        )


def _fmt_ms(value: float) -> str:
    if value >= 10000:
        return "%.1fs" % (value / 1000.0)
    return "%dms" % round(value)


def _fmt_us(value: float) -> str:
    if value >= 1000:
        return "%.1fms" % (value / 1000.0)
    return "%dus" % round(value)


def _dominant_mode(delta: MemberDelta) -> str:
    if not delta.mode_polls:
        return "-"
    return max(sorted(delta.mode_polls), key=lambda mode: delta.mode_polls[mode])


def render_fleet_view(view: FleetView, title: str = "Fleet telemetry") -> str:
    """The ``repro fleet`` table: one row per reporting member, a tier
    rollup block, and the fleet footer with the overhead ratio.  (Named
    apart from :func:`repro.metrics.report.render_fleet_table`, which
    renders the host-inferred ``repro top`` view.)"""
    lines = [
        "%s — %d members reporting, %d digests, cap %dB (max blob %dB)"
        % (
            title,
            view.member_count,
            view.digests_ingested,
            view.byte_cap,
            view.max_blob_bytes,
        )
    ]
    header = "%-12s %5s %7s %8s %7s %10s %10s %10s %-8s" % (
        "member",
        "tier",
        "polls",
        "applies",
        "resync",
        "stale p95",
        "apply p99",
        "bytes",
        "mode",
    )
    lines.append(header)
    straggler_ids = {row["member"] for row in view.stragglers()}
    for member_id in view.member_ids():
        delta = view.member(member_id)
        tier = view.tier_of(member_id) if view.tier_of is not None else None
        marker = " <- straggler" if member_id in straggler_ids else ""
        lines.append(
            "%-12s %5s %7d %8d %7d %10s %10s %10d %-8s%s"
            % (
                member_id,
                "-" if tier is None else tier,
                delta.counters.get("polls", 0),
                delta.counters.get("content_updates", 0),
                delta.counters.get("resyncs", 0),
                _fmt_ms(delta.staleness.percentile(95)),
                _fmt_us(delta.apply.percentile(99)),
                delta.counters.get("bytes_seen", 0),
                _dominant_mode(delta),
                marker,
            )
        )
    if view.folded_records:
        folded = view._folded
        lines.append(
            "%-12s %5s %7d %8d %7d %10s %10s %10d %-8s (%d records folded)"
            % (
                "*folded*",
                "-",
                folded.counters.get("polls", 0),
                folded.counters.get("content_updates", 0),
                folded.counters.get("resyncs", 0),
                _fmt_ms(folded.staleness.percentile(95)),
                _fmt_us(folded.apply.percentile(99)),
                folded.counters.get("bytes_seen", 0),
                _dominant_mode(folded),
                view.folded_records,
            )
        )
    for tier, delta in sorted(
        view.per_tier().items(), key=lambda item: (item[0] is None, item[0] or 0)
    ):
        lines.append(
            "%-12s %5s %7d %8d %7d %10s %10s %10d %-8s"
            % (
                delta.member_id,
                "-" if tier is None else tier,
                delta.counters.get("polls", 0),
                delta.counters.get("content_updates", 0),
                delta.counters.get("resyncs", 0),
                _fmt_ms(delta.staleness.percentile(95)),
                _fmt_us(delta.apply.percentile(99)),
                delta.counters.get("bytes_seen", 0),
                _dominant_mode(delta),
            )
        )
    fleet = view.totals()
    lines.append(
        "%-12s %5s %7d %8d %7d %10s %10s %10d %-8s"
        % (
            "fleet",
            "-",
            fleet.counters.get("polls", 0),
            fleet.counters.get("content_updates", 0),
            fleet.counters.get("resyncs", 0),
            _fmt_ms(view.staleness_p95()),
            _fmt_us(view.apply_p99()),
            fleet.counters.get("bytes_seen", 0),
            _dominant_mode(fleet),
        )
    )
    lines.append(
        "telemetry overhead: %d wire bytes / %d content bytes = %.4f"
        % (
            view.telemetry_wire_bytes,
            fleet.counters.get("bytes_seen", 0),
            view.telemetry_overhead_ratio(),
        )
    )
    stragglers = view.stragglers()
    if stragglers:
        lines.append(
            "stragglers: "
            + ", ".join(
                "%s (p95 %s, z=%.1f)"
                % (
                    row["member"],
                    _fmt_ms(float(row["staleness_p95_ms"])),
                    float(row["score"]),
                )
                for row in stragglers
            )
        )
    return "\n".join(lines)

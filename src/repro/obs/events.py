"""Structured event log: typed, sim-time-stamped, trace-correlated.

Metrics (:mod:`repro.obs.registry`) answer "how much / how fast"; spans
(:mod:`repro.obs.trace`) answer "where did the time go".  Neither
answers "*what happened*, in order" — which poll carried the content a
participant is stale without, which relay died first, which participant
was forced to resync and why.  That is the event log's job.

An :class:`Event` is one discrete occurrence:

* a **type** from a small closed vocabulary (``poll.served``,
  ``delta.fallback``, ``relay.death``, ``relay.reattach``,
  ``hmac.reject``, ``resync.forced``, ``member.join``/``member.leave``,
  ``delta.apply_failed``, ``slo.breach``/``slo.recover``);
* a **sim-time** stamp ``t`` (the kernel clock, so events interleave
  exactly with span start/end times and the simulated network);
* the emitting **node** (host agent name, relay id, participant id);
* optional **trace correlation** — the ``trace_id``/``span_id`` of the
  span that carried the content involved, when tracing is on, so a
  flight-recorder dump lines up event-for-span with the trace tree;
* free-form structured ``data`` (participant, byte counts, reasons).

The :class:`EventBus` is the single emission point a whole deployment
shares.  It keeps one bounded **ring buffer per component** (keyed by
``node``), so a chatty host tier cannot evict a quiet leaf's last
events — exactly the property a post-mortem needs.  Subscribers (the
flight recorder) observe every event synchronously at emission.

The bus is strictly **opt-in**: every component defaults to
``events=None`` and guards emission behind it, so a disabled bus costs
nothing — no objects, no callbacks, and (because events never ride the
protocol) zero wire bytes either way.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional

__all__ = [
    "DELTA_APPLY_FAILED",
    "DELTA_FALLBACK",
    "Event",
    "EventBus",
    "HMAC_REJECT",
    "MEMBER_JOIN",
    "MEMBER_LEAVE",
    "POLL_SERVED",
    "RELAY_DEATH",
    "RELAY_REATTACH",
    "RESYNC_FORCED",
    "SHARD_MIGRATE",
    "SHARD_PROMOTE",
    "SLO_BREACH",
    "SLO_RECOVER",
    "TRANSPORT_SWITCH",
]

#: A content-bearing poll response left an agent/relay.
POLL_SERVED = "poll.served"
#: An agent wanted to answer with a delta but had to send a full
#: envelope (evicted snapshot, or the diff lost to the full envelope).
DELTA_FALLBACK = "delta.fallback"
#: Applying a received delta failed op-by-op (emitted from the delta
#: engine itself, with the failing op).
DELTA_APPLY_FAILED = "delta.apply_failed"
#: A relay died: either injected via the session (node = the dead
#: relay) or observed by an orphan whose upstream stopped answering.
RELAY_DEATH = "relay.death"
#: An orphaned relay re-attached to an ancestor.
RELAY_REATTACH = "relay.reattach"
#: A request failed HMAC verification.
HMAC_REJECT = "hmac.reject"
#: A participant reset its timestamp to force a full-envelope resync.
RESYNC_FORCED = "resync.forced"
#: A participant joined / left an agent's roster.
MEMBER_JOIN = "member.join"
MEMBER_LEAVE = "member.leave"
#: The SLO engine's verdict for a subject crossed into / out of BREACH.
SLO_BREACH = "slo.breach"
SLO_RECOVER = "slo.recover"
#: A member's granted transport mode changed (adaptive controller or
#: an explicit per-member override).
TRANSPORT_SWITCH = "transport.switch"
#: A shard host died and its standby was promoted to acting host for
#: the dead shard's whole key range (node = the promoted instance).
SHARD_PROMOTE = "shard.promote"
#: The session directory moved a member to another serving instance
#: (rebalance or failover; node = the member).
SHARD_MIGRATE = "shard.migrate"


class Event:
    """One discrete occurrence in the co-browsing pipeline."""

    __slots__ = ("seq", "t", "type", "node", "trace_id", "span_id", "data")

    def __init__(
        self,
        seq: int,
        t: float,
        type: str,
        node: str,
        trace_id: Optional[str] = None,
        span_id: Optional[str] = None,
        data: Optional[Dict[str, object]] = None,
    ):
        #: Global emission order (strictly increasing per bus) — the
        #: tie-breaker when several events share one sim-time instant.
        self.seq = seq
        self.t = t
        self.type = type
        self.node = node
        self.trace_id = trace_id
        self.span_id = span_id
        self.data: Dict[str, object] = data if data is not None else {}

    def to_dict(self) -> Dict[str, object]:
        """A JSON-ready record (the JSONL export / black-box row)."""
        row: Dict[str, object] = {
            "seq": self.seq,
            "t": self.t,
            "type": self.type,
            "node": self.node,
        }
        if self.trace_id is not None:
            row["trace_id"] = self.trace_id
        if self.span_id is not None:
            row["span_id"] = self.span_id
        if self.data:
            row["data"] = dict(self.data)
        return row

    def __repr__(self):
        return "Event(#%d %.3fs %s@%s%s)" % (
            self.seq,
            self.t,
            self.type,
            self.node or "?",
            " " + str(self.data) if self.data else "",
        )


class EventBus:
    """Shared emission point with per-component ring buffers.

    One bus per deployment (the session hands the same instance to the
    host agent, every relay, and every snippet).  Retention is bounded
    *per node*: each component keeps its own ``ring_size`` most recent
    events, so no tier's chatter can evict another tier's evidence.

    ``max_total_events`` additionally bounds retention *globally*: each
    ring's capacity becomes the largest power of two not exceeding
    ``budget / nodes`` (capped by ``ring_size``, floored at 1), so
    total retained events stay within the budget however many
    components emit — the knob that keeps a 10k-member fleet's bus from
    ballooning RSS.  Capacities only shrink as components appear, in
    power-of-two steps, so existing rings are resized O(log budget)
    times over a bus's whole life, not per node.
    """

    def __init__(self, ring_size: int = 1024, max_total_events: Optional[int] = None):
        if ring_size < 1:
            raise ValueError("ring_size must be at least 1")
        if max_total_events is not None and max_total_events < 1:
            raise ValueError("max_total_events must be at least 1")
        self.ring_size = ring_size
        self.max_total_events = max_total_events
        self._allowance = self._ring_allowance(1)
        self._rings: Dict[str, Deque[Event]] = {}
        self._seq = 0
        self._subscribers: List[Callable[[Event], None]] = []
        #: All-time emission count per type (survives ring eviction —
        #: the cheap input for rate-style SLO rules).
        self._totals: Dict[str, int] = {}
        #: All-time eviction count per node — how many events each
        #: component's ring has dropped off its tail.
        self._evicted: Dict[str, int] = {}
        self._registry = None

    # -- emission ----------------------------------------------------------------------

    def emit(
        self,
        type: str,
        t: float,
        node: str = "",
        trace=None,
        **data,
    ) -> Event:
        """Record one event at sim-time ``t``.

        ``trace`` may be a :class:`~repro.obs.trace.Span`, a
        :class:`~repro.obs.trace.SpanContext`, or None — whatever span
        carried the content this event is about.
        """
        trace_id = span_id = None
        if trace is not None:
            context = getattr(trace, "context", trace)
            trace_id = context.trace_id
            span_id = context.span_id
        self._seq += 1
        event = Event(self._seq, t, type, node, trace_id, span_id, data or None)
        ring = self._rings.get(node)
        if ring is None:
            allowance = self._ring_allowance(len(self._rings) + 1)
            if allowance < self._allowance:
                self._allowance = allowance
                self._shrink_rings(allowance)
            ring = self._rings[node] = deque(maxlen=self._allowance)
        if len(ring) == ring.maxlen:
            # The append below pushes the oldest event off the tail:
            # count the loss so post-mortems know the ring was lossy.
            evicted = self._evicted.get(node, 0) + 1
            self._evicted[node] = evicted
            if self._registry is not None:
                self._registry.gauge("events_evicted", node=node).set(evicted)
        ring.append(event)
        self._totals[type] = self._totals.get(type, 0) + 1
        for subscriber in list(self._subscribers):
            subscriber(event)
        return event

    def _ring_allowance(self, node_count: int) -> int:
        """Per-node ring capacity for ``node_count`` components: the
        power-of-two floor of the budget's even share (so the total
        stays under budget whenever nodes <= budget), capped by
        ``ring_size`` and floored at one event per component."""
        if self.max_total_events is None:
            return self.ring_size
        share = self.max_total_events // max(1, node_count)
        allowance = 1
        while allowance * 2 <= share:
            allowance *= 2
        return min(self.ring_size, allowance)

    def _shrink_rings(self, allowance: int) -> None:
        """Resize every existing ring down to ``allowance``, counting
        the events dropped off each tail as evictions."""
        for node, ring in self._rings.items():
            if ring.maxlen is not None and ring.maxlen <= allowance:
                continue
            dropped = len(ring) - allowance
            if dropped > 0:
                evicted = self._evicted.get(node, 0) + dropped
                self._evicted[node] = evicted
                if self._registry is not None:
                    self._registry.gauge("events_evicted", node=node).set(evicted)
            self._rings[node] = deque(ring, maxlen=allowance)

    def attach_registry(self, registry) -> None:
        """Publish per-component eviction counts as ``events_evicted``
        gauges in ``registry`` (idempotent; past counts are published
        immediately, future evictions keep the gauges current)."""
        if registry is None or registry is self._registry:
            return
        self._registry = registry
        for node, evicted in self._evicted.items():
            registry.gauge("events_evicted", node=node).set(evicted)

    # -- subscription ------------------------------------------------------------------

    def subscribe(self, callback: Callable[[Event], None]) -> None:
        """Observe every subsequent emission synchronously."""
        self._subscribers.append(callback)

    def unsubscribe(self, callback: Callable[[Event], None]) -> None:
        if callback in self._subscribers:
            self._subscribers.remove(callback)

    # -- queries -----------------------------------------------------------------------

    def nodes(self) -> List[str]:
        """Components that have emitted at least one retained event."""
        return sorted(self._rings)

    def events(
        self,
        type: Optional[str] = None,
        node: Optional[str] = None,
        since: Optional[float] = None,
        last: Optional[int] = None,
    ) -> List[Event]:
        """Retained events in emission order, optionally filtered.

        ``type``/``node`` filter exactly; ``since`` keeps events with
        ``t >= since``; ``last`` keeps only the newest N after the other
        filters (the "tail" the CLI prints).
        """
        if node is not None:
            rings = [self._rings[node]] if node in self._rings else []
        else:
            rings = list(self._rings.values())
        selected = [
            event
            for ring in rings
            for event in ring
            if (type is None or event.type == type)
            and (since is None or event.t >= since)
        ]
        selected.sort(key=lambda event: event.seq)
        if last is not None and last >= 0:
            selected = selected[len(selected) - min(last, len(selected)):]
        return selected

    def count(
        self,
        type: Optional[str] = None,
        node: Optional[str] = None,
        since: Optional[float] = None,
    ) -> int:
        """How many *retained* events match the filters."""
        return len(self.events(type=type, node=node, since=since))

    def total(self, type: str) -> int:
        """All-time emission count for ``type`` (eviction-proof)."""
        return self._totals.get(type, 0)

    def evicted(self, node: Optional[str] = None) -> int:
        """All-time ring evictions for ``node`` (all nodes when None)."""
        if node is not None:
            return self._evicted.get(node, 0)
        return sum(self._evicted.values())

    def clear(self) -> None:
        """Drop every retained event (all-time totals survive)."""
        self._rings.clear()

    def __len__(self) -> int:
        return sum(len(ring) for ring in self._rings.values())

    def __repr__(self):
        return "EventBus(%d events across %d nodes)" % (len(self), len(self._rings))

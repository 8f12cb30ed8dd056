"""Broadcast plans: one serialized body shared by co-due polls.

A :class:`BroadcastPlan` wraps a :class:`~repro.core.xmlformat.WireTemplate`
— the pre-encoded envelope bytes for one ``(doc_time, base_time,
mode_key)`` — and stamps out per-receiver :class:`~repro.http.wire.WirePlan`
bodies.  Everything page-sized is appended to the receiver's plan *by
reference* (zero-copy); the only bytes materialized per receiver are
the spliced userActions payload, and receivers with no queued actions
share one module-level constant even for that.

The agent keys plans exactly like its PR-1 diff memo: ``base_time`` 0
is the full envelope, any other base is a delta plan, and the whole
plan table is invalidated together with the envelope caches when
``doc_time`` advances.  A base whose diff could not be built (evicted
snapshot) or lost on size is remembered as a :class:`PlanFallback`, so
co-due members of a hopeless base don't re-attempt the diff — but the
fallback stats and events are still replayed once per serve.
"""

from __future__ import annotations

from typing import Optional

from ..http.wire import WirePlan
from .xmlformat import EMPTY_ACTIONS_WIRE, WireTemplate

__all__ = ["BroadcastPlan", "PlanFallback", "merge_wire_bodies"]


def merge_wire_bodies(bodies):
    """One response body carrying several envelopes back to back — the
    streamed-push wire format (the snippet splits on the XML
    declaration).  The captured :class:`~repro.http.wire.WirePlan`
    bodies merge into one plan by reference, keeping the zero-copy
    accounting of each."""
    if len(bodies) == 1:
        return bodies[0]
    merged = WirePlan()
    for body in bodies:
        merged.extend_plan(body)
    return merged


class BroadcastPlan:
    """Shared serialized body for every co-due poll of one base."""

    __slots__ = (
        "template",
        "is_delta",
        "serves",
        "empty_len",
        "_memo_actions",
        "_memo_plan",
    )

    def __init__(self, template: WireTemplate, is_delta: bool = False):
        self.template = template
        self.is_delta = is_delta
        #: Polls served from this plan; every serve after the first is
        #: a batched poll (shared diff + shared serialized body).
        self.serves = 0
        #: Wire length with the empty-actions payload — the size the
        #: full-vs-delta decision compares (the personalized actions
        #: bytes are identical on both candidates, so they cancel).
        self.empty_len = (
            template.pre_len + len(EMPTY_ACTIONS_WIRE) + template.post_len
        )
        #: Last shared personalization, keyed by payload identity:
        #: every co-due member carrying the tick's broadcast actions
        #: (or none) gets the *same* immutable body, so after the first
        #: splice the serve is a single attribute probe.
        self._memo_actions: Optional[bytes] = None
        self._memo_plan: Optional[WirePlan] = None

    def personalize(self, actions_wire: Optional[bytes] = None) -> WirePlan:
        """A receiver's body: shared template + spliced actions.

        ``actions_wire`` is the already-escaped userActions CDATA
        payload (``js_escape(encode_actions(...)).encode("ascii")``),
        shared by reference like the template (the agent memoizes it
        per broadcast); ``None`` means no queued actions and appends the
        shared empty payload.  Either way the whole body is zero-copy,
        and the spliced body is memoized for the next co-due member
        carrying the same payload object.
        """
        if actions_wire is self._memo_actions:
            memo = self._memo_plan
            if memo is not None:
                return memo
        payload = EMPTY_ACTIONS_WIRE if actions_wire is None else actions_wire
        plan = WirePlan()
        template = self.template
        plan.extend_shared(template.pre, template.pre_len)
        plan.append_shared(payload)
        plan.extend_shared(template.post, template.post_len)
        if template.buckets is not None:
            # Label the payload bytes for cost attribution.  The dict
            # is built per splice (not per serve: memoized bodies share
            # theirs), so attribution rides the existing memo for free.
            buckets = dict(template.buckets)
            buckets["userActions"] = len(payload)
            plan.buckets = buckets
        self._memo_actions = actions_wire
        self._memo_plan = plan
        return plan

    def __repr__(self):
        return "BroadcastPlan(%s, %d bytes empty, %d serves)" % (
            "delta" if self.is_delta else "full",
            self.empty_len,
            self.serves,
        )


class PlanFallback:
    """A remembered delta-plan failure for one ``(base_time, mode_key)``.

    Stored in the plan table where the delta plan would live, so co-due
    members skip straight to the full plan without re-diffing; carries
    what the per-serve DELTA_FALLBACK event replay needs.
    """

    __slots__ = ("reason", "delta_bytes", "full_bytes")

    def __init__(
        self,
        reason: str,
        delta_bytes: Optional[int] = None,
        full_bytes: Optional[int] = None,
    ):
        self.reason = reason
        self.delta_bytes = delta_bytes
        self.full_bytes = full_bytes

    def __repr__(self):
        return "PlanFallback(%s)" % self.reason

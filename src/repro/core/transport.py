"""Pluggable push/pull transports and the adaptive per-member controller.

The paper's Ajax-Snippet is pure pull: the agent answers every poll
immediately, even when empty, "to avoid hanging requests" (§4.1.1).
Bozdag, Mesbah & van Deursen's push-vs-pull comparison shows that
choice trades **data coherence** (how stale a member's view may get)
for **server load** (how many requests the host must absorb) — and
their architectural-style companion argues the delivery mechanism
should be an interchangeable element, not baked into the component.
This module makes it one:

* :class:`IntervalPollTransport` — the paper's behaviour: every poll is
  answered immediately; pacing comes from the client's poll interval.
  Request rate is flat and change-independent; staleness averages half
  a poll interval.
* :class:`LongPollTransport` — comet: a poll that would be answered
  empty is parked until the document changes (or a hold timeout
  expires), then released *into that tick's broadcast plan*.  Staleness
  collapses to the network round trip; request rate tracks the change
  rate.
* :class:`PushTransport` — streamed multi-envelope push: a held poll
  released by a change lingers ``stream_linger`` for follow-up changes
  and ships up to ``max_envelopes`` consecutive envelopes in one
  response (chained deltas, each joining its tick's broadcast plan).
  Coherence stays near long-poll while request rate drops by the
  achieved batch factor.

Negotiation is per member and wire-compatible with the seed protocol:
a client requesting a non-default mode adds a ``"transport"`` key to
its poll body, and the agent answers with an ``X-RCB-Transport`` header
*only* when the granted mode differs from what the client reported —
so a default (poll/poll) deployment is byte-identical to the seed.

On top sits :class:`AdaptiveTransportController`: per member, a
``staleness_p95`` breach (sampled by the PR-4
:class:`~repro.obs.health.HealthMonitor`) escalates
poll → long-poll → push, while sustained host serve pressure (poll
arrival rate above budget) de-escalates held members and widens the
poll interval.  Dwell-window hysteresis keeps members from flapping;
every switch emits a ``transport.switch`` event and feeds the
``transport_switches`` counter.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Tuple

__all__ = [
    "TRANSPORT_HEADER",
    "TRANSPORT_LONGPOLL",
    "TRANSPORT_MODES",
    "TRANSPORT_POLL",
    "TRANSPORT_PUSH",
    "AdaptiveTransportController",
    "IntervalPollTransport",
    "LongPollTransport",
    "PushTransport",
    "Transport",
    "coerce_transport",
    "coerce_transport_mode",
    "default_transport_mode",
    "transport_for_mode",
]

TRANSPORT_POLL = "poll"
TRANSPORT_LONGPOLL = "longpoll"
TRANSPORT_PUSH = "push"

#: Escalation order: coherence improves left to right.
TRANSPORT_MODES: Tuple[str, ...] = (TRANSPORT_POLL, TRANSPORT_LONGPOLL, TRANSPORT_PUSH)

#: Mode -> ladder index (0 poll, 1 longpoll, 2 push).
MODE_INDEX: Dict[str, int] = {mode: index for index, mode in enumerate(TRANSPORT_MODES)}

#: Response header carrying the granted mode — sent only when it
#: differs from the mode the client reported, so the default
#: configuration stays byte-identical to the seed protocol.
TRANSPORT_HEADER = "X-RCB-Transport"

#: Environment variable forcing the session-wide default mode (the CI
#: transport matrix runs the whole tier-1 suite under each value).
TRANSPORT_ENV = "RCB_TRANSPORT"


def default_transport_mode() -> str:
    """The deployment's default mode: ``RCB_TRANSPORT`` or ``poll``."""
    mode = os.environ.get(TRANSPORT_ENV)
    if mode is None or mode == "":
        return TRANSPORT_POLL
    if mode not in TRANSPORT_MODES:
        raise ValueError(
            "%s must be one of %s, got %r" % (TRANSPORT_ENV, "/".join(TRANSPORT_MODES), mode)
        )
    return mode


class Transport:
    """One delivery strategy for poll responses.

    Transports are server-side configuration objects (hold timing,
    batching limits); they carry no per-request state, so one instance
    may be shared by every member granted the same mode.
    """

    mode = TRANSPORT_POLL
    #: Whether an empty-handed poll is parked instead of answered.
    holds = False
    #: Longest a poll may stay parked (seconds); None for interval poll.
    hold_timeout: Optional[float] = None
    #: Envelopes one held connection may ship before releasing.
    max_envelopes = 1
    #: After a capture, wait this long for follow-up changes to batch.
    stream_linger = 0.0

    def describe(self) -> str:
        return self.mode

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, self.describe())


class IntervalPollTransport(Transport):
    """The paper's pull: answer immediately, client paces the interval."""


class LongPollTransport(Transport):
    """Comet: park empty-handed polls until a change or the timeout."""

    mode = TRANSPORT_LONGPOLL
    holds = True

    def __init__(self, hold_timeout: float = 25.0):
        if hold_timeout <= 0:
            raise ValueError("hold_timeout must be positive")
        self.hold_timeout = hold_timeout

    def describe(self) -> str:
        return "%s, hold<=%gs" % (self.mode, self.hold_timeout)


class PushTransport(Transport):
    """Streamed push: one held connection ships several envelopes."""

    mode = TRANSPORT_PUSH
    holds = True

    def __init__(
        self,
        hold_timeout: float = 25.0,
        max_envelopes: int = 4,
        stream_linger: float = 0.05,
    ):
        # The linger must stay well under typical edit cadence: it
        # batches genuine bursts only.  A linger near the edit interval
        # makes every stream wait for max_envelopes, turning push into
        # added staleness instead of less.
        if hold_timeout <= 0:
            raise ValueError("hold_timeout must be positive")
        if max_envelopes < 1:
            raise ValueError("max_envelopes must be at least 1")
        if stream_linger < 0:
            raise ValueError("stream_linger must be non-negative")
        self.hold_timeout = hold_timeout
        self.max_envelopes = max_envelopes
        self.stream_linger = stream_linger

    def describe(self) -> str:
        return "%s, hold<=%gs, <=%d envelopes, linger %gs" % (
            self.mode,
            self.hold_timeout,
            self.max_envelopes,
            self.stream_linger,
        )


def transport_for_mode(mode: str) -> Transport:
    """A default-parameter transport instance for ``mode``."""
    if mode == TRANSPORT_POLL:
        return IntervalPollTransport()
    if mode == TRANSPORT_LONGPOLL:
        return LongPollTransport()
    if mode == TRANSPORT_PUSH:
        return PushTransport()
    raise ValueError("unknown transport mode %r" % (mode,))


def coerce_transport(value) -> Transport:
    """A :class:`Transport` from None (environment default), a mode
    string, or an already-built instance."""
    if value is None:
        return transport_for_mode(default_transport_mode())
    if isinstance(value, Transport):
        return value
    if isinstance(value, str):
        return transport_for_mode(value)
    raise TypeError("transport must be None, a mode string, or a Transport")


def coerce_transport_mode(value) -> str:
    """A validated mode string from None / str / Transport (the
    client-side snippet only needs the mode, never the hold tuning)."""
    if value is None:
        return default_transport_mode()
    if isinstance(value, Transport):
        return value.mode
    if isinstance(value, str):
        if value not in TRANSPORT_MODES:
            raise ValueError("unknown transport mode %r" % (value,))
        return value
    raise TypeError("transport must be None, a mode string, or a Transport")


class AdaptiveTransportController:
    """Per-member transport escalation driven by the SLO engine.

    Consumes the :class:`~repro.obs.health.HealthMonitor`'s windowed
    ``staleness_p95`` per member and the agent's poll arrival rate:

    * a member whose staleness p95 stays at or above ``stale_breach_ms``
      for ``escalate_after`` consecutive checks is escalated one step
      along poll → long-poll → push;
    * when the host's poll rate exceeds ``host_poll_budget`` for
      ``deescalate_after`` consecutive checks, the poll interval widens
      by ``widen_factor`` (up to ``max_poll_interval``) and every
      escalated member whose dwell allows steps back down.

    Hysteresis is a per-member **dwell window**: after any switch the
    member is pinned for ``dwell`` seconds, so a noisy signal cannot
    flap the mode.  Switches go through
    :meth:`~repro.core.agent.RCBAgent.set_member_transport`, which
    emits ``transport.switch`` on the event bus, counts it on
    ``transport_switches`` and wakes the member's parked poll; the
    member learns the new mode from the ``X-RCB-Transport`` header on
    that response.
    """

    def __init__(
        self,
        session,
        monitor,
        agent=None,
        check_interval: float = 1.0,
        dwell: float = 10.0,
        escalate_after: int = 2,
        deescalate_after: int = 3,
        stale_breach_ms: Optional[float] = None,
        stale_clear_ms: Optional[float] = None,
        host_poll_budget: Optional[float] = None,
        budget_headroom: float = 1.25,
        widen_factor: float = 1.5,
        max_poll_interval: float = 8.0,
    ):
        if dwell < 0:
            raise ValueError("dwell must be non-negative")
        if escalate_after < 1 or deescalate_after < 1:
            raise ValueError("streak lengths must be at least 1")
        self.session = session
        self.monitor = monitor
        self.agent = agent if agent is not None else session.agent
        self.check_interval = check_interval
        self.dwell = dwell
        self.escalate_after = escalate_after
        self.deescalate_after = deescalate_after
        breach, clear = self._staleness_thresholds(monitor)
        self.stale_breach_ms = stale_breach_ms if stale_breach_ms is not None else breach
        self.stale_clear_ms = stale_clear_ms if stale_clear_ms is not None else clear
        #: Poll arrivals per second the host absorbs before "pressure";
        #: None computes ``headroom * members / base poll interval``
        #: fresh at each check (the rate interval polling would cost).
        self.host_poll_budget = host_poll_budget
        self.budget_headroom = budget_headroom
        self.widen_factor = widen_factor
        self.max_poll_interval = max_poll_interval
        self._base_poll_interval = max(self.agent.poll_interval, 1e-3)
        #: member -> {"mode": ladder index, "since": last switch time or
        #: None, "breach": consecutive breaching checks}.
        self._members: Dict[str, Dict] = {}
        self._pressure_streak = 0
        self._last_polls: Optional[int] = None
        self._last_check_t: Optional[float] = None
        #: Every switch this controller made: (t, member, from, to, reason).
        self.switches: List[Tuple[float, str, str, str, str]] = []
        self.last_poll_rate = 0.0
        self.checks = 0

    @staticmethod
    def _staleness_thresholds(monitor) -> Tuple[float, float]:
        for rule in getattr(monitor, "rules", ()) or ():
            if rule.name == "staleness_p95":
                return float(rule.breach), float(rule.warn)
        return 5000.0, 2500.0

    def _state_for(self, member: str) -> Dict:
        state = self._members.get(member)
        if state is None:
            mode = self.agent.transport_mode_for(member)
            state = self._members[member] = {
                "mode": MODE_INDEX.get(mode, 0),
                "since": None,
                "breach": 0,
            }
        return state

    def _dwell_ok(self, state: Dict, now: float) -> bool:
        return state["since"] is None or now - state["since"] >= self.dwell

    def _switch(self, member: str, state: Dict, new_index: int, now: float, reason: str) -> None:
        old_mode = TRANSPORT_MODES[state["mode"]]
        new_mode = TRANSPORT_MODES[new_index]
        state["mode"] = new_index
        state["since"] = now
        state["breach"] = 0
        self.agent.set_member_transport(member, new_mode, reason=reason)
        self.switches.append((now, member, old_mode, new_mode, reason))

    def _poll_rate(self, now: float) -> float:
        polls = self.agent.stats["polls"]
        if self._last_check_t is None:
            rate = 0.0
        else:
            dt = now - self._last_check_t
            rate = (polls - self._last_polls) / dt if dt > 0 else 0.0
        self._last_polls = polls
        self._last_check_t = now
        return rate

    def check(self) -> Dict[str, object]:
        """One control round: read signals, maybe switch members."""
        self.checks += 1
        now = self.session.sim.now
        members = list(self.session.member_times())
        rate = self.last_poll_rate = self._poll_rate(now)
        budget = self.host_poll_budget
        if budget is None:
            budget = self.budget_headroom * max(1, len(members)) / self._base_poll_interval
        pressured = bool(members) and rate > budget
        self._pressure_streak = self._pressure_streak + 1 if pressured else 0
        switched: List[str] = []
        if self._pressure_streak >= self.deescalate_after:
            widened = min(self.max_poll_interval, self.agent.poll_interval * self.widen_factor)
            if widened > self.agent.poll_interval:
                self.agent.poll_interval = widened
            for member in members:
                state = self._state_for(member)
                if state["mode"] > 0 and self._dwell_ok(state, now):
                    self._switch(member, state, state["mode"] - 1, now, "host-pressure")
                    switched.append(member)
            self._pressure_streak = 0
        else:
            for member in members:
                state = self._state_for(member)
                p95 = self.monitor.staleness_p95(member)
                if p95 >= self.stale_breach_ms:
                    state["breach"] += 1
                elif p95 < self.stale_clear_ms:
                    state["breach"] = 0
                if (
                    state["breach"] >= self.escalate_after
                    and state["mode"] < len(TRANSPORT_MODES) - 1
                    and self._dwell_ok(state, now)
                ):
                    self._switch(member, state, state["mode"] + 1, now, "staleness-breach")
                    switched.append(member)
        # Members that left stop being tracked.
        current = set(members)
        for member in list(self._members):
            if member not in current:
                del self._members[member]
        return {
            "t": now,
            "poll_rate": rate,
            "budget": budget,
            "pressured": pressured,
            "switched": switched,
        }

    def member_mode(self, member: str) -> str:
        """The mode this controller believes ``member`` is in."""
        return TRANSPORT_MODES[self._state_for(member)["mode"]]

    def run(self, interval: Optional[float] = None):
        """Generator process: check forever on a cadence (pair with the
        monitor's own :meth:`~repro.obs.health.HealthMonitor.run`)."""
        interval = interval if interval is not None else self.check_interval
        sim = self.session.sim
        while True:
            self.check()
            yield sim.timeout(interval)

    def __repr__(self):
        return "AdaptiveTransportController(%d members, %d switches)" % (
            len(self._members),
            len(self.switches),
        )

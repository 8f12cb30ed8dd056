"""The SLO engine: declarative health rules over a live session.

RCB's whole value proposition is *real time*: a participant whose view
lags the host has silently lost the session even though every poll
returns 200.  Bozdag et al.'s push-vs-pull comparison makes **data
coherence / staleness** the headline metric for exactly this polling
architecture, so health here is defined the same way: how far behind
the host's document state is each member, and is the machinery that
keeps that gap small (deltas, relays) actually winning.

A :class:`SloRule` is declarative — a named windowed statistic, a WARN
threshold, and a BREACH threshold — and yields one value per *subject*
(a member id, a relay tier, or the whole session).  The built-in rules:

* ``staleness_p95`` — per member: the p95 of ``host doc_time − member
  acknowledged doc_time`` (sim-ms), sampled over a sliding sim-time
  window.
* ``resync_rate`` — session-wide: ``resync.forced`` events per minute
  over the window (a resync storm eats the delta win).
* ``delta_fallback_ratio`` — session-wide: fallbacks ÷ content
  responses from the metrics registry.
* ``tier_sync_p95`` — per relay tier: the merged sync-latency p95
  against the tier's delay budget.

The :class:`HealthMonitor` samples and evaluates.  Verdicts are OK /
WARN / BREACH with **breach→recovery hysteresis**: once a subject
breaches, it reports (at least) WARN until the rule has evaluated OK
``recovery_checks`` consecutive times — a flapping metric cannot flap
the verdict.  BREACH/recovery *transitions* are emitted on the event
bus (``slo.breach`` / ``slo.recover``) and a breach fires the flight
recorder, so the black box always contains the evidence window that
produced the verdict.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from .events import (
    RESYNC_FORCED,
    SHARD_PROMOTE,
    SLO_BREACH,
    SLO_RECOVER,
    EventBus,
)
from .registry import percentile

__all__ = [
    "BREACH",
    "HealthMonitor",
    "HealthReport",
    "OK",
    "SloRule",
    "Verdict",
    "WARN",
    "default_rules",
    "fleet_rules",
    "perf_budget_rules",
    "shard_rules",
]

OK = "OK"
WARN = "WARN"
BREACH = "BREACH"

_RANK = {OK: 0, WARN: 1, BREACH: 2}

#: Subject naming: members use their id, tiers "tier:<depth>", and the
#: whole deployment this constant.
SESSION_SUBJECT = "session"


class SloRule:
    """One declarative service-level objective.

    ``values`` is a callable ``(monitor) -> Dict[subject, value]``; each
    subject is judged independently: OK below ``warn``, WARN in
    ``[warn, breach)``, BREACH at or above ``breach`` (all rules are
    "smaller is better", which every built-in statistic is).
    """

    def __init__(
        self,
        name: str,
        values: Callable[["HealthMonitor"], Dict[str, float]],
        warn: float,
        breach: float,
        unit: str = "",
        description: str = "",
    ):
        if breach < warn:
            raise ValueError("breach threshold must be >= warn threshold")
        self.name = name
        self.values = values
        self.warn = warn
        self.breach = breach
        self.unit = unit
        self.description = description

    def grade(self, value: float) -> str:
        if value >= self.breach:
            return BREACH
        if value >= self.warn:
            return WARN
        return OK

    def __repr__(self):
        return "SloRule(%s: warn>=%g, breach>=%g %s)" % (
            self.name,
            self.warn,
            self.breach,
            self.unit,
        )


class Verdict:
    """One (rule, subject) judgement at one check."""

    __slots__ = ("rule", "subject", "level", "value", "warn", "breach", "unit", "t", "detail")

    def __init__(self, rule, subject, level, value, warn, breach, unit, t, detail=""):
        self.rule = rule
        self.subject = subject
        self.level = level
        self.value = value
        self.warn = warn
        self.breach = breach
        self.unit = unit
        self.t = t
        self.detail = detail

    def to_dict(self) -> Dict[str, object]:
        row: Dict[str, object] = {
            "rule": self.rule,
            "subject": self.subject,
            "level": self.level,
            "value": self.value,
            "warn": self.warn,
            "breach": self.breach,
            "unit": self.unit,
            "t": self.t,
        }
        if self.detail:
            row["detail"] = self.detail
        return row

    def __repr__(self):
        return "Verdict(%s %s/%s %.3f%s)" % (
            self.level,
            self.rule,
            self.subject,
            self.value,
            self.unit,
        )


class HealthReport:
    """Every verdict from one check, plus the overall level."""

    def __init__(self, t: float, verdicts: List[Verdict]):
        self.t = t
        self.verdicts = verdicts

    @property
    def level(self) -> str:
        worst = OK
        for verdict in self.verdicts:
            if _RANK[verdict.level] > _RANK[worst]:
                worst = verdict.level
        return worst

    @property
    def ok(self) -> bool:
        return self.level == OK

    def breaches(self) -> List[Verdict]:
        return [v for v in self.verdicts if v.level == BREACH]

    def warnings(self) -> List[Verdict]:
        return [v for v in self.verdicts if v.level == WARN]

    def breached_subjects(self) -> List[str]:
        """Affected members/tiers, deduplicated, in verdict order."""
        seen: List[str] = []
        for verdict in self.breaches():
            if verdict.subject not in seen:
                seen.append(verdict.subject)
        return seen

    def to_dict(self) -> Dict[str, object]:
        return {
            "t": self.t,
            "level": self.level,
            "verdicts": [verdict.to_dict() for verdict in self.verdicts],
        }

    def __repr__(self):
        return "HealthReport(%s, %d verdicts at %.3fs)" % (
            self.level,
            len(self.verdicts),
            self.t,
        )


# -- built-in rule statistics ---------------------------------------------------------


def _staleness_values(monitor: "HealthMonitor") -> Dict[str, float]:
    return {
        member: monitor.staleness_p95(member)
        for member in monitor.session.member_times()
    }


def _resync_rate_values(monitor: "HealthMonitor") -> Dict[str, float]:
    now = monitor.now
    window = monitor.window
    if monitor.events is not None:
        count = monitor.events.count(type=RESYNC_FORCED, since=now - window)
        minutes = max(window, 1e-9) / 60.0
    else:
        # No bus: fall back to the registry's all-time resync counters
        # over the whole monitored interval.
        count = sum(
            inst.value
            for inst in monitor.registry.collect()
            if inst.name == "snippet_delta_failures"
        )
        minutes = max(now - monitor.started, 1e-9) / 60.0
    return {SESSION_SUBJECT: count / minutes}


def _delta_fallback_values(monitor: "HealthMonitor") -> Dict[str, float]:
    fallbacks = responses = 0
    for inst in monitor.registry.collect():
        if inst.name == "agent_delta_fallbacks":
            fallbacks += inst.value
        elif inst.name in ("agent_delta_responses", "agent_full_responses"):
            responses += inst.value
    return {SESSION_SUBJECT: fallbacks / responses if responses else 0.0}


def _tier_sync_values(monitor: "HealthMonitor") -> Dict[str, float]:
    if monitor.session.branching is None:
        return {}
    tiers = monitor.session.relay_summary().get("tiers") or {}
    return {
        "tier:%d" % depth: tier.get("sync_p95", 0.0) for depth, tier in tiers.items()
    }


def default_rules(
    staleness_warn_ms: float = 2500.0, staleness_breach_ms: float = 5000.0
) -> List[SloRule]:
    """The standard rule set; only the staleness thresholds are tunable."""
    return [
        SloRule(
            "staleness_p95",
            _staleness_values,
            warn=staleness_warn_ms,
            breach=staleness_breach_ms,
            unit="ms",
            description="p95 member staleness vs the host document state",
        ),
        SloRule(
            "resync_rate",
            _resync_rate_values,
            warn=4.0,
            breach=10.0,
            unit="/min",
            description="forced full-envelope resyncs per minute",
        ),
        SloRule(
            "delta_fallback_ratio",
            _delta_fallback_values,
            warn=0.3,
            breach=0.6,
            unit="",
            description="delta fallbacks over content responses",
        ),
        SloRule(
            "tier_sync_p95",
            _tier_sync_values,
            warn=2.0,
            breach=5.0,
            unit="s",
            description="per-tier sync latency p95 vs the delay budget",
        ),
    ]


def _serve_self_values(monitor: "HealthMonitor") -> Dict[str, float]:
    if monitor.profiler is None:
        return {}
    profile = monitor.window_profile()
    return {
        node: percentile(samples, 95) * 1e3
        for node, samples in profile.self_samples(".serve").items()
    }


def _generate_wall_values(monitor: "HealthMonitor") -> Dict[str, float]:
    if monitor.profiler is None:
        return {}
    profile = monitor.window_profile()
    return {
        node: percentile(samples, 95) * 1e3
        for node, samples in profile.self_samples(".generate", wall=True).items()
    }


def _member_uplink_values(monitor: "HealthMonitor") -> Dict[str, float]:
    if monitor.attribution is None:
        return {}
    return monitor.attribution.member_rates(monitor.now)


def perf_budget_rules(
    uplink_warn_bytes_s: float = 65536.0, uplink_breach_bytes_s: float = 262144.0
) -> List[SloRule]:
    """Perf-budget rules over *attributed* quantities — the continuous
    profiler's sim self-times and the byte sink's per-member rates.
    Each statistic yields no subjects when its feed (``profiler`` /
    ``attribution``) is not wired into the monitor, so appending these
    to an unprofiled session changes nothing."""
    return [
        SloRule(
            "serve_self_p95",
            _serve_self_values,
            warn=100.0,
            breach=500.0,
            unit="ms",
            description="p95 serve self-time per node (holds excluded)",
        ),
        SloRule(
            "generate_wall_p95",
            _generate_wall_values,
            warn=10.0,
            breach=50.0,
            unit="ms",
            description="p95 wall compute per generation, per node",
        ),
        SloRule(
            "member_uplink_bytes",
            _member_uplink_values,
            warn=uplink_warn_bytes_s,
            breach=uplink_breach_bytes_s,
            unit="B/s",
            description="attributed downlink bytes/s per member",
        ),
    ]


def _fleet_staleness_values(monitor: "HealthMonitor") -> Dict[str, float]:
    if monitor.fleet is None:
        return {}
    return monitor.fleet.member_staleness_p95()


def _telemetry_overhead_values(monitor: "HealthMonitor") -> Dict[str, float]:
    if monitor.fleet is None:
        return {}
    return {SESSION_SUBJECT: monitor.fleet.telemetry_overhead_ratio()}


def fleet_rules(
    staleness_warn_ms: float = 2500.0, staleness_breach_ms: float = 5000.0
) -> List[SloRule]:
    """Add-on rules over the fleet telemetry plane's *client-measured*
    digests.  ``client_staleness_p95`` is the true end-to-end staleness
    each member observed at apply time — unlike ``staleness_p95``, which
    infers it host-side and aliases to near-zero under long-poll holds.
    ``telemetry_overhead_ratio`` polices the plane itself: piggybacked
    digest bytes must stay a small fraction of content bytes.  Both
    statistics yield no subjects when the monitor has no fleet view, so
    appending these to a telemetry-free session changes nothing."""
    return [
        SloRule(
            "client_staleness_p95",
            _fleet_staleness_values,
            warn=staleness_warn_ms,
            breach=staleness_breach_ms,
            unit="ms",
            description="client-measured p95 staleness at apply time",
        ),
        SloRule(
            "telemetry_overhead_ratio",
            _telemetry_overhead_values,
            warn=0.02,
            breach=0.05,
            unit="",
            description="piggybacked digest bytes over content bytes",
        ),
    ]


def _shard_skew_values(monitor: "HealthMonitor") -> Dict[str, float]:
    if monitor.pool is None:
        return {}
    load = monitor.pool.directory.load()
    members = sum(load.values())
    if not load or not members:
        return {}
    ideal = members / len(load)
    return {
        "shard:%s" % shard_id: count / ideal for shard_id, count in load.items()
    }


def _shard_promote_values(monitor: "HealthMonitor") -> Dict[str, float]:
    if monitor.pool is None or monitor.events is None:
        return {}
    count = monitor.events.count(
        type=SHARD_PROMOTE, since=monitor.now - monitor.window
    )
    minutes = max(monitor.window, 1e-9) / 60.0
    return {SESSION_SUBJECT: count / minutes}


def shard_rules() -> List[SloRule]:
    """Add-on rules for sessions serving through an
    :class:`~repro.core.shard.AgentPool`.  ``shard_load_skew`` grades
    each instance's assigned members against the even share (the
    bounded-load placement should hold it near 1); a promotion storm —
    repeated host-death failovers inside one window — is itself an SLO
    violation.  Both statistics yield no subjects when the monitor has
    no pool, so appending these to a pool-free session changes
    nothing."""
    return [
        SloRule(
            "shard_load_skew",
            _shard_skew_values,
            warn=1.5,
            breach=2.5,
            unit="x",
            description="per-shard members over the even share",
        ),
        SloRule(
            "shard_promote_rate",
            _shard_promote_values,
            warn=2.0,
            breach=6.0,
            unit="/min",
            description="host-death failover promotions per minute",
        ),
    ]


class HealthMonitor:
    """Samples a session's health signals and evaluates the SLO rules.

    ``sample()`` records one staleness observation per member (pruned to
    the sliding sim-time ``window``).  ``check()`` grades
    every rule with hysteresis and returns a :class:`HealthReport`;
    :meth:`run` is a generator process doing both on a cadence.
    """

    def __init__(
        self,
        session,
        events: Optional[EventBus] = None,
        rules: Optional[List[SloRule]] = None,
        window: float = 30.0,
        recorder=None,
        recovery_checks: int = 2,
        sample_interval: float = 0.5,
        profiler=None,
        attribution=None,
        fleet=None,
        pool=None,
    ):
        self.session = session
        self.events = events if events is not None else session.events
        #: Continuous-profiling and byte-attribution feeds for the
        #: perf-budget rules; None keeps those rules subject-free.
        self.profiler = profiler
        self.attribution = (
            attribution
            if attribution is not None
            else getattr(session, "attribution", None)
        )
        #: Fleet telemetry view for the client-measured rules.
        self.fleet = fleet if fleet is not None else getattr(session, "fleet", None)
        #: Agent pool feed for the shard rules (an
        #: :class:`~repro.core.shard.AgentPool` registers itself on the
        #: session as ``session.pool``).
        self.pool = pool if pool is not None else getattr(session, "pool", None)
        if rules is None:
            rules = default_rules()
            if self.profiler is not None or self.attribution is not None:
                rules = rules + perf_budget_rules()
            if self.fleet is not None:
                rules = rules + fleet_rules()
            if self.pool is not None:
                rules = rules + shard_rules()
        self.rules = rules
        self.window = window
        self.recorder = recorder
        self.recovery_checks = recovery_checks
        self.sample_interval = sample_interval
        self.registry = session.metrics
        self.started = session.sim.now
        #: member -> (t, staleness_ms) samples within the window.
        self._staleness: Dict[str, Deque[Tuple[float, float]]] = {}
        #: (rule, subject) -> [breached?, consecutive OK evaluations].
        self._state: Dict[Tuple[str, str], List] = {}
        self.last_report: Optional[HealthReport] = None
        #: The worst level any check has ever produced (what a CI gate
        #: cares about: "did this run ever violate its SLOs").
        self.worst_level = OK
        #: One trailing-window profile per check sim-time (both profile
        #: rules share the aggregation pass).
        self._profile_cache: Optional[Tuple[float, object]] = None

    @property
    def now(self) -> float:
        return self.session.sim.now

    def window_profile(self):
        """The trailing-window :class:`~repro.obs.profile.Profile`,
        built at most once per sim-time (rules share it)."""
        now = self.now
        cached = self._profile_cache
        if cached is not None and cached[0] == now:
            return cached[1]
        profile = self.profiler.window(now, self.window)
        self._profile_cache = (now, profile)
        return profile

    # -- sampling ----------------------------------------------------------------------

    def staleness_ms(self) -> Dict[str, float]:
        """Instantaneous per-member staleness in sim-milliseconds."""
        host_time = self.session.agent.doc_time
        return {
            member: float(max(0, host_time - member_time))
            for member, member_time in self.session.member_times().items()
        }

    def sample(self) -> Dict[str, float]:
        """Record one staleness observation per member at sim-now."""
        now = self.now
        horizon = now - self.window
        current = self.staleness_ms()
        for member, value in current.items():
            ring = self._staleness.get(member)
            if ring is None:
                ring = self._staleness[member] = deque()
            ring.append((now, value))
            while ring and ring[0][0] < horizon:
                ring.popleft()
        # Members that left stop accumulating and age out of the window.
        for member in list(self._staleness):
            if member not in current:
                ring = self._staleness[member]
                while ring and ring[0][0] < horizon:
                    ring.popleft()
                if not ring:
                    del self._staleness[member]
        return current

    def staleness_p95(self, member: str) -> float:
        """The p95 staleness (ms) over the member's windowed samples.

        Prunes on read as well as on :meth:`sample`: an idle session can
        jump sim-time far past the window between samples (long-poll
        holds, quiet soak stretches), and a direct :meth:`check` must
        not grade on pre-jump observations that only *look* recent
        because nothing evicted them yet.
        """
        ring = self._staleness.get(member)
        if not ring:
            return 0.0
        horizon = self.now - self.window
        while ring and ring[0][0] < horizon:
            ring.popleft()
        if not ring:
            del self._staleness[member]
            return 0.0
        return percentile((value for _t, value in ring), 95)

    # -- evaluation --------------------------------------------------------------------

    def _graded(self, rule: SloRule, subject: str, raw: str) -> Tuple[str, str]:
        """Apply breach→recovery hysteresis; returns (level, detail)."""
        key = (rule.name, subject)
        state = self._state.get(key)
        if state is None:
            state = self._state[key] = [False, 0]
        breached, ok_streak = state
        if raw == BREACH:
            state[0], state[1] = True, 0
            return BREACH, ""
        if not breached:
            return raw, ""
        # Previously breached: hold the subject at WARN until the rule
        # has evaluated OK ``recovery_checks`` consecutive times.
        if raw == OK:
            state[1] = ok_streak + 1
            if state[1] >= self.recovery_checks:
                state[0], state[1] = False, 0
                return OK, ""
        else:
            state[1] = 0
        return WARN, "recovering"

    def check(self) -> HealthReport:
        """Evaluate every rule now; emits transitions, fires the recorder."""
        now = self.now
        previously_breached = {
            key for key, state in self._state.items() if state[0]
        }
        verdicts: List[Verdict] = []
        for rule in self.rules:
            for subject, value in sorted(rule.values(self).items()):
                level, detail = self._graded(rule, subject, rule.grade(value))
                verdicts.append(
                    Verdict(
                        rule.name,
                        subject,
                        level,
                        value,
                        rule.warn,
                        rule.breach,
                        rule.unit,
                        now,
                        detail,
                    )
                )
        report = HealthReport(now, verdicts)
        self.last_report = report
        if _RANK[report.level] > _RANK[self.worst_level]:
            self.worst_level = report.level
        self._emit_transitions(report, previously_breached)
        return report

    def _emit_transitions(self, report: HealthReport, previously_breached) -> None:
        for verdict in report.verdicts:
            key = (verdict.rule, verdict.subject)
            state = self._state.get(key)
            breached_now = bool(state and state[0])
            if breached_now and key not in previously_breached:
                if self.events is not None:
                    self.events.emit(
                        SLO_BREACH,
                        report.t,
                        node=verdict.subject,
                        rule=verdict.rule,
                        value=verdict.value,
                        breach=verdict.breach,
                        unit=verdict.unit,
                    )
                if self.recorder is not None:
                    self.recorder.trigger(
                        "slo-breach:%s@%s" % (verdict.rule, verdict.subject),
                        t=report.t,
                    )
            elif key in previously_breached and not breached_now:
                if self.events is not None:
                    self.events.emit(
                        SLO_RECOVER,
                        report.t,
                        node=verdict.subject,
                        rule=verdict.rule,
                        value=verdict.value,
                    )

    def run(self, interval: Optional[float] = None):
        """Generator process: sample + check forever on a cadence."""
        interval = interval if interval is not None else self.sample_interval
        sim = self.session.sim
        while True:
            self.sample()
            self.check()
            yield sim.timeout(interval)

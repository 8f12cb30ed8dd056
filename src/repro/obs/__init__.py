"""repro.obs — observability: tracing, metrics, events, health, exporters.

The serving substrate every performance claim stands on: structured
spans following content host → relays → participants in sim-time
(:mod:`repro.obs.trace`), labeled counters/gauges/histograms replacing
the old per-component stats dicts (:mod:`repro.obs.registry`), a typed
sim-time-stamped event log with per-component ring buffers
(:mod:`repro.obs.events`), a black-box flight recorder correlating
events + metrics + spans on triggering conditions
(:mod:`repro.obs.recorder`), an SLO engine grading sessions OK / WARN /
BREACH with hysteresis (:mod:`repro.obs.health`), continuous sim-time
profiling with self-vs-inclusive span time (:mod:`repro.obs.profile`),
wire-byte cost attribution (:mod:`repro.obs.attribution`), a fleet
telemetry plane of mergeable client-measured digests piggybacked
upstream (:mod:`repro.obs.digest`) aggregated into a host-side fleet
view (:mod:`repro.obs.fleet`), and JSONL / Chrome trace-event /
flame-graph exports (:mod:`repro.obs.export`).
"""

from .attribution import (
    PAYLOAD_BUCKETS,
    ByteAttribution,
    ResponseAttribution,
    render_attribution_table,
)
from .digest import (
    FOLDED_ID,
    ClientTelemetry,
    LogBucketSketch,
    MemberDelta,
    TelemetryDigest,
    encoded_bytes,
)
from .events import (
    DELTA_APPLY_FAILED,
    DELTA_FALLBACK,
    HMAC_REJECT,
    MEMBER_JOIN,
    MEMBER_LEAVE,
    POLL_SERVED,
    RELAY_DEATH,
    RELAY_REATTACH,
    RESYNC_FORCED,
    SHARD_MIGRATE,
    SHARD_PROMOTE,
    SLO_BREACH,
    SLO_RECOVER,
    TRANSPORT_SWITCH,
    Event,
    EventBus,
)
from .export import (
    chrome_trace,
    collapsed_stacks,
    events_to_jsonl,
    spans_to_jsonl,
    speedscope_profile,
    write_chrome_trace,
    write_collapsed,
    write_spans_jsonl,
    write_speedscope,
)
from .fleet import FleetView, render_fleet_view
from .health import (
    BREACH,
    OK,
    WARN,
    HealthMonitor,
    HealthReport,
    SloRule,
    Verdict,
    default_rules,
    fleet_rules,
    perf_budget_rules,
    shard_rules,
)
from .profile import (
    FrameStat,
    Profile,
    Profiler,
    build_profile,
    render_profile_summary,
)
from .recorder import FlightRecorder
from .registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    StatsFacade,
    percentile,
)
from .trace import (
    TRACE_HEADER,
    Span,
    SpanContext,
    Tracer,
    format_trace_header,
    parse_trace_header,
)

__all__ = [
    "BREACH",
    "ByteAttribution",
    "ClientTelemetry",
    "Counter",
    "DELTA_APPLY_FAILED",
    "DELTA_FALLBACK",
    "Event",
    "EventBus",
    "FOLDED_ID",
    "FleetView",
    "FlightRecorder",
    "FrameStat",
    "Gauge",
    "HMAC_REJECT",
    "HealthMonitor",
    "HealthReport",
    "Histogram",
    "LogBucketSketch",
    "MEMBER_JOIN",
    "MEMBER_LEAVE",
    "MemberDelta",
    "MetricsRegistry",
    "OK",
    "PAYLOAD_BUCKETS",
    "POLL_SERVED",
    "Profile",
    "Profiler",
    "RELAY_DEATH",
    "RELAY_REATTACH",
    "RESYNC_FORCED",
    "ResponseAttribution",
    "SHARD_MIGRATE",
    "SHARD_PROMOTE",
    "SLO_BREACH",
    "SLO_RECOVER",
    "SloRule",
    "Span",
    "SpanContext",
    "StatsFacade",
    "TRACE_HEADER",
    "TRANSPORT_SWITCH",
    "TelemetryDigest",
    "Tracer",
    "Verdict",
    "WARN",
    "build_profile",
    "chrome_trace",
    "collapsed_stacks",
    "default_rules",
    "encoded_bytes",
    "events_to_jsonl",
    "fleet_rules",
    "format_trace_header",
    "parse_trace_header",
    "percentile",
    "perf_budget_rules",
    "render_attribution_table",
    "render_fleet_view",
    "render_profile_summary",
    "shard_rules",
    "spans_to_jsonl",
    "speedscope_profile",
    "write_chrome_trace",
    "write_collapsed",
    "write_spans_jsonl",
    "write_speedscope",
]

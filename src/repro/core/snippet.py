"""Ajax-Snippet: the participant-side synchronization logic.

In the real system Ajax-Snippet is a set of JavaScript functions shipped
inside the initial HTML page; here it is a simulation component attached
to a participant's browser after that page loads.  It reproduces the
protocol exactly (paper §4.2):

* Polling: each XMLHttpRequest-style POST carries the participant id,
  the timestamp of the current content, and any piggybacked actions; a
  new poll is scheduled only after the previous response is processed.
* Response processing (Fig. 5): an empty response just re-arms the
  timer; new content triggers the four-step in-place document update —
  clean the head (keeping the snippet itself), set the head from the
  received hChild records, remove now-useless top-level elements (body
  vs frameset shape changes), then set the remaining top elements.
* Event handlers the host rewrote into the content (``rcbSubmit``,
  ``rcbClick``, ``rcbInput``) are registered in the page's script engine;
  they cancel the default action and queue the corresponding
  :class:`~repro.core.actions.UserAction` for the next poll.

Browser-capability dispatch is modelled too: in ``firefox`` mode the
head is updated by writing ``innerHTML`` directly; in ``ie`` mode each
head child is rebuilt with DOM methods (createElement/appendChild), as
the paper describes for Internet Explorer's read-only head.
"""

from __future__ import annotations

import json
import random
import time
from collections import deque
from typing import Callable, List, Optional

from ..browser.browser import Browser
from ..http import RequestFailed
from ..html import Document, Element
from ..net.url import parse_url
from ..obs import RESYNC_FORCED, EventBus, MetricsRegistry, StatsFacade, Tracer
from ..obs.trace import TRACE_HEADER, Span, SpanContext, parse_trace_header
from ..sim import Interrupt
from .actions import (
    ActionError,
    ClickAction,
    FormFillAction,
    MouseMoveAction,
    ScrollAction,
    SubmitAction,
    UserAction,
    decode_actions,
)
from .content import REF_ATTRIBUTE
from .delta import DeltaError, apply_delta, delta_instruments
from .security import Authenticator
from .transport import TRANSPORT_HEADER, TRANSPORT_MODES, TRANSPORT_POLL, coerce_transport_mode
from .xmlformat import SECTION_NAMES, SNIPPET_SCRIPT_ID, EnvelopeError, NewContent, parse_envelope

__all__ = ["AjaxSnippet", "BackoffPolicy", "SnippetStats"]

#: Delta op kinds that change only character data, which object
#: discovery never reads: a delta made of these alone keeps the page's
#: object scan exact.
_DATA_ONLY_OPS = frozenset(("text", "comment"))

#: Every envelope opens with this declaration — the split marker for a
#: streamed-push response carrying several envelopes back to back.
_XML_DECL = "<?xml version='1.0' encoding='utf-8'?>"

#: How many host-mirrored actions ``SnippetStats.actions_received``
#: keeps, newest last: pointer mirroring sends one per host move.
ACTIONS_RECEIVED_KEPT = 1024


def _lift_snippet_script(document: Document) -> Optional[Element]:
    """Take Ajax-Snippet's own <script> out of the head, so the document
    matches the agent's canonical snapshot, which never carries it.
    Returns the script, or None when the head holds none."""
    head = document.head
    if head is not None:
        for node in head.children:
            if node.tag == "script" and node.get_attribute("id") == SNIPPET_SCRIPT_ID:
                head.remove_child(node)
                return node
    return None


def _restore_snippet_script(document: Document, script: Optional[Element]) -> None:
    """Put a script taken by :func:`_lift_snippet_script` back, first in
    the head.  The script names no object, so taking it out and putting
    it back never changes the page's object list."""
    if script is not None:
        head = document.head
        if head is not None:
            head.insert_before(script, head.first_child)


class BackoffPolicy:
    """Retry pacing for a failed poll (and for relay re-attachment).

    ``delay(attempt)`` returns how long to wait before retry number
    ``attempt`` (1-based): ``base * multiplier**(attempt-1)``, capped at
    ``cap``, then spread by ``±jitter`` (a fraction) so that a tier of
    orphaned children re-attaching after a relay death does not stampede
    its grandparent in lockstep.  Jitter draws from a private seeded RNG,
    keeping simulations deterministic.
    """

    def __init__(
        self,
        base: float = 1.0,
        cap: float = 30.0,
        jitter: float = 0.0,
        multiplier: float = 1.0,
        seed: Optional[int] = None,
    ):
        if base <= 0:
            raise ValueError("backoff base must be positive")
        if cap < base:
            raise ValueError("backoff cap must be >= base")
        if not 0.0 <= jitter < 1.0:
            raise ValueError("jitter must be a fraction in [0, 1)")
        if multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        self.base = base
        self.cap = cap
        self.jitter = jitter
        self.multiplier = multiplier
        self._rng = random.Random(seed)

    def delay(self, attempt: int) -> float:
        """Seconds to wait before retry ``attempt`` (1-based)."""
        raw = self.base * (self.multiplier ** max(0, attempt - 1))
        raw = min(raw, self.cap)
        if self.jitter:
            raw *= 1.0 + self._rng.uniform(-self.jitter, self.jitter)
        return raw

    def derive(self, seed_text: str) -> "BackoffPolicy":
        """A same-shaped policy with its own RNG stream, so every
        participant jitters independently but reproducibly."""
        seed = sum(ord(c) * (index + 1) for index, c in enumerate(seed_text))
        return BackoffPolicy(
            base=self.base,
            cap=self.cap,
            jitter=self.jitter,
            multiplier=self.multiplier,
            seed=seed,
        )

    def __repr__(self):
        return "BackoffPolicy(base=%g, cap=%g, x%g, jitter=%g)" % (
            self.base,
            self.cap,
            self.multiplier,
            self.jitter,
        )


class _BoundCounter:
    """A :class:`SnippetStats` attribute that reads and writes the value
    of one registry instrument, bound when the stats object was built."""

    __slots__ = ("key",)

    def __init__(self, key: str):
        self.key = key

    def __get__(self, stats, owner=None):
        if stats is None:
            return self
        return stats._bound[self.key].value

    def __set__(self, stats, value) -> None:
        stats._bound[self.key].value = value


class _BoundGauge(_BoundCounter):
    """A bound gauge whose every assignment also feeds its histogram."""

    __slots__ = ()

    def __set__(self, stats, value) -> None:
        stats._bound[self.key].value = value
        stats._feeds[self.key].observe(value)


class SnippetStats:
    """Counters and the paper's participant-side metrics.

    Plain attributes to read and assign (``stats.polls_sent += 1``),
    each a class-level descriptor over a registry instrument (prefix
    ``snippet_``, labeled by participant node) that the instance binds
    once, when it is built.
    Counters: ``polls_sent``, ``empty_responses``, ``content_updates``,
    ``delta_updates`` (incremental <delta> applies), ``delta_failures``
    (forced full resyncs), ``action_only_updates``, ``actions_sent``,
    ``actions_rejected`` (unparseable userActions payloads, dropped),
    ``connection_errors``, ``transport_switches``.  Gauges:
    ``last_sync_seconds`` (M2, simulated poll-exchange time),
    ``last_update_seconds`` (M6, wall-clock in-place update),
    ``last_objects_seconds`` (M3/M4, simulated object downloads).  Every
    gauge assignment also feeds a same-named ``*_seconds`` histogram —
    the source of the report's p50/p95/p99.
    """

    _COUNTERS = (
        "polls_sent",
        "empty_responses",
        "content_updates",
        "delta_updates",
        "delta_failures",
        "action_only_updates",
        "actions_sent",
        "actions_rejected",
        "connection_errors",
        "transport_switches",
    )
    _GAUGES = ("last_sync_seconds", "last_update_seconds", "last_objects_seconds")
    #: Gauge key -> the histogram fed on each assignment.
    _DISTRIBUTIONS = {
        "last_sync_seconds": "sync_seconds",
        "last_update_seconds": "update_seconds",
        "last_objects_seconds": "objects_seconds",
    }

    def __init__(self, registry: Optional[MetricsRegistry] = None, node: Optional[str] = None):
        facade = StatsFacade(
            registry if registry is not None else MetricsRegistry(),
            prefix="snippet_",
            labels={"node": node} if node else {},
            counters=self._COUNTERS,
            gauges=self._GAUGES,
            histograms=tuple(self._DISTRIBUTIONS.values()),
        )
        self._facade = facade
        #: Counter/gauge key -> its instrument, and gauge key -> the
        #: histogram each assignment feeds: what the descriptors update.
        self._bound = {key: facade.instrument(key) for key in self._COUNTERS + self._GAUGES}
        self._feeds = {
            key: facade.histogram(feed) for key, feed in self._DISTRIBUTIONS.items()
        }
        #: The newest actions mirrored from the host, in arrival order.
        self.actions_received = deque(maxlen=ACTIONS_RECEIVED_KEPT)

    @property
    def facade(self) -> StatsFacade:
        """The underlying dict-shaped registry view."""
        return self._facade

    def histogram(self, key: str):
        """A latency histogram by unprefixed key (e.g. ``sync_seconds``)."""
        return self._facade.histogram(key)


for _key in SnippetStats._COUNTERS:
    setattr(SnippetStats, _key, _BoundCounter(_key))
for _key in SnippetStats._GAUGES:
    setattr(SnippetStats, _key, _BoundGauge(_key))
del _key


class AjaxSnippet:
    """Participant-side poller and document updater."""

    #: Span name for this endpoint's content applies; a relay's upstream
    #: snippet overrides with "relay.apply".
    apply_span_name = "snippet.apply"

    def __init__(
        self,
        browser: Browser,
        agent_url: str,
        participant_id: Optional[str] = None,
        secret: Optional[str] = None,
        poll_interval: Optional[float] = None,
        browser_type: str = "firefox",
        fetch_objects: bool = True,
        backoff: Optional[BackoffPolicy] = None,
        transport=None,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        events: Optional[EventBus] = None,
        telemetry=None,
    ):
        if browser_type not in ("firefox", "ie"):
            raise ValueError("browser_type must be 'firefox' or 'ie'")
        self.browser = browser
        self.sim = browser.sim
        self.agent_url = parse_url(agent_url)
        if not self.agent_url.is_absolute:
            raise ValueError("agent URL must be absolute")
        self.participant_id = participant_id or browser.name
        self.secret = secret
        self._auth = Authenticator(secret)
        self.poll_interval = poll_interval  # None: use the advertised one
        self.browser_type = browser_type
        self.fetch_objects = fetch_objects
        #: Retry pacing after a failed poll.  None: a constant delay of
        #: one poll interval, the original hardcoded behaviour.
        self.backoff = backoff
        #: Delivery mode this snippet requests ("poll" / "longpoll" /
        #: "push"; None reads RCB_TRANSPORT).  The agent may grant a
        #: different mode via the X-RCB-Transport response header, which
        #: updates this attribute mid-session.
        self.transport_mode = coerce_transport_mode(transport)

        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer
        #: Structured event bus; None disables the event log.
        self.events = events
        #: Client-side telemetry reporter
        #: (:class:`repro.obs.digest.ClientTelemetry`); None (the
        #: default) keeps every poll body byte-identical to the seed —
        #: nothing is measured and nothing rides the wire.
        self.telemetry = telemetry
        #: Context of the last successful apply span — the parent a
        #: relay hands its own downstream re-serves (trace continuity
        #: across tiers).
        self.last_apply_context: Optional[SpanContext] = None

        self.last_doc_time = 0
        self.stats = SnippetStats(self.metrics, node=self.participant_id)
        #: The apply's ``delta_apply_seconds`` / ``delta_apply_ops``
        #: pair, bound by the first delta (a member that never applies
        #: one registers neither).
        self._apply_instruments: Optional[tuple] = None
        #: Consecutive poll failures tolerated before giving up.
        self.max_poll_failures = 5
        self._consecutive_failures = 0
        self._outgoing: List[UserAction] = []
        self._poll_proc = None
        self._flush_proc = None
        self._connected = False
        #: Called with each batch of host-mirrored actions (UI hook).
        self.on_actions: Optional[Callable[[List[UserAction]], None]] = None
        #: Called with the NewContent after every applied content update
        #: (full or delta) — how a relay learns the upstream doc_time.
        self.on_content: Optional[Callable[[NewContent], None]] = None
        #: Called once when the poll loop gives up after repeated
        #: failures (not on a deliberate disconnect) — how a relay
        #: learns its upstream died and re-attachment should begin.
        self.on_disconnect: Optional[Callable[[], None]] = None

    # -- connection ------------------------------------------------------------------

    def connect(self):
        """Type the agent URL into the address bar and join the session.

        Generator process: loads the initial page, registers the snippet
        handlers, and returns once the communication channel exists (the
        polling loop is started but not yet fired).
        """
        page = yield from self.browser.navigate(str(self.agent_url), fetch_objects=False)
        script = page.document.get_element_by_id(SNIPPET_SCRIPT_ID)
        if script is None:
            raise RuntimeError("%s did not serve an RCB initial page" % self.agent_url)
        if self.poll_interval is None:
            advertised = script.get_attribute("data-poll-interval")
            self.poll_interval = float(advertised) if advertised else 1.0
        if self.backoff is None:
            # The pre-configurable behaviour: retry after one poll
            # interval, no growth, no jitter.
            self.backoff = BackoffPolicy(base=self.poll_interval, cap=self.poll_interval)
        self._register_handlers()
        self._connected = True
        self._poll_proc = self.sim.process(self._poll_loop())
        return page

    def attach(self, poll_interval: Optional[float] = None):
        """Join without navigating: start polling against the current page.

        Used by a relay re-attaching to a new upstream after its parent
        died — the browser's current (already synchronized) document is
        preserved, so the new upstream can answer with a delta against
        the relay's last acknowledged state instead of a full resync.

        Generator process: probes the upstream with one poll (raising
        :class:`~repro.http.RequestFailed` if it is unreachable), then
        arms the polling loop.
        """
        if self._connected:
            raise RuntimeError("snippet is already connected")
        if self.browser.page is None:
            raise RuntimeError("attach() requires a loaded page; use connect()")
        if self.poll_interval is None:
            self.poll_interval = poll_interval if poll_interval is not None else 1.0
        if self.backoff is None:
            self.backoff = BackoffPolicy(base=self.poll_interval, cap=self.poll_interval)
        yield from self.poll_once()
        self._register_handlers()
        self._connected = True
        self._poll_proc = self.sim.process(self._poll_loop())

    def disconnect(self) -> None:
        """Stop polling and leave the session."""
        self._connected = False
        if self._poll_proc is not None and self._poll_proc.is_alive:
            self._poll_proc.interrupt("participant left")
        self._poll_proc = None

    @property
    def connected(self) -> bool:
        """Whether the polling channel is up."""
        return self._connected

    # -- polling loop -------------------------------------------------------------------

    def _poll_loop(self):
        try:
            # The first request fires as soon as the initial page loaded.
            while self._connected:
                started = self.sim.now
                try:
                    applied = yield from self.poll_once()
                except RequestFailed:
                    # The host is unreachable (agent stopped, network
                    # partition, host machine gone).  Back off and retry;
                    # give up after a few consecutive failures — the user
                    # would re-type the URL to rejoin (or, for a relay,
                    # re-attachment to an ancestor begins).
                    self.stats.connection_errors += 1
                    if self.telemetry is not None:
                        self.telemetry.record_connection_error()
                    self._consecutive_failures += 1
                    if self._consecutive_failures > self.max_poll_failures:
                        self._connected = False
                        if self.on_disconnect is not None:
                            self.on_disconnect()
                        return
                    yield self.sim.timeout(self.backoff.delay(self._consecutive_failures))
                    continue
                self._consecutive_failures = 0
                delay = self._next_poll_delay(applied, self.sim.now - started)
                if delay:
                    yield self.sim.timeout(delay)
        except Interrupt:
            return

    def _next_poll_delay(self, applied: bool, elapsed: float) -> float:
        """Pacing for the next poll.  Interval polling waits the poll
        interval; held transports (longpoll/push) re-poll immediately
        after a round trip the agent actually parked or served — but an
        instantly-empty answer (holds effectively off on the agent)
        falls back to interval pacing to avoid a busy loop."""
        if self.transport_mode == TRANSPORT_POLL:
            return self.poll_interval
        if applied or elapsed >= 0.5 * self.poll_interval:
            return 0.0
        return self.poll_interval

    def poll_once(self, dedicated: bool = False):
        """One polling round trip; returns True if content was applied.

        ``dedicated`` sends beside the keep-alive connection — the flush
        path under a held transport, where the pooled connection is
        occupied by the parked poll."""
        payload = {
            "participant": self.participant_id,
            "timestamp": self.last_doc_time,
            "actions": [action.to_dict() for action in self._outgoing],
        }
        if self.transport_mode != TRANSPORT_POLL:
            # The key is appended after the seed fields, so a plain
            # polling client's request stays byte-identical to the seed.
            payload["transport"] = self.transport_mode
        telemetry_token = None
        if self.telemetry is not None:
            # Piggyback the pending digest (appended after the seed and
            # transport keys; absent entirely when nothing is pending,
            # so an idle reporter never perturbs the wire).  The
            # snapshot commits on a 200 and rolls back on any failure —
            # exactly-once transfer per hop.
            snap = self.telemetry.snapshot(self.sim.now)
            if snap is not None:
                telemetry_token, blob = snap
                payload["telemetry"] = blob
        body = json.dumps(payload).encode("utf-8")
        self.stats.actions_sent += len(self._outgoing)
        self._outgoing = []

        target = self._auth.sign("POST", "/poll", body)
        url = self.agent_url.replace(path=target.split("?")[0],
                                     query=target.split("?", 1)[1] if "?" in target else None)
        started = self.sim.now
        try:
            response = yield from self.browser.client.post(
                url, body, content_type="application/json", dedicated=dedicated
            )
        except RequestFailed:
            if telemetry_token is not None:
                self.telemetry.rollback(telemetry_token)
            raise
        self.stats.polls_sent += 1
        if self.telemetry is not None:
            if telemetry_token is not None:
                if response.status == 200:
                    self.telemetry.commit(telemetry_token)
                else:
                    self.telemetry.rollback(telemetry_token)
            self.telemetry.record_poll(len(response.body), self.transport_mode)
        self._note_granted_transport(response.headers.get(TRANSPORT_HEADER))
        if response.status != 200 or not response.body:
            self.stats.empty_responses += 1
            return False
        applied = yield from self._process_response(
            response.text(), started, response.headers.get(TRACE_HEADER)
        )
        return applied

    def _note_granted_transport(self, granted: Optional[str]) -> None:
        """Adopt the agent's granted mode when it differs from ours —
        how an adaptive-controller switch reaches the participant."""
        if (
            granted
            and granted in TRANSPORT_MODES
            and granted != self.transport_mode
        ):
            self.transport_mode = granted
            self.stats.transport_switches += 1

    def flush(self):
        """Send queued actions immediately instead of waiting a tick."""
        return self.poll_once()

    # -- response processing (Fig. 5) ------------------------------------------------------

    def _start_apply_span(
        self, trace_header: Optional[str], kind: str, content: NewContent, sync_seconds: float
    ) -> Optional[Span]:
        """Open this endpoint's apply span, parented under the serving
        span whose context arrived in the ``X-RCB-Trace`` header."""
        if self.tracer is None:
            return None
        return self.tracer.start_span(
            self.apply_span_name,
            t=self.sim.now,
            parent=parse_trace_header(trace_header),
            node=self.participant_id,
            kind=kind,
            doc_time=content.doc_time,
            sync_seconds=sync_seconds,
        )

    def _process_response(
        self, body_text: str, poll_started: float, trace_header: Optional[str] = None
    ):
        """Apply one response body.  A streamed-push response packs
        several envelopes back to back; each starts with the XML
        declaration, so splitting on it recovers the stream, applied in
        arrival order (each delta's base is the envelope before it)."""
        if body_text.count(_XML_DECL) <= 1:
            applied = yield from self._process_envelope(
                body_text, poll_started, trace_header
            )
            return applied
        applied_any = False
        for chunk in body_text.split(_XML_DECL):
            if not chunk:
                continue
            applied = yield from self._process_envelope(
                _XML_DECL + chunk, poll_started, trace_header
            )
            applied_any = applied or applied_any
        return applied_any

    def _sync_seconds(self, poll_started: float, content: NewContent) -> float:
        """M2 for one applied envelope.  Interval polling measures the
        poll round trip.  A held poll parks *before* the change exists,
        so its round trip would charge the idle hold into the metric;
        measure from the change instead (``doc_time`` is stamped from
        the same simulation clock at the root)."""
        started = poll_started
        if self.transport_mode != TRANSPORT_POLL:
            started = max(started, content.doc_time / 1000.0)
        return max(0.0, self.sim.now - started)

    def _process_envelope(
        self, body_text: str, poll_started: float, trace_header: Optional[str] = None
    ):
        try:
            content = parse_envelope(body_text)
        except EnvelopeError:
            self.stats.empty_responses += 1
            return False

        if content.is_delta:
            applied = yield from self._process_delta(content, poll_started, trace_header)
            self._deliver_actions(content)
            return applied

        has_content = bool(content.head_children or content.top_elements)
        if has_content:
            sync_seconds = self._sync_seconds(poll_started, content)
            span = self._start_apply_span(trace_header, "full", content, sync_seconds)
            wall_started = time.perf_counter()
            self._apply_update(content)
            self.stats.last_update_seconds = time.perf_counter() - wall_started
            yield from self._finish_update(content, span, sync_seconds)
        else:
            self.stats.action_only_updates += 1
            yield self.sim.timeout(0)

        self._deliver_actions(content)
        return has_content

    def _process_delta(
        self, content: NewContent, poll_started: float, trace_header: Optional[str] = None
    ):
        """The fifth update path: apply a <delta> section in place.

        Any mismatch — the delta's base is not exactly our current
        content, an op fails against our tree, malformed ops — resets
        ``last_doc_time`` to zero so the next poll requests a full
        envelope (resync).  Deltas are an optimization, never a
        correctness dependency.
        """
        sync_seconds = self._sync_seconds(poll_started, content)
        span = self._start_apply_span(trace_header, "delta", content, sync_seconds)
        ok = False
        scan_carried = False
        reason = "base-mismatch"
        if content.base_time == self.last_doc_time:
            wall_started = time.perf_counter()
            try:
                scan_carried = self._apply_delta_ops(content)
                ok = True
            except (DeltaError, ValueError, RecursionError):  # JSON nested too deep
                ok = False
                reason = "apply-failed"
            self.stats.last_update_seconds = time.perf_counter() - wall_started
        if not ok:
            if span is not None:
                span.tags["failed"] = True
                span.finish(self.sim.now)
            self.stats.delta_failures += 1
            self.last_doc_time = 0  # force a full-envelope resync next poll
            if self.telemetry is not None:
                self.telemetry.record_resync()
            if self.events is not None:
                self.events.emit(
                    RESYNC_FORCED,
                    self.sim.now,
                    node=self.participant_id,
                    trace=span.context if span is not None else parse_trace_header(trace_header),
                    reason=reason,
                    base_time=content.base_time,
                    doc_time=content.doc_time,
                )
            yield self.sim.timeout(0)
            return False
        yield from self._finish_update(content, span, sync_seconds, scan_carried, delta=True)
        return True

    def _finish_update(
        self,
        content: NewContent,
        span: Optional[Span],
        sync_seconds: float,
        scan_carried: bool = False,
        delta: bool = False,
    ):
        """What follows an applied full envelope or delta: cookies, the
        page's objects, the new ``last_doc_time``, the counters, the
        telemetry record, the apply span and ``on_content``."""
        self._apply_replicated_cookies(content)
        self.stats.last_sync_seconds = sync_seconds
        if self.fetch_objects:
            if scan_carried:
                # The delta put no element in: the page already holds
                # every object its document references (paper §4.2).
                self.stats.last_objects_seconds = 0.0
            else:
                elapsed = yield from self.browser.fetch_current_objects()
                self.stats.last_objects_seconds = elapsed
        # Only now is the participant fully rendered; advancing the
        # timestamp earlier would let is_synced() observe a page whose
        # supplementary objects are still in flight.
        self.last_doc_time = content.doc_time
        self.stats.content_updates += 1
        if delta:
            self.stats.delta_updates += 1
        if self.telemetry is not None:
            # Client truth: staleness is measured here, at apply time,
            # from the envelope's own doc_time stamp.
            self.telemetry.record_apply(
                max(0, int(self.sim.now * 1000) - content.doc_time),
                self.stats.last_update_seconds,
                delta=delta,
            )
        if span is not None:
            span.tags["wall_seconds"] = self.stats.last_update_seconds
            span.finish(self.sim.now)
            self.last_apply_context = span.context
        if self.on_content is not None:
            self.on_content(content)

    def _apply_delta_ops(self, content: NewContent) -> bool:
        """Apply the ops with Ajax-Snippet's own <script> lifted out, so
        the document matches the agent's canonical snapshot exactly.

        Text and comment ops change only character data, which object
        discovery never reads: after a delta of those alone, applied to
        a page whose objects match its document, the page's object scan
        is carried over.  Returns whether it was, i.e. whether the page
        still holds every object its document references."""
        page = self.browser.page
        document = page.document
        html = document.document_element
        if html is None or document.head is None:
            raise DeltaError("participant document has no html/head")
        # Read before the lift-out, which itself moves the version.
        scan_current = page.object_scan_current
        snippet_script = _lift_snippet_script(document)
        try:
            ops = json.loads(content.delta_ops_json)
            instruments = self._apply_instruments
            if instruments is None:
                instruments = self._apply_instruments = delta_instruments(
                    self.metrics, "apply", self.participant_id
                )
            apply_delta(
                html,
                ops,
                seconds=instruments[0],
                op_count=instruments[1],
                node=self.participant_id,
                events=self.events,
                t=self.sim.now,
            )
        finally:
            _restore_snippet_script(document, snippet_script)
        carried = scan_current and all(op["op"] in _DATA_ONLY_OPS for op in ops)
        if carried:
            page.carry_object_scan()
        page.version += 1
        return carried

    def _apply_update(self, content: NewContent) -> None:
        """The four-step in-place update of the current document."""
        document = self.browser.page.document
        head = document.head
        html = document.document_element

        # Step 1: clean the head, always keeping Ajax-Snippet itself.
        snippet_script = None
        for node in list(head.child_nodes):
            if (
                isinstance(node, Element)
                and node.tag == "script"
                and node.get_attribute("id") == SNIPPET_SCRIPT_ID
            ):
                snippet_script = node
                continue
            head.remove_child(node)
        if snippet_script is None:  # recreate if the host page lost it
            snippet_script = Element("script", {"id": SNIPPET_SCRIPT_ID})
            head.insert_before(snippet_script, head.first_child)

        # Step 2: set the head from the received hChild records.
        for record in content.head_children:
            if self.browser_type == "firefox":
                # Firefox: head innerHTML is writable — parse directly.
                child = Element(record.tag, dict(record.attributes))
                child.inner_html = record.inner_html
            else:
                # IE: rebuild via DOM methods (createElement/appendChild).
                child = document.create_element(record.tag)
                for name, value in record.attributes:
                    child.set_attribute(name, value)
                child.inner_html = record.inner_html
            head.append_child(child)

        # Step 3: remove top-level elements the new content obsoletes.
        new_names = {top.name for top in content.top_elements}
        for node in list(html.children):
            if node.tag in SECTION_NAMES and node.tag not in new_names:
                html.remove_child(node)

        # Step 4: set the remaining top elements, in received order.
        for top in content.top_elements:
            element = None
            for node in html.children:
                if node.tag == top.name:
                    element = node
                    break
            if element is None:
                element = Element(top.name)
                html.append_child(element)
            for name, _value in list(element.attributes):
                element.remove_attribute(name)
            for name, value in top.attributes:
                element.set_attribute(name, value)
            element.inner_html = top.inner_html

        self.browser.page.version += 1

    def _apply_replicated_cookies(self, content: NewContent) -> None:
        """Install host-replicated cookies into this browser's jar so
        non-cache-mode object fetches share the host's origin session."""
        if content.cookies_json in ("", "[]"):
            return
        try:
            records = json.loads(content.cookies_json)
        except (ValueError, RecursionError):
            return
        if not isinstance(records, list):
            return
        for record in records:
            if not isinstance(record, dict):
                continue
            fields = (
                record.get("host"),
                record.get("name"),
                record.get("value"),
                record.get("path", "/"),
            )
            if not all(isinstance(field, str) for field in fields):
                continue
            try:
                self.browser.cookie_jar.set(*fields)
            except ValueError:
                continue

    def _deliver_actions(self, content: NewContent) -> None:
        try:
            actions = decode_actions(content.user_actions_json)
        except ActionError:
            self.stats.actions_rejected += 1  # the document update stands
            return
        if not actions:
            return
        self.stats.actions_received.extend(actions)
        if self.on_actions is not None:
            self.on_actions(actions)

    # -- participant-side event handlers --------------------------------------------------------

    def _register_handlers(self) -> None:
        scripts = self.browser.page.scripts
        scripts.register("rcbSubmit", self._on_submit)
        scripts.register("rcbClick", self._on_click)
        scripts.register("rcbInput", self._on_input)
        scripts.register("rcbKeySubmit", lambda element: False)

    def _on_submit(self, form: Element) -> bool:
        ref = form.get_attribute(REF_ATTRIBUTE)
        if ref:
            fields = Browser.collect_form_fields(form)
            self.queue_action(SubmitAction(ref, fields))
        return False  # never navigate the participant browser

    def _on_click(self, element: Element) -> bool:
        ref = element.get_attribute(REF_ATTRIBUTE)
        if ref:
            self.queue_action(ClickAction(ref))
        return False

    def _on_input(self, element: Element) -> bool:
        ref = self._enclosing_form_ref(element)
        name = element.get_attribute("name")
        if ref and name:
            value = (
                element.text_content
                if element.tag == "textarea"
                else element.get_attribute("value") or ""
            )
            self.queue_action(FormFillAction(ref, {name: value}))
        return True

    @staticmethod
    def _enclosing_form_ref(element: Element) -> Optional[str]:
        node = element
        while node is not None:
            if isinstance(node, Element) and node.tag == "form":
                return node.get_attribute(REF_ATTRIBUTE)
            node = node.parent
        return None

    # -- action queueing ----------------------------------------------------------------------------

    def queue_action(self, action: UserAction) -> None:
        """Piggyback ``action`` on the next polling request.

        Under a held transport the next scheduled poll may be parked at
        the agent for seconds, so a second, immediate request carries
        the action up (comet's send channel); the agent answers an
        actions-carrying poll right away.
        """
        self._outgoing.append(action)
        if (
            self.transport_mode != TRANSPORT_POLL
            and self._connected
            and self._flush_proc is None
        ):
            self._flush_proc = self.sim.process(self._flush_held())

    def _flush_held(self):
        span = None
        if self.tracer is not None:
            # The flush round trip is the held transport's send channel;
            # its span covers the whole dedicated exchange (any apply it
            # triggers rides inside — part of the flush's cost).
            span = self.tracer.start_span(
                "transport.flush",
                t=self.sim.now,
                node=self.participant_id or self.browser.name,
                actions=len(self._outgoing),
            )
        try:
            yield from self.poll_once(dedicated=True)
        except RequestFailed:
            self.stats.connection_errors += 1
            if self.telemetry is not None:
                self.telemetry.record_connection_error()
        finally:
            self._flush_proc = None
            if span is not None:
                span.finish(self.sim.now)

    def report_mouse_move(self, x: int, y: int) -> None:
        """Queue a pointer-mirroring action for the next poll."""
        self.queue_action(MouseMoveAction(x, y))

    def report_scroll(self, offset: int) -> None:
        """Queue a scroll-mirroring action for the next poll."""
        self.queue_action(ScrollAction(offset))

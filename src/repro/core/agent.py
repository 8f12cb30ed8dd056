"""RCB-Agent: the co-browsing host's browser extension.

The agent embeds an HTTP service inside the host browser (modelled on
Mozilla's ``nsIServerSocket``; paper §4.1.1) and implements the Fig. 2
request-processing procedure:

* **New connection request** — ``GET /`` returns the initial HTML page
  whose head carries Ajax-Snippet.
* **Object request** — ``GET /obj?key=...`` (cache mode) streams a
  cached object from the host browser's cache, via the mapping table
  from request-URIs to cache keys.
* **Ajax polling request** — ``POST /poll`` goes through data merging
  (piggybacked participant actions), timestamp inspection (send only
  content this participant has not seen), and response sending (the
  Fig. 4 XML envelope, generated once per document state and reused for
  every participant).

The agent also monitors the host browser's document loads and dynamic
DOM changes (Ajax/DHTML) via the observer service.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from ..browser.browser import Browser, BrowserExtension, NavigationError
from ..browser.observer import TOPIC_DOCUMENT_CHANGED, TOPIC_DOCUMENT_LOADED
from ..html.serializer import SegmentCache
from ..http import Headers, HttpRequest, HttpResponse, WirePlan, html_response
from ..http.server import serve_connection
from ..net.socket import ListenSocket
from ..net.url import UrlError
from ..obs import (
    DELTA_FALLBACK,
    HMAC_REJECT,
    MEMBER_JOIN,
    MEMBER_LEAVE,
    POLL_SERVED,
    TRANSPORT_SWITCH,
    EventBus,
    MetricsRegistry,
    SpanContext,
    StatsFacade,
    Tracer,
    format_trace_header,
)
from ..obs.trace import TRACE_HEADER
from ..sim import AnyOf, Interrupt, StoreClosed
from .actions import (
    ActionError,
    ClickAction,
    FormFillAction,
    MouseMoveAction,
    PresenceAction,
    ScrollAction,
    SubmitAction,
    UserAction,
    decode_action_list,
    encode_actions,
    resolve_reference,
)
from .cachepolicy import coerce_cache_policy
from .content import AGENT_OBJECT_PATH, ContentGenerator
from .delta import diff_trees
from .policy import ModerationPolicy, OpenPolicy, PendingAction
from .security import Authenticator
from .serveplan import BroadcastPlan, PlanFallback, merge_wire_bodies
from .transport import (
    MODE_INDEX,
    TRANSPORT_HEADER,
    TRANSPORT_MODES,
    TRANSPORT_POLL,
    Transport,
    coerce_transport,
    transport_for_mode,
)
from .xmlformat import (
    EMPTY_ACTIONS_WIRE,
    WireTemplate,
    js_escape,
    wire_delta_template,
    wire_envelope_template,
)

__all__ = ["RCBAgent", "ParticipantState", "AGENT_DEFAULT_PORT", "TOPIC_ROSTER_CHANGED"]

AGENT_DEFAULT_PORT = 3000

#: Observer topic fired on the host browser when participants join/leave.
TOPIC_ROSTER_CHANGED = "rcb-roster-changed"

#: Snippet source marker embedded in the initial page's head.
_SNIPPET_SCRIPT_ID = "ajax-snippet"

#: Pre-normalized header pair for poll responses (hot serve path).
_XML_CONTENT_TYPE = ("Content-Type", "application/xml; charset=utf-8")

#: What applying one participant action may raise for a bad remote
#: input: a reference that resolves to nothing, or a link or form
#: target that fails to load.  Each is counted on ``action_errors``.
_ACTION_FAILURES = (ActionError, NavigationError, UrlError)


def _well_formed_poll(payload) -> bool:
    """Whether a decoded poll body has the shape Ajax-Snippet sends: a
    JSON object whose ``participant`` is a non-empty string,
    ``timestamp`` a non-negative integer and ``actions`` a list, each
    of them optional."""
    if type(payload) is not dict:
        return False
    participant = payload.get("participant", "-")
    timestamp = payload.get("timestamp", 0)
    return (
        type(participant) is str
        and participant != ""
        and type(timestamp) is int
        and timestamp >= 0
        and type(payload.get("actions", [])) is list
    )


class ParticipantState:
    """Per-participant bookkeeping on the agent."""

    def __init__(self, participant_id: str, joined_at: float):
        self.participant_id = participant_id
        self.joined_at = joined_at
        self.last_poll_at = joined_at
        self.polls = 0
        self.content_responses = 0
        #: Host/participant actions queued for delivery to this participant.
        self.outbound_actions: List[UserAction] = []
        #: Events releasing this member's held poll early (queued
        #: outbound actions, transport switches) — doc-time advances
        #: release every held poll through the agent's global table.
        #: Insertion-ordered keys (values unused): a hold removes its
        #: own entry in O(1) however it ends.
        self.wake_events: Dict = {}

    def __repr__(self):
        return "ParticipantState(%s, %d polls)" % (self.participant_id, self.polls)


class RCBAgent(BrowserExtension):
    """The RCB-Agent browser extension (install on the host browser)."""

    #: Span-name prefix for this tier's generate/serve/delta spans;
    #: relays override with "relay" so traces read host → relay → leaf.
    _span_prefix = "host"

    def __init__(
        self,
        port: int = AGENT_DEFAULT_PORT,
        cache_mode: bool = True,
        policy: Optional[ModerationPolicy] = None,
        secret: Optional[str] = None,
        poll_interval: float = 1.0,
        transport=None,
        always_resend: bool = False,
        replicate_cookies: bool = False,
        generation_cost_per_kb: float = 0.0,
        announce_presence: bool = False,
        enable_delta: bool = True,
        delta_history: int = 8,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        metrics_node: Optional[str] = None,
        events: Optional[EventBus] = None,
        attribution=None,
        telemetry=None,
    ):
        super().__init__()
        self.port = port
        #: Cache-mode policy: a bool (the paper's two global modes) or a
        #: :class:`~repro.core.cachepolicy.CacheModePolicy` for the
        #: per-participant / per-object flexibility of §4.1.2.
        self.cache_policy = coerce_cache_policy(cache_mode)
        self.policy = policy if policy is not None else OpenPolicy()
        #: Session secret for HMAC request authentication; None disables
        #: authentication (trusted-LAN configuration).
        self.secret = secret
        self._auth = Authenticator(secret)
        #: Poll interval advertised to participants on the initial page.
        self.poll_interval = poll_interval
        #: The default delivery strategy (``RCB_TRANSPORT`` when the
        #: argument is None).
        self.transport = coerce_transport(transport)
        #: Per-member transport overrides (set by the adaptive
        #: controller or :meth:`set_member_transport`); they outrank
        #: both the client's requested mode and the agent default.
        self._member_transports: Dict[str, Transport] = {}
        #: Shared default-parameter instances for client-requested modes.
        self._mode_transports: Dict[str, Transport] = {}
        #: Last mode reported to the per-member ``transport_mode`` gauge.
        self._member_mode_seen: Dict[str, str] = {}
        self._held_open = 0
        #: Ablation: disable the timestamp protocol and resend the full
        #: content on every poll.
        self.always_resend = always_resend
        #: Extension feature (paper §4.1.2 notes RCB-Agent "can be
        #: extended" to replicate cookies): ship the host's cookies for
        #: the co-browsed origin so participants' non-cache-mode object
        #: fetches are session-authenticated.  Off by default, as in the
        #: paper — replicating a session cookie widens its trust domain.
        self.replicate_cookies = replicate_cookies
        #: Simulated CPU cost of content generation, seconds per KB of
        #: envelope.  Zero for desktop hosts (generation is fast relative
        #: to the network); nonzero models slow devices like the paper's
        #: Nokia N810 Fennec port (§6).
        self.generation_cost_per_kb = generation_cost_per_kb
        #: Push roster snapshots to participants on join/leave — the
        #: connection/status indicator the usability subjects asked for.
        self.announce_presence = announce_presence
        #: Delta envelopes: answer a recent participant with a DOM diff
        #: against its last-acknowledged snapshot instead of the full
        #: regenerated page.  Full envelopes remain the fallback for
        #: stale participants, evicted snapshots, and oversized diffs.
        self.enable_delta = enable_delta
        #: How many distinct document states the snapshot ring retains.
        self.delta_history = delta_history
        #: Held polls' wake events, released together on the next
        #: document change (same insertion-ordered-keys shape as
        #: ``ParticipantState.wake_events``).
        self._change_waiters: Dict = {}

        self.generator = ContentGenerator(AGENT_OBJECT_PATH)
        self.participants: Dict[str, ParticipantState] = {}
        self.pending_actions: List[PendingAction] = []

        #: Mapping table: agent request-URI -> cache key (paper §4.1.1).
        self._object_map: Dict[str, str] = {}

        self._doc_time = 0
        #: The document state ``_delta_memo``, ``_wire_templates`` and
        #: ``_plans`` (below) were built for.
        self._generated_for_time = -1
        self._generation_count = 0
        #: Stable rewrite callables per (mode key, page URL, auth
        #: state).  The generator's incremental reuse fence fingerprints
        #: ``sign_target``/``should_cache`` by identity — fresh closures
        #: on every call would force a full rebuild every time.
        self._mode_callables: "OrderedDict[tuple, tuple]" = OrderedDict()
        #: Snapshot ring: doc_time -> cache-mode key -> canonical content
        #: tree (repro.core.delta), for the last ``delta_history``
        #: generated document states.
        self._snapshots: "OrderedDict[int, Dict[str, object]]" = OrderedDict()
        #: Serialized snapshot subtrees, the diff's comparison keys: ring
        #: snapshots share unchanged nodes, so one serialization of each
        #: node serves every diff that meets it while it stays cached.
        self._snapshot_keys = SegmentCache()
        #: Memoized ops JSON per (base_time, mode_key) for the *current*
        #: document state: participants at the same base share one diff.
        self._delta_memo: Dict = {}
        #: The generation cache, for the *current* document state only:
        #: the generated envelope's pre-encoded wire template per mode
        #: key (generated once, reused for every participant).
        self._wire_templates: Dict[str, WireTemplate] = {}
        #: Broadcast plans (or remembered fallbacks) per (base_time,
        #: mode_key) for the current document state — base 0 is the
        #: full envelope.  Co-due polls share one diff and one body.
        self._plans: Dict[tuple, object] = {}
        #: Escaped userActions payloads keyed by action-object identity:
        #: broadcast_action hands the *same* action objects to every
        #: participant, so co-due members share one encode + escape.
        self._actions_memo: Dict[tuple, tuple] = {}
        #: Local mirrors of the plans-built / batched-polls counters so
        #: the per-serve amortization gauge needs no registry reads.
        self._plans_built_n = 0
        self._batched_polls_n = 0

        self._listener: Optional[ListenSocket] = None
        self._accept_proc = None
        self._active_connections: set = set()

        #: Central metrics registry; shared across a session when the
        #: orchestrator passes one in, private otherwise.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: End-to-end tracer; None keeps the wire format byte-identical
        #: to the untraced protocol (no ``X-RCB-Trace`` header).
        self.tracer = tracer
        #: Structured event bus; None (the default) disables the event
        #: log entirely — events never touch the wire either way.
        self.events = events
        #: Wire-byte cost sink (:class:`repro.obs.attribution.ByteAttribution`);
        #: None (the default) ships byte-identical traffic with no
        #: per-response records.
        self.attribution = attribution
        #: Telemetry sink for piggybacked client digests — anything with
        #: ``ingest(blob, t=None)``: the host wires a
        #: :class:`repro.obs.fleet.FleetView`, a relay its own
        #: :class:`repro.obs.digest.ClientTelemetry` (so subtree digests
        #: merge and ride the relay's next upstream poll).  None (the
        #: default) ignores the key entirely.
        self.telemetry = telemetry
        #: Label distinguishing this agent's instruments when several
        #: agents (host + relays) share one registry.
        self.metrics_node = metrics_node
        # Statistics surfaced to benchmarks: a dict-shaped facade whose
        # entries are registry instruments.
        self.stats = StatsFacade(
            self.metrics,
            prefix="agent_",
            labels={"node": metrics_node} if metrics_node else {},
            counters=(
                "polls",
                "empty_responses",
                "content_responses",
                "object_requests",
                "connections",
                "auth_failures",
                "actions_applied",
                "actions_held",
                "actions_dropped",
                "action_errors",
                "bad_poll_bodies",
                "delta_responses",
                "full_responses",
                "delta_fallbacks",
                "delta_bytes_sent",
                "full_bytes_sent",
                "delta_bytes_saved",
                "incremental_generations",
                "full_generations",
                "segments_reused",
                "segments_total",
                "dirty_subtrees",
                "urlcache_hits",
                "serve_plans_built",
                "serve_batched_polls",
                "wire_bytes_zero_copy",
                "wire_bytes_copied",
                "push_envelopes_streamed",
                "transport_switches",
            ),
            gauges=(
                "last_generation_seconds",
                "generation_reuse_ratio",
                "serve_amortization",
                "held_polls_open",
            ),
            histograms=("generation_seconds",),
        )
        #: Trace context per generated document state: serve spans for a
        #: doc_time parent under the span that produced that content
        #: (host: its generate span; relay: its upstream apply span).
        self._content_ctx: "OrderedDict[int, SpanContext]" = OrderedDict()

    # -- extension lifecycle -----------------------------------------------------------

    def on_install(self) -> None:
        """Wire observers, open the TCP port, start accepting."""
        browser = self.browser
        browser.observers.add_observer(TOPIC_DOCUMENT_LOADED, self._on_document_event)
        browser.observers.add_observer(TOPIC_DOCUMENT_CHANGED, self._on_document_event)
        self._listener = browser.host.listen(self.port)
        self._accept_proc = browser.sim.process(self._accept_loop())
        if browser.page is not None:
            self._bump_doc_time()

    def on_uninstall(self) -> None:
        """Unwire observers and close the port."""
        browser = self.browser
        browser.observers.remove_observer(TOPIC_DOCUMENT_LOADED, self._on_document_event)
        browser.observers.remove_observer(TOPIC_DOCUMENT_CHANGED, self._on_document_event)
        self._close_port()

    def _close_port(self) -> None:
        """Close the listener and drop established connections — a
        stopped agent (or a dead relay) serves nothing, so participants'
        keep-alive polls must fail rather than linger."""
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        for connection in list(self._active_connections):
            connection.close()
        self._active_connections.clear()

    @property
    def url(self) -> str:
        """The address participants type into their browsers."""
        return "http://%s:%d/" % (self.browser.host.name, self.port)

    # -- browser-state monitoring (Fig. 1 steps 4 & 9) ------------------------------------

    def _on_document_event(self, _topic, _page) -> None:
        self._bump_doc_time()

    def _bump_doc_time(self) -> None:
        # Milliseconds, strictly increasing even within one millisecond.
        now_ms = int(self.browser.sim.now * 1000)
        self._set_doc_time(max(now_ms, self._doc_time + 1))

    def _set_doc_time(self, value: int) -> None:
        """Advance the document timestamp and wake long-poll waiters.

        The root agent stamps the simulation clock (via
        :meth:`_bump_doc_time`); a relay instead adopts its upstream's
        timestamps here, which is what keeps ``doc_time`` consistent
        across tiers.  The timestamp never moves backwards.
        """
        if value <= self._doc_time:
            return
        self._doc_time = value
        waiters, self._change_waiters = self._change_waiters, {}
        for waiter in waiters:
            if not waiter.triggered:
                waiter.succeed()

    @property
    def doc_time(self) -> int:
        """Timestamp (ms) of the host's latest document state."""
        return self._doc_time

    @property
    def cache_mode(self):
        """Legacy bool view of the cache policy (True if the policy can
        ever serve objects from the host's cache)."""
        return self.cache_policy.ever_uses_cache

    @cache_mode.setter
    def cache_mode(self, value) -> None:
        """Assigning a bool or policy replaces the cache policy."""
        self.cache_policy = coerce_cache_policy(value)

    # -- transports -----------------------------------------------------------------------

    def transport_mode_for(self, participant_id: str) -> str:
        """The mode currently governing one member's polls: a controller
        override, else the mode last granted in negotiation (a client may
        request above the default), else the agent default."""
        override = self._member_transports.get(participant_id)
        if override is not None:
            return override.mode
        seen = self._member_mode_seen.get(participant_id)
        if seen is not None:
            return seen
        return self.transport.mode

    def set_member_transport(self, participant_id, transport, reason=None) -> Transport:
        """Override one member's transport (the adaptive controller's
        lever).  Accepts a mode string or a :class:`Transport`; emits a
        ``transport.switch`` event and wakes the member's held poll so
        the switch takes effect on the response in flight, not one poll
        later."""
        if isinstance(transport, str):
            transport = transport_for_mode(transport)
        elif not isinstance(transport, Transport):
            raise TypeError("transport must be a mode string or Transport")
        previous = self.transport_mode_for(participant_id)
        self._member_transports[participant_id] = transport
        if transport.mode != previous:
            self.stats.inc("transport_switches")
            self._note_member_mode(participant_id, transport.mode)
            self._emit(
                TRANSPORT_SWITCH,
                participant=participant_id,
                from_mode=previous,
                to_mode=transport.mode,
                reason=reason,
            )
            state = self.participants.get(participant_id)
            if state is not None:
                self._wake_member(state)
        return transport

    def clear_member_transport(self, participant_id: str) -> None:
        """Drop a member's override; negotiation rules apply again."""
        self._member_transports.pop(participant_id, None)

    def _granted_transport(self, participant_id: str, requested) -> Transport:
        """Negotiate one poll's transport: a member override outranks
        the client's requested mode, which outranks the agent default.
        Also keeps the per-member ``transport_mode`` gauge current."""
        override = self._member_transports.get(participant_id)
        if override is not None:
            granted = override
        elif requested in TRANSPORT_MODES and requested != self.transport.mode:
            granted = self._shared_mode_transport(requested)
        else:
            granted = self.transport
        self._note_member_mode(participant_id, granted.mode)
        return granted

    def _shared_mode_transport(self, mode: str) -> Transport:
        transport = self._mode_transports.get(mode)
        if transport is None:
            transport = self._mode_transports[mode] = transport_for_mode(mode)
        return transport

    def _note_member_mode(self, participant_id: str, mode: str) -> None:
        if self._member_mode_seen.get(participant_id) == mode:
            return
        self._member_mode_seen[participant_id] = mode
        self.metrics.gauge(
            "agent_transport_mode", node=participant_id
        ).set(MODE_INDEX[mode])

    def _wake_member(self, state: ParticipantState) -> None:
        """Release a member's held poll early (queued outbound actions,
        transport switch)."""
        if not state.wake_events:
            return
        events, state.wake_events = state.wake_events, {}
        for event in events:
            if not event.triggered:
                event.succeed()

    # -- tracing ------------------------------------------------------------------------

    def _node_name(self) -> str:
        """The pipeline-node label this agent's spans carry."""
        if self.metrics_node:
            return self.metrics_node
        return self.browser.name if self.browser is not None else "agent"

    def _emit(self, event_type: str, trace=None, **data) -> None:
        """Record a structured event on the bus, when one is attached."""
        if self.events is not None:
            self.events.emit(
                event_type,
                self.browser.sim.now,
                node=self._node_name(),
                trace=trace,
                **data,
            )

    def _remember_content_context(self, doc_time: int, context: SpanContext) -> None:
        """Record the span that produced ``doc_time``'s content.  First
        writer wins — that span roots the document state's trace (the
        host's generate span, or a relay's upstream apply span)."""
        if doc_time in self._content_ctx:
            return
        self._content_ctx[doc_time] = context
        while len(self._content_ctx) > 64:
            self._content_ctx.popitem(last=False)

    def _content_context(self) -> Optional[SpanContext]:
        return self._content_ctx.get(self._doc_time)

    # -- server loop --------------------------------------------------------------------

    def _accept_loop(self):
        while True:
            listener = self._listener
            if listener is None or listener.closed:
                return
            try:
                connection = yield listener.accept()
            except (StoreClosed, Interrupt):
                return
            self.stats.inc("connections")
            self.browser.sim.process(self._serve(connection))

    def _serve(self, connection):
        self._active_connections.add(connection)
        try:
            yield from serve_connection(
                self.browser.sim, connection, self._dispatch, server_name="rcb-agent"
            )
        finally:
            self._active_connections.discard(connection)
            connection.close()

    def _dispatch(self, request: HttpRequest, client_name: str):
        # Classification by method token and request-URI (Fig. 2).
        if request.method == "GET" and request.path == "/":
            return self._initial_page_response()
        if request.method == "GET" and request.path == AGENT_OBJECT_PATH:
            # Reading a cached object through the browser's cache service
            # costs a few milliseconds on the host.
            yield self.browser.sim.timeout(0.004)
            return self._object_response(request)
        if request.method == "POST" and request.path == "/poll":
            response = yield from self._poll_response(request, client_name)
            return response
        return HttpResponse(404, body=b"unknown rcb request")
        yield  # pragma: no cover - makes this a generator function

    # -- new connection requests ------------------------------------------------------------

    def _initial_page_response(self) -> HttpResponse:
        """The initial HTML page, with Ajax-Snippet in its head."""
        secret_field = ""
        if self.secret is not None:
            secret_field = (
                "<p>This session requires the secret key your host shared "
                "with you.</p>"
                "<form id='rcb-key-form' onsubmit='return rcbKeySubmit(this)'>"
                "<input type='password' name='session_key' value=''>"
                "<input type='submit' value='Join'></form>"
            )
        page = (
            "<!DOCTYPE html><html><head>"
            "<title>RCB Co-browsing Session</title>"
            '<script id="%s" data-poll-interval="%s">'
            "/* Ajax-Snippet: polls RCB-Agent and updates this document"
            " in place; see repro.core.snippet for the modelled logic. */"
            "</script>"
            "</head><body>"
            "<p id='rcb-welcome'>Connected to an RCB co-browsing session. "
            "Waiting for the host's first page...</p>%s"
            "</body></html>"
        ) % (_SNIPPET_SCRIPT_ID, self.poll_interval, secret_field)
        return html_response(page)

    # -- object requests (cache mode) ----------------------------------------------------------

    def _object_response(self, request: HttpRequest) -> HttpResponse:
        if not self._authenticate(request):
            return HttpResponse(401, body=b"bad or missing hmac")
        self.stats.inc("object_requests")
        target = request.path + ("?" + self._unsigned_query(request) if request.query else "")
        cache_key = self._object_map.get(target)
        if cache_key is None:
            # Fall back to the key parameter directly.
            cache_key = request.query_params().get("key")
        if cache_key is None:
            return HttpResponse(404, body=b"no such object mapping")
        session = self.browser.cache.open_read_session()
        if not session.contains(cache_key):
            return HttpResponse(404, body=b"object not cached")
        entry = session.read(cache_key)
        headers = Headers([("Content-Type", entry.content_type)])
        return HttpResponse(200, headers, entry.data)

    def _unsigned_query(self, request: HttpRequest) -> str:
        from .security import HMAC_PARAM

        pairs = [
            pair
            for pair in request.query.split("&")
            if pair and not pair.startswith(HMAC_PARAM + "=")
        ]
        return "&".join(pairs)

    # -- Ajax polling requests ---------------------------------------------------------------

    def _poll_response(self, request: HttpRequest, client_name: str):
        if not self._authenticate(request):
            return HttpResponse(401, body=b"bad or missing hmac")
        self.stats.inc("polls")
        arrived = self.browser.sim.now

        try:
            payload = json.loads(request.body.decode("utf-8") or "{}")
        except (ValueError, RecursionError):  # RecursionError: nested too deep
            payload = None
        if not _well_formed_poll(payload):
            self.stats.inc("bad_poll_bodies")
            return HttpResponse(400, body=b"bad poll body")
        # Piggybacked actions are validated before anything else of the
        # poll takes effect: a rejected poll joins nobody and ingests no
        # telemetry (the snippet resends a rejected poll's digest).
        actions = payload.get("actions")
        if actions:
            try:
                actions = decode_action_list(actions)
            except ActionError:
                self.stats.inc("bad_poll_bodies")
                return HttpResponse(400, body=b"bad piggybacked actions")
        else:
            actions = []
        participant_id = payload.get("participant", client_name)
        participant = self._participant(participant_id)
        participant.polls += 1
        participant.last_poll_at = self.browser.sim.now
        their_time = payload.get("timestamp", 0)

        # Piggybacked telemetry digest: ingest before the hold/serve
        # branches so a poll that parks for seconds still delivers its
        # subtree's measurements immediately.
        if self.telemetry is not None:
            reported_digest = payload.get("telemetry")
            if reported_digest is not None:
                self.telemetry.ingest(reported_digest, t=self.browser.sim.now)

        # Step 1: data merging — piggybacked participant actions.
        for action in actions:
            yield from self._moderate(participant_id, action)

        # Transport negotiation: the client may request a non-default
        # mode in its payload; a member override (adaptive controller)
        # outranks both.  The grant travels back in X-RCB-Transport only
        # when it differs from what the client reported, so the default
        # exchange stays byte-identical to the plain polling protocol.
        requested = payload.get("transport")
        reported = requested if requested in TRANSPORT_MODES else TRANSPORT_POLL
        granted = self._granted_transport(participant_id, requested)
        advertise = granted.mode if granted.mode != reported else None
        #: Parked stretches of this exchange, recorded as
        #: ``transport.hold`` spans so serve self-time excludes them.
        holds: List[tuple] = []

        # Step 2: timestamp inspection.  A poll that piggybacked actions
        # is never parked — its response acknowledges them, and a held
        # transport's client sends actions on a second flush request
        # precisely to get that immediate ack.
        outbound = participant.outbound_actions
        if granted.holds and self._doc_time <= their_time and not outbound and not actions:
            if granted.max_envelopes > 1:
                # Streamed push: hold and ship every envelope the hold
                # window produces in one multi-envelope response.
                response = yield from self._stream_push(
                    participant, their_time, granted, arrived
                )
                # A controller switch may have landed while the stream
                # was parked: advertise the *current* grant.
                granted = self._granted_transport(participant_id, requested)
                advertise = granted.mode if granted.mode != reported else None
                if response is not None:
                    return self._with_transport(response, advertise)
            else:
                # Long poll ("hanging request"): wait for a change, a
                # queued outbound action, a transport switch, or the
                # hold timeout, then fall through to the ordinary serve
                # branches — a released hold joins the current tick's
                # broadcast plan like any co-due poll.
                held = yield from self._hold_for_change(
                    participant, granted.hold_timeout
                )
                holds.append(held)
            outbound = participant.outbound_actions
            granted = self._granted_transport(participant_id, requested)
            advertise = granted.mode if granted.mode != reported else None
            if self.browser is None:
                # Uninstalled while this exchange was parked (a dying
                # relay): answer empty — the connection is dropping.
                self.stats.inc("empty_responses")
                self._record_holds(holds, participant_id)
                return self._with_transport(
                    self._respond(WirePlan(), None, participant_id, "empty"), advertise
                )
        if self.browser.page is not None and (
            self.always_resend or self._doc_time > their_time
        ):
            # Step 3: response sending, with new content — a delta
            # envelope when this participant's acknowledged state is
            # still in the snapshot ring, the full envelope otherwise
            # (always, under the always-resend ablation).
            body, is_delta = yield from self._serve_content(
                participant, their_time, force_full=self.always_resend
            )
            kind = "delta" if is_delta else "full"
            context = self._serve_span(arrived, participant_id, is_delta, len(body), holds)
            self._emit(
                POLL_SERVED,
                trace=context,
                participant=participant_id,
                kind=kind,
                bytes=len(body),
                doc_time=self._doc_time,
            )
            return self._with_transport(
                self._respond(body, context, participant_id, kind), advertise
            )
        self._record_holds(holds, participant_id)
        if outbound:
            # Actions but no new content: the envelope without document
            # sections, through the same wire template as content.
            participant.outbound_actions = []
            plan = BroadcastPlan(wire_envelope_template(self._doc_time, [], []))
            body = plan.personalize(self._actions_wire(outbound))
            return self._with_transport(
                self._respond(body, None, participant_id, "actions"), advertise
            )
        # No new content: empty response to avoid hanging requests.
        self.stats.inc("empty_responses")
        return self._with_transport(
            self._respond(WirePlan(), None, participant_id, "empty"), advertise
        )

    def _hold_for_change(self, participant: ParticipantState, duration: float):
        """Hang one poll until a document change, a per-member wake
        (queued outbound action, transport switch), or the hold timeout.
        Generator; keeps the ``held_polls_open`` gauge current and
        returns the ``(start, end)`` sim-time interval it parked —
        callers record it as a ``transport.hold`` span."""
        sim = self.browser.sim
        start = sim.now
        waiter = sim.event()
        self._change_waiters[waiter] = None
        participant.wake_events[waiter] = None
        self._held_open += 1
        self.stats.set("held_polls_open", self._held_open)
        try:
            yield AnyOf(sim, [waiter, sim.timeout(duration)])
        finally:
            self._held_open -= 1
            self.stats.set("held_polls_open", self._held_open)
            # A document change or member wake clears only its own
            # table, a timeout neither: drop both registrations.
            self._change_waiters.pop(waiter, None)
            participant.wake_events.pop(waiter, None)
        return (start, sim.now)

    def _stream_push(self, participant, their_time, transport, arrived):
        """Streamed push: hold the connection and capture an envelope on
        *each* document change, shipping several back to back in one
        response (the snippet splits on the XML declaration).  Each
        captured envelope is a delta against the previous one and joins
        that tick's broadcast plan, so co-due streams share diffs and
        serialized bodies exactly like released long polls.

        Generator; returns the merged :class:`HttpResponse`, or None
        when the hold window closed with nothing captured (the caller
        falls through to the action-only / empty branches).
        """
        sim = self.browser.sim
        participant_id = participant.participant_id
        base = their_time
        captured = []
        holds: List[tuple] = []
        last_is_delta = False
        deadline = sim.now + transport.hold_timeout
        while True:
            if self.browser is None:
                # Uninstalled mid-stream (a dying relay): stop capturing;
                # the connection underneath is dropping anyway.
                return None
            if self._doc_time > base and self.browser.page is not None:
                body, last_is_delta = yield from self._serve_content(participant, base)
                captured.append(body)
                base = self._doc_time
                if len(captured) >= transport.max_envelopes:
                    break
                # Linger briefly for a follow-up change to batch, but
                # never past the hold deadline.
                deadline = min(deadline, sim.now + transport.stream_linger)
                continue
            if participant.outbound_actions:
                # Actions can't ride a held stream mid-flight; release
                # so the ordinary branches deliver them.
                break
            remaining = deadline - sim.now
            if remaining <= 1e-9:
                break
            held = yield from self._hold_for_change(participant, remaining)
            holds.append(held)
        if not captured or self.browser is None:
            self._record_holds(holds, participant_id)
            return None
        self.stats.inc("push_envelopes_streamed", len(captured))
        body = merge_wire_bodies(captured)
        total = len(body)
        context = self._serve_span(arrived, participant_id, last_is_delta, total, holds)
        self._emit(
            POLL_SERVED,
            trace=context,
            participant=participant_id,
            kind="push",
            envelopes=len(captured),
            bytes=total,
            doc_time=self._doc_time,
        )
        return self._respond(body, context, participant_id, "push")

    @staticmethod
    def _with_transport(response: HttpResponse, advertise: Optional[str]) -> HttpResponse:
        """Stamp the granted mode on a response when it differs from
        what the client reported; otherwise leave the wire untouched."""
        if advertise is not None:
            response.headers.set(TRANSPORT_HEADER, advertise)
        return response

    def _serve_span(
        self,
        arrived: float,
        participant_id: str,
        is_delta: bool,
        size: int,
        holds=(),
    ) -> Optional[SpanContext]:
        """Record the content-serving span for one poll exchange and
        return its context (carried downstream in ``X-RCB-Trace``).
        Spans the sim-time from poll arrival to response dispatch,
        parented under whichever span produced the content being sent.
        ``holds`` lists the exchange's parked ``(start, end)``
        stretches, recorded as ``transport.hold`` children so the serve
        span's *self* time is actual serving work, not the wait."""
        if self.tracer is None:
            return None
        span = self.tracer.start_span(
            self._span_prefix + ".serve",
            t=arrived,
            parent=self._content_context(),
            node=self._node_name(),
            participant=participant_id,
            kind="delta" if is_delta else "full",
            doc_time=self._doc_time,
            bytes=size,
        )
        span.finish(self.browser.sim.now)
        self._record_holds(holds, participant_id, parent=span)
        return span.context

    def _record_holds(self, holds, participant_id: str, parent=None) -> None:
        """Record ``transport.hold`` spans for one exchange's parked
        stretches — children of the serve span when content shipped,
        roots otherwise (a hold that timed out into an empty response
        still shows up in the profile)."""
        if self.tracer is None:
            return
        for start, end in holds:
            if end - start <= 0.0:
                continue
            span = self.tracer.start_span(
                "transport.hold",
                t=start,
                parent=parent,
                node=self._node_name(),
                participant=participant_id,
            )
            span.finish(end)

    def _participant(self, participant_id: str) -> ParticipantState:
        state = self.participants.get(participant_id)
        if state is None:
            state = ParticipantState(participant_id, self.browser.sim.now)
            self.participants[participant_id] = state
            self._emit(
                MEMBER_JOIN, participant=participant_id, members=len(self.participants)
            )
            self._announce_roster()
        return state

    def roster(self) -> List[str]:
        """Connected participant ids (paper §3.3: the agent knows exactly
        which participants are connected)."""
        return sorted(self.participants)

    def disconnect(self, participant_id: str) -> None:
        """Forget a participant and announce the roster change."""
        self._member_transports.pop(participant_id, None)
        self._member_mode_seen.pop(participant_id, None)
        if self.participants.pop(participant_id, None) is not None:
            self._emit(
                MEMBER_LEAVE, participant=participant_id, members=len(self.participants)
            )
            self._announce_roster()

    def _announce_roster(self) -> None:
        """Hand a membership change to its readers: ``TOPIC_ROSTER_CHANGED``
        observers and, with ``announce_presence``, every member.  The
        sorted roster costs O(N log N), so it is built once per change
        and only when one of them reads it — with neither, a join or
        leave stays O(1)."""
        observers = self.browser.observers
        if not (self.announce_presence or observers.observer_count(TOPIC_ROSTER_CHANGED)):
            return
        roster = self.roster()
        observers.notify(TOPIC_ROSTER_CHANGED, roster)
        if self.announce_presence:
            self.broadcast_action(PresenceAction(roster))

    # -- content generation & reuse ------------------------------------------------------------

    def _ensure_generated(self, participant_id: str) -> WireTemplate:
        """(Re)generate the envelope if the document changed; returns the
        cached wire template (the userActions slot left open).

        Templates are cached per cache-mode key: participants whose
        policy decisions coincide share one generation (paper §4.1.2's
        generate-once-reuse, preserved within each mode group).
        """
        if self._generated_for_time != self._doc_time:
            self._delta_memo = {}
            self._wire_templates = {}
            self._plans = {}
            self._generated_for_time = self._doc_time
        mode_key = self.cache_policy.mode_key(participant_id)
        template = self._wire_templates.get(mode_key)
        if template is not None:
            return template
        page = self.browser.page
        page_url = str(page.url)
        sign_target, should_cache = self._rewrite_callables(
            mode_key, page_url, participant_id
        )
        cookies_json = "[]"
        if self.replicate_cookies:
            cookies = self.browser.cookie_jar.cookies_for(page.url.host, page.url.path or "/")
            cookies_json = json.dumps(
                [
                    {"name": c.name, "value": c.value, "host": c.host, "path": c.path}
                    for c in cookies
                ]
            )
        generated = self.generator.generate(
            page.document,
            page.url,
            cache_session=self.browser.cache.open_read_session(),
            cache_mode=self.cache_policy.ever_uses_cache,
            sign_target=sign_target,
            should_cache=should_cache,
            mode_key=mode_key,
            build_canonical=self.enable_delta,
        )
        self._object_map.update(generated.object_map)
        # Zero-copy wire path: assemble the template from the
        # generator's pre-encoded immutable segment bytes.
        template = self._wire_templates[mode_key] = wire_envelope_template(
            self._doc_time,
            generated.head_segments,
            generated.top_segments,
            cookies_json=cookies_json,
        )
        self._generation_count += 1
        self.stats.set("last_generation_seconds", generated.generation_seconds)
        self.stats.observe("generation_seconds", generated.generation_seconds)
        self.stats.inc(
            "incremental_generations" if generated.mode == "incremental" else "full_generations"
        )
        self.stats.inc("segments_reused", generated.segments_reused)
        self.stats.inc("segments_total", generated.segments_total)
        self.stats.inc("dirty_subtrees", generated.dirty_subtrees)
        self.stats.inc("urlcache_hits", generated.urlcache_hits)
        self.stats.set("generation_reuse_ratio", generated.reuse_ratio)
        if self.tracer is not None:
            now = self.browser.sim.now
            span = self.tracer.start_span(
                self._span_prefix + ".generate",
                t=now,
                parent=self._content_context(),
                node=self._node_name(),
                doc_time=self._doc_time,
                mode_key=mode_key,
                bytes=template.pre_len + len(EMPTY_ACTIONS_WIRE) + template.post_len,
                wall_seconds=generated.generation_seconds,
                urls_rewritten=generated.urls_rewritten,
                generation_mode=generated.mode,
                segments_reused=generated.segments_reused,
                dirty_subtrees=generated.dirty_subtrees,
            )
            span.finish(now)
            self._remember_content_context(self._doc_time, span.context)
        if self.enable_delta:
            self._store_snapshot(self._doc_time, mode_key, generated.canonical_root)
        return template

    def _rewrite_callables(self, mode_key: str, page_url: str, participant_id: str):
        """Stable ``(sign_target, should_cache)`` for a mode group.

        Cached per (mode key, page URL, auth state) so repeated
        generations hand the generator *identical* callable objects —
        the identity fence that lets it reuse the previous rewritten
        clone.  A mode key groups participants whose cache-policy
        decisions coincide, so the first member's id is representative
        for the whole group.
        """
        key = (mode_key, page_url, self._auth.enabled)
        pair = self._mode_callables.get(key)
        if pair is not None:
            self._mode_callables.move_to_end(key)
            return pair
        sign_target = None
        if self._auth.enabled:
            auth = self._auth
            sign_target = lambda target: auth.sign("GET", target)
        policy = self.cache_policy

        def should_cache(object_url, content_type, size):
            return policy.use_cache_for(
                participant_id, page_url, object_url, content_type, size
            )

        pair = self._mode_callables[key] = (sign_target, should_cache)
        while len(self._mode_callables) > 16:
            self._mode_callables.popitem(last=False)
        return pair

    # -- delta envelopes ---------------------------------------------------------------

    def _store_snapshot(self, doc_time: int, mode_key: str, tree) -> None:
        """Retain the canonical tree of a generated state in the ring.

        ``tree`` is the generator's incrementally-built canonical tree:
        it shares unchanged node objects with the previous snapshot,
        which is what lets the diff skip them by identity.
        """
        per_mode = self._snapshots.get(doc_time)
        if per_mode is None:
            while len(self._snapshots) >= max(1, self.delta_history):
                self._snapshots.popitem(last=False)
            per_mode = self._snapshots[doc_time] = {}
        if mode_key not in per_mode:
            per_mode[mode_key] = tree

    def _snapshot_tree(self, doc_time: int, mode_key: str):
        per_mode = self._snapshots.get(doc_time)
        return None if per_mode is None else per_mode.get(mode_key)

    def _delta_ops_json(self, their_time: int, mode_key: str) -> Optional[str]:
        """Memoized delta ops JSON for one base, or None when either
        snapshot has left the ring — one diff per base and document
        state, whatever the number of members asking for it."""
        ops_json = self._delta_memo.get((their_time, mode_key))
        if ops_json is not None:
            return ops_json
        old_tree = self._snapshot_tree(their_time, mode_key)
        new_tree = self._snapshot_tree(self._doc_time, mode_key)
        if old_tree is None or new_tree is None:
            return None
        ops = diff_trees(
            old_tree,
            new_tree,
            metrics=self.metrics,
            node=self._node_name(),
            cache=self._snapshot_keys,
        )
        ops_json = json.dumps(ops, separators=(",", ":"))
        self._delta_memo[(their_time, mode_key)] = ops_json
        if self.tracer is not None:
            now = self.browser.sim.now
            self.tracer.start_span(
                self._span_prefix + ".delta_diff",
                t=now,
                parent=self._content_context(),
                node=self._node_name(),
                base_time=their_time,
                doc_time=self._doc_time,
                ops=len(ops),
                bytes=len(ops_json),
            ).finish(now)
        return ops_json

    # -- serving (broadcast plans) --------------------------------------------------------

    def _full_plan(self, participant_id: str, mode_key: str) -> BroadcastPlan:
        """The full-envelope broadcast plan for a mode group, building
        it (once per document state) from the cached wire template."""
        if self._generated_for_time == self._doc_time:
            # Hot path: current-state plan already built — skip the
            # generation-cache walk entirely.
            plan = self._plans.get((0, mode_key))
            if plan is not None:
                return plan
        plan = BroadcastPlan(self._ensure_generated(participant_id), is_delta=False)
        self._plans[(0, mode_key)] = plan
        self.stats.inc("serve_plans_built")
        self._plans_built_n += 1
        return plan

    def _delta_plan(
        self,
        participant_id: str,
        their_time: int,
        mode_key: str,
        full_plan: BroadcastPlan,
    ) -> Optional[BroadcastPlan]:
        """The delta broadcast plan for one base, or None when the full
        envelope must be served instead.  Failures are remembered as
        :class:`PlanFallback` so co-due members of a hopeless base skip
        the diff — but their fallback stats/events still fire once per
        serve, exactly as if each member's diff had been tried."""
        entry = self._plans.get((their_time, mode_key))
        if entry is None:
            ops_json = self._delta_ops_json(their_time, mode_key)
            if ops_json is None:
                entry = PlanFallback("no-snapshot")
            else:
                plan = BroadcastPlan(
                    wire_delta_template(self._doc_time, their_time, ops_json),
                    is_delta=True,
                )
                if plan.empty_len >= full_plan.empty_len:
                    # A delta ships only when strictly shorter than the
                    # full envelope carrying the same actions; the
                    # actions bytes are identical on both candidates, so
                    # comparing empty-actions lengths is that comparison.
                    entry = PlanFallback(
                        "oversize",
                        delta_bytes=plan.empty_len,
                        full_bytes=full_plan.empty_len,
                    )
                else:
                    entry = plan
                    self.stats.inc("serve_plans_built")
                    self._plans_built_n += 1
            self._plans[(their_time, mode_key)] = entry
        if isinstance(entry, PlanFallback):
            self.stats.inc("delta_fallbacks")
            detail = dict(
                participant=participant_id,
                reason=entry.reason,
                base_time=their_time,
                doc_time=self._doc_time,
            )
            if entry.reason == "oversize":
                detail["delta_bytes"] = entry.delta_bytes
                detail["full_bytes"] = entry.full_bytes
            self._emit(DELTA_FALLBACK, **detail)
            return None
        self.stats.inc("delta_bytes_saved", full_plan.empty_len - entry.empty_len)
        return entry

    def _serve_body(
        self,
        participant_id: str,
        their_time: int,
        actions: List[UserAction],
        force_full: bool = False,
    ) -> Tuple[WirePlan, bool]:
        """The poll body for one participant: ``(WirePlan, is_delta)``.

        A delta plan when the participant's acknowledged ``their_time``
        is still in the snapshot ring and the diff is strictly smaller
        than the full envelope; the full plan in every other case —
        ``force_full``, delta disabled, brand-new participant, evicted
        snapshot, or an edit so large the diff loses.  Either way the
        page-sized bytes are shared by every co-due member; only the
        userActions payload is spliced per member.
        """
        mode_key = self.cache_policy.mode_key(participant_id)
        plan = self._full_plan(participant_id, mode_key)
        if not force_full and self.enable_delta and their_time > 0:
            # Inlined hit path: a built delta plan for this base is a
            # single dict probe away (the common case for co-due polls).
            entry = self._plans.get((their_time, mode_key))
            if entry is not None and type(entry) is BroadcastPlan:
                self.stats.inc("delta_bytes_saved", plan.empty_len - entry.empty_len)
                plan = entry
            else:
                delta = self._delta_plan(participant_id, their_time, mode_key, plan)
                if delta is not None:
                    plan = delta
        if plan.serves:
            self.stats.inc("serve_batched_polls")
            self._batched_polls_n += 1
        plan.serves += 1
        built = self._plans_built_n
        if built:
            self.stats.set(
                "serve_amortization", (self._batched_polls_n + built) / built
            )
        body = plan.personalize(self._actions_wire(actions) if actions else None)
        return body, plan.is_delta

    def _serve_content(self, participant: ParticipantState, their_time: int, force_full=False):
        """Serve one content envelope, draining the member's queued
        outbound actions into it, and count it: response kind, bytes,
        and the device's generation CPU when this serve ran generation.

        Generator; returns ``(WirePlan, is_delta)``.
        """
        actions, participant.outbound_actions = participant.outbound_actions, []
        generations_before = self._generation_count
        body, is_delta = self._serve_body(
            participant.participant_id, their_time, actions, force_full=force_full
        )
        size = len(body)
        if is_delta:
            self.stats.inc("delta_responses")
            self.stats.inc("delta_bytes_sent", size)
        else:
            self.stats.inc("full_responses")
            self.stats.inc("full_bytes_sent", size)
        if self.generation_cost_per_kb > 0 and self._generation_count > generations_before:
            # Charge the device's CPU time for the generation run.
            yield self.browser.sim.timeout(self.generation_cost_per_kb * size / 1024.0)
        participant.content_responses += 1
        self.stats.inc("content_responses")
        return body, is_delta

    def _actions_wire(self, actions: List[UserAction]) -> bytes:
        """The escaped userActions CDATA payload, memoized by action
        identity: a broadcast queues the *same* action objects on every
        participant, so co-due members pay one encode + escape total.
        The memo entry pins the action objects — while it lives their
        ids cannot be reused, so an id-tuple hit proves identity."""
        key = tuple(map(id, actions))
        entry = self._actions_memo.get(key)
        if entry is not None:
            return entry[1]
        wire = js_escape(encode_actions(actions)).encode("ascii")
        if len(self._actions_memo) >= 512:
            self._actions_memo.clear()
        self._actions_memo[key] = (tuple(actions), wire)
        return wire

    def _respond(
        self,
        body: WirePlan,
        trace_context: Optional[SpanContext] = None,
        participant: Optional[str] = None,
        kind: Optional[str] = None,
    ) -> HttpResponse:
        """Wrap a poll body in a 200, opening its cost record when
        attribution is on."""
        self.stats.inc("wire_bytes_zero_copy", body.zero_copy_bytes)
        self.stats.inc("wire_bytes_copied", body.copied_bytes)
        headers = Headers.preset(
            [_XML_CONTENT_TYPE, ("Content-Length", str(len(body)))]
        )
        if trace_context is not None:
            headers.set(TRACE_HEADER, format_trace_header(trace_context))
        response = HttpResponse(200, headers, body)
        if self.attribution is not None and participant is not None:
            response.attribution = self.attribution.begin(
                self._node_name(),
                participant,
                kind or "full",
                self._doc_time,
                body.buckets,
            )
        return response

    @property
    def generation_count(self) -> int:
        """How many times content generation actually ran (the envelope
        is reused across participants; paper §4.1.2)."""
        return self._generation_count

    # -- action moderation and application -----------------------------------------------------

    def _moderate(self, participant_id: str, action: UserAction):
        decision = self.policy.decide(participant_id, action)
        if decision == ModerationPolicy.APPLY:
            try:
                yield from self._apply_action(participant_id, action)
            except _ACTION_FAILURES:
                # A stale or hostile reference (the document may have
                # changed since the participant saw it) or a link that
                # fails to load must not take down the agent; drop the
                # action (a failed navigation leaves the host's page).
                self.stats.inc("action_errors")
                return
            self.stats.inc("actions_applied")
        elif decision == ModerationPolicy.HOLD:
            self.pending_actions.append(PendingAction(participant_id, action))
            self.stats.inc("actions_held")
        else:
            self.stats.inc("actions_dropped")

    def confirm_pending(self):
        """Host approves all held actions (ConfirmPolicy workflow).

        Generator process; returns how many actions were applied.
        """
        held, self.pending_actions = self.pending_actions, []
        applied = 0
        for pending in held:
            try:
                yield from self._apply_action(pending.participant_id, pending.action)
            except _ACTION_FAILURES:
                self.stats.inc("action_errors")
                continue
            self.stats.inc("actions_applied")
            applied += 1
        return applied

    def reject_pending(self) -> int:
        """Host discards all held actions."""
        count = len(self.pending_actions)
        self.pending_actions = []
        self.stats.inc("actions_dropped", count)
        return count

    def _apply_action(self, participant_id: str, action: UserAction):
        browser = self.browser
        document = browser.page.document if browser.page else None
        if document is None:
            return

        if isinstance(action, FormFillAction):
            # Merge the participant's form data into the host's form.
            form = resolve_reference(document, action.form_ref)

            def merge(_document):
                for name, value in action.fields.items():
                    field = Browser._find_form_field(form, name)
                    if field is not None:
                        browser.fill_field(field, value)

            browser.mutate_document(merge)
        elif isinstance(action, SubmitAction):
            form = resolve_reference(document, action.form_ref)
            yield from browser.submit_form(form, action.fields)
        elif isinstance(action, ClickAction):
            element = resolve_reference(document, action.ref)
            if element.tag == "a":
                yield from browser.click_link(element)
            else:
                browser.dispatch_event(element, "click")
        elif isinstance(action, (MouseMoveAction, ScrollAction)):
            # Cosmetic mirroring: forward to every other participant.
            self.broadcast_action(action, exclude=participant_id)
        else:
            # Presence snapshots and unknown future kinds are not
            # participant-appliable; ignore them.
            self.stats.inc("action_errors")

    def broadcast_action(self, action: UserAction, exclude: Optional[str] = None) -> None:
        """Queue an action for delivery to all (other) participants —
        used for host-side pointer mirroring and participant fan-out."""
        for participant_id, state in self.participants.items():
            if participant_id != exclude:
                state.outbound_actions.append(action)
                # A held poll must deliver queued actions now, not at
                # its hold timeout.
                self._wake_member(state)

    # -- authentication ---------------------------------------------------------------------------

    def _authenticate(self, request: HttpRequest) -> bool:
        if not self._auth.verify(request.method, request.target, request.body):
            self.stats.inc("auth_failures")
            self._emit(HMAC_REJECT, method=request.method, path=request.path)
            return False
        return True

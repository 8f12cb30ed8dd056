"""Cascaded relay fan-out: participant-tier content distribution.

In the paper every participant polls the single RCB-Agent in the host
browser, so host CPU and uplink bytes grow linearly with session size.
A :class:`RelayAgent` breaks that wall with a topology built entirely
out of pieces RCB already has: it is *simultaneously* a participant (an
Ajax-Snippet polling its upstream over the normal timestamp protocol)
and an agent (the inherited RCB-Agent request loop re-serving the
received content to downstream participants).  Sessions become trees:

    host agent  <-  relay  <-  relay  <-  leaf participants
                (each node serves at most ``branching`` children)

Design points:

* **Timestamps propagate unchanged.**  A relay never stamps its own
  clock; its ``doc_time`` is the upstream envelope's ``doc_time``, so a
  participant's acknowledged timestamp means the same thing at every
  tier and synchronization barriers keep working end to end.
* **Deltas recompute per tier.**  The relay's browser applies full and
  delta envelopes like any participant; the inherited snapshot ring then
  diffs the relay's *own* document states, so downstream children get
  delta envelopes with the same doc-time keys the root would use.
* **Objects are re-served too.**  In cache mode the relay's browser has
  already fetched every supplementary object; regeneration rewrites the
  object URLs once more, to the relay's ``/obj`` endpoint, moving object
  traffic off the host's uplink as well.
* **Actions forward up, mirror down.**  Participant actions piggybacked
  to a relay are forwarded upstream (the host's moderation policy stays
  the single authority); cosmetic actions are mirrored to sibling
  children immediately, because the root's broadcast excludes this
  relay's whole subtree.
* **Failure handling.**  When the upstream dies, the relay re-attaches
  — grandparent first, root as last resort — with jittered backoff so
  orphaned siblings do not stampede the survivor, and *without*
  renavigating, so its document (and its children's sync state) is
  preserved across the failover.
* **Same HMAC authentication.**  One session secret end to end: the
  relay signs its upstream polls and verifies its downstream requests
  with the inherited machinery.  A forged relay that does not know the
  secret receives only 401s upstream and can never serve content.

Browser-based re-serving trees are a proven scaling pattern — see
*Browser-based distributed evolutionary computation* (Merelo et al.) and
*WebNC* (Denoue et al.) — and here they make session size a property of
the tree, not of the host.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..http import RequestFailed
from ..net.socket import NetworkError
from ..obs import RELAY_DEATH, RELAY_REATTACH, EventBus, MetricsRegistry, Tracer
from ..sim import Interrupt
from .actions import MouseMoveAction, ScrollAction, UserAction
from .agent import AGENT_DEFAULT_PORT, RCBAgent
from .snippet import AjaxSnippet, BackoffPolicy, _lift_snippet_script, _restore_snippet_script
from .xmlformat import NewContent, WireTemplate

__all__ = ["RelayAgent"]


class RelayAgent(RCBAgent):
    """A participant-tier relay: polls upstream, re-serves downstream.

    Install on any participant's browser (it *is* that participant's
    membership in the session), then drive :meth:`connect_upstream` to
    join.  Downstream participants — leaves or further relays — connect
    to :attr:`url` exactly as they would to the host agent.
    """

    #: Relay spans read relay.generate / relay.serve / relay.delta_diff.
    _span_prefix = "relay"

    def __init__(
        self,
        upstream_url: str,
        port: int = AGENT_DEFAULT_PORT,
        secret: Optional[str] = None,
        relay_id: Optional[str] = None,
        browser_type: str = "firefox",
        fetch_objects: bool = True,
        enable_delta: bool = True,
        delta_history: int = 8,
        transport=None,
        poll_backoff: Optional[BackoffPolicy] = None,
        reattach_backoff: Optional[BackoffPolicy] = None,
        on_reattach: Optional[Callable[["RelayAgent", str], None]] = None,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        events: Optional[EventBus] = None,
        attribution=None,
        telemetry=None,
    ):
        # The inherited ``poll_interval`` is a placeholder until
        # connect_upstream adopts the upstream's advertised cadence.
        super().__init__(
            port=port,
            secret=secret,
            enable_delta=enable_delta,
            delta_history=delta_history,
            transport=transport,
            metrics=metrics,
            tracer=tracer,
            metrics_node=relay_id,
            events=events,
            attribution=attribution,
            # The relay's own ClientTelemetry is also its downstream
            # sink: children's digests merge into it and ride the next
            # upstream poll — one bounded blob per tier.
            telemetry=telemetry,
        )
        self.upstream_url = upstream_url
        #: This relay's participant id at its upstream (defaults to the
        #: browser name once installed).
        self.relay_id = relay_id
        self.browser_type = browser_type
        self.fetch_objects = fetch_objects
        #: Retry pacing for the upstream snippet's failed polls.
        self.poll_backoff = poll_backoff
        #: Mode the upstream-facing snippet requests.  Starts at this
        #: relay's own default; tracks the upstream's grants so a
        #: negotiated mode survives upstream death and re-attachment.
        self._upstream_mode = self.transport.mode
        #: Jittered pacing between re-attachment attempts after the
        #: upstream died (shared policy with the snippet's poll retry).
        self.reattach_backoff = reattach_backoff or BackoffPolicy(
            base=0.5, cap=8.0, jitter=0.25, multiplier=2.0, seed=0
        )
        #: Ancestor URLs tried on upstream death: grandparent first,
        #: the root agent as last resort (see :meth:`set_fallbacks`).
        self.fallback_urls: List[str] = []
        #: Called with ``(relay, new_upstream_url)`` after a successful
        #: re-attachment (the session uses this to update its tree).
        self.on_reattach = on_reattach

        #: The upstream-facing Ajax-Snippet (None until connected).
        self.upstream: Optional[AjaxSnippet] = None
        #: Actions awaiting an upstream to forward them to.
        self._pending_upstream: List[UserAction] = []
        self._reattach_proc = None
        self._shutting_down = False

        for key in ("actions_forwarded", "upstream_failures", "reattachments"):
            self.stats.declare_counter(key)

    # -- extension lifecycle -----------------------------------------------------------

    def on_install(self) -> None:
        """Open the downstream port and start accepting.

        Unlike the root agent, a relay does not observe its browser's
        document events: its document changes only when upstream content
        is applied, and its ``doc_time`` is adopted from the envelopes.
        """
        browser = self.browser
        if self.relay_id is None:
            self.relay_id = browser.name
        self._listener = browser.host.listen(self.port)
        self._accept_proc = browser.sim.process(self._accept_loop())

    def on_uninstall(self) -> None:
        """Stop polling upstream, close the port, drop connections."""
        self._shutting_down = True
        if self._reattach_proc is not None and self._reattach_proc.is_alive:
            self._reattach_proc.interrupt("relay uninstalled")
        self._reattach_proc = None
        if self.upstream is not None:
            self.upstream.disconnect()
            self.upstream = None
        self._close_port()

    # -- upstream membership ------------------------------------------------------------

    def connect_upstream(self):
        """Join the session at :attr:`upstream_url`.

        Generator process (like :meth:`AjaxSnippet.connect`): navigates
        the relay's browser to the upstream, arms the polling loop, and
        returns the initial page.
        """
        if self.browser is None:
            raise RuntimeError("install the relay on a browser first")
        snippet = self._make_snippet(self.upstream_url, first=True)
        page = yield from snippet.connect()
        # Tiers inherit the root's advertised polling cadence.
        self.poll_interval = snippet.poll_interval
        self._adopt_snippet(snippet, self.upstream_url)
        return page

    def set_fallbacks(self, urls: List[str]) -> None:
        """Replace the re-attachment chain (grandparent ... root)."""
        self.fallback_urls = list(urls)

    @property
    def connected(self) -> bool:
        """Whether the upstream polling channel is currently up."""
        return self.upstream is not None and self.upstream.connected

    def _make_snippet(self, url: str, first: bool = False) -> AjaxSnippet:
        snippet = AjaxSnippet(
            self.browser,
            url,
            participant_id=self.relay_id,
            secret=self.secret,
            poll_interval=None if first else self.poll_interval,
            browser_type=self.browser_type,
            fetch_objects=self.fetch_objects,
            backoff=self.poll_backoff,
            transport=self._upstream_mode,
            metrics=self.metrics,
            tracer=self.tracer,
            events=self.events,
            # Relay-owned reporter: survives upstream death and
            # re-attachment, so unflushed records ride the new channel.
            telemetry=self.telemetry,
        )
        snippet.apply_span_name = "relay.apply"
        # Resuming mid-session: tell the upstream what we already have,
        # so it can answer with a delta instead of the full envelope.
        snippet.last_doc_time = self._doc_time
        # Bind the snippet into the callback: during a re-attachment race
        # the relay must credit content (and its trace context) to the
        # channel that actually delivered it, not just the current one.
        snippet.on_content = lambda content, s=snippet: self._on_upstream_content(content, s)
        snippet.on_actions = self._on_upstream_actions
        snippet.on_disconnect = self._on_upstream_disconnect
        return snippet

    def _adopt_snippet(self, snippet: AjaxSnippet, url: str) -> None:
        previous, self.upstream = self.upstream, snippet
        if previous is not None and previous.connected:
            previous.disconnect()
        self.upstream_url = url
        self._upstream_mode = snippet.transport_mode
        if self._pending_upstream:
            pending, self._pending_upstream = self._pending_upstream, []
            for action in pending:
                snippet.queue_action(action)

    # -- upstream event hooks -----------------------------------------------------------

    def _on_upstream_content(
        self, content: NewContent, snippet: Optional[AjaxSnippet] = None
    ) -> None:
        # Remember which apply span produced this document state *before*
        # advancing doc_time (which may wake long-poll waiters that serve
        # immediately) — downstream serve spans parent under it, keeping
        # the trace connected across tiers.
        if snippet is not None and snippet.last_apply_context is not None:
            self._remember_content_context(content.doc_time, snippet.last_apply_context)
        # Adopt the upstream's timestamp unchanged: consistent doc_time
        # across tiers is what keeps the protocol honest end to end.
        self._set_doc_time(content.doc_time)

    def _on_upstream_actions(self, actions: List[UserAction]) -> None:
        # Fan host-mirrored actions down to every child.
        for action in actions:
            self.broadcast_action(action)

    def _on_upstream_disconnect(self) -> None:
        if self._shutting_down or self.browser is None:
            return
        self.stats.inc("upstream_failures")
        self._emit(RELAY_DEATH, reason="upstream-lost", upstream=self.upstream_url)
        dead = self.upstream
        if dead is not None:
            # Salvage actions the dead channel never delivered, and the
            # negotiated mode so re-attachment resumes it.
            self._pending_upstream.extend(dead._outgoing)
            dead._outgoing = []
            self._upstream_mode = dead.transport_mode
        self.upstream = None
        if self._reattach_proc is None or not self._reattach_proc.is_alive:
            self._reattach_proc = self.browser.sim.process(self._reattach_loop())

    # -- failure handling: re-attachment --------------------------------------------------

    def _reattach_loop(self):
        """Climb the ancestor chain until some upstream answers.

        Grandparent first, then further ancestors, the root last — and
        keep retrying the last resort forever (the session may be
        healing).  Jittered backoff spaces the attempts so orphaned
        siblings spread their load.
        """
        candidates = self.fallback_urls or [self.upstream_url]
        attempt = 0
        try:
            while not self._shutting_down:
                attempt += 1
                url = candidates[min(attempt - 1, len(candidates) - 1)]
                yield self.browser.sim.timeout(self.reattach_backoff.delay(attempt))
                if self._shutting_down:
                    return
                snippet = self._make_snippet(url)
                try:
                    yield from snippet.attach(self.poll_interval)
                except (RequestFailed, NetworkError):
                    continue  # unreachable — try the next ancestor
                self._adopt_snippet(snippet, url)
                self.stats.inc("reattachments")
                self._emit(RELAY_REATTACH, upstream=url, attempts=attempt)
                if self.on_reattach is not None:
                    self.on_reattach(self, url)
                return
        except Interrupt:
            return

    # -- request processing overrides ----------------------------------------------------

    def _moderate(self, participant_id: str, action: UserAction):
        """Relays apply nothing locally: the host's moderation policy is
        the single authority, so every action forwards upstream on the
        next poll.  Cosmetic actions also mirror to sibling children
        immediately (the root's broadcast excludes this whole subtree).
        """
        if isinstance(action, (MouseMoveAction, ScrollAction)):
            self.broadcast_action(action, exclude=participant_id)
        self.forward_upstream(action)
        return
        yield  # pragma: no cover - makes this a generator function

    def forward_upstream(self, action: UserAction) -> None:
        """Piggyback ``action`` on the relay's next upstream poll."""
        self.stats.inc("actions_forwarded")
        if self.upstream is not None:
            self.upstream.queue_action(action)
        else:
            # Upstream is down; deliver after re-attachment.
            self._pending_upstream.append(action)

    def _generate(self, participant_id: str, mode_key: str) -> WireTemplate:
        """Regenerate with the relay's own Ajax-Snippet lifted out.

        The relay's head keeps its snippet <script> (step 1 of the
        Fig. 5 update preserves it), but the root's envelopes never
        carry one — downstream documents must match the root's shape,
        or children's delta bases would diverge tier by tier.
        Generation only reads the document, so the relay's own object
        scan is carried over the lift-out and back.
        """
        page = self.browser.page
        scan_current = page.object_scan_current
        snippet_script = _lift_snippet_script(page.document)
        try:
            return super()._generate(participant_id, mode_key)
        finally:
            _restore_snippet_script(page.document, snippet_script)
            if scan_current:
                page.carry_object_scan()

    def __repr__(self):
        return "RelayAgent(%s -> %s, %d children)" % (
            self.relay_id,
            self.upstream_url,
            len(self.participants),
        )

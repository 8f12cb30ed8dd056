"""Co-browsing session orchestration.

Ties together a host browser running :class:`~repro.core.agent.RCBAgent`
and any number of participant browsers running
:class:`~repro.core.snippet.AjaxSnippet`.  This is the high-level public
API most examples and benchmarks drive:

    session = CoBrowsingSession(host_browser, port=3000)
    snippet = run(session.join(participant_browser))
    run(session.host_navigate("http://site.com/"))
    run(session.wait_until_synced())

Topologies are free-form (paper §3.3): a browser may host one session
and join others; participants may join or leave at any time.

Two distribution modes:

* **Flat** (the paper's): every participant polls the host agent
  directly.  Host load is O(N).
* **Fan-out tree** (:meth:`CoBrowsingSession.fanout_tree`): every
  joining participant runs a :class:`~repro.core.relay.RelayAgent` and
  is attached to the least-loaded node with a free child slot, so the
  host serves at most ``branching`` direct children and content cascades
  down the tiers.  Host load is O(branching); relay deaths heal by
  re-attaching orphans to their grandparent (root as last resort).
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Union

from ..browser.browser import Browser
from ..obs import (
    RELAY_DEATH,
    ClientTelemetry,
    EventBus,
    FleetView,
    Histogram,
    MetricsRegistry,
    Tracer,
)
from .agent import AGENT_DEFAULT_PORT, RCBAgent
from .policy import ModerationPolicy
from .relay import RelayAgent
from .snippet import AjaxSnippet, BackoffPolicy
from .transport import AdaptiveTransportController

__all__ = ["CoBrowsingSession", "SessionError"]

#: Orphan re-attachment pacing after a relay death: exponential from
#: 0.5 s to 8 s with ±25% jitter (each relay derives its own stream).
_REATTACH_BACKOFF = BackoffPolicy(base=0.5, cap=8.0, jitter=0.25, multiplier=2.0)

#: Tree-node id of the host agent (never a participant id: those default
#: to browser host names, which are non-empty).
_ROOT = ""


class SessionError(Exception):
    """Session-level misuse (joining twice, syncing with no page...)."""


class _TreeNode:
    """Fan-out bookkeeping for one node (the root agent or a relay)."""

    __slots__ = ("node_id", "url", "parent", "children", "depth", "order")

    def __init__(self, node_id: str, url: str, parent: Optional[str], depth: int, order: int):
        self.node_id = node_id
        self.url = url
        self.parent = parent
        self.children: List[str] = []
        self.depth = depth
        self.order = order

    def __repr__(self):
        return "_TreeNode(%r, depth=%d, %d children)" % (
            self.node_id,
            self.depth,
            len(self.children),
        )


class CoBrowsingSession:
    """One host-moderated co-browsing session."""

    def __init__(
        self,
        host_browser: Browser,
        port: int = AGENT_DEFAULT_PORT,
        cache_mode: bool = True,
        policy: Optional[ModerationPolicy] = None,
        secret: Optional[str] = None,
        poll_interval: float = 1.0,
        enable_delta: bool = True,
        transport=None,
        backoff: Optional[BackoffPolicy] = None,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        events: Optional[EventBus] = None,
        attribution=None,
        telemetry=None,
    ):
        self.host_browser = host_browser
        self.sim = host_browser.sim
        # ``telemetry`` opts the whole session into the fleet telemetry
        # plane: a FleetView instance, or any truthy value for one with
        # defaults.  Off (None/False) keeps every poll body
        # byte-identical to the seed wire format.
        if telemetry is not None and not isinstance(telemetry, FleetView):
            telemetry = FleetView() if telemetry else None
        self.agent = RCBAgent(
            port=port,
            cache_mode=cache_mode,
            policy=policy,
            secret=secret,
            poll_interval=poll_interval,
            enable_delta=enable_delta,
            transport=transport,
            metrics=metrics,
            tracer=tracer,
            metrics_node=host_browser.name,
            events=events,
            attribution=attribution,
            telemetry=telemetry,
        )
        #: The session-wide registry/tracer/event-bus/byte-sink every
        #: member publishes into.
        self.metrics = self.agent.metrics
        self.tracer = self.agent.tracer
        self.events = self.agent.events
        self.attribution = self.agent.attribution
        if self.attribution is not None and self.attribution.tier_of is None:
            # Wire the tier resolver so rollups can group members by
            # relay-tree depth.
            self.attribution.tier_of = self.member_tier
        #: Host-side fleet view (None unless telemetry was requested).
        self.fleet = self.agent.telemetry
        if self.fleet is not None and getattr(self.fleet, "tier_of", None) is None:
            self.fleet.tier_of = self.member_tier
        if self.events is not None:
            # Satellite: surface ring-buffer eviction counts as gauges.
            self.events.attach_registry(self.metrics)
        self.agent.install(host_browser)
        self.participants: Dict[str, AjaxSnippet] = {}
        #: Fan-out mode: participant id -> its RelayAgent.
        self.relays: Dict[str, RelayAgent] = {}
        #: Poll-retry pacing handed to every member (each gets its own
        #: RNG stream via :meth:`BackoffPolicy.derive`).  None keeps the
        #: original constant-delay retry.
        self.backoff = backoff

        #: The :class:`~repro.core.shard.AgentPool` serving this session
        #: (the pool registers itself; None outside sharded serving).
        self.pool = None

        self.branching: Optional[int] = None
        self._relay_port = AGENT_DEFAULT_PORT
        self._tree_rng: Optional[random.Random] = None
        self._nodes: Dict[str, _TreeNode] = {}
        self._join_order = 0

    # -- membership -----------------------------------------------------------------

    def fanout_tree(
        self,
        branching: int = 4,
        relay_port: int = AGENT_DEFAULT_PORT,
        seed: Optional[int] = None,
    ) -> None:
        """Switch joins to cascaded-relay mode.

        Every subsequent :meth:`join` installs a
        :class:`~repro.core.relay.RelayAgent` on the participant's
        browser and attaches it to the least-loaded node with a free
        slot, so no node — the host included — ever serves more than
        ``branching`` direct children.  Orphans re-attach after a relay
        death with :data:`_REATTACH_BACKOFF`.  ``seed`` makes
        attach-point tie-breaking draw from a fixed RNG stream instead
        of join order, so scale benchmarks get reproducible-but-unbiased
        tree shapes; None keeps the earliest-joined rule.
        """
        if branching < 1:
            raise SessionError("branching must be at least 1")
        if self.branching is not None:
            raise SessionError("fanout_tree() was already enabled")
        self.branching = branching
        self._tree_rng = random.Random(seed) if seed is not None else None
        self._relay_port = relay_port
        self._nodes[_ROOT] = _TreeNode(_ROOT, self.agent.url, None, 0, 0)
        self._join_order = 1

    def join(
        self,
        participant_browser: Browser,
        participant_id: Optional[str] = None,
        browser_type: str = "firefox",
        fetch_objects: bool = True,
    ):
        """A participant joins: generator process returning its snippet
        (flat mode) or its :class:`RelayAgent` (fan-out mode).

        The participant only needs a regular JavaScript-enabled browser;
        everything it runs arrives with the initial page.
        """
        if not participant_browser.javascript_enabled:
            raise SessionError(
                "participant browsers must have JavaScript enabled (paper §1)"
            )
        if self.branching is not None:
            relay = yield from self._join_fanout(
                participant_browser, participant_id, browser_type, fetch_objects
            )
            return relay
        snippet = AjaxSnippet(
            participant_browser,
            self.agent.url,
            participant_id=participant_id,
            secret=self.agent.secret,
            browser_type=browser_type,
            fetch_objects=fetch_objects,
            backoff=self._derive_backoff(participant_id or participant_browser.name),
            transport=self.agent.transport.mode,
            metrics=self.metrics,
            tracer=self.tracer,
            events=self.events,
            telemetry=self._member_telemetry(
                participant_id or participant_browser.name
            ),
        )
        yield from snippet.connect()
        if snippet.participant_id in self.participants:
            snippet.disconnect()
            raise SessionError("participant id %r already joined" % snippet.participant_id)
        self.participants[snippet.participant_id] = snippet
        self._update_membership_gauge()
        return snippet

    def _derive_backoff(self, member_id: str) -> Optional[BackoffPolicy]:
        if self.backoff is None:
            return None
        return self.backoff.derive(member_id)

    def _member_telemetry(self, member_id: str):
        """A per-member digest reporter, or None when the fleet
        telemetry plane is off (keeping the wire byte-identical)."""
        if self.fleet is None:
            return None
        return ClientTelemetry(
            member_id,
            byte_cap=self.fleet.byte_cap,
            flush_interval=self.fleet.flush_interval,
        )

    def _join_fanout(
        self,
        participant_browser: Browser,
        participant_id: Optional[str],
        browser_type: str,
        fetch_objects: bool,
    ):
        member_id = participant_id or participant_browser.name
        if member_id in self.relays or member_id in self.participants:
            raise SessionError("participant id %r already joined" % member_id)
        parent = self._least_loaded_node()
        relay = RelayAgent(
            upstream_url=parent.url,
            port=self._relay_port,
            secret=self.agent.secret,
            relay_id=member_id,
            browser_type=browser_type,
            fetch_objects=fetch_objects,
            enable_delta=self.agent.enable_delta,
            delta_history=self.agent.delta_history,
            transport=self.agent.transport.mode,
            poll_backoff=self._derive_backoff(member_id),
            reattach_backoff=_REATTACH_BACKOFF.derive(member_id),
            on_reattach=self._on_relay_reattach,
            metrics=self.metrics,
            tracer=self.tracer,
            events=self.events,
            attribution=self.attribution,
            telemetry=self._member_telemetry(member_id),
        )
        relay.install(participant_browser)
        try:
            yield from relay.connect_upstream()
        except BaseException:
            relay.uninstall()
            raise
        node = _TreeNode(
            member_id, relay.url, parent.node_id, parent.depth + 1, self._join_order
        )
        self._join_order += 1
        parent.children.append(member_id)
        self._nodes[member_id] = node
        self.relays[member_id] = relay
        relay.set_fallbacks(self._fallbacks_for(node))
        self._update_membership_gauge()
        return relay

    def _update_membership_gauge(self) -> None:
        self.metrics.gauge("session_members").set(
            len(self.participants) + len(self.relays)
        )

    def _least_loaded_node(self) -> _TreeNode:
        """The attach point for the next joiner: among nodes with a free
        child slot, the shallowest, least-filled, earliest-joined — so
        tiers fill breadth-first and the tree never degenerates into a
        chain."""
        candidates = [
            node for node in self._nodes.values() if len(node.children) < self.branching
        ]
        if self._tree_rng is not None:
            best = min((n.depth, len(n.children)) for n in candidates)
            tied = [n for n in candidates if (n.depth, len(n.children)) == best]
            return self._tree_rng.choice(sorted(tied, key=lambda n: n.order))
        return min(candidates, key=lambda n: (n.depth, len(n.children), n.order))

    def _fallbacks_for(self, node: _TreeNode) -> List[str]:
        """The re-attachment chain for ``node``: grandparent first, then
        farther ancestors, the root agent always last."""
        chain: List[str] = []
        parent = self._nodes.get(node.parent) if node.parent is not None else None
        ancestor = self._nodes.get(parent.parent) if parent and parent.parent is not None else None
        while ancestor is not None and ancestor.node_id != _ROOT:
            chain.append(ancestor.url)
            ancestor = (
                self._nodes.get(ancestor.parent) if ancestor.parent is not None else None
            )
        chain.append(self.agent.url)
        return chain

    def _node_by_url(self, url: str) -> Optional[_TreeNode]:
        for node in self._nodes.values():
            if node.url == url:
                return node
        return None

    def _on_relay_reattach(self, relay: RelayAgent, url: str) -> None:
        """A relay re-homed itself after its parent died: move its
        subtree in the bookkeeping and refresh the fallback chains."""
        node = self._nodes.get(relay.relay_id)
        if node is None:
            return
        old_parent = self._nodes.get(node.parent) if node.parent is not None else None
        if old_parent is not None and node.node_id in old_parent.children:
            old_parent.children.remove(node.node_id)
        new_parent = self._node_by_url(url) or self._nodes[_ROOT]
        node.parent = new_parent.node_id
        new_parent.children.append(node.node_id)
        self._reroot_depths(node, new_parent.depth + 1)
        self._refresh_fallbacks(node)

    def _reroot_depths(self, node: _TreeNode, depth: int) -> None:
        node.depth = depth
        for child_id in node.children:
            child = self._nodes.get(child_id)
            if child is not None:
                self._reroot_depths(child, depth + 1)

    def _refresh_fallbacks(self, node: _TreeNode) -> None:
        relay = self.relays.get(node.node_id)
        if relay is not None:
            relay.set_fallbacks(self._fallbacks_for(node))
        for child_id in node.children:
            child = self._nodes.get(child_id)
            if child is not None:
                self._refresh_fallbacks(child)

    def fail_relay(self, participant_id: str) -> RelayAgent:
        """Kill a relay mid-session (failure injection).

        The relay's port closes and its established connections drop, so
        its children's polls start failing; they re-attach to their
        grandparent (root as last resort) on their own.  Returns the
        dead relay for inspection.
        """
        relay = self.relays.pop(participant_id, None)
        if relay is None:
            raise SessionError("no relay %r in this session" % participant_id)
        if self.events is not None:
            dead_node = self._nodes.get(participant_id)
            self.events.emit(
                RELAY_DEATH,
                self.sim.now,
                node=participant_id,
                reason="injected",
                children=len(relay.participants),
                tier=dead_node.depth if dead_node is not None else None,
            )
        self._update_membership_gauge()
        node = self._nodes.pop(participant_id, None)
        if node is not None and node.parent is not None:
            parent = self._nodes.get(node.parent)
            if parent is not None and participant_id in parent.children:
                parent.children.remove(participant_id)
            self._upstream_server(node.parent).disconnect(participant_id)
        # Orphaned children keep their (now dangling) parent pointer
        # until their own re-attachment reports the new location.
        relay.uninstall()
        return relay

    def _upstream_server(self, node_id: str) -> RCBAgent:
        return self.agent if node_id == _ROOT else self.relays[node_id]

    def leave(self, member: Union[AjaxSnippet, RelayAgent]) -> None:
        """A participant leaves: stop polling, drop bookkeeping.

        A leaving relay is handled like a failed one — its children
        notice the dead port and re-attach to an ancestor.
        """
        if isinstance(member, RelayAgent):
            if member.relay_id in self.relays:
                self.fail_relay(member.relay_id)
            return
        member.disconnect()
        self.participants.pop(member.participant_id, None)
        self.agent.disconnect(member.participant_id)
        self._update_membership_gauge()

    def close(self) -> None:
        """Disconnect every participant and uninstall the agent."""
        if self.pool is not None:
            self.pool.close()
            self.pool = None
        for snippet in list(self.participants.values()):
            self.leave(snippet)
        for relay in list(self.relays.values()):
            relay.uninstall()
        self.relays.clear()
        self._nodes.clear()
        self.agent.uninstall()

    # -- host-side driving -------------------------------------------------------------

    def host_navigate(self, url, **kwargs):
        """Host visits a page (generator process returning the Page)."""
        page = yield from self.host_browser.navigate(url, **kwargs)
        return page

    def adaptive_transport(self, monitor, **kwargs) -> AdaptiveTransportController:
        """An :class:`~repro.core.transport.AdaptiveTransportController`
        wired to this session's agent and the given health monitor.  The
        caller starts it: ``sim.process(controller.run())``."""
        return AdaptiveTransportController(self, monitor, agent=self.agent, **kwargs)

    # -- synchronization barriers -----------------------------------------------------------

    def _member_time(self, member: Union[AjaxSnippet, RelayAgent]) -> int:
        """A member's acknowledged timestamp — a snippet's last applied
        envelope, or a relay's adopted upstream time (both advance only
        after the content is fully applied)."""
        if isinstance(member, RelayAgent):
            return member.doc_time
        return member.last_doc_time

    def member_times(self) -> Dict[str, int]:
        """Every member's acknowledged timestamp (ms), by member id —
        the raw staleness signal the SLO engine samples."""
        times: Dict[str, int] = {
            member_id: self._member_time(snippet)
            for member_id, snippet in self.participants.items()
        }
        for member_id, relay in self.relays.items():
            times[member_id] = self._member_time(relay)
        return times

    def member_tier(self, member_id: str) -> Optional[int]:
        """The fan-out tier a member serves at (None when flat/unknown)."""
        node = self._nodes.get(member_id)
        return node.depth if node is not None else None

    def is_synced(
        self, snippet: Optional[Union[AjaxSnippet, RelayAgent]] = None
    ) -> bool:
        """Whether the participant(s) have the host's latest content."""
        if snippet is not None:
            members = [snippet]
        else:
            members = list(self.participants.values()) + list(self.relays.values())
        return all(self._member_time(m) >= self.agent.doc_time for m in members)

    def wait_until_synced(
        self,
        snippet: Optional[Union[AjaxSnippet, RelayAgent]] = None,
        timeout: float = 60.0,
    ):
        """Generator process: block until content is synchronized.

        Returns the simulated time spent waiting.  Raises
        :class:`SessionError` after ``timeout`` simulated seconds.
        """
        started = self.sim.now
        while not self.is_synced(snippet):
            if self.sim.now - started > timeout:
                raise SessionError("synchronization timed out")
            yield self.sim.timeout(0.05)
        return self.sim.now - started

    # -- fan-out accounting ------------------------------------------------------------

    def tree_depth(self) -> int:
        """Deepest participant tier (0 when flat or empty)."""
        if not self._nodes:
            return 0
        return max(node.depth for node in self._nodes.values())

    def relay_summary(self) -> Dict[str, object]:
        """Fan-out accounting, read by the relay ablation benchmark and
        the health engine's per-tier sync rule.

        ``host_content_bytes`` is what the root's uplink actually
        carried in envelopes; ``relay_content_bytes`` is the envelope
        traffic the relays absorbed — bytes the host's uplink *saved*.
        Per-tier rows carry node counts, polls served, content bytes
        served, the mean last content-sync latency observed at that
        tier's upstream links, and the tier's sync-latency distribution
        (``sync_p50``/``sync_p95``/``sync_p99``, merged from each
        member's registry histogram).
        """
        root_stats = self.agent.stats
        tiers: Dict[int, Dict[str, object]] = {}
        tier_histograms: Dict[int, Histogram] = {}
        totals = {"content_bytes": 0, "object_requests": 0, "reattachments": 0}
        for node_id, relay in self.relays.items():
            node = self._nodes.get(node_id)
            depth = node.depth if node is not None else 1
            tier = tiers.setdefault(
                depth,
                {"nodes": 0, "polls": 0, "content_bytes": 0, "sync_samples": []},
            )
            tier["nodes"] += 1
            tier["polls"] += relay.stats["polls"]
            served = relay.stats["full_bytes_sent"] + relay.stats["delta_bytes_sent"]
            tier["content_bytes"] += served
            if relay.upstream is not None:
                tier["sync_samples"].append(relay.upstream.stats.last_sync_seconds)
                aggregate = tier_histograms.get(depth)
                if aggregate is None:
                    aggregate = tier_histograms[depth] = Histogram("tier_sync_seconds", ())
                aggregate.merge(relay.upstream.stats.histogram("sync_seconds"))
            totals["content_bytes"] += served
            totals["object_requests"] += relay.stats["object_requests"]
            totals["reattachments"] += relay.stats["reattachments"]
        for depth, tier in tiers.items():
            samples = tier.pop("sync_samples")
            tier["mean_sync_seconds"] = (
                sum(samples) / len(samples) if samples else 0.0
            )
            aggregate = tier_histograms.get(depth)
            tier["sync_p50"] = aggregate.p50 if aggregate else 0.0
            tier["sync_p95"] = aggregate.p95 if aggregate else 0.0
            tier["sync_p99"] = aggregate.p99 if aggregate else 0.0
        return {
            "branching": self.branching,
            "members": len(self.relays) + len(self.participants),
            "relays": len(self.relays),
            "depth": self.tree_depth(),
            "host_polls": root_stats["polls"],
            "host_content_bytes": root_stats["full_bytes_sent"]
            + root_stats["delta_bytes_sent"],
            "host_object_requests": root_stats["object_requests"],
            "relay_content_bytes": totals["content_bytes"],
            "relay_object_requests": totals["object_requests"],
            "reattachments": totals["reattachments"],
            "tiers": {depth: tiers[depth] for depth in sorted(tiers)},
        }

    def __repr__(self):
        mode = "flat" if self.branching is None else "fanout(k=%d)" % self.branching
        return "CoBrowsingSession(host=%r, %d participants, %s)" % (
            self.host_browser.name,
            len(self.participants) + len(self.relays),
            mode,
        )

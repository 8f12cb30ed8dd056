"""Sharded multi-agent serving: a session directory over a pool of hosts.

One :class:`~repro.core.agent.RCBAgent` is the throughput ceiling of
everything before this module: every poll, diff, and serve funnels
through a single host loop, so the fleet cannot grow past what one
agent answers per tick.  This module converts the single-host serving
path into a **pool of hosts** behind a consistent-hash directory:

* :class:`SessionDirectory` — maps member ids to agent instances on a
  virtual-node hash ring with the *bounded-load* refinement (no
  instance holds more than ``ceil(load_factor * K / N)`` keys), so
  placement is sticky, uniform, and moves only a minimal key range on
  membership change:

  - adding one instance migrates at most ``ceil(K/N)`` keys, and every
    migrated key lands on the new instance (its plain ring successor);
  - removing one instance migrates exactly that instance's keys and
    nothing else.

* :class:`AgentPool` — runs one serving instance per shard inside the
  sim kernel.  Each shard is a :class:`~repro.core.relay.RelayAgent`
  polling the root agent over the normal timestamp protocol and
  re-serving the full protocol downstream, so every member's
  acknowledged ``doc_time`` means the same thing on every shard and the
  snapshot ring keeps answering deltas per shard.  Joins route through
  the directory; membership changes rebalance by re-attaching members
  to their new shard **resuming from their acknowledged doc_time** (no
  renavigation, so the new shard can answer with a delta instead of a
  full resync).

* **Host-death failover** (:meth:`AgentPool.fail_shard`) — the
  designated standby (the dead shard's ring successor) is promoted to
  acting host for the dead shard's whole key range in one bulk
  handover; it already holds the session content and a live snapshot
  ring, so recovered members resume from where they were.  The
  promotion lands in the flight recorder as a ``shard.promote`` event
  plus one ``shard.migrate`` per moved member.

``shards=1`` keeps the seed serving path: the directory maps every
member to the root agent itself and joins construct the exact snippet
:meth:`~repro.core.session.CoBrowsingSession.join` would, so
single-shard sessions stay byte-identical on the wire.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from math import ceil
from typing import Dict, List, Optional, Tuple

from ..browser.browser import Browser
from ..http import RequestFailed
from ..net import LAN_PROFILE, Host
from ..net.socket import NetworkError
from ..obs import SHARD_MIGRATE, SHARD_PROMOTE
from .agent import AGENT_DEFAULT_PORT, RCBAgent
from .relay import RelayAgent
from .session import SessionError
from .snippet import AjaxSnippet

__all__ = ["ROOT_SHARD", "AgentPool", "SessionDirectory", "render_shard_table"]

#: Directory instance id of the root agent (the ``shards=1`` serving
#: path, and the shard namespace's reserved name).
ROOT_SHARD = "root"


class SessionDirectory:
    """Consistent-hash placement of member keys onto agent instances.

    A classic virtual-node ring (``replicas`` vnodes per instance,
    positions from a seeded keyed hash so layouts are reproducible
    run-to-run) with consistent hashing *with bounded loads*: a key
    whose ring successor is already at the capacity cap spills to the
    next instance along the ring, so no instance ever holds more than
    ``ceil(load_factor * K / N)`` of the ``K`` assigned keys.
    Assignments are sticky — a placed key stays put until its instance
    leaves — which is what makes rebalancing observable and minimal.
    """

    def __init__(self, replicas: int = 64, load_factor: float = 1.25, seed: int = 0):
        if replicas < 1:
            raise ValueError("replicas must be at least 1")
        if load_factor < 1.0:
            raise ValueError("load_factor must be at least 1.0")
        self.replicas = replicas
        self.load_factor = load_factor
        self.seed = seed
        #: Sorted ``(vnode_hash, instance_id)`` ring.
        self._ring: List[Tuple[int, str]] = []
        #: Sticky ``key -> instance`` placements (may briefly point at a
        #: removed instance mid-``remove_instance``; queries re-place).
        self.assignments: Dict[str, str] = {}
        #: Live instances and their current assigned-key counts.
        self._counts: Dict[str, int] = {}

    def _hash(self, text: str) -> int:
        digest = hashlib.blake2b(
            ("%d:%s" % (self.seed, text)).encode("utf-8"), digest_size=8
        ).digest()
        return int.from_bytes(digest, "big")

    # -- membership --------------------------------------------------------------------

    def instances(self) -> List[str]:
        """Live instance ids, sorted."""
        return sorted(self._counts)

    def capacity(self, extra: int = 0) -> int:
        """The bounded-load cap per instance for the current population
        (``extra`` counts keys about to be placed)."""
        live = len(self._counts)
        if live == 0:
            return 0
        return max(1, ceil(self.load_factor * (len(self.assignments) + extra) / live))

    def add_instance(self, instance_id: str) -> Dict[str, Tuple[str, str]]:
        """Register an instance; returns ``{key: (old, new)}`` migrations.

        Only keys whose *plain* ring successor is the new instance are
        candidates (the minimal range consistent hashing hands over),
        and at most ``ceil(K/N)`` of them move — lowest ring positions
        first, so the choice is deterministic.
        """
        if instance_id in self._counts:
            raise ValueError("instance %r already registered" % (instance_id,))
        for replica in range(self.replicas):
            self._ring.append(
                (self._hash("%s#%d" % (instance_id, replica)), instance_id)
            )
        self._ring.sort()
        self._counts[instance_id] = 0
        if not self.assignments:
            return {}
        candidates = [
            key for key in self.assignments if self._plain_owner(key) == instance_id
        ]
        candidates.sort(key=self._hash)
        quota = ceil(len(self.assignments) / len(self._counts))
        migrations: Dict[str, Tuple[str, str]] = {}
        for key in candidates[:quota]:
            old = self.assignments[key]
            if old == instance_id:
                continue
            self._assign(key, instance_id)
            migrations[key] = (old, instance_id)
        return migrations

    def remove_instance(
        self, instance_id: str, promote_to: Optional[str] = None
    ) -> Dict[str, Tuple[str, str]]:
        """Deregister an instance; returns ``{key: (old, new)}`` migrations.

        Only the removed instance's keys move.  With ``promote_to`` (the
        failover handover) every orphaned key bulk-reassigns to the
        promoted instance in one step; without it each orphan re-places
        along the ring (graceful drain).
        """
        if instance_id not in self._counts:
            raise KeyError("no instance %r in the directory" % (instance_id,))
        if promote_to is not None and promote_to not in self._counts:
            raise KeyError("promotion target %r is not live" % (promote_to,))
        del self._counts[instance_id]
        self._ring = [entry for entry in self._ring if entry[1] != instance_id]
        orphans = sorted(
            key for key, owner in self.assignments.items() if owner == instance_id
        )
        migrations: Dict[str, Tuple[str, str]] = {}
        for key in orphans:
            if promote_to is not None:
                self._assign(key, promote_to)
                migrations[key] = (instance_id, promote_to)
            elif self._ring:
                migrations[key] = (instance_id, self.place(key))
            else:
                del self.assignments[key]
        return migrations

    def successor(self, instance_id: str) -> Optional[str]:
        """The next distinct live instance along the ring — the
        designated standby a host-death failover promotes."""
        if instance_id not in self._counts:
            raise KeyError("no instance %r in the directory" % (instance_id,))
        if len(self._counts) < 2:
            return None
        index = bisect_left(self._ring, (self._hash("%s#0" % instance_id), ""))
        for step in range(len(self._ring)):
            candidate = self._ring[(index + step) % len(self._ring)][1]
            if candidate != instance_id:
                return candidate
        return None

    # -- placement ---------------------------------------------------------------------

    def place(self, key: str) -> str:
        """The instance serving ``key`` (sticky; places on first use)."""
        owner = self.assignments.get(key)
        if owner is not None and owner in self._counts:
            return owner
        if not self._ring:
            raise KeyError("no live instances in the directory")
        cap = self.capacity(extra=0 if key in self.assignments else 1)
        index = bisect_left(self._ring, (self._hash(key), ""))
        chosen: Optional[str] = None
        seen = set()
        for step in range(len(self._ring)):
            candidate = self._ring[(index + step) % len(self._ring)][1]
            if candidate in seen:
                continue
            seen.add(candidate)
            if self._counts[candidate] < cap:
                chosen = candidate
                break
        if chosen is None:
            # Every instance at the cap (tiny rings, rounding): fall
            # back to the plain successor so placement always succeeds.
            chosen = self._ring[index % len(self._ring)][1]
        self._assign(key, chosen)
        return chosen

    def release(self, key: str) -> None:
        """Forget a key's placement (the member left)."""
        owner = self.assignments.pop(key, None)
        if owner is not None and owner in self._counts:
            self._counts[owner] -= 1

    def load(self) -> Dict[str, int]:
        """Assigned-key count per live instance."""
        return dict(self._counts)

    def _plain_owner(self, key: str) -> str:
        """Ring successor of ``key`` with no bounded-load skipping."""
        index = bisect_left(self._ring, (self._hash(key), ""))
        return self._ring[index % len(self._ring)][1]

    def _assign(self, key: str, instance_id: str) -> None:
        old = self.assignments.get(key)
        if old == instance_id:
            return
        if old is not None and old in self._counts:
            self._counts[old] -= 1
        self.assignments[key] = instance_id
        self._counts[instance_id] += 1

    def __len__(self) -> int:
        return len(self.assignments)

    def __repr__(self):
        return "SessionDirectory(%d keys across %d instances)" % (
            len(self.assignments),
            len(self._counts),
        )


class AgentPool:
    """A pool of serving instances behind a :class:`SessionDirectory`.

    Wraps an existing :class:`~repro.core.session.CoBrowsingSession`:
    the session's root agent stays the moderation/content authority,
    and ``shards`` serving instances (relays re-serving the full
    protocol) fan its content out to directory-routed members.

        pool = AgentPool(session, shards=8)
        run(pool.start())
        snippet = run(pool.join_browser(member_browser))
        pool.fail_shard("shard-3")   # failure injection

    ``shards=1`` adds no instances at all: the directory maps every
    member to the root agent and :meth:`join_browser` builds the exact
    snippet a plain ``session.join`` would — same URL, same request
    bytes on the wire.
    """

    def __init__(
        self,
        session,
        shards: int = 4,
        replicas: int = 64,
        load_factor: float = 1.25,
        seed: int = 0,
        relay_port: int = AGENT_DEFAULT_PORT,
        segment: str = "shards",
    ):
        if shards < 1:
            raise SessionError("shards must be at least 1")
        self.session = session
        self.sim = session.sim
        self.shards = shards
        self.relay_port = relay_port
        self.segment = segment
        self.directory = SessionDirectory(
            replicas=replicas, load_factor=load_factor, seed=seed
        )
        #: Live shard instances (empty in the single-shard passthrough).
        self.relays: Dict[str, RelayAgent] = {}
        #: Real (browser-backed) member channels this pool manages.
        self.snippets: Dict[str, AjaxSnippet] = {}
        self.promotions = 0
        self.migrations = 0
        self._started = False
        self._next_index = 0
        session.pool = self
        fleet = getattr(session, "fleet", None)
        if fleet is not None and getattr(fleet, "shard_of", None) is None:
            fleet.shard_of = self.shard_of
        if shards == 1:
            self.directory.add_instance(ROOT_SHARD)
            self._started = True

    # -- lifecycle ---------------------------------------------------------------------

    def start(self):
        """Generator process: bring up one host + relay per shard and
        register each with the directory.  No-op for ``shards=1``."""
        if self.shards == 1:
            return
        if self._started:
            raise SessionError("pool already started")
        self._started = True
        for _ in range(self.shards):
            yield from self.add_shard()

    def add_shard(self) -> "RelayAgent":
        """Generator: one more serving instance joins the pool; existing
        members rebalance onto it (at most ``ceil(K/N)`` move)."""
        if self.shards == 1:
            raise SessionError("a single-shard pool serves from the root agent")
        agent = self.session.agent
        shard_id = "shard-%d" % self._next_index
        self._next_index += 1
        network = self.session.host_browser.host.network
        shard_host = Host(network, shard_id, LAN_PROFILE, segment=self.segment)
        shard_browser = Browser(shard_host, name=shard_id)
        relay = RelayAgent(
            upstream_url=agent.url,
            port=self.relay_port,
            secret=agent.secret,
            relay_id=shard_id,
            enable_delta=agent.enable_delta,
            delta_history=agent.delta_history,
            transport=agent.transport.mode,
            poll_backoff=self.session._derive_backoff(shard_id),
            metrics=self.session.metrics,
            tracer=self.session.tracer,
            events=self.session.events,
            attribution=self.session.attribution,
            telemetry=self.session._member_telemetry(shard_id),
        )
        relay.install(shard_browser)
        try:
            yield from relay.connect_upstream()
        except BaseException:
            relay.uninstall()
            raise
        relay.set_fallbacks([agent.url])
        self.relays[shard_id] = relay
        migrations = self.directory.add_instance(shard_id)
        self._apply_migrations(migrations, reason="rebalance")
        self._update_gauges()
        return relay

    def fail_shard(self, shard_id: str) -> "RelayAgent":
        """Kill a shard host mid-run (failure injection) and promote the
        designated standby.

        The standby — the dead shard's ring successor — is already a
        live serving instance holding the session content and its own
        snapshot ring, so the directory hands it the dead shard's whole
        key range in one bulk promotion and recovered members resume
        from their acknowledged ``doc_time`` (delta resume, no full
        resync).  Emits one ``shard.promote`` plus a ``shard.migrate``
        per recovered member.
        """
        relay = self.relays.get(shard_id)
        if relay is None:
            raise SessionError("no shard %r in this pool" % (shard_id,))
        standby = self.directory.successor(shard_id)
        if standby is None:
            raise SessionError("cannot fail the last shard")
        del self.relays[shard_id]
        migrations = self.directory.remove_instance(shard_id, promote_to=standby)
        self.promotions += 1
        self.session.metrics.counter("shard_promotions").inc()
        if self.session.events is not None:
            self.session.events.emit(
                SHARD_PROMOTE,
                self.sim.now,
                node=standby,
                dead=shard_id,
                members=len(migrations),
            )
        self._apply_migrations(migrations, reason="failover")
        self._retire(relay)
        return relay

    def _retire(self, relay: RelayAgent) -> None:
        self.session.agent.disconnect(relay.relay_id)
        relay.uninstall()
        self.session.metrics.gauge("shard_members", node=relay.relay_id).set(0)
        self._update_gauges()

    def close(self) -> None:
        """Disconnect every pool-managed member and shut every shard."""
        for member_id, snippet in list(self.snippets.items()):
            if snippet.connected:
                snippet.disconnect()
            self.session.participants.pop(member_id, None)
        self.snippets.clear()
        for relay in self.relays.values():
            relay.uninstall()
        self.relays.clear()

    # -- directory-routed membership ---------------------------------------------------

    def agent_of(self, shard_id: str) -> RCBAgent:
        """The serving instance behind a directory id."""
        if shard_id == ROOT_SHARD:
            return self.session.agent
        return self.relays[shard_id]

    def agent_for(self, member_id: str) -> RCBAgent:
        """The instance serving ``member_id`` (placing it on first use).
        Members re-query after a membership change: the directory's
        sticky assignment reflects any migration or promotion."""
        return self.agent_of(self.directory.place(member_id))

    def shard_of(self, member_id: str) -> Optional[str]:
        """Directory id serving a member (None: not a pool member) —
        the fleet view's per-shard rollup resolver."""
        return self.directory.assignments.get(member_id)

    def join_browser(
        self,
        participant_browser: Browser,
        participant_id: Optional[str] = None,
        browser_type: str = "firefox",
        fetch_objects: bool = True,
    ):
        """Generator: a real participant joins through the directory.

        Mirrors :meth:`~repro.core.session.CoBrowsingSession.join`
        byte-for-byte except for the target URL, which the directory
        chooses — so ``shards=1`` is wire-identical to a plain join.
        """
        member_id = participant_id or participant_browser.name
        if member_id in self.session.participants or member_id in self.snippets:
            raise SessionError("participant id %r already joined" % (member_id,))
        target = self.agent_for(member_id)
        snippet = AjaxSnippet(
            participant_browser,
            target.url,
            participant_id=member_id,
            secret=target.secret,
            browser_type=browser_type,
            fetch_objects=fetch_objects,
            backoff=self.session._derive_backoff(member_id),
            transport=self.session.agent.transport.mode,
            metrics=self.session.metrics,
            tracer=self.session.tracer,
            events=self.session.events,
            telemetry=self.session._member_telemetry(member_id),
        )
        yield from snippet.connect()
        self.snippets[member_id] = snippet
        self.session.participants[member_id] = snippet
        self.session._update_membership_gauge()
        self._update_gauges()
        return snippet

    def leave(self, member_id: str) -> None:
        """A pool-managed member leaves: channel down, placement freed."""
        snippet = self.snippets.pop(member_id, None)
        shard = self.directory.assignments.get(member_id)
        if snippet is not None:
            snippet.disconnect()
            self.session.participants.pop(member_id, None)
            self.session._update_membership_gauge()
            if shard is not None:
                self.agent_of(shard).disconnect(member_id)
        self.directory.release(member_id)
        self._update_gauges()

    # -- migration ---------------------------------------------------------------------

    def _apply_migrations(
        self, migrations: Dict[str, Tuple[str, str]], reason: str
    ) -> None:
        if not migrations:
            return
        self.migrations += len(migrations)
        self.session.metrics.counter("shard_migrations").inc(len(migrations))
        for key in sorted(migrations):
            src, dst = migrations[key]
            if self.session.events is not None:
                self.session.events.emit(
                    SHARD_MIGRATE,
                    self.sim.now,
                    node=key,
                    src=src,
                    dst=dst,
                    reason=reason,
                )
            snippet = self.snippets.get(key)
            if snippet is not None:
                self.sim.process(self._rehome(key, snippet, dst))

    def _rehome(self, member_id: str, old: AjaxSnippet, shard_id: str):
        """Generator: re-attach a live member to its new shard, resuming
        from the acknowledged ``doc_time`` — the document is preserved,
        so the new shard can answer with a delta, not a full resync."""
        if old.connected:
            old.disconnect()
        target = self.agent_of(shard_id)
        fresh = AjaxSnippet(
            old.browser,
            target.url,
            participant_id=member_id,
            secret=target.secret,
            poll_interval=old.poll_interval,
            browser_type=old.browser_type,
            fetch_objects=old.fetch_objects,
            backoff=old.backoff,
            transport=old.transport_mode,
            metrics=self.session.metrics,
            tracer=self.session.tracer,
            events=self.session.events,
            telemetry=old.telemetry,
        )
        fresh.last_doc_time = old.last_doc_time
        self.snippets[member_id] = fresh
        self.session.participants[member_id] = fresh
        for attempt in range(1, 4):
            try:
                yield from fresh.attach(old.poll_interval)
                return
            except (RequestFailed, NetworkError):
                yield self.sim.timeout(0.5 * attempt)
        # Target still unreachable after retries: leave the channel
        # down; the member re-places on its next explicit lookup.

    # -- accounting --------------------------------------------------------------------

    def member_times(self) -> Dict[str, int]:
        return self.session.member_times()

    def wait_until_synced(self, timeout: float = 60.0):
        waited = yield from self.session.wait_until_synced(timeout=timeout)
        return waited

    def summary(self) -> Dict[str, object]:
        """Per-shard accounting for ``repro shards`` and tests."""
        load = self.directory.load()
        per_shard: Dict[str, Dict[str, object]] = {}
        for shard_id in sorted(load):
            agent = self.agent_of(shard_id)
            per_shard[shard_id] = {
                "members": load[shard_id],
                "polls": agent.stats["polls"],
                "doc_time": agent.doc_time,
                "connected": shard_id == ROOT_SHARD or agent.connected,
            }
        return {
            "shards": len(load),
            "members": len(self.directory.assignments),
            "promotions": self.promotions,
            "migrations": self.migrations,
            "per_shard": per_shard,
        }

    def _update_gauges(self) -> None:
        for shard_id, count in self.directory.load().items():
            self.session.metrics.gauge("shard_members", node=shard_id).set(count)

    def __repr__(self):
        return "AgentPool(%d shards, %d members)" % (
            len(self.directory.load()),
            len(self.directory.assignments),
        )


def render_shard_table(pool: AgentPool, title: str = "Shard pool") -> str:
    """The ``repro shards`` table: one row per serving instance."""
    summary = pool.summary()
    lines = [
        "%s — %d shards, %d members, %d promotions, %d migrations"
        % (
            title,
            summary["shards"],
            summary["members"],
            summary["promotions"],
            summary["migrations"],
        ),
        "%-12s %8s %10s %10s %-9s" % ("shard", "members", "polls", "doc_time", "state"),
    ]
    for shard_id, row in summary["per_shard"].items():
        lines.append(
            "%-12s %8d %10d %10d %-9s"
            % (
                shard_id,
                row["members"],
                row["polls"],
                row["doc_time"],
                "up" if row["connected"] else "down",
            )
        )
    return "\n".join(lines)

"""The ledger's three seeded workloads.

Each workload builds a fresh world in ``setup`` (timed as set-up, never
as work), drives a fixed amount of work in ``work`` (timed), and checks
the outcome in ``check`` (untimed, never skipped).  The seed fixes every
input the program receives, so one seed always produces the same
simulated outcome: the same ``doc_time`` sequence, content bytes and
staleness samples.  Everything runs in one process, with no OS threads
or sockets; members, connections and links are all simulated.
"""

import hashlib
import json
import random
import re
import time

from repro.browser import Browser
from repro.core import CoBrowsingSession, MouseMoveAction, RCBAgent
from repro.html import Text
from repro.http import HttpRequest
from repro.net import LAN_PROFILE, WAN_HOME_PROFILE, Host, Network
from repro.sim import Simulator
from repro.webserver import OriginServer, StaticSite, TABLE1_SITES, generate_table1_site
from repro.workloads import build_lan
from repro.workloads.surf import SurfOperation, generate_trace, run_surf

POLL_INTERVAL = 0.5
_DOC_TIME = re.compile(rb"<docTime>(\d+)</docTime>")


class Outcome:
    """What one work phase produced, in simulated time and bytes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        #: Client-measured staleness samples (sim ms), one per apply.
        self.staleness_ms = []
        #: (sim ms, envelope doc_time) per apply, in apply order.
        self.applies = []
        self.content_bytes = 0
        self.sim_end = 0.0
        #: ``_poll_response`` wall seconds timed by the load generator (flash crowd).
        self.join_serve_s = []
        self.steady_serve_s = []
        self.problems = []

    def fail(self, count, why):
        if count:
            self.failed += count
            self.problems.append("%d x %s" % (count, why))

    def fingerprint(self):
        """Digest of every sim-time outcome and the content bytes: equal
        for equal seeds, whatever the wall clock did."""
        digest = hashlib.sha256()
        digest.update(repr((self.attempted, self.content_bytes, self.sim_end)).encode())
        digest.update(repr(self.applies).encode())
        return digest.hexdigest()[:16]


def _apply_recorder(sim, outcome):
    """An ``AjaxSnippet.on_content`` hook taking one staleness sample."""

    def on_content(content):
        now_ms = sim.now * 1000.0
        outcome.staleness_ms.append(max(0.0, now_ms - content.doc_time))
        outcome.applies.append((round(now_ms, 6), content.doc_time))

    return on_content


def _content_bytes(agent):
    return agent.stats["full_bytes_sent"] + agent.stats["delta_bytes_sent"]


def _check_snippets(world, outcome):
    """Failures the snippets saw over the world's whole life.  Snippets
    count empty and unparseable bodies alike as empty responses, the
    agent only the empty bodies it sent: the difference had no
    ``<docTime>``."""
    agent, snippets = world["agent"], world["snippets"]
    outcome.fail(sum(s.stats.connection_errors for s in snippets), "connection errors")
    outcome.fail(sum(s.stats.delta_failures for s in snippets), "forced resyncs")
    received = sum(s.stats.empty_responses for s in snippets)
    outcome.fail(max(0, received - agent.stats["empty_responses"]), "responses without docTime")


# -- surf-lan -------------------------------------------------------------------------


def surf_trace(seed, quotas):
    """A seeded surf trace with a fixed mix: the first ``quotas[kind]``
    operations of each kind from ``generate_trace(seed, ...)``, in trace
    order, with the visits spread evenly over the Table-1 sites in a
    seeded order.  Fixing the mix keeps seeds from moving the metrics by
    luck of the draw (how many navigations, which page sizes)."""
    raw = generate_trace(seed, 6 * sum(quotas.values()))
    left = dict(quotas)
    trace = []
    for operation in raw:
        if left[operation.kind]:
            left[operation.kind] -= 1
            trace.append(operation)
    hosts = [spec.host for spec in TABLE1_SITES] * (quotas["visit"] // len(TABLE1_SITES))
    random.Random(seed).shuffle(hosts)
    visits = iter(hosts)
    return [
        SurfOperation("visit", next(visits)) if operation.kind == "visit" else operation
        for operation in trace
    ]


class SurfLan:
    """``build_lan`` plus ``run_surf`` over a seeded surf trace: one
    participant follows a navigation-heavy host (47% visits) on a LAN,
    with a convergence check after every step (closed loop).
    ``run_surf`` joins the participant itself, so the join and its first
    sync are timed as work, not set-up."""

    name = "surf-lan"
    op_name = "surf step"
    quotas = {"visit": 140, "mutate": 75, "idle": 55, "participant_fill": 30}

    def __init__(self, seed):
        self.trace = surf_trace(seed, self.quotas)

    def setup(self):
        testbed = build_lan()
        session = CoBrowsingSession(
            testbed.host_browser, poll_interval=POLL_INTERVAL, transport="poll"
        )
        return {"testbed": testbed, "session": session, "agent": session.agent, "snippets": []}

    def work(self, world):
        testbed, session = world["testbed"], world["session"]
        sim = testbed.sim
        outcome = Outcome()
        join = session.join

        def hooked_join(*args, **kwargs):
            snippet = yield from join(*args, **kwargs)
            snippet.on_content = _apply_recorder(sim, outcome)
            world["snippets"].append(snippet)
            return snippet

        session.join = hooked_join
        outcome.attempted = len(self.trace)
        try:
            testbed.run(run_surf(testbed, session, self.trace), limit=1e7)
        except Exception as exc:  # a failed convergence check ends the surf
            outcome.fail(len(self.trace), "surf aborted: %r" % (exc,))
        outcome.content_bytes = _content_bytes(session.agent)
        outcome.sim_end = round(sim.now, 9)
        return outcome

    def check(self, world, outcome):
        _check_snippets(world, outcome)
        world["session"].close()


# -- broadcast-wan-n256 ----------------------------------------------------------------


def _deploy_table1(network, spec):
    """Generate a Table-1 site and serve it, page and objects, from its
    own origin."""
    generated = generate_table1_site(spec)
    site = StaticSite(spec.host)
    site.add_page("/", generated.html)
    for path, (content_type, data) in generated.objects.items():
        site.add(path, content_type, data)
    OriginServer(network, spec.host, site.handle)
    return "http://%s/" % spec.host


def _edit_heading(host, tick, which):
    """Replace the text of the ``which``-th ``h2`` (mod their count)."""

    def mutate(document):
        headings = document.get_elements_by_tag_name("h2")
        heading = headings[which % len(headings)]
        heading.remove_all_children()
        heading.append_child(Text("tick %d" % tick))

    host.mutate_document(mutate)


class BroadcastWan:
    """The MSN Table-1 page on a LAN host, 256 real snippets on home
    broadband under long poll; every 0.5 s of sim time the host edits
    one ``h2`` and broadcasts one pointer move (open loop in sim time,
    each member a closed loop)."""

    name = "broadcast-wan-n256"
    op_name = "served poll"
    members = 256
    ticks = 30

    def __init__(self, seed):
        rng = random.Random(seed)
        # Which h2 each tick edits, and where the mirrored pointer lands.
        self.edits = [
            (rng.randrange(1 << 16), rng.randrange(1024), rng.randrange(768))
            for _ in range(self.ticks)
        ]

    def setup(self):
        sim = Simulator()
        network = Network(sim)
        url = _deploy_table1(network, TABLE1_SITES[4])
        host = Browser(Host(network, "host-pc", LAN_PROFILE, segment="campus"), name="host")
        session = CoBrowsingSession(host, poll_interval=POLL_INTERVAL, transport="longpoll")
        guests = [
            Browser(
                Host(network, "wpc-%d" % i, WAN_HOME_PROFILE, segment="home-%d" % i),
                name="w%03d" % i,
            )
            for i in range(self.members)
        ]
        snippets = []

        def join_all():
            for guest in guests:
                snippet = yield from session.join(guest)
                snippets.append(snippet)
            yield from session.host_navigate(url)
            yield from session.wait_until_synced(timeout=600.0)

        sim.run_until_complete(sim.process(join_all()))
        return {
            "sim": sim,
            "host": host,
            "session": session,
            "agent": session.agent,
            "snippets": snippets,
        }

    def work(self, world):
        sim, host, session = world["sim"], world["host"], world["session"]
        agent = session.agent
        outcome = Outcome()
        for snippet in world["snippets"]:
            snippet.on_content = _apply_recorder(sim, outcome)
        polls_before = agent.stats["polls"]
        bytes_before = _content_bytes(agent)

        def ticks():
            for tick, (which, x, y) in enumerate(self.edits):
                _edit_heading(host, tick, which)
                agent.broadcast_action(MouseMoveAction(x, y))
                yield sim.timeout(POLL_INTERVAL)
            yield from session.wait_until_synced(timeout=60.0)

        sim.run_until_complete(sim.process(ticks()))
        outcome.attempted = agent.stats["polls"] - polls_before
        outcome.content_bytes = _content_bytes(agent) - bytes_before
        outcome.sim_end = round(sim.now, 9)
        return outcome

    def check(self, world, outcome):
        agent = world["agent"]
        host_text = world["host"].page.document.body.text_content
        unconverged = sum(
            1
            for s in world["snippets"]
            if s.last_doc_time != agent.doc_time
            or s.browser.page.document.body.text_content != host_text
        )
        outcome.fail(unconverged, "members not converged")
        _check_snippets(world, outcome)
        world["session"].close()


# -- flash-crowd-n10k -------------------------------------------------------------------


class FlashCrowd:
    """One agent on the facebook.com Table-1 page, 10,000 members polling
    ``_poll_response`` directly (no network): a join round where every
    member is new, then steady rounds of one ``h2`` edit plus one
    broadcast action each.  Members poll at seeded offsets inside each
    0.5 s round; one load generator, closed loop.  Staleness here is the
    poll's offset from its round's edit, so the schedule, not the
    program, fixes it."""

    name = "flash-crowd-n10k"
    op_name = "served poll"
    members = 10000
    steady_rounds = 10

    def __init__(self, seed):
        rng = random.Random(seed)
        ids = set()
        while len(ids) < self.members:
            ids.add("m%08x" % rng.getrandbits(32))
        order = sorted(ids)
        rng.shuffle(order)
        offsets = sorted(rng.uniform(0.0, POLL_INTERVAL) for _ in order)
        #: (offset within the round, member id), in poll order.
        self.schedule = list(zip(offsets, order))
        #: (which h2, pointer x, pointer y) per steady round.
        self.edits = [
            (rng.randrange(1 << 16), rng.randrange(1024), rng.randrange(768))
            for _ in range(self.steady_rounds)
        ]

    def setup(self):
        sim = Simulator()
        network = Network(sim)
        url = _deploy_table1(network, TABLE1_SITES[7])
        host = Browser(Host(network, "host-pc", LAN_PROFILE, segment="campus"), name="host")
        agent = RCBAgent(transport="poll", poll_interval=POLL_INTERVAL)
        agent.install(host)
        sim.run_until_complete(sim.process(host.navigate(url)))
        return {"sim": sim, "host": host, "agent": agent, "snippets": [], "acked": {}}

    def work(self, world):
        sim, host, agent = world["sim"], world["host"], world["agent"]
        acked = world["acked"]
        outcome = Outcome()
        perf = time.perf_counter
        bytes_before = _content_bytes(agent)

        def poll_round(start, timings, sample):
            for offset, pid in self.schedule:
                due = start + offset
                if due > sim.now:
                    yield sim.timeout(due - sim.now)
                body = json.dumps(
                    {"participant": pid, "timestamp": acked.get(pid, 0), "actions": []}
                ).encode()
                request = HttpRequest("POST", "/poll", None, body)
                started = perf()
                response = yield from agent._poll_response(request, pid)
                timings.append(perf() - started)
                outcome.attempted += 1
                found = _DOC_TIME.findall(response.body)
                if response.status != 200 or not found:
                    outcome.fail(1, "responses without docTime")
                    continue
                doc_time = int(found[-1])
                if doc_time != agent.doc_time:
                    outcome.fail(1, "stale serves")
                acked[pid] = doc_time
                if sample:
                    now_ms = sim.now * 1000.0
                    outcome.staleness_ms.append(max(0.0, now_ms - doc_time))
                    outcome.applies.append((round(now_ms, 6), doc_time))

        def crowd():
            start = sim.now
            yield from poll_round(start, outcome.join_serve_s, False)
            for number, (which, x, y) in enumerate(self.edits):
                start += POLL_INTERVAL
                yield sim.timeout(start - sim.now)
                _edit_heading(host, number + 1, which)
                agent.broadcast_action(MouseMoveAction(x, y))
                yield from poll_round(start, outcome.steady_serve_s, True)

        sim.run_until_complete(sim.process(crowd()))
        outcome.content_bytes = _content_bytes(agent) - bytes_before
        outcome.sim_end = round(sim.now, 9)
        return outcome

    def check(self, world, outcome):
        agent, acked = world["agent"], world["acked"]
        behind = sum(1 for pid in acked if acked[pid] != agent.doc_time)
        outcome.fail(behind + self.members - len(acked), "members not converged")
        agent.uninstall()


WORKLOADS = {cls.name: cls for cls in (SurfLan, BroadcastWan, FlashCrowd)}

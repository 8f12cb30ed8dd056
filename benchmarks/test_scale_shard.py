"""Scale: sharded serving at N=10k — throughput curve, churn, failover.

The single RCB agent is the fleet's throughput ceiling: every poll
funnels through one host loop.  :class:`~repro.core.shard.AgentPool`
converts that path into a pool of serving instances behind a
consistent-hash session directory.  This benchmark measures the three
claims the pool makes at fleet scale:

* **Near-linear serve scaling** — N members resync-polling the pool,
  with each instance's serve work timed in isolation (one CPU hosts the
  whole sim, so per-instance CPU time *is* that host's wall time; the
  fleet finishes when its slowest host does).  Aggregate throughput =
  total serves / bottleneck-instance time, measured apart for the join
  round (every member new to its shard) and the known-member round (the
  same members again); in each, 8 shards must clear 3x the single-agent
  baseline (floors ``shard-scale-join-n1k`` and
  ``shard-scale-known-n1k``).
* **Coherence under churn** — the full fleet polling through the
  directory with seeded member churn plus a flash-crowd join; p99
  client staleness stays inside the ``staleness_p95`` SLO rule's breach
  threshold.
* **Failover** — an injected shard-host death promotes the designated
  standby; 100% of the dead shard's members must re-attach to the
  promoted instance with no lost ``doc_time`` ordering (floor
  ``failover-recovery``).

``RCB_SCALE_MEMBERS`` scales N (CI smoke runs 1000; nightly the full
10000).  Every random draw comes from per-test fixed-seed generators —
reruns are bit-for-bit reproducible.  Writes ``scale_shard.txt`` (the
floors' input) and ``scale_shard.json`` (the nightly scaling-curve
artifact).
"""

import gc
import json
import os
import random
import re
import time

from repro.browser import Browser
from repro.core import AgentPool, CoBrowsingSession
from repro.html import Text
from repro.http import HttpRequest
from repro.net import LAN_PROFILE, Host, Network
from repro.obs import SHARD_MIGRATE, SHARD_PROMOTE, EventBus
from repro.obs.health import default_rules
from repro.sim import Simulator
from repro.webserver import OriginServer, StaticSite

from conftest import write_result

N = int(os.environ.get("RCB_SCALE_MEMBERS", "10000"))
SHARD_COUNTS = (1, 4, 8, 16)
#: The curve's poll rounds, one resync poll per member each, timed
#: apart: "join" finds every member new to its shard, "known" polls the
#: same members again.
ROUNDS = ("join", "known")
#: Half a second keeps the two stacked poll hops (member -> shard ->
#: root) well inside the staleness SLO's 5 s breach threshold.
POLL_INTERVAL = 0.5
CHANGE_INTERVAL = 0.5
SEED = 20260807

_DOC_TIME = re.compile(rb"<docTime>(\d+)</docTime>")

PAGE = (
    "<html><head><title>Shard scale</title></head><body>"
    "<div id='tick'>tick 0</div>"
    + "".join("<p id='p%d'>paragraph %d body</p>" % (i, i) for i in range(6))
    + "</body></html>"
)


def build_pool(shards, events=None):
    """One synced world: root agent + ``shards`` relay instances."""
    sim = Simulator()
    network = Network(sim)
    site = StaticSite("site.com")
    site.add_page("/", PAGE)
    OriginServer(network, "site.com", site.handle)
    host = Browser(
        Host(network, "host-pc", LAN_PROFILE, segment="campus"), name="host"
    )
    session = CoBrowsingSession(
        host, poll_interval=POLL_INTERVAL, transport="poll", events=events
    )
    pool = AgentPool(session, shards=shards)

    def setup():
        yield from pool.start()
        yield from session.host_navigate("http://site.com/")
        # Let every relay's upstream poll adopt the navigated state.
        yield sim.timeout(3.0)

    sim.run_until_complete(sim.process(setup()))
    for relay in pool.relays.values():
        assert relay.doc_time == session.agent.doc_time
    return sim, host, session, pool


def edit_tick(host, tick):
    def mutate(document):
        target = document.get_element_by_id("tick")
        target.remove_all_children()
        target.append_child(Text("tick %d" % tick))

    host.mutate_document(mutate)


def poll_payload(pid, timestamp):
    return json.dumps(
        {"participant": pid, "timestamp": timestamp, "actions": []}
    ).encode()


def _p99(values):
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(0, int(0.99 * len(ordered) + 0.5) - 1)
    return float(ordered[min(rank, len(ordered) - 1)])


# -- phase 1: the serve-throughput scaling curve --------------------------------------


def _timed_round(sim, agent, assigned):
    """CPU seconds one instance spends serving one resync poll from each
    of its ``assigned`` members."""

    def drive():
        for pid in assigned:
            request = HttpRequest("POST", "/poll", None, poll_payload(pid, 0))
            response = yield from agent._poll_response(request, pid)
            assert _DOC_TIME.search(response.body)

    gc.collect()
    gc.disable()
    try:
        started = time.process_time()
        sim.run_until_complete(sim.process(drive()))
        return time.process_time() - started
    finally:
        gc.enable()


def _measure_curve():
    """Aggregate resync-serve throughput per shard count, one curve per
    round in :data:`ROUNDS`, each with its own bottleneck instance."""
    curves = {name: {} for name in ROUNDS}
    for shards in SHARD_COUNTS:
        sim, host, session, pool = build_pool(shards)
        members = ["m%05d" % i for i in range(N)]
        per_instance = {}
        for pid in members:
            per_instance.setdefault(pool.directory.place(pid), []).append(pid)

        slowest = dict.fromkeys(ROUNDS, 0.0)
        for instance in sorted(per_instance):
            # Each instance is its own host: time its serve work alone.
            agent = pool.agent_of(instance)
            for name in ROUNDS:
                elapsed = _timed_round(sim, agent, per_instance[instance])
                slowest[name] = max(slowest[name], elapsed)
        session.close()
        for name in ROUNDS:
            curves[name][shards] = {
                "shards": shards,
                "members": N,
                "serves": N,
                "bottleneck_s": round(slowest[name], 4),
                "aggregate_serves_per_s": round(N / slowest[name], 1),
            }
    for curve in curves.values():
        baseline = curve[1]["aggregate_serves_per_s"]
        for point in curve.values():
            point["speedup_vs_1"] = round(point["aggregate_serves_per_s"] / baseline, 2)
    return curves


# -- phase 2: churn + flash-crowd coherence -------------------------------------------


def _measure_churn(shards=8, window=8.0, flash_at=4.0, warmup=2.5):
    """p99 client staleness with seeded churn and a flash-crowd join.

    Samples taken during the first ``warmup`` seconds are discarded:
    the idle setup window leaves a multi-second gap in ``doc_time``, so
    right after the first edit a member half a poll interval behind
    would read as seconds "stale" — an artifact of the gap, not of the
    serving path (same convention as the transport ablation's warmup).
    """
    sim, host, session, pool = build_pool(shards)
    started_at = sim.now
    rng = random.Random(SEED)
    acked = {}
    active = set()
    staleness_samples = []
    next_id = [0]

    def member(pid, offset):
        yield sim.timeout(offset)
        acked[pid] = 0
        while pid in active:
            agent = pool.agent_for(pid)
            request = HttpRequest(
                "POST", "/poll", None, poll_payload(pid, acked[pid])
            )
            response = yield from agent._poll_response(request, pid)
            times = _DOC_TIME.findall(response.body)
            if times:
                acked[pid] = int(times[-1])
            yield sim.timeout(POLL_INTERVAL)

    def spawn(count, offset_spread=POLL_INTERVAL):
        for _ in range(count):
            pid = "c%06d" % next_id[0]
            next_id[0] += 1
            active.add(pid)
            pool.directory.place(pid)
            sim.process(member(pid, rng.uniform(0.0, offset_spread)))

    def churn():
        # Every half second a sliver of the fleet leaves and an equal
        # sliver joins; at ``flash_at`` a 20% flash crowd arrives at
        # once (offsets compressed into a tenth of a poll interval).
        flashed = False
        while True:
            yield sim.timeout(0.5)
            turnover = max(1, N // 200)
            for pid in rng.sample(sorted(active), min(turnover, len(active))):
                active.discard(pid)
                pool.directory.release(pid)
                acked.pop(pid, None)
            spawn(turnover)
            if not flashed and sim.now >= flash_at:
                flashed = True
                spawn(N // 5, offset_spread=POLL_INTERVAL / 10.0)

    def changes():
        tick = 0
        while True:
            yield sim.timeout(CHANGE_INTERVAL)
            tick += 1
            edit_tick(host, tick)

    def sampler():
        yield sim.timeout(0.1)  # off-phase with the change grid
        while True:
            yield sim.timeout(0.25)
            if sim.now - started_at < warmup:
                continue
            host_time = session.agent.doc_time
            for pid in active:
                member_time = acked.get(pid, 0)
                if member_time == 0:
                    # Not yet attached: its lag is join latency, not
                    # coherence — measured against join time, not t=0.
                    continue
                staleness_samples.append(float(max(0, host_time - member_time)))

    spawn(N)
    sim.process(churn())
    sim.process(changes())
    sim.process(sampler())
    sim.run(until=sim.now + window)
    peak = len(active)
    active.clear()  # wind down member loops
    session.close()
    return {
        "shards": shards,
        "members": N,
        "peak_active": peak,
        "samples": len(staleness_samples),
        "staleness_p99_ms": round(_p99(staleness_samples), 1),
    }


# -- phase 3: host-death failover -----------------------------------------------------


def _measure_failover(shards=8, fail_at=3.0, window=8.0):
    """Kill the busiest shard host; count recovered members."""
    events = EventBus(max_total_events=4096)
    sim, host, session, pool = build_pool(shards, events=events)
    acked = {}
    recovered = set()
    ordering_violations = [0]
    dead_members = []
    promoted = [None]
    failed = [False]

    members = ["f%05d" % i for i in range(N)]
    for pid in members:
        pool.directory.place(pid)

    def member(pid, offset):
        yield sim.timeout(offset)
        acked[pid] = 0
        while True:
            agent = pool.agent_for(pid)
            request = HttpRequest(
                "POST", "/poll", None, poll_payload(pid, acked[pid])
            )
            response = yield from agent._poll_response(request, pid)
            times = _DOC_TIME.findall(response.body)
            if times:
                landed = int(times[-1])
                if landed < acked[pid]:
                    ordering_violations[0] += 1
                acked[pid] = landed
            if failed[0] and pid in dead_members:
                if pool.shard_of(pid) == promoted[0]:
                    recovered.add(pid)
            yield sim.timeout(POLL_INTERVAL)

    def changes():
        tick = 0
        while True:
            yield sim.timeout(CHANGE_INTERVAL)
            tick += 1
            edit_tick(host, tick)

    def killer():
        yield sim.timeout(fail_at)
        load = pool.directory.load()
        victim = max(pool.relays, key=lambda shard: load.get(shard, 0))
        promoted[0] = pool.directory.successor(victim)
        dead_members.extend(
            pid
            for pid, shard in pool.directory.assignments.items()
            if shard == victim
        )
        pool.fail_shard(victim)
        failed[0] = True

    rng = random.Random(SEED + 1)
    for pid in members:
        sim.process(member(pid, rng.uniform(0.0, POLL_INTERVAL)))
    sim.process(changes())
    sim.process(killer())
    sim.run(until=window)
    session.close()

    assert dead_members, "the failed shard must have owned members"
    recovered_pct = 100.0 * len(recovered) / len(dead_members)
    return {
        "shards": shards,
        "members": N,
        "dead_shard_members": len(dead_members),
        "promoted": promoted[0],
        "recovered_pct": round(recovered_pct, 1),
        "ordering_violations": ordering_violations[0],
        "promote_events": events.total(SHARD_PROMOTE),
        "migrate_events": events.total(SHARD_MIGRATE),
    }


# -- the benchmark --------------------------------------------------------------------


def test_shard_scaling_curve(benchmark, results_dir):
    results = {}

    def run_all():
        results["curves"] = _measure_curve()
        results["churn"] = _measure_churn()
        results["failover"] = _measure_failover()

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    curves = results["curves"]
    churn = results["churn"]
    failover = results["failover"]
    breach_ms = default_rules()[0].breach

    rows = [
        "Sharded serve scaling (N=%d members; rounds timed apart, one resync "
        "poll per member each: join = every member new to its shard, "
        "known = the same members again)" % N
    ]
    for name in ROUNDS:
        for shards in SHARD_COUNTS:
            point = curves[name][shards]
            rows.append(
                "%-5s round %2d shards: %10.1f serves/s aggregate (%.2fx vs 1 "
                "shard, bottleneck %.3fs)"
                % (
                    name,
                    shards,
                    point["aggregate_serves_per_s"],
                    point["speedup_vs_1"],
                    point["bottleneck_s"],
                )
            )
    rows.append(
        "churn+flash-crowd staleness p99: %.1f ms over %d samples "
        "(SLO staleness_p95 breach at %.0f ms, peak %d active)"
        % (
            churn["staleness_p99_ms"],
            churn["samples"],
            breach_ms,
            churn["peak_active"],
        )
    )
    rows.append(
        "failover: promoted %s, recovered=%.1f%% of %d members, "
        "ordering violations=%d"
        % (
            failover["promoted"],
            failover["recovered_pct"],
            failover["dead_shard_members"],
            failover["ordering_violations"],
        )
    )
    write_result(results_dir, "scale_shard.txt", "\n".join(rows))
    write_result(
        results_dir,
        "scale_shard.json",
        json.dumps(
            {
                "config": {
                    "members": N,
                    "rounds": list(ROUNDS),
                    "shard_counts": list(SHARD_COUNTS),
                    "seed": SEED,
                },
                "curves": {
                    name: [curves[name][shards] for shards in SHARD_COUNTS]
                    for name in ROUNDS
                },
                "churn": churn,
                "failover": failover,
            },
            indent=1,
            sort_keys=True,
        ),
    )

    # Near-linear scaling in both rounds: 8 shards clear 3x one agent
    # (the CI floors ``shard-scale-join-n1k`` / ``shard-scale-known-n1k``
    # re-check this from the written artifact).
    for name in ROUNDS:
        curve = curves[name]
        assert curve[8]["speedup_vs_1"] >= 3.0, (name, curve)
        assert curve[4]["speedup_vs_1"] > curve[1]["speedup_vs_1"], (name, curve)
    # Coherence: p99 staleness inside the SLO rule's breach threshold.
    assert churn["staleness_p99_ms"] <= breach_ms, churn
    # Failover: everyone on the dead shard re-attached to the promoted
    # instance, and nobody's acknowledged doc_time ever went backwards.
    assert failover["recovered_pct"] == 100.0, failover
    assert failover["ordering_violations"] == 0, failover
    assert failover["promote_events"] == 1
    assert failover["migrate_events"] == failover["dead_shard_members"]

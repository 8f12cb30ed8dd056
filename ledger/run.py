"""Run one ledger workload and print its metrics.

    python3 ledger/run.py --workload surf-lan --seed 7 --seconds 10 --trace 0

Run from the repository root: the program is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are the same numbers for people, plus the problems found.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import sys

from clock import Stopwatch

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.getcwd(), "src")

#: Set-ups timed per run: one per episode, then more until they add up
#: to ``MIN_SETUP_S`` wall seconds (at most ``MAX_SETUPS``); set-up is
#: measured cold every time and reported as the median.
MIN_SETUP_S = 4.0
MAX_SETUPS = 60

#: Work episodes per run: at least this many, and at least ``--seconds``
#: of work; throughput is reported for their median.
MIN_EPISODES = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "staleness_p50_ms": "ms",
    "staleness_p95_ms": "ms",
    "content_bytes_per_op": "B",
    "peak_rss_mb": "MB",
}


def percentile(values, share):
    """Nearest-rank percentile of a sample list."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(share * len(ordered) + 0.5) - 1))
    return float(ordered[rank])


def cold_setup(workload):
    """Build a fresh world with the generated-site cache emptied, so
    every set-up pays what a fresh process pays; return it with the
    set-up's stopwatch."""
    from repro.webserver import sites

    sites._SITE_CACHE.clear()
    gc.collect()
    with Stopwatch() as clock:
        world = workload.setup()
    return world, clock


def run_episode(workload, world):
    """One timed work phase plus its (untimed) checks; return the outcome
    and the work phase's stopwatch."""
    gc.collect()
    with Stopwatch() as clock:
        outcome = workload.work(world)
    workload.check(world, outcome)
    return outcome, clock


class Run:
    """Episodes of one workload and seed; every episode must reproduce
    the first one's simulated outcome exactly."""

    def __init__(self, workload):
        self.workload = workload
        self.setups = []
        self.outcomes = []
        self.problems = []

    def episode(self):
        world, setup = cold_setup(self.workload)
        self.setups.append(setup)
        outcome, clock = run_episode(self.workload, world)
        del world
        self.adopt("episode %d" % (len(self.outcomes) + 1), outcome)
        return outcome, clock

    def adopt(self, label, outcome):
        """Count an episode's outcome; it must match the first one's
        sim-time outcome and content bytes exactly."""
        if self.outcomes and outcome.fingerprint() != self.outcomes[0].fingerprint():
            self.problems.append(
                "%s diverged from episode 1 (fingerprint %s vs %s)"
                % (label, outcome.fingerprint(), self.outcomes[0].fingerprint())
            )
        self.outcomes.append(outcome)
        self.problems.extend(outcome.problems)

    def extra_setups(self):
        while (
            sum(setup.wall_s() for setup in self.setups) < MIN_SETUP_S
            and len(self.setups) < MAX_SETUPS
        ):
            world, setup = cold_setup(self.workload)
            self.setups.append(setup)
            del world

    def verdict(self):
        attempted = sum(outcome.attempted for outcome in self.outcomes)
        failed = sum(outcome.failed for outcome in self.outcomes)
        correct = failed == 0 and not self.problems
        return correct, max(1, attempted), failed


def end_to_end(workload, seconds):
    run = Run(workload)
    clocks = []
    while len(clocks) < MIN_EPISODES or sum(c.wall_s() for c in clocks) < seconds:
        clocks.append(run.episode()[1])
    run.extra_setups()
    first = run.outcomes[0]
    work_s = statistics.median(clock.reference_s() for clock in clocks)
    samples = first.staleness_ms
    if len(samples) < 200:
        run.problems.append("only %d staleness samples (p95 needs 200)" % len(samples))
    metrics = {
        "setup_s": statistics.median(setup.reference_s() for setup in run.setups),
        "ops_per_s": first.attempted / work_s,
        "staleness_p50_ms": percentile(samples, 0.50) if samples else 0.0,
        "staleness_p95_ms": percentile(samples, 0.95) if samples else 0.0,
        "content_bytes_per_op": first.content_bytes / max(1, first.attempted),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = [
        "work: wall s=%s reference s=%s, %d ops"
        % (
            ",".join("%.3f" % clock.wall_s() for clock in clocks),
            ",".join("%.3f" % clock.reference_s() for clock in clocks),
            first.attempted,
        ),
        "set-up: %d, wall s median %.4f"
        % (len(run.setups), statistics.median(setup.wall_s() for setup in run.setups)),
        "staleness samples=%d fingerprint=%s" % (len(samples), first.fingerprint()),
    ]
    return run, {name: (value, END_TO_END_UNITS[name]) for name, value in metrics.items()}, notes


def per_layer(workload):
    """One untraced episode, one traced episode and one profiled
    episode of the same seed; per-layer numbers come from the traced
    one, overhead from traced vs untraced work in reference seconds."""
    from layers import LayerTrace, profile_by_module, uncovered_modules

    run = Run(workload)
    bare, bare_clock = run.episode()

    trace = LayerTrace()
    trace.install()
    probe = {}
    try:
        world, _ = cold_setup(workload)
        agent = world["agent"]
        before = {key: agent.stats[key] for key in AGENT_COUNTERS}
        resyncs_before = resyncs(world)
        trace.reset()
        traced, traced_clock = run_episode(workload, world)
        probe["agent_delta"] = {key: agent.stats[key] - before[key] for key in before}
        probe["amortization"] = agent.stats["serve_amortization"]
        probe["resyncs"] = resyncs(world) - resyncs_before
        del world
    finally:
        trace.restore()
    run.adopt("the traced episode", traced)

    profile_world, _ = cold_setup(workload)
    holder = {}

    def profiled():
        holder["outcome"] = workload.work(profile_world)

    gc.collect()
    per_module, total = profile_by_module(profiled, SRC)
    workload.check(profile_world, holder["outcome"])
    del profile_world
    run.adopt("the profiled episode", holder["outcome"])
    gaps = uncovered_modules(per_module, total)

    overhead = traced_clock.reference_s() / bare_clock.reference_s()
    metrics = layer_metrics(trace, probe, bare, traced_clock.wall_s(), overhead, len(gaps))
    notes = ["uncovered module %s: %.1f%% of profiled self time" % (m, 100 * s) for m, s in gaps]
    top = sorted(per_module.items(), key=lambda item: -item[1])[:8]
    notes.append(
        "profile top modules: "
        + ", ".join("%s %.1f%%" % (m, 100 * s / total) for m, s in top)
    )
    return run, metrics, notes


def resyncs(world):
    return sum(snippet.stats.delta_failures for snippet in world["snippets"])


#: Counters the agent already publishes; read before and after the
#: traced work phase instead of wrapping anything.
AGENT_COUNTERS = (
    "polls",
    "delta_fallbacks",
    "wire_bytes_zero_copy",
    "wire_bytes_copied",
    "segments_reused",
    "segments_total",
)


def layer_metrics(trace, probe, bare, traced_s, overhead, uncovered):
    s, calls, amount = trace.self_s, trace.calls, trace.amount
    agent = probe["agent_delta"]

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    if bare.join_serve_s or bare.steady_serve_s:
        # The flash crowd times each serve from its load generator, untraced.
        joins = [t * 1e6 for t in bare.join_serve_s]
        steady = [t * 1e6 for t in bare.steady_serve_s]
    else:
        joins = [active * 1e6 for active, joined in trace.serves if joined]
        steady = [active * 1e6 for active, joined in trace.serves if not joined]
    layer_total = sum(v for k, v in s.items() if k != "app")
    metrics = {
        "sim.events": (calls["sim"], "count"),
        "sim.self_s": (s["sim"], "s"),
        "net.bytes": (amount["net.bytes"], "B"),
        "net.connections": (amount["net.connections"], "count"),
        "net.self_s": (s["net"], "s"),
        "http.messages": (amount["http.messages"], "count"),
        "http.self_s": (s["http"], "s"),
        "http.zero_copy_ratio": (
            ratio(
                agent["wire_bytes_zero_copy"],
                agent["wire_bytes_zero_copy"] + agent["wire_bytes_copied"],
            ),
            "ratio",
        ),
        "html.parse_bytes": (amount["html.parse_bytes"], "B"),
        "html.parse_s": (s["html.parse"], "s"),
        "html.serialize_s": (s["html.serialize"], "s"),
        "browser.object_scans": (calls["browser.objects"], "count"),
        "browser.objects_s": (s["browser.objects"], "s"),
        "browser.navigate_s": (s["browser.navigate"], "s"),
        "origin.requests": (calls["origin"], "count"),
        "origin.s": (s["origin"], "s"),
        "content.generations": (calls["content"], "count"),
        "content.generate_s": (s["content"], "s"),
        "content.reuse_ratio": (ratio(agent["segments_reused"], agent["segments_total"]), "ratio"),
        "delta.diffs": (calls["delta.diff"], "count"),
        "delta.diff_s": (s["delta.diff"], "s"),
        "delta.wasted_diff_ratio": (ratio(agent["delta_fallbacks"], calls["delta.diff"]), "ratio"),
        "delta.apply_s": (s["delta.apply"], "s"),
        "serve.polls": (calls["serve"], "count"),
        "serve.self_s": (s["serve"], "s"),
        "serve.amortization": (probe["amortization"], "ratio"),
        "serve.join_us": (statistics.median(joins) if joins else 0.0, "us"),
        "serve.join_samples": (len(joins), "count"),
        "serve.steady_us": (statistics.median(steady) if steady else 0.0, "us"),
        "serve.steady_samples": (len(steady), "count"),
        "serve.wall_p99_us": (percentile(joins + steady, 0.99) if joins or steady else 0.0, "us"),
        "agent.broadcast_s": (s["agent.broadcast"], "s"),
        "transport.held_polls": (calls["transport"], "count"),
        "transport.releases": (amount["transport.releases"], "count"),
        "decode.envelopes": (calls["decode"], "count"),
        "decode.bytes": (amount["decode.bytes"], "B"),
        "decode.s": (s["decode"] + s["decode.unescape"], "s"),
        "decode.unescape_s": (s["decode.unescape"], "s"),
        "apply.updates": (calls["apply"], "count"),
        "apply.s": (s["apply"], "s"),
        "apply.resyncs": (probe["resyncs"], "count"),
        "staleness.samples": (len(bare.staleness_ms), "count"),
        "trace.coverage": (ratio(layer_total, traced_s), "ratio"),
        "trace.overhead": (overhead, "ratio"),
        "trace.uncovered_modules": (uncovered, "count"),
    }
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.stderr.write("no program to measure: %s/repro is missing\n" % SRC)
        return 2
    sys.path[:0] = [SRC, HERE]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.stderr.write("unknown workload %r; choose from %s\n" % (args.workload, sorted(WORKLOADS)))
        return 2
    workload = WORKLOADS[args.workload](args.seed)

    if args.trace:
        run, metrics, notes = per_layer(workload)
    else:
        run, metrics, notes = end_to_end(workload, args.seconds)
    correct, attempted, failed = run.verdict()

    print("workload %s seed %d (%s)" % (args.workload, args.seed, workload.op_name))
    for name, (value, unit) in metrics.items():
        print("  %-26s %14.4f %s" % (name, value, unit))
    print("  %-26s %14.4f ratio" % ("error_rate", failed / attempted))
    for note in notes + run.problems:
        print("  " + note)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

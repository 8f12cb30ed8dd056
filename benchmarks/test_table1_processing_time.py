"""Table 1: homepage size and processing time of the 20 sites.

Columns reproduced: page size (KB), M5 non-cache (response content
generation, Fig. 3), M5 cache, and M6 (participant document update,
Fig. 5).  M5/M6 are real wall-clock measurements of this repository's
implementation, so absolute values differ from the paper's 2009
hardware; the shape claims tested are the paper's observations:

1. larger documents need more processing time (M5 grows with size);
2. M5 cache > M5 non-cache (the extra cache lookup time);
3. content generation is efficient and reusable across participants;
4. M6 is small (well under the paper's one-third of a second on modern
   hardware) for every page.
"""

import time

import pytest

from repro.webserver import TABLE1_SITES

from _rcb_compute import SiteComputeHarness
from conftest import write_result


def _measure(callable_, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - started)
    return best


def test_table1_all_sites(benchmark, results_dir):
    rows = []

    def measure_all():
        for spec in TABLE1_SITES:
            harness = SiteComputeHarness(spec)
            m5_non_cache = _measure(lambda: harness.generate(cache_mode=False))
            m5_cache = _measure(lambda: harness.generate(cache_mode=True))
            snippet = harness.make_participant_snippet()
            m6 = _measure(lambda: harness.apply_update(snippet))
            rows.append((spec, m5_non_cache, m5_cache, m6))
        return rows

    benchmark.pedantic(measure_all, rounds=1, iterations=1)

    lines = [
        "Table 1: homepage size and processing time of 20 sites",
        "%-4s %-16s %10s %14s %12s %10s"
        % ("#", "site", "size (KB)", "M5 non-cache", "M5 cache", "M6"),
    ]
    for spec, m5_nc, m5_c, m6 in rows:
        lines.append(
            "%-4d %-16s %10.1f %13.4fs %11.4fs %9.4fs"
            % (spec.index, spec.host, spec.page_kb, m5_nc, m5_c, m6)
        )
    write_result(results_dir, "table1_processing_time.txt", "\n".join(lines))

    # Claim 1: M5 grows with document size (rank correlation, compared
    # between the small and large halves to tolerate timer noise).
    by_size = sorted(rows, key=lambda r: r[0].page_kb)
    small_half = [r[1] for r in by_size[:10]]
    large_half = [r[1] for r in by_size[10:]]
    assert sum(large_half) / 10 > sum(small_half) / 10

    # Claim 2: cache mode costs more than non-cache mode (extra lookups)
    # in aggregate.
    assert sum(r[2] for r in rows) > sum(r[1] for r in rows)

    # Claim 4: the participant update stays fast for every page.
    assert all(r[3] < 1.0 for r in rows)


@pytest.mark.parametrize(
    "spec",
    [TABLE1_SITES[1], TABLE1_SITES[4], TABLE1_SITES[12]],
    ids=lambda spec: spec.host,
)
def test_m5_generation_non_cache(benchmark, spec):
    harness = SiteComputeHarness(spec)
    benchmark(lambda: harness.generate(cache_mode=False))


@pytest.mark.parametrize(
    "spec",
    [TABLE1_SITES[1], TABLE1_SITES[4], TABLE1_SITES[12]],
    ids=lambda spec: spec.host,
)
def test_m5_generation_cache(benchmark, spec):
    harness = SiteComputeHarness(spec)
    benchmark(lambda: harness.generate(cache_mode=True))


@pytest.mark.parametrize(
    "spec",
    [TABLE1_SITES[1], TABLE1_SITES[4], TABLE1_SITES[12]],
    ids=lambda spec: spec.host,
)
def test_m6_participant_update(benchmark, spec):
    harness = SiteComputeHarness(spec)
    snippet = harness.make_participant_snippet()
    benchmark(lambda: harness.apply_update(snippet))


def test_generation_reused_across_participants(benchmark):
    """§4.1.2: generation runs once per document state; serving N
    participants reuses it.  The per-participant marginal cost is the
    broadcast plan splicing their action queue into the shared wire
    template, benchmarked here."""
    from repro.core import MouseMoveAction, encode_actions
    from repro.core.serveplan import BroadcastPlan
    from repro.core.xmlformat import js_escape

    harness = SiteComputeHarness(TABLE1_SITES[4])
    plan = BroadcastPlan(harness.generate(cache_mode=False))
    actions = [MouseMoveAction(1, 2)]

    benchmark(lambda: plan.personalize(js_escape(encode_actions(actions)).encode("ascii")))

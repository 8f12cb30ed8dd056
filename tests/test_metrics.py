"""Tests for the M1-M6 metrics, experiment harness, and report rendering."""

import pytest

from repro.metrics import (
    ExperimentResult,
    SiteMeasurement,
    average_measurements,
    bar,
    render_figure_m1_m2,
    render_figure_m3_m4,
    render_shape_checks,
    render_table1,
    render_trace_summary,
    run_experiment,
    run_round,
)
from repro.obs import MetricsRegistry, Tracer
from repro.webserver import TABLE1_SITES


def row(site="a.com", m1=1.0, m2=0.5, m3=None, m4=0.1, m5=0.01, m6=0.02, cache=True, kb=50.0):
    return SiteMeasurement(site, kb, m1, m2, m3, m4, m5, m6, cache)


class TestAveraging:
    def test_average_of_identical_rows(self):
        averaged = average_measurements([row(), row()])
        assert averaged.m1 == 1.0
        assert averaged.m4 == 0.1

    def test_average_mixes_values(self):
        averaged = average_measurements([row(m1=1.0), row(m1=3.0)])
        assert averaged.m1 == 2.0

    def test_none_metrics_skipped(self):
        averaged = average_measurements([row(m3=None), row(m3=None)])
        assert averaged.m3 is None

    def test_mixed_sites_rejected(self):
        with pytest.raises(ValueError):
            average_measurements([row(site="a.com"), row(site="b.com")])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            average_measurements([])

    def test_as_dict(self):
        data = row().as_dict()
        assert data["site"] == "a.com"
        assert data["m1"] == 1.0


SAMPLE_SITES = TABLE1_SITES[:3]


class TestHarness:
    def test_round_produces_row_per_site(self):
        rows = run_round("lan", cache_mode=True, sites=SAMPLE_SITES)
        assert [r.site for r in rows] == [s.host for s in SAMPLE_SITES]
        for r in rows:
            assert r.m1 > 0
            assert r.m2 > 0
            assert r.m4 is not None and r.m4 > 0
            assert r.m3 is None
            assert r.m5 > 0
            assert r.m6 > 0

    def test_non_cache_round_records_m3(self):
        rows = run_round("lan", cache_mode=False, sites=SAMPLE_SITES)
        for r in rows:
            assert r.m3 is not None and r.m3 > 0
            assert r.m4 is None

    def test_unknown_environment_rejected(self):
        with pytest.raises(ValueError):
            run_round("satellite", sites=SAMPLE_SITES)

    def test_lan_m2_beats_m1(self):
        rows = run_round("lan", cache_mode=True, sites=SAMPLE_SITES)
        assert all(r.m2 < r.m1 for r in rows)

    def test_wan_slower_than_lan(self):
        lan = run_round("lan", cache_mode=True, sites=SAMPLE_SITES)
        wan = run_round("wan", cache_mode=True, sites=SAMPLE_SITES)
        for lan_row, wan_row in zip(lan, wan):
            assert wan_row.m2 > lan_row.m2
            assert wan_row.m1 > lan_row.m1

    def test_rounds_are_deterministic(self):
        first = run_round("lan", cache_mode=True, sites=SAMPLE_SITES)
        second = run_round("lan", cache_mode=True, sites=SAMPLE_SITES)
        for a, b in zip(first, second):
            assert a.m1 == b.m1
            assert a.m2 == b.m2
            assert a.m4 == b.m4

    def test_experiment_result_helpers(self):
        rows = run_round("lan", cache_mode=True, sites=SAMPLE_SITES)
        result = ExperimentResult("lan", True, rows)
        assert set(result.by_site()) == {s.host for s in SAMPLE_SITES}
        assert result.sites_where(lambda r: r.m2 < r.m1) == [r.site for r in rows]

    def test_distribution_without_registry_is_none(self):
        result = ExperimentResult("lan", True, [row()])
        assert result.distribution("m5_seconds") is None

    def test_experiment_registry_keeps_raw_m5_m6_observations(self):
        result = run_experiment(
            "lan", cache_mode=True, repetitions=2, sites=SAMPLE_SITES
        )
        m5 = result.distribution("m5_seconds")
        m6 = result.distribution("m6_seconds")
        # One raw observation per site per round survives the averaging.
        assert m5.count == len(SAMPLE_SITES) * 2
        assert m6.count == len(SAMPLE_SITES) * 2
        assert 0.0 < m5.p50 <= m5.p99
        assert result.distribution("no_such_metric") is None

    def test_experiment_accepts_a_session_tracer(self):
        tracer = Tracer()
        run_experiment("lan", cache_mode=True, repetitions=1, sites=SAMPLE_SITES[:1], tracer=tracer)
        names = {span.name for span in tracer.spans}
        assert "host.generate" in names
        assert "snippet.apply" in names


class TestReportRendering:
    def test_bar_scales(self):
        assert bar(1.0, 1.0, width=10) == "#" * 10
        assert bar(0.5, 1.0, width=10) == "#" * 5
        assert bar(5.0, 1.0, width=10) == "#" * 10  # clamped

    def test_figure_m1_m2_contains_sites(self):
        rows = [row(site="x.com"), row(site="y.com", m1=2.0)]
        text = render_figure_m1_m2(rows, "lan")
        assert "x.com" in text and "y.com" in text
        assert "M2 < M1 on 2 of 2 sites" in text

    def test_figure_m3_m4_gain(self):
        non_cache = [row(site="x.com", m3=1.0, m4=None, cache=False)]
        cache = [row(site="x.com", m3=None, m4=0.25)]
        text = render_figure_m3_m4(non_cache, cache, "lan")
        assert "4.00x" in text
        assert "M4 < M3 on 1 of 1 sites" in text

    def test_table1_lists_sizes(self):
        non_cache = [row(m3=1.0, m4=None, cache=False, kb=130.3)]
        cache = [row(kb=130.3)]
        text = render_table1(non_cache, cache)
        assert "130.3" in text
        assert "M5 non-cache" in text

    def test_shape_checks_pass_fail(self):
        text = render_shape_checks({"claim a": True, "claim b": False})
        assert "[PASS] claim a" in text
        assert "[FAIL] claim b" in text

    def test_table1_distribution_block(self):
        non_cache = [row(m3=1.0, m4=None, cache=False)]
        cache = [row()]
        histogram = MetricsRegistry().histogram("m5_seconds")
        for value in (0.01, 0.02, 0.1):
            histogram.observe(value)
        text = render_table1(
            non_cache, cache, {"M5 non-cache": histogram, "M6": None}
        )
        assert "Distributions over raw per-site observations" in text
        assert "p95" in text and "p99" in text
        assert "0.0200s" in text  # the p50 of the three observations
        assert "M6" not in text.split("Distributions")[1]  # None rows skipped

    def test_table1_without_distributions_is_unchanged(self):
        non_cache = [row(m3=1.0, m4=None, cache=False)]
        text = render_table1(non_cache, [row()])
        assert "Distributions" not in text

    def test_trace_summary_renders_tree_and_stage_percentiles(self):
        tracer = Tracer()
        root = tracer.start_span("host.generate", t=0.0, node="bob")
        root.finish(0.0)
        serve = tracer.start_span(
            "host.serve", t=0.1, parent=root, node="bob", kind="full"
        )
        serve.finish(0.3)
        tracer.start_span("snippet.apply", t=0.4, parent=serve, node="p0").finish(0.5)
        text = render_trace_summary(tracer)
        lines = text.splitlines()
        assert "Trace summary: 3 spans in 1 traces" in lines[0]
        generate_line = next(i for i, l in enumerate(lines) if "host.generate" in l)
        serve_line = next(i for i, l in enumerate(lines) if "host.serve" in l)
        # Children render indented beneath their parents.
        indent = lambda i: len(lines[i]) - len(lines[i].lstrip())  # noqa: E731
        assert generate_line < serve_line
        assert indent(serve_line) > indent(generate_line)
        assert "Per-stage sim-time durations:" in text
        assert "snippet.apply" in text.split("Per-stage")[1]

    def test_trace_summary_handles_empty_and_overflow(self):
        assert render_trace_summary([]) == "Trace summary: no spans recorded"
        tracer = Tracer()
        for _ in range(4):
            tracer.start_span("host.generate", t=0.0, node="bob").finish(0.0)
        text = render_trace_summary(tracer, max_traces=2)
        assert "2 more traces not shown" in text

    def test_trace_summary_accepts_a_plain_span_iterable(self):
        tracer = Tracer()
        tracer.start_span("host.generate", t=0.0, node="bob").finish(0.0)
        assert "host.generate" in render_trace_summary(tracer.spans)

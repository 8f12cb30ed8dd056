"""The CI benchmark regression guard: parser and verdict logic.

``benchmarks/check_regression.py`` and ``benchmarks/bench_compare.py``
are standalone scripts (no package), so they are loaded here by path.
"""

import importlib.util
import json
import os
import sys

import pytest

_SCRIPT = os.path.join(
    os.path.dirname(__file__), os.pardir, "benchmarks", "check_regression.py"
)
_spec = importlib.util.spec_from_file_location("check_regression", _SCRIPT)
guard = importlib.util.module_from_spec(_spec)
sys.modules.setdefault("check_regression", guard)
_spec.loader.exec_module(guard)

_COMPARE = os.path.join(os.path.dirname(_SCRIPT), "bench_compare.py")
_cspec = importlib.util.spec_from_file_location("bench_compare", _COMPARE)
bench_compare = importlib.util.module_from_spec(_cspec)
_cspec.loader.exec_module(bench_compare)

BASELINE_LINE = (
    "Full-stack surf: 14 pages + 10 mutations in 2.51 s wall "
    "(9.6 operations/s); 63.3 simulated seconds"
)


class TestParser:
    def test_parses_the_committed_rendering_format(self):
        assert guard.parse_throughput(BASELINE_LINE) == 9.6

    def test_parses_integer_and_multiline_renderings(self):
        assert guard.parse_throughput("header\nblah (12 operations/s) tail\n") == 12.0

    def test_rejects_renderings_without_a_figure(self):
        with pytest.raises(guard.GuardError):
            guard.parse_throughput("Full-stack surf: no figure here")

    def test_parses_the_actual_committed_baseline(self):
        baseline = os.path.join(
            os.path.dirname(_SCRIPT), "results", "harness_throughput.txt"
        )
        with open(baseline) as handle:
            assert guard.parse_throughput(handle.read()) > 0


class TestVerdict:
    def test_small_slowdown_within_threshold_passes(self):
        verdict = guard.check(10.0, 8.0, threshold=0.25)
        assert "OK" in verdict

    def test_large_slowdown_fails(self):
        with pytest.raises(guard.GuardError, match="regressed"):
            guard.check(10.0, 7.0, threshold=0.25)

    def test_speedup_passes_and_hints_at_baseline_refresh(self):
        verdict = guard.check(10.0, 20.0, threshold=0.25)
        assert "OK" in verdict
        assert "refreshing" in verdict

    def test_zero_baseline_is_an_error(self):
        with pytest.raises(guard.GuardError):
            guard.check(0.0, 5.0, threshold=0.25)


class TestMain:
    def test_end_to_end_pass_and_fail(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.txt"
        current = tmp_path / "current.txt"
        baseline.write_text(BASELINE_LINE + "\n")
        current.write_text(BASELINE_LINE.replace("9.6", "9.1") + "\n")
        assert guard.main([str(baseline), str(current)]) == 0

        current.write_text(BASELINE_LINE.replace("9.6", "3.0") + "\n")
        assert guard.main([str(baseline), str(current)]) == 1
        assert "regressed" in capsys.readouterr().err

    def test_missing_file_is_a_clean_failure(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.txt"
        baseline.write_text(BASELINE_LINE + "\n")
        assert guard.main([str(baseline), str(tmp_path / "absent.txt")]) == 1
        assert "guard" in capsys.readouterr().err


class TestFloor:
    def test_above_floor_passes(self):
        assert "OK" in guard.check_floor(1200.0, 100.0)

    def test_below_floor_fails(self):
        with pytest.raises(guard.GuardError, match="below the floor"):
            guard.check_floor(50.0, 100.0)

    def test_single_file_floor_mode(self, tmp_path, capsys):
        rendering = tmp_path / "ablation.txt"
        rendering.write_text("incremental generation throughput: (250.0 operations/s)\n")
        assert guard.main([str(rendering), "--floor", "100"]) == 0
        assert guard.main([str(rendering), "--floor", "9999"]) == 1
        assert "below the floor" in capsys.readouterr().err

    def test_floor_composes_with_relative_check(self, tmp_path):
        baseline = tmp_path / "baseline.txt"
        current = tmp_path / "current.txt"
        baseline.write_text(BASELINE_LINE + "\n")
        current.write_text(BASELINE_LINE.replace("9.6", "9.1") + "\n")
        assert guard.main([str(baseline), str(current), "--floor", "5"]) == 0
        assert guard.main([str(baseline), str(current), "--floor", "9.5"]) == 1


class TestFloorsSpec:
    """The ``--spec floors.json`` multi-metric mode."""

    def write_spec(self, tmp_path, entries):
        spec = tmp_path / "floors.json"
        spec.write_text(json.dumps({"floors": entries}))
        return spec

    def test_custom_pattern_extracts_the_named_figure(self, tmp_path):
        rendering = tmp_path / "serve.txt"
        rendering.write_text(
            "Batched serve (MSN, N=256): 151738.2 serves/s\n"
        )
        value = guard.parse_metric(
            rendering.read_text(), r"N=256\): ([0-9.]+) serves/s"
        )
        assert value == 151738.2

    def test_all_entries_pass(self, tmp_path, capsys):
        (tmp_path / "a.txt").write_text("x (250.0 operations/s)\n")
        (tmp_path / "b.txt").write_text("y: 42.5 widgets/s\n")
        spec = self.write_spec(
            tmp_path,
            [
                {"name": "a", "file": "a.txt", "floor": 100},
                {
                    "name": "b",
                    "file": "b.txt",
                    "pattern": r"([0-9.]+) widgets/s",
                    "floor": 40,
                    "unit": "widgets/s",
                },
            ],
        )
        assert guard.main(["--spec", str(spec)]) == 0
        table = capsys.readouterr().out
        assert "a" in table and "b" in table
        assert table.count("OK") == 2

    def test_one_breach_fails_but_reports_every_entry(self, tmp_path, capsys):
        (tmp_path / "a.txt").write_text("x (250.0 operations/s)\n")
        (tmp_path / "b.txt").write_text("y (3.0 operations/s)\n")
        spec = self.write_spec(
            tmp_path,
            [
                {"name": "a", "file": "a.txt", "floor": 100},
                {"name": "b", "file": "b.txt", "floor": 100},
            ],
        )
        assert guard.main(["--spec", str(spec)]) == 1
        captured = capsys.readouterr()
        assert "OK" in captured.out and "FAIL" in captured.out
        assert "below the floor" in captured.err

    def test_missing_rendering_is_an_error_row_not_a_crash(self, tmp_path, capsys):
        (tmp_path / "a.txt").write_text("x (250.0 operations/s)\n")
        spec = self.write_spec(
            tmp_path,
            [
                {"name": "a", "file": "a.txt", "floor": 100},
                {"name": "gone", "file": "absent.txt", "floor": 100},
            ],
        )
        assert guard.main(["--spec", str(spec)]) == 1
        assert "ERROR" in capsys.readouterr().out

    def test_paths_resolve_against_the_spec_directory(self, tmp_path, monkeypatch):
        nested = tmp_path / "nested"
        nested.mkdir()
        (nested / "a.txt").write_text("x (250.0 operations/s)\n")
        spec = self.write_spec(nested, [{"name": "a", "file": "a.txt", "floor": 100}])
        monkeypatch.chdir(tmp_path)
        assert guard.main(["--spec", str(spec)]) == 0

    def test_spec_rejects_extra_positional_files(self, tmp_path):
        spec = self.write_spec(tmp_path, [{"name": "a", "file": "a.txt", "floor": 1}])
        with pytest.raises(SystemExit):
            guard.main(["base.txt", "--spec", str(spec)])

    def test_empty_spec_is_an_error(self, tmp_path, capsys):
        spec = tmp_path / "floors.json"
        spec.write_text(json.dumps({"floors": []}))
        assert guard.main(["--spec", str(spec)]) == 1
        assert "no 'floors' list" in capsys.readouterr().err

    def test_committed_spec_passes_against_committed_baselines(self, capsys):
        committed = os.path.join(os.path.dirname(_SCRIPT), "floors.json")
        assert guard.main(["--spec", committed]) == 0
        assert "serve-batched-n256" in capsys.readouterr().out


class TestBenchCompare:
    """The nightly markdown drift report."""

    def fill(self, directory, name, line):
        directory.mkdir(exist_ok=True)
        (directory / name).write_text(line + "\n")

    def test_reports_change_and_flags_regressions(self, tmp_path):
        self.fill(tmp_path / "base", "surf.txt", "a (10.0 operations/s)")
        self.fill(tmp_path / "cur", "surf.txt", "a (4.0 operations/s)")
        report = bench_compare.compare(
            str(tmp_path / "base"), str(tmp_path / "cur")
        )
        assert "| surf.txt | 10.0 ops/s | 4.0 ops/s | -60.0%" in report
        assert "⚠️" in report

    def test_small_drift_is_not_flagged(self, tmp_path):
        self.fill(tmp_path / "base", "surf.txt", "a (10.0 operations/s)")
        self.fill(tmp_path / "cur", "surf.txt", "a (9.5 operations/s)")
        report = bench_compare.compare(
            str(tmp_path / "base"), str(tmp_path / "cur")
        )
        assert "-5.0%" in report
        assert "⚠️" not in report

    def test_unparsable_renderings_compare_by_content(self, tmp_path):
        self.fill(tmp_path / "base", "table.txt", "col1 col2")
        self.fill(tmp_path / "cur", "table.txt", "col1 col3")
        report = bench_compare.compare(
            str(tmp_path / "base"), str(tmp_path / "cur")
        )
        assert "| table.txt | – | – | changed |" in report

    def test_json_artifacts_compare_canonically(self, tmp_path):
        # Key order and indentation churn must not read as drift...
        self.fill(tmp_path / "base", "frontier.json", '{"a": 1, "b": 2}')
        self.fill(tmp_path / "cur", "frontier.json", '{\n "b": 2,\n "a": 1\n}')
        report = bench_compare.compare(
            str(tmp_path / "base"), str(tmp_path / "cur")
        )
        assert "| frontier.json | – | – | same |" in report
        # ...while a changed value still does.
        self.fill(tmp_path / "cur", "frontier.json", '{"a": 1, "b": 3}')
        report = bench_compare.compare(
            str(tmp_path / "base"), str(tmp_path / "cur")
        )
        assert "| frontier.json | – | – | changed |" in report

    def test_malformed_json_falls_back_to_raw_text(self, tmp_path):
        self.fill(tmp_path / "base", "broken.json", "{not json")
        self.fill(tmp_path / "cur", "broken.json", "{not json")
        report = bench_compare.compare(
            str(tmp_path / "base"), str(tmp_path / "cur")
        )
        assert "| broken.json | – | – | same |" in report

    def test_missing_files_are_called_out(self, tmp_path):
        self.fill(tmp_path / "base", "old.txt", "a (1.0 operations/s)")
        self.fill(tmp_path / "cur", "new.txt", "a (1.0 operations/s)")
        report = bench_compare.compare(
            str(tmp_path / "base"), str(tmp_path / "cur")
        )
        assert "| new.txt | | | missing in baseline |" in report
        assert "| old.txt | | | missing in current |" in report

    def test_renamed_json_metric_keys_become_na_rows(self, tmp_path):
        # A metric renamed between the committed baseline and tonight's
        # code must not raise — each side-only key gets an n/a row.
        self.fill(tmp_path / "base", "fleet.json", '{"stale_p95": 120, "polls": 4}')
        self.fill(tmp_path / "cur", "fleet.json", '{"staleness_p95": 130, "polls": 4}')
        report = bench_compare.compare(
            str(tmp_path / "base"), str(tmp_path / "cur")
        )
        assert "| fleet.json | – | – | changed |" in report
        assert "| fleet.json:stale_p95 | 120 | n/a | n/a |" in report
        assert "| fleet.json:staleness_p95 | n/a | 130 | n/a |" in report

    def test_nested_missing_keys_use_dotted_paths(self, tmp_path):
        self.fill(tmp_path / "base", "view.json", '{"fleet": {"polls": 9}}')
        self.fill(
            tmp_path / "cur", "view.json", '{"fleet": {"polls": 9, "resyncs": 1}}'
        )
        report = bench_compare.compare(
            str(tmp_path / "base"), str(tmp_path / "cur")
        )
        assert "| view.json:fleet.resyncs | n/a | 1 | n/a |" in report

    def test_renamed_keys_keep_exit_zero(self, tmp_path, capsys):
        self.fill(tmp_path / "base", "fleet.json", '{"old_key": 1}')
        self.fill(tmp_path / "cur", "fleet.json", '{"new_key": 2}')
        assert (
            bench_compare.main([str(tmp_path / "base"), str(tmp_path / "cur")]) == 0
        )
        out = capsys.readouterr().out
        assert "n/a" in out

    def test_value_only_json_drift_stays_a_changed_row(self, tmp_path):
        # Same schema, different values: no per-key noise, just the
        # canonical changed verdict.
        self.fill(tmp_path / "base", "frontier.json", '{"a": 1}')
        self.fill(tmp_path / "cur", "frontier.json", '{"a": 2}')
        report = bench_compare.compare(
            str(tmp_path / "base"), str(tmp_path / "cur")
        )
        assert "| frontier.json | – | – | changed |" in report
        assert "frontier.json:a" not in report

    def test_main_prints_markdown_and_exits_zero(self, tmp_path, capsys):
        self.fill(tmp_path / "base", "surf.txt", "a (10.0 operations/s)")
        self.fill(tmp_path / "cur", "surf.txt", "a (11.0 operations/s)")
        assert (
            bench_compare.main([str(tmp_path / "base"), str(tmp_path / "cur")]) == 0
        )
        out = capsys.readouterr().out
        assert out.startswith("### Nightly benchmark drift")

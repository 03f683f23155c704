"""Tests for the persistent benchmark subsystem (harness.bench + CLI)."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.harness import bench as benchmod


# ---------------------------------------------------------------------------
# Running benches
# ---------------------------------------------------------------------------

def test_run_benches_produces_timings_and_checks():
    report = benchmod.run_benches(["simkit_zero_delay"], rounds=2)
    result = report.results["simkit_zero_delay"]
    assert result.rounds == 2
    assert result.median_s > 0.0
    assert result.min_s <= result.median_s <= result.max_s
    assert result.check == 1.0
    assert report.repro_version
    assert report.git_sha


def test_run_benches_rejects_unknown_names_and_bad_rounds():
    with pytest.raises(ValueError, match="unknown bench"):
        benchmod.run_benches(["no_such_bench"])
    with pytest.raises(ValueError, match="rounds"):
        benchmod.run_benches(["simkit_zero_delay"], rounds=0)


def test_bench_names_cover_the_required_layers():
    names = benchmod.bench_names()
    assert "simkit_event_loop" in names
    assert "link_transfer" in names
    assert "broker_publish_consume" in names
    assert "experiment_point" in names
    assert "sweep_end_to_end" in names


# ---------------------------------------------------------------------------
# Snapshot trajectory
# ---------------------------------------------------------------------------

def test_snapshots_number_sequentially(tmp_path):
    report = benchmod.run_benches(["simkit_zero_delay"], rounds=1)
    first = report.save(tmp_path)
    assert first.name == "BENCH_0.json"
    second = report.save(tmp_path)
    assert second.name == "BENCH_1.json"

    snapshots = benchmod.list_snapshots(tmp_path)
    assert [index for index, _path in snapshots] == [0, 1]
    index, data = benchmod.latest_snapshot(tmp_path)
    assert index == 1
    assert data["schema"] == benchmod.BENCH_SCHEMA_VERSION
    assert data["kind"] == "repro-streamsim-bench"
    assert "simkit_zero_delay" in data["benches"]
    bench = data["benches"]["simkit_zero_delay"]
    assert {"rounds", "median_s", "stdev_s", "min_s", "max_s",
            "check"} <= set(bench)
    assert benchmod.next_snapshot_path(tmp_path).name == "BENCH_2.json"


def test_latest_snapshot_empty_dir_and_corrupt_file(tmp_path):
    assert benchmod.latest_snapshot(tmp_path) is None
    assert benchmod.next_snapshot_path(tmp_path).name == "BENCH_0.json"
    (tmp_path / "BENCH_0.json").write_text("{not json")
    with pytest.raises(ValueError, match="unreadable"):
        benchmod.latest_snapshot(tmp_path)


# ---------------------------------------------------------------------------
# Comparison / regression gate
# ---------------------------------------------------------------------------

def _benches(**medians):
    return {name: {"median_s": value} for name, value in medians.items()}


def test_compare_reports_classifies_rows():
    rows, regressions = benchmod.compare_reports(
        _benches(a=1.5, b=0.5, c=1.05, fresh=1.0),
        _benches(a=1.0, b=1.0, c=1.0, gone=1.0),
        threshold=0.2)
    by_name = {row["bench"]: row for row in rows}
    assert by_name["a"]["status"] == "REGRESSION"
    assert by_name["b"]["status"] == "improved"
    assert by_name["c"]["status"] == "ok"
    assert by_name["fresh"]["status"] == "new"
    assert by_name["gone"]["status"] == "missing"
    assert regressions == ["a"]


def test_compare_reports_threshold_is_inclusive():
    _rows, regressions = benchmod.compare_reports(
        _benches(a=1.2), _benches(a=1.0), threshold=0.2)
    assert regressions == []  # exactly +20% is still allowed


def test_compare_reports_prefers_best_round_time():
    current = {"a": {"median_s": 2.0, "min_s": 1.05}}
    previous = {"a": {"median_s": 1.0, "min_s": 1.0}}
    rows, regressions = benchmod.compare_reports(current, previous,
                                                 threshold=0.2)
    # The gate uses min_s (noise is one-sided), not the inflated median.
    assert regressions == []
    assert rows[0]["current_s"] == pytest.approx(1.05)


def test_compare_reports_scales_by_calibration():
    # The current machine spins 2x slower than when the snapshot was
    # recorded; a 2x-slower bench time is machine drift, not a regression.
    _rows, regressions = benchmod.compare_reports(
        _benches(a=2.0), _benches(a=1.0), threshold=0.2,
        current_calibration=2.0, previous_calibration=1.0)
    assert regressions == []
    _rows, regressions = benchmod.compare_reports(
        _benches(a=2.0), _benches(a=1.0), threshold=0.2,
        current_calibration=1.0, previous_calibration=1.0)
    assert regressions == ["a"]


def test_compare_reports_normalises_uniform_suite_drift():
    # Every bench 40% slower (busy machine): no per-bench regression.
    rows, regressions = benchmod.compare_reports(
        _benches(a=1.4, b=1.4, c=1.4, d=1.4),
        _benches(a=1.0, b=1.0, c=1.0, d=1.0), threshold=0.2)
    assert regressions == []
    assert all(row["status"] == "ok" for row in rows)
    # One bench 2x slower against a uniformly-drifted suite: flagged.
    rows, regressions = benchmod.compare_reports(
        _benches(a=2.8, b=1.4, c=1.4, d=1.4),
        _benches(a=1.0, b=1.0, c=1.0, d=1.0), threshold=0.2)
    assert regressions == ["a"]
    by_name = {row["bench"]: row for row in rows}
    assert by_name["a"]["vs_suite"] == pytest.approx(2.0)
    # A bench within the absolute threshold is never flagged just because
    # the rest of the suite happened to run faster than the snapshot.
    _rows, regressions = benchmod.compare_reports(
        _benches(a=1.15, b=0.85, c=0.85, d=0.85),
        _benches(a=1.0, b=1.0, c=1.0, d=1.0), threshold=0.2)
    assert regressions == []


def test_measure_calibration_is_positive_and_recorded(tmp_path):
    assert benchmod.measure_calibration(rounds=1) > 0.0
    report = benchmod.run_benches(["simkit_zero_delay"], rounds=1)
    assert report.calibration_s > 0.0
    report.save(tmp_path)
    _index, data = benchmod.latest_snapshot(tmp_path)
    assert data["calibration_s"] == report.calibration_s


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_bench_list(capsys):
    assert main(["bench", "--list"]) == 0
    out = capsys.readouterr().out
    assert "simkit_event_loop" in out


def test_cli_bench_quick_saves_snapshot(tmp_path, capsys):
    code = main(["bench", "--quick", "--bench", "simkit_zero_delay",
                 "--dir", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "BENCH_0.json").exists()
    out = capsys.readouterr().out
    assert "BENCH_0.json" in out


def test_cli_bench_no_save_leaves_no_snapshot(tmp_path):
    code = main(["bench", "--quick", "--bench", "simkit_zero_delay",
                 "--dir", str(tmp_path), "--no-save"])
    assert code == 0
    assert benchmod.list_snapshots(tmp_path) == []


def test_cli_bench_compare_without_snapshot_skips_gracefully(tmp_path, capsys):
    code = main(["bench", "--quick", "--bench", "simkit_zero_delay",
                 "--dir", str(tmp_path), "--no-save", "--compare"])
    assert code == 0
    assert "nothing to compare" in capsys.readouterr().out


def test_cli_bench_compare_flags_regressions(tmp_path, capsys):
    # A fabricated, impossibly fast previous snapshot: any real run is a
    # regression beyond the threshold.
    (tmp_path / "BENCH_0.json").write_text(json.dumps({
        "schema": benchmod.BENCH_SCHEMA_VERSION,
        "kind": "repro-streamsim-bench",
        "repro_version": "0.0.0",
        "git_sha": "abcdef0123456789abcdef0123456789abcdef01",
        "benches": {"simkit_zero_delay": {"median_s": 1e-12}},
    }))
    code = main(["bench", "--quick", "--bench", "simkit_zero_delay",
                 "--dir", str(tmp_path), "--no-save", "--compare"])
    assert code == 1
    captured = capsys.readouterr()
    assert "REGRESSION" in captured.out
    # Each regression line names the snapshot's provenance (git sha,
    # platform) so CI logs say what baseline was beaten.
    assert ("regression: simkit_zero_delay (vs BENCH_0.json "
            "@ git abcdef012345" in captured.err)
    assert "unknown platform" in captured.err  # snapshot recorded none


def test_cli_bench_regressed_run_is_not_saved(tmp_path, capsys):
    # A regressed run must not become the next baseline (self-masking).
    (tmp_path / "BENCH_0.json").write_text(json.dumps({
        "schema": benchmod.BENCH_SCHEMA_VERSION,
        "kind": "repro-streamsim-bench",
        "repro_version": "0.0.0",
        "benches": {"simkit_zero_delay": {"median_s": 1e-12}},
    }))
    code = main(["bench", "--quick", "--bench", "simkit_zero_delay",
                 "--dir", str(tmp_path), "--compare"])
    assert code == 1
    assert [index for index, _ in benchmod.list_snapshots(tmp_path)] == [0]
    assert "NOT saved" in capsys.readouterr().err


def test_cli_bench_corrupt_snapshot_is_a_clean_error(tmp_path, capsys):
    (tmp_path / "BENCH_0.json").write_text("{truncated")
    code = main(["bench", "--quick", "--bench", "simkit_zero_delay",
                 "--dir", str(tmp_path), "--no-save", "--compare"])
    assert code == 2
    assert "unreadable" in capsys.readouterr().err


def test_cli_bench_compare_only_warns_across_platforms(tmp_path, capsys):
    # Same impossible snapshot, but recorded on a different interpreter:
    # the gate reports the apparent regression without failing the build.
    (tmp_path / "BENCH_0.json").write_text(json.dumps({
        "schema": benchmod.BENCH_SCHEMA_VERSION,
        "kind": "repro-streamsim-bench",
        "repro_version": "0.0.0",
        "python": "3.250.0",
        "platform": "SomeOtherOS-1.0",
        "benches": {"simkit_zero_delay": {"median_s": 1e-12}},
    }))
    code = main(["bench", "--quick", "--bench", "simkit_zero_delay",
                 "--dir", str(tmp_path), "--no-save", "--compare"])
    assert code == 0
    err = capsys.readouterr().err
    assert "different python/platform" in err


def test_cli_bench_compare_passes_against_slow_snapshot(tmp_path):
    (tmp_path / "BENCH_0.json").write_text(json.dumps({
        "schema": benchmod.BENCH_SCHEMA_VERSION,
        "kind": "repro-streamsim-bench",
        "repro_version": "0.0.0",
        "benches": {"simkit_zero_delay": {"median_s": 1e9}},
    }))
    code = main(["bench", "--quick", "--bench", "simkit_zero_delay",
                 "--dir", str(tmp_path), "--no-save", "--compare"])
    assert code == 0


def test_cli_bench_unknown_bench_is_a_usage_error(tmp_path, capsys):
    code = main(["bench", "--bench", "bogus", "--dir", str(tmp_path)])
    assert code == 2
    assert "unknown bench" in capsys.readouterr().err


def test_profile_point_excludes_first_run_imports():
    # A fresh interpreter, so numpy's lazy submodule imports are still
    # pending when profile_point starts.
    code = ("from repro.harness.bench import profile_point; "
            "print(profile_point(top=100000))")
    src = str(Path(benchmod.__file__).resolve().parents[2])
    out = subprocess.run([sys.executable, "-c", code],
                         env={**os.environ, "PYTHONPATH": src}, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert "run_single" in out
    assert "importlib._bootstrap" not in out


def test_cli_bench_profile_prints_hotspots(tmp_path, capsys):
    stats_path = tmp_path / "point.pstats"
    code = main(["bench", "--profile", "--profile-out", str(stats_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "cumulative" in out
    assert stats_path.exists()
    # Profile mode never writes a snapshot (only the pstats dump above).
    assert benchmod.list_snapshots(tmp_path) == []

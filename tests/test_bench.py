"""Tests for the unified performance harness (`repro.bench`)."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.bench import (
    BENCH_SCHEMA,
    BenchCase,
    BenchContext,
    BenchRunner,
    BenchSchemaError,
    all_cases,
    get_case,
    load_baselines,
    validate_report,
    write_baselines,
)

from repro.bench.__main__ import main
from repro.bench.cases import FS, _samples
from repro.bench.runner import resolve_revision
from repro.fleet import PatientProfile

BENCHMARKS_DIR = Path(__file__).parent.parent / "benchmarks"
SRC_DIR = Path(__file__).parent.parent / "src"


def _fast_case(name: str, result: dict | None = None,
               delay_s: float = 0.0) -> BenchCase:
    """A synthetic case for runner tests (no real workload)."""

    def workload(ctx: BenchContext) -> dict:
        if delay_s:
            time.sleep(delay_s)
        return dict(result or {"metric": 1.0})

    return BenchCase(name=name, summary="synthetic", workload=workload)


def _broken_workload(ctx: BenchContext) -> dict:
    raise AssertionError("synthetic shape broke")


class TestRegistryDiscovery:
    def test_get_case_by_name(self):
        case = get_case("fleet-throughput")
        assert case.name == "fleet-throughput"
        assert case.tags == ("systems",)

    def test_get_unknown_case_lists_known(self):
        with pytest.raises(KeyError, match="fleet-throughput"):
            get_case("nope")

    def test_workloads_accept_context(self):
        ctx = BenchContext(quick=True)
        result = get_case("fig1-abstraction-ladder").workload(ctx)
        assert result["raw_to_alarm_power_ratio"] > 10.0

    def test_list_prints_name_and_summary(self, capsys):
        assert main(["--list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        cases = all_cases()
        assert len(lines) == len(cases)
        for line, (name, case) in zip(lines, sorted(cases.items())):
            assert line.split() == [name, *case.summary.split()]


class TestBrokenShape:
    """A case whose check raises fails the runner and the CLI."""

    def test_runner_raises(self):
        case = BenchCase(name="broken", summary="", workload=_broken_workload)
        with pytest.raises(AssertionError, match="synthetic shape broke"):
            BenchRunner(cases=[case], warmup=0, repeats=1).run()

    def test_cli_exits_non_zero(self, tmp_path):
        # A child process registers the broken case, then runs the
        # `python -m repro.bench --cases broken` entry point.
        script = "\n".join([
            "import runpy, sys",
            "from repro.bench import register",
            "@register('broken', 'a broken shape')",
            "def broken(ctx):",
            "    raise AssertionError('synthetic shape broke')",
            "sys.argv[1:] = ['--quick', '--cases', 'broken', '--out', sys.argv[1]]",
            "runpy.run_module('repro.bench', run_name='__main__')"])
        done = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)], timeout=120,
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC_DIR)))
        assert done.returncode != 0
        assert "synthetic shape broke" in done.stderr
        assert not list(tmp_path.glob("BENCH_*.json"))


class TestCliOutput:
    def test_out_directory_is_created(self, tmp_path, capsys):
        # A missing --out directory used to lose the whole run to a
        # FileNotFoundError after every case had been timed.
        out = tmp_path / "a" / "b"
        assert main(["--quick", "--cases", "t2-delineation-resources",
                     "--repeats", "1", "--warmup", "0", "--no-fail",
                     "--baselines", str(tmp_path / "none.json"),
                     "--out", str(out)]) == 0
        (artifact,) = out.glob("BENCH_*.json")
        payload = json.loads(artifact.read_text())
        validate_report(payload)
        assert [c["name"] for c in payload["cases"]] == [
            "t2-delineation-resources"]
        assert f"wrote {artifact}" in capsys.readouterr().out


def _git(repo: Path, *args: str) -> str:
    done = subprocess.run(
        ["git", "-c", "user.name=bench", "-c", "user.email=bench@example.com",
         "-c", "commit.gpgsign=false", *args],
        cwd=repo, capture_output=True, text=True, timeout=30, check=True)
    return done.stdout.strip()


class TestResolveRevision:
    """BENCH artifacts and re-baselined entries carry this revision, so
    it must say when the timed code was not the committed code."""

    def test_clean_tree_gives_sha_and_edit_marks_it_dirty(
            self, tmp_path, monkeypatch):
        repo = tmp_path / "repo"
        repo.mkdir()
        _git(repo, "init", "-q")
        (repo / "tracked.txt").write_text("one\n")
        _git(repo, "add", "tracked.txt")
        _git(repo, "commit", "-q", "-m", "first")
        sha = _git(repo, "rev-parse", "--short", "HEAD")
        monkeypatch.chdir(repo)
        assert resolve_revision() == sha
        # An untracked file leaves the tree clean.
        (repo / "untracked.txt").write_text("scratch\n")
        assert resolve_revision() == sha
        (repo / "tracked.txt").write_text("two\n")
        assert resolve_revision() == f"{sha}-dirty"
        _git(repo, "add", "tracked.txt")  # staged counts too
        assert resolve_revision() == f"{sha}-dirty"

    def test_outside_a_repository_gives_local(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path.parent))
        assert resolve_revision() == "local"

    def test_without_git_gives_local(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PATH", str(tmp_path))  # no git executable
        assert resolve_revision() == "local"


class TestRunner:
    def test_report_validates_against_schema(self):
        runner = BenchRunner(cases=[_fast_case("a", {"samples": 1000})],
                             warmup=0, repeats=2)
        report = runner.run()
        payload = report.to_dict()
        validate_report(payload)  # raises on violation
        assert payload["schema_version"] == BENCH_SCHEMA[
            "properties"]["schema_version"]["enum"][0]
        (case,) = payload["cases"]
        assert case["repeats"] == 2
        assert case["status"] == "no-baseline"
        assert case["throughput"]["samples_per_s"] > 0
        assert case["peak_rss_mb"] > 0

    def test_counts_become_throughput_and_metrics(self):
        runner = BenchRunner(cases=[_fast_case(
            "a", {"samples": 500, "patients": 5, "snr_db": 12.0})],
            warmup=0, repeats=1)
        (case,) = runner.run().cases
        assert case["throughput"]["patients_per_s"] > 0
        assert case["metrics"]["snr_db"] == 12.0
        assert case["metrics"]["samples"] == 500

    def test_regression_detection_fires_on_synthetic_slowdown(self):
        baselines = {"slow": {"wall_s": 0.05}}
        runner = BenchRunner(cases=[_fast_case("slow", delay_s=0.09)],
                             warmup=0, repeats=1, baselines=baselines,
                             tolerance=0.25)
        report = runner.run()
        assert report.regressions == ["slow"]
        assert report.cases[0]["status"] == "regression"
        assert report.cases[0]["ratio"] > 1.25

    def test_sub_floor_baselines_report_but_never_gate(self):
        # A 1 ms workload cannot be wall-clock-gated: scheduler noise
        # dwarfs it.  The ratio is still reported for the table.
        baselines = {"tiny": {"wall_s": 0.001}}
        runner = BenchRunner(cases=[_fast_case("tiny", delay_s=0.01)],
                             warmup=0, repeats=1, baselines=baselines,
                             tolerance=0.25)
        report = runner.run()
        assert report.regressions == []
        assert report.cases[0]["status"] == "pass"
        assert report.cases[0]["ratio"] > 1.25

    def test_within_tolerance_passes(self):
        baselines = {"ok": {"wall_s": 10.0}}
        runner = BenchRunner(cases=[_fast_case("ok")], warmup=0,
                             repeats=1, baselines=baselines)
        report = runner.run()
        assert report.regressions == []
        assert report.cases[0]["status"] == "pass"

    def test_quick_mode_reads_quick_baseline_key(self):
        baselines = {"q": {"wall_s": 0.0001, "wall_s_quick": 10.0}}
        runner = BenchRunner(cases=[_fast_case("q")], warmup=0,
                             repeats=1, baselines=baselines, quick=True)
        assert runner.run().cases[0]["status"] == "pass"

    def test_describe_mentions_every_case(self):
        runner = BenchRunner(cases=[_fast_case("abc")], warmup=0,
                             repeats=1)
        text = runner.run().describe()
        assert "abc" in text and "no-baseline" in text

    def test_invalid_repeat_counts_rejected(self):
        with pytest.raises(ValueError, match="repeats"):
            BenchRunner(cases=[], repeats=0)


class TestBaselinesFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "baselines.json"
        runner = BenchRunner(cases=[_fast_case("a")], warmup=0, repeats=1)
        write_baselines(path, runner.run(), note="seed")
        cases = load_baselines(path)
        assert "wall_s" in cases["a"]
        # quick walls land under their own key, full walls survive
        quick = BenchRunner(cases=[_fast_case("a")], warmup=0, repeats=1,
                            quick=True)
        report = quick.run()
        write_baselines(path, report)
        cases = load_baselines(path)
        assert set(cases["a"]) == {"wall_s", "wall_s_quick", "revision"}
        assert cases["a"]["revision"] == report.revision

    def test_rebaselining_one_entry_leaves_the_rest_byte_identical(
            self, tmp_path):
        path = tmp_path / "baselines.json"
        path.write_text(json.dumps({
            "schema_version": 1, "revision": "0000000", "note": "n",
            "cases": {name: {"wall_s": wall, "wall_s_quick": wall / 4}
                      for name, wall in (("a", 1.5), ("b", 2.5),
                                         ("c", 0.0002))},
        }, indent=2, sort_keys=True) + "\n")
        before = path.read_text()
        quick = BenchRunner(cases=[_fast_case("b")], warmup=0, repeats=1,
                            quick=True)
        report = quick.run()
        write_baselines(path, report)
        after = path.read_text()

        def without_b(text: str) -> list[str]:
            lines = text.splitlines()
            start = lines.index('    "b": {')
            return lines[:start] + lines[lines.index("    },", start) + 1:]

        assert without_b(after) == without_b(before)
        entry = load_baselines(path)["b"]
        assert entry["wall_s"] == 2.5
        assert entry["wall_s_quick"] == round(report.cases[0]["wall_s"], 6)
        assert entry["revision"] == report.revision

    def test_missing_file_is_empty(self, tmp_path):
        assert load_baselines(tmp_path / "nope.json") == {}

    def test_committed_baselines_cover_all_cases(self):
        cases = load_baselines(BENCHMARKS_DIR / "baselines.json")
        assert set(cases) == set(all_cases())
        for name, entry in cases.items():
            assert entry["wall_s"] > 0, name
            assert entry["wall_s_quick"] > 0, name

    def test_committed_bench_artifacts_validate(self):
        artifacts = sorted(BENCHMARKS_DIR.glob("BENCH_*.json"))
        assert artifacts, "the first BENCH artifact must be committed"
        for artifact in artifacts:
            validate_report(json.loads(artifact.read_text()))

    def test_kernel_artifact_records_event_efficiency(self):
        # The acceptance bar of the event-kernel issue: byte-identical
        # tick/kernel summaries plus >= 3x fewer kernel events than
        # tick-loop iterations on the 90 %-sparse cohort, recorded in
        # the committed artifact (pinned by name, like the PR-3 one).
        payload = json.loads(
            (BENCHMARKS_DIR / "BENCH_pr7-event-kernel.json").read_text())
        case = next(c for c in payload["cases"]
                    if c["name"] == "fleet-event-kernel")
        assert case["metrics"]["byte_identical"] is True
        assert case["metrics"]["event_ratio"] >= 3.0

    def test_serve_artifact_records_byte_identity(self):
        # The acceptance bar of the serving issue: the cohort pushed
        # through real loopback TCP sockets lands on the same
        # `FleetSummary.to_json()` bytes as the in-process engine,
        # recorded in the committed artifact (pinned by name).
        payload = json.loads(
            (BENCHMARKS_DIR / "BENCH_pr8-fleet-serve.json").read_text())
        case = next(c for c in payload["cases"]
                    if c["name"] == "fleet-serve-throughput")
        assert case["metrics"]["byte_identical"] is True
        assert case["metrics"]["served_packets_per_second"] > 0

    def test_seed_artifact_records_vectorization_speedup(self):
        # The acceptance bar of the bench issue: >= 2x on both systems
        # cases, recorded in the first committed artifact (pinned by
        # name — later artifacts need not carry this history block).
        payload = json.loads(
            (BENCHMARKS_DIR / "BENCH_pr3-bench-init.json").read_text())
        speedup = payload["history"]["speedup_vs_pre_vectorization"]
        assert speedup["fleet-throughput"] >= 2.0
        assert speedup["scenario-campaign"] >= 2.0


class TestFleetLifetimeCase:
    """The governed-lifetime case: schema-valid and claim-checked."""

    def test_fleet_lifetime_report_validates_against_schema(self):
        runner = BenchRunner(cases=[get_case("fleet-lifetime")],
                             quick=True, warmup=0, repeats=1)
        payload = runner.run().to_dict()
        validate_report(payload)  # raises on violation
        (case,) = payload["cases"]
        assert case["name"] == "fleet-lifetime"
        assert case["throughput"]["patients_per_s"] > 0

    def test_governor_beats_best_admissible_static(self):
        result = get_case("fleet-lifetime").workload(
            BenchContext(quick=True))
        # Acceptance bar: closed-loop lifetime >= the best static mode
        # that honors the acuity floor, on the mixed-acuity cohort.
        assert result["governor_hours"] >= result["best_static_hours"]
        assert result["lifetime_gain"] > 1.0
        assert result["best_static"] in ("multi_lead_cs", "raw")
        assert result["mean_switches"] > 0


class TestSampleCounts:
    """Nominal ``samples`` of the fleet cases: every lead, whole samples."""

    def test_counts_every_lead_of_every_patient(self):
        cohort = [PatientProfile(patient_id=f"p{i}", n_leads=leads)
                  for i, leads in enumerate((1, 3, 2, 3))]
        assert _samples(cohort, 60.0) == 9 * int(60.0 * FS)

    def test_duration_truncates_to_whole_samples(self):
        cohort = [PatientProfile(patient_id="p", n_leads=1)]
        assert _samples(cohort, 1.0 + 0.5 / FS) == int(FS)
        assert _samples([], 60.0) == 0


class TestSchemaValidator:
    def _minimal(self) -> dict:
        runner = BenchRunner(cases=[_fast_case("a")], warmup=0, repeats=1)
        return runner.run().to_dict()

    def test_missing_required_key(self):
        payload = self._minimal()
        del payload["revision"]
        with pytest.raises(BenchSchemaError, match="revision"):
            validate_report(payload)

    def test_wrong_type(self):
        payload = self._minimal()
        payload["cases"][0]["wall_s"] = "fast"
        with pytest.raises(BenchSchemaError, match="wall_s"):
            validate_report(payload)

    def test_bad_enum(self):
        payload = self._minimal()
        payload["cases"][0]["status"] = "great"
        with pytest.raises(BenchSchemaError, match="status"):
            validate_report(payload)

    def test_bool_does_not_satisfy_number(self):
        payload = self._minimal()
        payload["cases"][0]["wall_s"] = True
        with pytest.raises(BenchSchemaError, match="wall_s"):
            validate_report(payload)

    def test_nullable_throughput(self):
        payload = self._minimal()
        payload["cases"][0]["throughput"] = None
        validate_report(payload)

"""Tests for the unified performance harness (`repro.bench`)."""

from __future__ import annotations

import json
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

from repro.bench.cases import FS, _samples
from repro.fleet import PatientProfile

BENCHMARKS_DIR = Path(__file__).parent.parent / "benchmarks"


def _fast_case(name: str, result: dict | None = None,
               delay_s: float = 0.0) -> BenchCase:
    """A synthetic case for runner tests (no real workload)."""

    def workload(ctx: BenchContext) -> dict:
        if delay_s:
            time.sleep(delay_s)
        return dict(result or {"metric": 1.0})

    return BenchCase(name=name, summary="synthetic", legacy="test_none",
                     workload=workload)


class TestRegistryDiscovery:
    def test_every_legacy_benchmark_wrapped(self):
        legacy_modules = {path.stem
                          for path in BENCHMARKS_DIR.glob("test_*.py")}
        wrapped = {case.legacy for case in all_cases().values()}
        assert legacy_modules, "benchmarks/ must hold legacy modules"
        assert wrapped == legacy_modules, (
            "registry out of sync with benchmarks/: "
            f"unwrapped={sorted(legacy_modules - wrapped)} "
            f"orphaned={sorted(wrapped - legacy_modules)}")

    def test_one_case_per_legacy_module(self):
        legacy = [case.legacy for case in all_cases().values()]
        assert len(legacy) == len(set(legacy))

    def test_get_case_by_name(self):
        case = get_case("fleet-throughput")
        assert case.legacy == "test_fleet_throughput"

    def test_get_unknown_case_lists_known(self):
        with pytest.raises(KeyError, match="fleet-throughput"):
            get_case("nope")

    def test_workloads_accept_context(self):
        ctx = BenchContext(quick=True)
        result = get_case("fig1-abstraction-ladder").workload(ctx)
        assert result["raw_to_alarm_power_ratio"] > 10.0


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
        write_baselines(path, quick.run())
        cases = load_baselines(path)
        assert set(cases["a"]) == {"wall_s", "wall_s_quick"}

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
        assert case["legacy"] == "test_fleet_lifetime"
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

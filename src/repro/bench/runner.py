"""BenchRunner: warmup+repeat timing, RSS, baselines, BENCH emission.

The runner executes registered cases with fixed seeds, times each with
``perf_counter`` over ``warmup`` discarded + ``repeats`` scored runs,
derives throughput from the workload's reported work counts, samples the
process RSS high-water mark, and scores the **best** (minimum) wall time
against ``benchmarks/baselines.json`` — best-of-N is the standard
regression statistic because scheduler noise only ever adds time.

Two reading notes on the artifact: ``peak_rss_mb`` is the *process*
high-water mark observed at the end of each case — it is cumulative
across the (alphabetical) case order, so only increases at a case are
attributable to it.  And baselines faster than
:data:`MIN_GATED_WALL_S` are reported with their ratio but never fail
the gate — a sub-millisecond workload cannot be wall-clock-regressed
meaningfully.
"""

from __future__ import annotations

import cProfile
import dataclasses
import io
import json
import platform
import pstats
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..obs import Observability, SCOPE_SHARD
from .registry import COUNT_KEYS, BenchCase, BenchContext, all_cases
from .schema import SCHEMA_VERSION, validate_report

#: Default allowed slowdown vs baseline before a case fails (25 %).
DEFAULT_TOLERANCE = 0.25

#: Baselines below this are too fast to gate on wall-clock: a scheduler
#: blip dwarfs the workload, so the ratio is reported but never fails.
MIN_GATED_WALL_S = 0.05


def resolve_revision() -> str:
    """Short git revision of the working tree, or ``"local"``.

    A tree whose tracked files differ from ``HEAD`` reads
    ``<sha>-dirty``, so a timing measured on uncommitted changes is
    never stamped with the revision of the code it did not run.
    """
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True)
        revision = out.stdout.strip()
        if not revision:
            return "local"
        diff = subprocess.run(
            ["git", "diff", "--quiet", "HEAD", "--"],
            capture_output=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "local"
    return f"{revision}-dirty" if diff.returncode else revision


def _peak_rss_mb() -> float:
    """Process RSS high-water mark in MiB (monotonic over the run)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    scale = 1024.0 if sys.platform != "darwin" else 1024.0 * 1024.0
    return peak / scale


def load_baselines(path: str | Path) -> dict:
    """Read a baselines file; empty mapping when it does not exist."""
    path = Path(path)
    if not path.exists():
        return {}
    payload = json.loads(path.read_text())
    return payload.get("cases", {})


def write_baselines(path: str | Path, report: "BenchReport",
                    note: str = "") -> None:
    """Re-baseline: write the report's wall times as the new floor.

    Each entry written is stamped with the report's ``revision``;
    every other entry and the file-level keys stay as they were.
    """
    path = Path(path)
    payload = {"schema_version": SCHEMA_VERSION, "note": ""}
    if path.exists():
        payload = json.loads(path.read_text())
    if note:
        payload["note"] = note
    cases = payload.setdefault("cases", {})
    key = "wall_s_quick" if report.quick else "wall_s"
    for case in report.cases:
        entry = cases.setdefault(case["name"], {})
        entry[key] = round(case["wall_s"], 6)
        entry["revision"] = report.revision
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


@dataclass
class BenchReport:
    """All case outcomes of one runner invocation."""

    revision: str
    quick: bool
    tolerance: float
    cases: list[dict] = field(default_factory=list)
    history: dict = field(default_factory=dict)
    observability: dict | None = None

    @property
    def regressions(self) -> list[str]:
        """Names of the cases that regressed past tolerance."""
        return [c["name"] for c in self.cases
                if c["status"] == "regression"]

    def to_dict(self) -> dict:
        """The schema-validated ``BENCH_<rev>.json`` payload."""
        payload = {
            "schema_version": SCHEMA_VERSION,
            "revision": self.revision,
            "quick": self.quick,
            "tolerance": self.tolerance,
            "environment": {
                "python": platform.python_version(),
                "numpy": np.__version__,
                "platform": platform.platform(),
            },
            "history": self.history,
            "cases": self.cases,
        }
        if self.observability is not None:
            payload["observability"] = self.observability
        validate_report(payload)
        return payload

    def to_json(self) -> str:
        """Serialized artifact (stable key order, trailing newline)."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def write(self, out_dir: str | Path = ".") -> Path:
        """Emit ``BENCH_<rev>.json`` into ``out_dir`` (created if
        missing); returns the path."""
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"BENCH_{self.revision}.json"
        path.write_text(self.to_json())
        return path

    def describe(self) -> str:
        """Fixed-width table of every case (the CLI output)."""
        header = (f"{'case':<26} {'wall [s]':>9} {'base [s]':>9} "
                  f"{'ratio':>6} {'samp/s':>10} {'pt/s':>7} "
                  f"{'rss MB':>7}  status")
        lines = [
            f"bench @ {self.revision} "
            f"({'quick' if self.quick else 'full'} grid, "
            f"tolerance {self.tolerance:.0%})",
            header,
            "-" * len(header),
        ]
        for case in self.cases:
            through = case["throughput"] or {}
            lines.append(
                f"{case['name']:<26} {case['wall_s']:>9.3f} "
                f"{_fmt(case['baseline_wall_s'], '9.3f')} "
                f"{_fmt(case['ratio'], '6.2f')} "
                f"{_fmt(through.get('samples_per_s'), '10.0f')} "
                f"{_fmt(through.get('patients_per_s'), '7.2f')} "
                f"{case['peak_rss_mb']:>7.0f}  {case['status']}")
        if self.regressions:
            lines.append(f"REGRESSIONS: {', '.join(self.regressions)}")
        return "\n".join(lines)


def _fmt(value, spec: str) -> str:
    width = int(spec.split(".")[0])
    if value is None or (isinstance(value, float) and not np.isfinite(value)):
        return "-".rjust(width)
    return format(value, spec)


class BenchRunner:
    """Drive a set of cases and assemble one :class:`BenchReport`.

    Args:
        cases: Cases to run (default: the full registry, sorted by
            name so the artifact is stable).
        quick: CI-sized workloads.
        warmup: Discarded runs before timing starts.
        repeats: Scored runs per case (best-of is the headline number).
        baselines: ``name -> {"wall_s": ...}`` mapping from
            :func:`load_baselines`; empty means every case reports
            ``no-baseline``.
        tolerance: Allowed fractional slowdown before ``regression``.
        seed: Base seed forwarded to every workload.
        obs: Optional observability bundle.  Forwarded to workloads via
            :class:`BenchContext` and stamped with per-case wall-time
            gauges; the report then attaches its snapshot bundle so
            ``BENCH_<rev>.json`` carries the run's metrics.
        profile: Collect a cProfile of one *extra* (untimed) workload
            run per case.  The timed region is never profiled, so the
            scored wall times are unaffected; read the table back with
            :meth:`profile_text`.
    """

    def __init__(self, cases: list[BenchCase] | None = None,
                 quick: bool = False, warmup: int = 1, repeats: int = 3,
                 baselines: dict | None = None,
                 tolerance: float = DEFAULT_TOLERANCE,
                 seed: int = 2014,
                 obs: Observability | None = None,
                 profile: bool = False) -> None:
        if warmup < 0 or repeats < 1:
            raise ValueError("need warmup >= 0 and repeats >= 1")
        self.cases = (sorted(all_cases().values(), key=lambda c: c.name)
                      if cases is None else list(cases))
        self.quick = quick
        self.warmup = warmup
        self.repeats = repeats
        self.baselines = baselines or {}
        self.tolerance = tolerance
        self.seed = seed
        self.obs = obs
        self.profiler = cProfile.Profile() if profile else None

    def run(self, progress=None) -> BenchReport:
        """Execute every case; ``progress`` (optional callable) gets
        each finished case dict as it lands."""
        report = BenchReport(revision=resolve_revision(),
                             quick=self.quick, tolerance=self.tolerance)
        for case in self.cases:
            outcome = self._run_case(case)
            report.cases.append(outcome)
            if progress is not None:
                progress(outcome)
        if self.obs is not None:
            report.observability = self.obs.snapshot_bundle()
        return report

    def profile_text(self, top: int = 25) -> str:
        """Top-``top`` cumulative-time table of the profiled runs.

        Raises:
            ValueError: The runner was built without ``profile=True``.
        """
        if self.profiler is None:
            raise ValueError("runner was not profiling; pass profile=True")
        stream = io.StringIO()
        stats = pstats.Stats(self.profiler, stream=stream)
        stats.sort_stats("cumulative").print_stats(top)
        return stream.getvalue()

    def _run_case(self, case: BenchCase) -> dict:
        ctx = BenchContext(quick=self.quick, seed=self.seed, obs=self.obs)
        for _ in range(self.warmup):
            case.workload(ctx)
        walls: list[float] = []
        result: dict = {}
        for _ in range(self.repeats):
            t0 = time.perf_counter()
            result = case.workload(ctx)
            walls.append(time.perf_counter() - t0)
        if self.profiler is not None:
            # One extra run under the profiler, after (never inside)
            # the timed region.  ``profiled=True`` tells the workload
            # its wall clock is distorted by tracing overhead.
            profiled_ctx = dataclasses.replace(ctx, profiled=True)
            self.profiler.enable()
            case.workload(profiled_ctx)
            self.profiler.disable()
        best = min(walls)
        if self.obs is not None:
            self.obs.metrics.gauge(
                "bench_case_wall_seconds",
                "Best scored wall time per bench case",
                scope=SCOPE_SHARD).set(best, case=case.name,
                                       quick=self.quick)
        baseline_key = "wall_s_quick" if self.quick else "wall_s"
        baseline = self.baselines.get(case.name, {}).get(baseline_key)
        if not baseline:
            baseline, ratio, status = None, None, "no-baseline"
        else:
            ratio = best / baseline
            if baseline < MIN_GATED_WALL_S:  # report, never gate
                status = "pass"
            else:
                status = ("regression" if ratio > 1.0 + self.tolerance
                          else "pass")
        counts = {key: result.get(key) for key in COUNT_KEYS}
        throughput = None
        if any(v is not None for v in counts.values()):
            throughput = {
                f"{key}_per_s": (float(value) / best
                                 if value is not None else None)
                for key, value in counts.items()
            }
        metrics = {key: value for key, value in result.items()
                   if key not in COUNT_KEYS}
        metrics.update({key: value for key, value in counts.items()
                        if value is not None})
        return {
            "name": case.name,
            "summary": case.summary,
            "tags": list(case.tags),
            "wall_s": round(best, 6),
            "wall_s_mean": round(float(np.mean(walls)), 6),
            "wall_s_all": [round(w, 6) for w in walls],
            "repeats": self.repeats,
            "warmup": self.warmup,
            "peak_rss_mb": round(_peak_rss_mb(), 2),
            "throughput": throughput,
            "metrics": _json_safe(metrics),
            "baseline_wall_s": baseline,
            "ratio": round(ratio, 4) if ratio is not None else None,
            "status": status,
        }


def _json_safe(metrics: dict) -> dict:
    """Round floats and strip non-finite values for stable JSON."""
    out = {}
    for key, value in metrics.items():
        if isinstance(value, (np.floating, np.integer)):
            value = value.item()
        if isinstance(value, float):
            value = round(value, 6) if np.isfinite(value) else None
        out[key] = value
    return out

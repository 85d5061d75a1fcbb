"""Smoke tests: every script in examples/ must run and say its piece.

Each example is executed as a subprocess with tiny parameters (so the
whole file stays fast) and checked for exit code 0 plus the stdout
markers that prove it got past its interesting stages.  This is the
guard against examples silently rotting while the library underneath
them moves.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
EXAMPLES_DIR = REPO_ROOT / "examples"

#: script name -> (tiny-run argv, required stdout markers).
EXAMPLES = {
    "quickstart.py": (
        ["--duration", "20"],
        ["delineated beats", "beat detection", "mean heart rate"],
    ),
    "arrhythmia_monitor.py": (
        ["--duration", "90", "--train-records", "2",
         "--train-duration", "90"],
        ["AF alarms raised", "average node power", "battery estimate"],
    ),
    "compression_tradeoff.py": (
        ["--windows", "2", "--crs", "50,65,80"],
        ["operating point", "vs raw streaming"],
    ),
    "sleep_monitor.py": (
        ["--segment-s", "90"],
        ["transmitted bandwidth", "bps raw"],
    ),
    "multicore_mapping.py": (
        [],
        ["MC saves", "paper: up to 40 %"],
    ),
    "fleet_gateway.py": (
        ["--patients", "3", "--duration", "60", "--train-records", "2"],
        ["fleet of 3 patients", "triage:", "throughput:"],
    ),
    "fleet_event_kernel.py": (
        ["--patients", "4", "--duration", "60"],
        ["summaries byte-identical: True", "kernel-events",
         "event ratio"],
    ),
    "fleet_observability.py": (
        ["--patients", "3", "--duration", "60", "--shards", "2"],
        ["metrics:", "canonical snapshot matches",
         "flight dump written:"],
    ),
    "scenario_campaign.py": (
        ["--patients", "3", "--sentinels", "1", "--duration", "60"],
        ["campaign grid:", "clean", "loss-10pct",
         "reproduce this exact report"],
    ),
    "bench_report.py": (
        ["--cases", "fig1-abstraction-ladder,t2-delineation-resources"],
        ["running 2 bench case(s)", "verdict:"],
    ),
    "energy_governor.py": (
        ["--duration", "120", "--lifetime-patients", "2"],
        ["mode power table", "mode timeline:", "mode switches:",
         "best admissible static"],
    ),
    "fleet_sharded.py": (
        ["--patients", "4", "--shards", "2", "--duration", "60"],
        ["striped over 2 shards", "speedup:",
         "merged summaries byte-identical: True"],
    ),
    "fleet_serve.py": (
        ["--patients", "3", "--duration", "60"],
        ["loopback TCP", "connections:",
         "served summary byte-identical: True"],
    ),
    "fleet_journal_replay.py": (
        ["--patients", "3", "--duration", "60"],
        ["journal:", "recovered:", "undrained frames:",
         "replay byte-identical: True"],
    ),
}


def run_example(script: str, argv: list[str]):
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / script), *argv],
        capture_output=True, text=True, timeout=300, env=env,
        cwd=REPO_ROOT)


def test_every_example_is_covered():
    scripts = {p.name for p in EXAMPLES_DIR.glob("*.py")}
    assert scripts == set(EXAMPLES), (
        "examples/ and the smoke-test table drifted apart; add the new "
        f"script(s) here: {sorted(scripts ^ set(EXAMPLES))}")


@pytest.mark.parametrize("script", sorted(EXAMPLES))
def test_example_runs_clean(script):
    argv, markers = EXAMPLES[script]
    result = run_example(script, argv)
    assert result.returncode == 0, (
        f"{script} exited {result.returncode}\n"
        f"stdout:\n{result.stdout}\nstderr:\n{result.stderr}")
    for marker in markers:
        assert marker in result.stdout, (
            f"{script} stdout lost its {marker!r} marker\n"
            f"stdout:\n{result.stdout}")
    assert "Traceback" not in result.stderr

"""Self-test of the benchmark: every workload, tiny inputs, held-out seed.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py

Runs each workload of ``BENCHMARK.json`` untraced and traced at
``--size tiny`` on a seed no tuning run used, and checks that the result
line has exactly the contract's keys, that every metric the file names
is emitted with its unit (end-to-end untraced, per-layer traced), that
end-to-end values are positive, and that no operation failed.  It also
checks that the metric tables in the code and in ``BENCHMARK.json``
agree.  Exits non-zero on the first broken check.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Seed reserved for the self-test; no tuning run uses it.
HELD_OUT_SEED = 424242


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(HELD_OUT_SEED), "--seconds", "1", "--trace",
         str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited "
                             f"{proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(workload: str, trace: int, expected: dict[str, str]) -> None:
    result = run(workload, trace)
    label = f"{workload} trace={trace}"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{label}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0
            and result["attempted"] >= 1):
        raise AssertionError(f"{label}: error_rate "
                             f"{result['failed']}/{result['attempted']}")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        missing = set(expected) - set(metrics)
        extra = set(metrics) - set(expected)
        raise AssertionError(f"{label}: missing {sorted(missing)}, "
                             f"unexpected {sorted(extra)}")
    for name, unit in expected.items():
        value = metrics[name]["value"]
        if metrics[name]["unit"] != unit or not math.isfinite(value):
            raise AssertionError(f"{label}: {name} = {metrics[name]}")
        if not trace and value <= 0:
            raise AssertionError(f"{label}: {name} = {value} is not > 0")
    print(f"ok  {label}: {len(metrics)} metrics, "
          f"{result['attempted']} operations, 0 failed")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(HERE))
    from run import END_TO_END_UNITS
    from tracing import PER_LAYER

    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if end_to_end != END_TO_END_UNITS:
        raise AssertionError("BENCHMARK.json end_to_end differs from "
                             "run.END_TO_END_UNITS")
    if [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
            != [tuple(row) for row in PER_LAYER]:
        raise AssertionError("BENCHMARK.json per_layer differs from "
                             "tracing.PER_LAYER")
    for workload in (w["name"] for w in spec["workloads"]):
        check(workload, 0, end_to_end)
        check(workload, 1, per_layer)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cohort-sim --seed 1 \\
        --seconds 15 --trace 0

The program under test is the ``repro`` package in ``src/`` of the same
checkout; nothing needs installing.  The run sets its inputs up several
times (``setup_s`` is the median), then repeats the workload's timed
operation for at least ``--seconds`` seconds.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` alternates untraced and traced
operations and prints the per-layer metrics.  The last line of standard
output is the result object; the line before it records the machine and
the raw samples.  ``--size tiny`` runs a reduced input (the self-test's).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Set-ups per run; ``setup_s`` is their median.
N_SETUPS = 3

#: Fewest timed operations per run (the correctness legs compare
#: repeats; a traced run needs one untraced and one traced operation).
MIN_OPS = 2

END_TO_END_UNITS = {
    "patient_s_per_s": "patient-s/s",
    "packets_per_s": "packets/s",
    "sweep_rtt_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def import_program():
    """Import ``repro`` from this checkout's ``src/`` or exit non-zero."""
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import repro from {SRC}: {exc}")
    location = Path(repro.__file__).resolve()
    if SRC.resolve() not in location.parents:
        sys.exit(f"perfbench: repro resolved to {location}, outside {SRC}")


def blas_threads() -> int | None:
    """Thread count of the loaded OpenBLAS, read without changing it."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines()
            if "openblas" in line.lower() and ".so" in line}
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def calibration_ms() -> float:
    """Best of five runs of a fixed Python loop plus a BLAS product."""
    import numpy as np

    a = np.random.default_rng(0).standard_normal((256, 256))
    best = float("inf")
    for _ in range(5):
        t0 = perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i
        float(np.linalg.norm(a @ a))
        best = min(best, perf_counter() - t0)
    return 1e3 * best


def fingerprint() -> dict:
    """The machine and library versions a result was measured on."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get(
        "blas", {})
    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "blas_env": {key: os.environ[key] for key in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
            if key in os.environ},
        "calibration_ms": calibration_ms(),
    }


def end_to_end(workload, results, setup_times) -> tuple[dict, dict]:
    """End-to-end metrics and the raw samples they came from.

    The sweep-latency tail goes with the samples, not the metrics: on a
    2-vCPU guest its p99 follows the host's CPU steal (see README.md),
    so no regression bound could hold it.
    """
    import numpy as np

    good = [r for r in results if not r.failed] or results
    rtts = [rtt for r in good for rtt in r.rtt_ms]
    p99 = float(np.percentile(rtts, 99))
    values = {
        "patient_s_per_s": statistics.median(
            r.patient_s / r.wall_s for r in good),
        "packets_per_s": statistics.median(r.packets / r.wall_s
                                           for r in good),
        "sweep_rtt_p50_ms": float(np.percentile(rtts, 50)),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": workload.peak_rss_mb(),
    }
    samples = {
        "op_wall_s": [r.wall_s for r in results],
        "patient_s": [r.patient_s for r in results],
        "packets": [r.packets for r in results],
        "snr_p50_db": [r.snr_db if math.isfinite(r.snr_db) else None
                       for r in results],
        "setup_s": setup_times,
        "sweep_rtt_p99_ms": p99,
        "rtt_samples": len(rtts),
        "rtt_beyond_p99": sum(rtt > p99 for rtt in rtts),
    }
    return values, samples


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    import_program()
    from tracing import PER_LAYER, Tracer
    from workloads import WORKLOADS, OpResult

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(WORKLOADS)}")
    machine = fingerprint()
    work_dir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, args.size, work_dir)
    tracer = Tracer()
    results, traced, untraced = [], [], []
    try:
        setup_times = []
        for _ in range(N_SETUPS):
            t0 = perf_counter()
            workload.setup()
            setup_times.append(perf_counter() - t0)
        workload.prepare()

        t_begin = perf_counter()
        while (len(results) < MIN_OPS
               or perf_counter() - t_begin < args.seconds):
            trace_this = bool(args.trace) and len(results) % 2 == 1
            tracer.run = len(results)
            if trace_this and workload.traces_here:
                tracer.install()
            try:
                result = workload.op(tracer if trace_this else None)
            except Exception as exc:  # an operation that raises fails
                print(f"perfbench: operation raised {exc!r}",
                      file=sys.stderr)
                result = None
            finally:
                tracer.uninstall()
            if result is None:
                result = OpResult(wall_s=float("nan"), patient_s=0.0,
                                  packets=0, rtt_ms=[],
                                  attempted=workload.attempts_per_op,
                                  failed=workload.attempts_per_op)
            results.append(result)
            (traced if trace_this else untraced).append(result)

        attempted = sum(r.attempted for r in results)
        failed = sum(r.failed for r in results)
        timed = [r for r in results if not math.isnan(r.wall_s)]
        if args.trace:
            overhead = (statistics.median(r.wall_s for r in traced)
                        / statistics.median(r.wall_s for r in untraced))
            spans_path = (ROOT / ".perfbench_out"
                          / f"spans-{args.workload}-s{args.seed}.jsonl")
            layer = workload.layers(tracer, traced,
                                    {"trace.overhead": overhead},
                                    spans_path)
            metrics = {name: {"value": float(layer[name]), "unit": unit}
                       for name, unit, _better in PER_LAYER}
            samples = {"op_wall_s": [r.wall_s for r in results],
                       "traced": len(traced), "spans": str(spans_path)}
        else:
            values, samples = end_to_end(workload, timed, setup_times)
            metrics = {name: {"value": float(values[name]), "unit": unit}
                       for name, unit in END_TO_END_UNITS.items()}
    finally:
        workload.close()

    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "size": args.size, "machine": machine,
                      "samples": samples}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""CLI: ``python -m repro.bench`` — run the grid, emit BENCH_<rev>.json.

Exit status is 1 when any case regresses past tolerance against the
baselines file (CI uses exactly this), 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ..obs import Observability, ObsConfig
from .registry import all_cases, get_case
from .runner import DEFAULT_TOLERANCE, BenchRunner, load_baselines, write_baselines

DEFAULT_BASELINES = Path("benchmarks") / "baselines.json"


def main(argv: list[str] | None = None) -> int:
    """Parse the CLI, run the grid, emit the artifact; 1 on regression."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Unified performance harness (see README §Benchmarks)")
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized workloads (seconds, not minutes)")
    parser.add_argument("--cases", default=None,
                        help="comma-separated case names (default: all)")
    parser.add_argument("--list", action="store_true",
                        help="list registered cases and exit")
    parser.add_argument("--repeats", type=int, default=3,
                        help="scored runs per case (default 3)")
    parser.add_argument("--warmup", type=int, default=1,
                        help="discarded runs per case (default 1)")
    parser.add_argument("--seed", type=int, default=2014,
                        help="base workload seed (default 2014)")
    parser.add_argument("--baselines", type=Path, default=DEFAULT_BASELINES,
                        help=f"baselines file (default {DEFAULT_BASELINES})")
    parser.add_argument("--tolerance", type=float,
                        default=DEFAULT_TOLERANCE,
                        help="allowed slowdown vs baseline (default 0.25)")
    parser.add_argument("--out", type=Path, default=Path("."),
                        help="directory for BENCH_<rev>.json (default .)")
    parser.add_argument("--update-baselines", action="store_true",
                        help="write measured wall times back as the new "
                             "baselines (re-baseline after a reviewed "
                             "perf change)")
    parser.add_argument("--no-fail", action="store_true",
                        help="exit 0 even on regressions (reporting only)")
    parser.add_argument("--obs", action="store_true",
                        help="thread an Observability bundle through the "
                             "workloads; attach its snapshot to the BENCH "
                             "artifact and emit OBS_<rev>.json (flight "
                             "dumps land in <out>/flight/)")
    parser.add_argument("--profile", action="store_true",
                        help="cProfile one extra untimed run per case and "
                             "write the top-25 cumulative table to "
                             "PROFILE_<rev>.txt next to the BENCH artifact")
    args = parser.parse_args(argv)

    if args.list:
        for name, case in sorted(all_cases().items()):
            print(f"{name:<26} {case.summary}")
        return 0

    cases = None
    if args.cases:
        cases = [get_case(name.strip())
                 for name in args.cases.split(",") if name.strip()]

    obs = None
    if args.obs:
        obs = Observability(ObsConfig(
            flight_dump_dir=str(args.out / "flight")))
    runner = BenchRunner(
        cases=cases, quick=args.quick, warmup=args.warmup,
        repeats=args.repeats, baselines=load_baselines(args.baselines),
        tolerance=args.tolerance, seed=args.seed, obs=obs,
        profile=args.profile)
    report = runner.run(
        progress=lambda case: print(
            f"  {case['name']}: {case['wall_s']:.3f} s [{case['status']}]",
            file=sys.stderr))
    print(report.describe())
    path = report.write(args.out)
    print(f"\nwrote {path}")
    if obs is not None:
        obs_path = args.out / f"OBS_{report.revision}.json"
        obs_path.write_text(json.dumps(obs.snapshot_bundle(), indent=2,
                                       sort_keys=True) + "\n")
        print(f"wrote {obs_path}")
    if args.profile:
        profile_path = args.out / f"PROFILE_{report.revision}.txt"
        profile_path.write_text(runner.profile_text())
        print(f"wrote {profile_path}")

    if args.update_baselines:
        write_baselines(args.baselines, report)
        print(f"re-baselined {args.baselines}")

    if report.regressions and not args.no_fail:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

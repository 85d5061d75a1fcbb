"""Event-kernel demo: the fleet's virtual-time clock, two schedules.

Part 1 runs one cohort under both schedules of ``repro.fleet.kernel``:
the lockstep schedule (one sweep per base tick, the whole cohort
encoded per sweep) and the per-node schedule, selected by setting
every node's ``uplink_period_s`` to the base period.  It proves the two
``FleetSummary`` JSON payloads are byte-identical.

Part 2 marks most of the cohort delineation-only with a per-node
``uplink_period_s`` at 10x the base excerpt period.  Each node uplinks
at its own period, and the run's cost is proportional to *events*,
not ticks x cohort.  The printed ratio is the kernel's win over the
per-patient visits a lockstep sweep would have spent.

Run:  python examples/fleet_event_kernel.py [--patients 12] \
          [--sparse-every 4]
"""

from __future__ import annotations

import argparse
from dataclasses import replace

from repro.fleet import (
    CohortConfig,
    FleetScheduler,
    NodeProxyConfig,
    SchedulerConfig,
    make_cohort,
)


def main() -> None:
    """Run the equivalence check, then the sparse-cohort event run."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--patients", type=int, default=12,
                        help="cohort size for both parts")
    parser.add_argument("--duration", type=float, default=120.0,
                        help="simulated seconds per patient")
    parser.add_argument("--sparse-every", type=int, default=4,
                        help="keep every Nth node dense; the rest "
                             "uplink at 10x the base period")
    args = parser.parse_args()

    node_config = NodeProxyConfig(stream_telemetry=False)
    period = node_config.excerpt_period_s

    print(f"part 1: {args.patients} patients x {args.duration:.0f} s "
          "under both schedules ...")
    cohort = make_cohort(CohortConfig(n_patients=args.patients, seed=7))
    uniform = [replace(p, uplink_period_s=period) for p in cohort]
    reports = {
        schedule: FleetScheduler(
            members, SchedulerConfig(duration_s=args.duration),
            node_config=node_config).run()
        for schedule, members in (("lockstep", cohort),
                                  ("per-node", uniform))
    }
    identical = (reports["per-node"].summary.to_json()
                 == reports["lockstep"].summary.to_json())
    for schedule, report in reports.items():
        print(f"  {schedule:<8} : {report.kernel_stats['engine']}, "
              f"{report.packets_sent} packets, "
              f"{report.kernel_stats['n_events']} events")
    print("  summaries byte-identical:", identical)
    if not identical:
        raise SystemExit("schedule equivalence contract broken")

    sparse_duration = period * 10.0
    sparse_cohort = [
        p if i % args.sparse_every == 0
        else replace(p, uplink_period_s=sparse_duration)
        for i, p in enumerate(cohort)
    ]
    n_sparse = sum(1 for p in sparse_cohort
                   if p.uplink_period_s is not None)
    print(f"\npart 2: {n_sparse}/{len(sparse_cohort)} nodes "
          f"delineation-only at 10x period ({sparse_duration:.0f} s) "
          "...")
    sparse = FleetScheduler(
        sparse_cohort,
        SchedulerConfig(duration_s=sparse_duration),
        node_config=node_config).run()
    stats = sparse.kernel_stats
    ratio = stats["tick_loop_iterations"] / stats["n_events"]
    print(f"  engine               : {stats['engine']}")
    print(f"  kernel events        : {stats['n_events']}")
    print(f"  cohort x base ticks  : {stats['tick_loop_iterations']}")
    print(f"  event ratio          : {ratio:.2f} "
          "(cohort x base ticks / kernel events)")
    print(f"  packets sent         : {sparse.packets_sent}, "
          f"stale patients: {sparse.summary.stale_patients}")


if __name__ == "__main__":
    main()

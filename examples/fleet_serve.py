"""Served fleet demo: patient nodes as TCP clients of a gateway service.

Starts the asyncio gateway service (`repro.fleet.serve`), runs every
patient of a cohort as a concurrent `FleetClient` streaming
length-delimited wire frames over real loopback sockets, then proves
the merged fleet summary is **byte-identical** to the in-process
engine's for the same cohort and seeds — the serving determinism
contract — and reports the socket tax and service counters.

Run:  python examples/fleet_serve.py [--patients 4] [--duration 60]
"""

from __future__ import annotations

import argparse

from repro.fleet import (
    CohortConfig,
    FleetScheduler,
    Gateway,
    GatewayConfig,
    NodeProxyConfig,
    SchedulerConfig,
    ServeConfig,
    make_cohort,
    run_served_fleet,
)


def main() -> None:
    """Run the in-process vs served comparison and print it."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--patients", type=int, default=4,
                        help="cohort size (one TCP client each)")
    parser.add_argument("--duration", type=float, default=60.0,
                        help="simulated seconds per patient")
    parser.add_argument("--lanes", type=int, default=2,
                        help="server reconstruction lanes")
    args = parser.parse_args()

    cohort = make_cohort(CohortConfig(n_patients=args.patients, seed=7))
    config = SchedulerConfig(duration_s=args.duration)
    node_config = NodeProxyConfig(stream_telemetry=False)
    gateway_config = GatewayConfig(n_iter=80)

    print(f"running in-process reference over {len(cohort)} patients "
          "...")
    local = FleetScheduler(
        cohort, config, node_config=node_config,
        gateway=Gateway(gateway_config)).run()

    print(f"serving the same cohort over loopback TCP "
          f"({args.lanes} lanes) ...")
    served = run_served_fleet(
        cohort, config=config, node_config=node_config,
        gateway_config=gateway_config,
        serve_config=ServeConfig(n_lanes=args.lanes))

    identical = served.summary.to_json() == local.summary.to_json()
    print("\n" + served.summary.describe())
    stats = served.server_stats
    print(f"\nconnections: {stats['connections']} over "
          f"{stats['n_lanes']} lanes")
    print(f"packet frames consumed: {stats['frames']}; "
          f"{stats['batches']} batches applied, {stats['lane_hops']} "
          f"lane hops (max queue depth {stats['max_queue_depth']})")
    print(f"served wall: {served.timings_s['total']:.2f} s "
          f"({served.packets_sent} packets)")
    print(f"served summary byte-identical: {identical}")
    if not identical:
        raise SystemExit("serving determinism violated!")


if __name__ == "__main__":
    main()

"""Fleet observability demo: metrics, traces and the flight recorder.

Runs the fleet twice with one `Observability` handle threaded through
the stack — once in-process and once sharded across worker processes —
and shows that the canonical fleet-scope snapshot is byte-identical in
both layouts (the same determinism contract `FleetSummary` obeys).
Then trips the gateway flight recorder on one patient's CS window whose
measurements overflow reconstruction (a `nan-guard` anomaly), and
replays the dumped frames into a fresh gateway offline.

Run:  python examples/fleet_observability.py [--patients 8] [--shards 2]
"""

from __future__ import annotations

import argparse
import tempfile
from dataclasses import replace

import numpy as np

from repro.fleet import (
    CohortConfig,
    FleetScheduler,
    Gateway,
    GatewayConfig,
    NodeProxy,
    NodeProxyConfig,
    SchedulerConfig,
    ShardedFleetRunner,
    encode_packet,
    make_cohort,
    synthesize_patient,
)
from repro.obs import Observability, ObsConfig, load_flight_dump


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--patients", type=int, default=8,
                        help="cohort size")
    parser.add_argument("--duration", type=float, default=60.0,
                        help="simulated seconds per patient")
    parser.add_argument("--shards", type=int, default=2,
                        help="worker processes for the sharded rerun")
    args = parser.parse_args()

    cohort = make_cohort(CohortConfig(n_patients=args.patients, seed=7))
    config = SchedulerConfig(duration_s=args.duration, fs=250.0)
    node = NodeProxyConfig(stream_telemetry=False)
    gateway_cfg = GatewayConfig(n_iter=50)

    # --- 1. Observed in-process run -------------------------------
    obs = Observability()
    print(f"observing a fleet of {args.patients} patients for "
          f"{args.duration:.0f} s ...")
    FleetScheduler(cohort, config, node_config=node,
                   gateway=Gateway(gateway_cfg, obs=obs),
                   obs=obs).run()

    snap = obs.metrics.snapshot()
    families = {s["name"] for s in snap["series"]}
    events = obs.trace.snapshot()["events"]
    print(f"metrics: {len(snap['series'])} series across "
          f"{len(families)} families")
    print(f"trace: {len(events)} virtual-time events "
          f"(first at t={events[0]['t_s']:.1f} s, "
          f"last at t={events[-1]['t_s']:.1f} s)")

    print("\nprometheus exposition (excerpt):")
    lines = obs.metrics.to_prometheus().splitlines()
    for line in (l for l in lines if "packets_ingested" in l):
        print(f"  {line}")

    # --- 2. Sharded rerun: same canonical snapshot ----------------
    print(f"\nre-running sharded across {args.shards} worker "
          "processes ...")
    sharded = ShardedFleetRunner(
        cohort, n_shards=args.shards, config=config, node_config=node,
        gateway_config=gateway_cfg, obs_config=ObsConfig()).run()
    if sharded.canonical_obs_json() == obs.canonical_json():
        print(f"{args.shards}-shard canonical snapshot matches the "
              "in-process run byte for byte")
    else:
        raise SystemExit("canonical snapshots diverged!")

    # --- 3. Flight recorder: anomaly dump + offline replay --------
    # One patient's uplink populates its channel's frame ring ...
    profile = cohort[0]
    _, packets = NodeProxy(profile, node).run(
        synthesize_patient(profile, duration_s=args.duration))
    # ... then its next packet carries a window whose finite
    # measurements overflow FISTA, so the reconstruction is not finite.
    last = packets[-1]
    hostile = replace(last, seq=last.seq + 1, frames=tuple(
        tuple(replace(w, measurements=_overflowing(w.measurements))
              for w in frame)
        for frame in last.frames))
    with tempfile.TemporaryDirectory() as dump_dir:
        flight_obs = Observability(ObsConfig(flight_dump_dir=dump_dir))
        recorder_gw = Gateway(gateway_cfg, obs=flight_obs)
        for packet in (*packets, hostile):
            recorder_gw.ingest(encode_packet(packet))
        with np.errstate(all="ignore"):  # the overflow is the point
            recorder_gw.drain()
        record = flight_obs.flight.anomalies[0]
        dump = load_flight_dump(record.path)
        frames = dump.packets()
        print(f"\nflight dump written: kind={dump.kind} "
              f"subject={dump.subject} t={dump.t_s:.1f} s "
              f"({len(frames)} frames captured)")
        # The dump alone reproduces the incident offline.
        offline = Gateway(gateway_cfg)
        for frame in frames:
            offline.ingest(frame)
        with np.errstate(all="ignore"):
            replayed = offline.drain()
        bad = sum(not np.all(np.isfinite(r.signal)) for r in replayed)
        print(f"offline replay: {len(replayed)} packets drained from a "
              f"fresh gateway, {bad} non-finite reconstruction(s)")

    print("\nreproduce this exact snapshot: same cohort seed -> "
          "byte-identical canonical metrics and traces")


def _overflowing(measurements: np.ndarray) -> np.ndarray:
    """``measurements`` with one entry set to 1e300."""
    out = np.array(measurements, dtype=np.float64)
    out[3] = 1e300
    return out


if __name__ == "__main__":
    main()

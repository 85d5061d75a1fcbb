"""Journal demo: record a fleet run, crash it, recover, replay it.

Runs a cohort through the in-process scheduler with a durable gateway
journal attached (`repro.fleet.journal`), then walks the full
durability story: tear the log mid-record the way a power cut would,
reopen it (recovery truncates the torn tail — a crash loses at most
one partial record), and stream the journal back through fresh
gateway cores.  The replayed `FleetSummary` is proven
**byte-identical** to the live run's, at a fraction of the live wall
clock.

Run:  python examples/fleet_journal_replay.py [--patients 4] [--dir D]
"""

from __future__ import annotations

import argparse
import tempfile
import time

from repro.fleet import (
    CohortConfig,
    FleetScheduler,
    Gateway,
    GatewayConfig,
    JournalConfig,
    JournalReplayer,
    JournalWriter,
    NodeProxyConfig,
    SchedulerConfig,
    journal_meta,
    make_cohort,
)
from repro.fleet.journal import _REC_HEAD


def main() -> None:
    """Record, tear, recover and replay one journaled fleet run."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--patients", type=int, default=4,
                        help="cohort size")
    parser.add_argument("--duration", type=float, default=60.0,
                        help="simulated seconds per patient")
    parser.add_argument("--dir", default=None,
                        help="journal directory (default: a temp dir)")
    args = parser.parse_args()

    journal_dir = args.dir or tempfile.mkdtemp(prefix="repro-journal-")
    cohort = make_cohort(CohortConfig(n_patients=args.patients, seed=7))
    config = SchedulerConfig(duration_s=args.duration)
    node_config = NodeProxyConfig(stream_telemetry=True)
    gateway_config = GatewayConfig(n_iter=40)
    journal_config = JournalConfig(dir=journal_dir, name="demo")

    print(f"recording {len(cohort)} patients to {journal_dir} ...")
    t0 = time.perf_counter()
    with JournalWriter(journal_config,
                       meta=journal_meta(args.duration, config.fs,
                                         gateway_config),
                       resume=False) as writer:
        live = FleetScheduler(
            cohort, config, node_config=node_config,
            gateway=Gateway(gateway_config), journal=writer).run()
    wall_live = time.perf_counter() - t0
    stats = writer.stats()
    print(f"journal: {stats['records']} records / {stats['bytes']} B "
          f"across {len(journal_config.segment_paths())} segment(s)")

    # A power cut mid-append leaves a torn tail: fake one by appending
    # half a record, then let recovery truncate it.
    tail = journal_config.segment_paths()[-1]
    with tail.open("ab") as f:
        f.write(_REC_HEAD.pack(512, 0) + b"\x00" * 5)
    print("tore the log mid-record (simulated power cut) ...")
    recovered = JournalWriter(journal_config)
    recovered.close()
    print(f"recovered: truncated {recovered.n_truncated_bytes} torn "
          "bytes, journal intact")

    print("replaying the journal through fresh gateway cores ...")
    replay = JournalReplayer(journal_config).run()
    identical = replay.summary.to_json() == live.summary.to_json()

    print("\n" + replay.summary.describe())
    print(f"\nlive wall: {wall_live:.2f} s   "
          f"replay wall: {replay.timings_s['total']:.2f} s   "
          f"(speedup {wall_live / replay.timings_s['total']:.1f}x)")
    print(f"replayed {replay.n_packets} packets / "
          f"{replay.n_messages} control records")
    print(f"replay recover: {replay.timings_s['recover']:.2f} s   "
          f"undrained frames: {replay.n_undrained_frames}")
    print(f"replay byte-identical: {identical}")
    if not identical:
        raise SystemExit("journal replay determinism violated!")


if __name__ == "__main__":
    main()

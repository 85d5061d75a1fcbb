"""Journal replay throughput — recorded live run vs its replay.

Not a paper figure: this benchmarks the `repro.fleet.journal` layer
that gives the gateway a durable packet log.  The same cohort runs
live with a `JournalWriter` attached (pricing the write tax against a
plain run), then the journal streams back through `JournalReplayer`.
Two contracts gate unconditionally: the replayed `FleetSummary` must
be **byte-identical** to the recorded run's, and the replay must beat
the live run by at least 5x — replay skips node-side synthesis, CS
encoding and the link entirely, so anything slower means the recovery
path regressed.  The replay runs ``N_REPLAYS`` times: each must be
byte-identical, and the speedup uses their median wall time, so one
replay slowed by a busy host cannot fail the gate.
"""

from __future__ import annotations

import statistics
import time

from conftest import print_table

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

N_PATIENTS = 8
DURATION_S = 120.0
FS = 250.0
MIN_SPEEDUP = 5.0
N_REPLAYS = 3


def run_all(journal_dir: str):
    """Plain live run, journaled live run, then the journal replays."""
    cohort = make_cohort(CohortConfig(n_patients=N_PATIENTS, seed=7))
    config = SchedulerConfig(duration_s=DURATION_S, fs=FS)
    node_config = NodeProxyConfig(stream_telemetry=True)
    gateway_config = GatewayConfig(n_iter=40)

    def live(journal=None):
        return FleetScheduler(
            cohort, config, node_config=node_config,
            gateway=Gateway(gateway_config), journal=journal).run()

    t0 = time.perf_counter()
    plain = live()
    wall_plain = time.perf_counter() - t0
    journal_config = JournalConfig(dir=journal_dir, name="bench")
    t0 = time.perf_counter()
    with JournalWriter(journal_config,
                       meta=journal_meta(DURATION_S, FS, gateway_config),
                       resume=False) as journal:
        recorded = live(journal)
    wall_recorded = time.perf_counter() - t0
    replays = [JournalReplayer(journal_config).run()
               for _ in range(N_REPLAYS)]
    return plain, wall_plain, recorded, wall_recorded, journal, replays


def test_fleet_journal_replay(benchmark, tmp_path):
    plain, wall_plain, recorded, wall_recorded, journal, replays = \
        benchmark.pedantic(run_all, args=(str(tmp_path),), rounds=1,
                           iterations=1)
    wall_replay = statistics.median(r.timings_s["total"] for r in replays)
    speedup = wall_recorded / wall_replay
    replay = replays[0]

    print_table(
        f"Journal replay ({N_PATIENTS} patients x {DURATION_S:.0f} s)",
        ["metric", "value"],
        [
            ("plain live wall [s]", wall_plain),
            ("journaled live wall [s]", wall_recorded),
            (f"replay wall, median of {N_REPLAYS} [s]", wall_replay),
            ("write tax [x]", wall_recorded / wall_plain),
            ("replay speedup [x]", speedup),
            ("journal records", journal.n_records),
            ("journal bytes", journal.n_bytes),
            ("packets replayed", replay.n_packets),
            ("SNR p50 [dB]", replay.summary.snr_p50_db),
        ],
    )

    # The determinism contracts gate unconditionally.
    assert recorded.summary.to_json() == plain.summary.to_json(), \
        "journaling perturbed the live run"
    for run in replays:
        assert run.summary.to_json() == recorded.summary.to_json(), \
            "replayed FleetSummary diverged from the recorded run"
        assert run.n_packets == recorded.packets_sent
        assert run.torn_tail_bytes == 0
    assert speedup >= MIN_SPEEDUP, \
        f"journal replay only {speedup:.1f}x faster than live"

"""Sharded fleet throughput — 4 process shards vs one in-process shard.

Not a paper figure: this benchmarks the `repro.fleet.sharding` layer
and its shard-result transport.  Two legs run over the same cohort:

* **baseline** — ``n_shards=1``: the single stripe runs inline, in this
  process, with the pickle transport;
* **sharded** — 4 process shards on the shared-memory transport (pickle
  where the platform has no shared memory).

The merged `FleetSummary` must be **byte-identical** between the two
legs, which proves the sharding determinism contract and the shm
fabric together.  On a machine with >= 4 cores the sharded leg must
clear 2x over the baseline; on smaller runners the speedup assertion
is skipped, and byte-equivalence always gates.
"""

from __future__ import annotations

import os

import pytest
from conftest import print_table

from repro.fleet import (
    CohortConfig,
    GatewayConfig,
    NodeProxyConfig,
    SchedulerConfig,
    ShardedFleetRunner,
    make_cohort,
)
from repro.fleet.transport import SharedMemoryTransport

N_PATIENTS = 12
DURATION_S = 120.0
FS = 250.0
N_SHARDS = 4
#: Required sharded-over-baseline speedup on a >= 4-core machine.
MIN_SPEEDUP = 2.0


def run_fleet(n_shards: int, transport: str):
    """One sharded run of the benchmark cohort."""
    cohort = make_cohort(CohortConfig(n_patients=N_PATIENTS, seed=7))
    return ShardedFleetRunner(
        cohort, n_shards=n_shards, transport=transport,
        config=SchedulerConfig(duration_s=DURATION_S, fs=FS),
        node_config=NodeProxyConfig(stream_telemetry=False),
        gateway_config=GatewayConfig(n_iter=80)).run()


def test_fleet_throughput_sharded(benchmark):
    transport = ("shared_memory" if SharedMemoryTransport.available()
                 else "pickle")
    baseline, sharded = benchmark.pedantic(
        lambda: (run_fleet(1, "pickle"), run_fleet(N_SHARDS, transport)),
        rounds=1, iterations=1)
    speedup = baseline.timings_s["total"] / sharded.timings_s["total"]

    print_table(
        f"Sharded fleet ({N_PATIENTS} patients x {DURATION_S:.0f} s, "
        f"{N_SHARDS} shards)",
        ["metric", "value"],
        [
            ("baseline wall [s] (1 shard, in process)",
             baseline.timings_s["total"]),
            (f"{N_SHARDS}-shard wall [s] ({transport})",
             sharded.timings_s["total"]),
            ("speedup [x]", speedup),
            ("patients/sec (sharded)", sharded.patients_per_second),
            ("packets sent", sharded.packets_sent),
            ("SNR p50 [dB]", sharded.summary.snr_p50_db),
            ("cores available", os.cpu_count() or 1),
        ],
    )

    # The determinism contract gates unconditionally.
    assert sharded.summary.to_json() == baseline.summary.to_json(), \
        "sharded FleetSummary diverged from the 1-shard baseline"
    assert sharded.packets_sent == baseline.packets_sent
    assert sharded.summary.n_patients == N_PATIENTS
    assert sharded.summary.dropped_packets == 0

    if (os.cpu_count() or 1) < N_SHARDS:
        pytest.skip(f"speedup assertion needs >= {N_SHARDS} cores "
                    f"(have {os.cpu_count() or 1}); byte-equivalence "
                    "already checked")
    assert speedup >= MIN_SPEEDUP, (
        f"{N_SHARDS}-shard run only {speedup:.2f}x faster than the "
        f"1-shard baseline (need >= {MIN_SPEEDUP}x)")

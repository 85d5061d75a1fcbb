"""A cohort that lists one patient id twice is rejected at every entry.

Every runtime keys gateway channels, triage machines and report rows by
patient id.  A repeated id used to merge two nodes silently: in process
the gateway dropped one node's packets as duplicates of the other's,
while a sharded run kept them apart, so the two summaries differed.
Each entry point now names the repeated id before any work starts.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.fleet import (
    CohortConfig,
    FleetScheduler,
    GatewayConfig,
    JournalConfig,
    JournalError,
    JournalReplayer,
    NodeProxyConfig,
    SchedulerConfig,
    ShardedFleetRunner,
    make_cohort,
    merge_patient_rows,
    partition_cohort,
    run_served_fleet,
)

PAIR = make_cohort(CohortConfig(n_patients=2, seed=3))
REPEATED = [PAIR[0], replace(PAIR[1], patient_id=PAIR[0].patient_id)]
MATCH = f"{PAIR[0].patient_id!r} appears twice"

RUN_KW = dict(
    config=SchedulerConfig(duration_s=10.0),
    node_config=NodeProxyConfig(stream_telemetry=False),
    gateway_config=GatewayConfig(n_iter=20),
)


def test_scheduler_rejects_repeated_id():
    with pytest.raises(ValueError, match=MATCH):
        FleetScheduler(REPEATED, RUN_KW["config"])


def test_partition_rejects_repeated_id():
    with pytest.raises(ValueError, match=MATCH):
        partition_cohort(REPEATED, 2)


def test_sharded_runner_rejects_repeated_id_before_forking():
    with pytest.raises(ValueError, match=MATCH):
        ShardedFleetRunner(REPEATED, n_shards=2, **RUN_KW)


def test_served_fleet_rejects_repeated_id():
    with pytest.raises(ValueError, match=MATCH):
        run_served_fleet(REPEATED, **RUN_KW)


def test_merge_rejects_repeated_id():
    rows = ShardedFleetRunner(PAIR[:1], n_shards=1, **RUN_KW).run().rows
    with pytest.raises(ValueError, match=MATCH):
        merge_patient_rows(REPEATED, rows, RUN_KW["gateway_config"],
                           10.0, 250.0)


def test_replayer_rejects_repeated_id(tmp_path):
    config = JournalConfig(dir=str(tmp_path), name="pair")
    with pytest.raises(JournalError, match=MATCH):
        JournalReplayer(config, cohort=REPEATED)

"""Event-heap simulation kernel — schedule equivalence + event efficiency.

Not a paper figure: this benchmarks the `repro.fleet.kernel` layer, the
fleet's discrete-event clock.  Two contracts gate unconditionally:

* **schedule equivalence** — one cohort run under the lockstep
  schedule and again with every node's ``uplink_period_s`` at the base
  period (the per-node schedule over the same instants) must produce
  byte-identical ``FleetSummary`` JSON;
* **sparse-cohort efficiency** — with 90 % of the nodes
  delineation-only (uplinking at 10x the base period), the kernel must
  process at least ``MIN_EVENT_RATIO`` times fewer events than the
  per-patient visits a lockstep sweep spends on the same stretch.
"""

from __future__ import annotations

from dataclasses import replace

from conftest import print_table

from repro.fleet import (
    CohortConfig,
    FleetScheduler,
    NodeProxyConfig,
    SchedulerConfig,
    make_cohort,
)

EQ_PATIENTS = 8
EQ_DURATION_S = 120.0
FS = 250.0
SPARSE_PATIENTS = 30
SPARSE_DENSE = 3
SPARSE_PERIOD_S = 30.0
#: Required lockstep-visits / kernel-events ratio on the sparse
#: cohort (mirrors ``MIN_EVENT_RATIO`` in ``repro.bench.cases``).
MIN_EVENT_RATIO = 3.0


def run_all():
    """Both schedules over one cohort, then the sparse-cohort event run."""
    cohort = make_cohort(CohortConfig(n_patients=EQ_PATIENTS, seed=7))
    node_config = NodeProxyConfig(stream_telemetry=False)
    uniform = [replace(p, uplink_period_s=node_config.excerpt_period_s)
               for p in cohort]
    reports = {
        schedule: FleetScheduler(
            members,
            SchedulerConfig(duration_s=EQ_DURATION_S, fs=FS),
            node_config=node_config).run()
        for schedule, members in (("lockstep", cohort),
                                  ("events", uniform))
    }

    duration = SPARSE_PERIOD_S * 10.0
    base = make_cohort(CohortConfig(n_patients=SPARSE_PATIENTS, seed=3))
    sparse_cohort = [
        p if i < SPARSE_DENSE else replace(p, uplink_period_s=duration)
        for i, p in enumerate(base)]
    sparse = FleetScheduler(
        sparse_cohort,
        SchedulerConfig(duration_s=duration, fs=FS),
        node_config=NodeProxyConfig(excerpt_period_s=SPARSE_PERIOD_S,
                                    stream_telemetry=False)).run()
    return reports, sparse


def test_fleet_event_kernel(benchmark):
    reports, sparse = benchmark.pedantic(run_all, rounds=1, iterations=1)
    stats = sparse.kernel_stats
    ratio = stats["tick_loop_iterations"] / stats["n_events"]

    print_table(
        f"Event kernel ({EQ_PATIENTS} patients x {EQ_DURATION_S:.0f} s "
        f"both schedules; sparse {SPARSE_PATIENTS} patients, "
        f"{SPARSE_PATIENTS - SPARSE_DENSE} @ 10x period)",
        ["metric", "value"],
        [
            ("lockstep schedule wall [s]",
             reports["lockstep"].timings_s["uplink+gateway"]),
            ("per-node schedule wall [s]",
             reports["events"].timings_s["uplink+gateway"]),
            ("sparse kernel events", stats["n_events"]),
            ("cohort x base ticks", stats["tick_loop_iterations"]),
            ("event ratio [x]", ratio),
            ("sparse packets sent", sparse.packets_sent),
            ("sparse stale patients", sparse.summary.stale_patients),
        ],
    )

    # The determinism contract gates unconditionally.
    assert reports["events"].summary.to_json() \
        == reports["lockstep"].summary.to_json(), \
        "per-node schedule diverged from the lockstep schedule"
    assert reports["lockstep"].kernel_stats["engine"] == "kernel-lockstep"
    assert reports["events"].kernel_stats["engine"] == "kernel-events"
    assert reports["events"].packets_sent \
        == reports["lockstep"].packets_sent

    # The efficiency contract: cost proportional to events, not ticks.
    assert stats["engine"] == "kernel-events"
    assert ratio >= MIN_EVENT_RATIO, (
        f"sparse cohort processed only {ratio:.2f}x fewer kernel events "
        f"than lockstep per-patient visits (need >= {MIN_EVENT_RATIO}x)")
    assert sparse.summary.stale_patients == 0, \
        "sparse nodes flagged stale despite expected-period scaling"

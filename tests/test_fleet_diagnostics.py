"""Tests for `Gateway.diagnostics()` and `TriageBoard.link_health()`."""

from __future__ import annotations

import numpy as np

from repro.fleet import (
    CohortConfig,
    FleetScheduler,
    Gateway,
    GatewayConfig,
    NodeProxyConfig,
    PerPatientLink,
    SchedulerConfig,
    make_cohort,
)
from repro.fleet.triage import STATE_OK, TriageBoard
from repro.scenarios import LinkSpec, derive_seed
from repro.scenarios.channel import ImpairedLink

COHORT = make_cohort(CohortConfig(n_patients=3, seed=7))
CONFIG = SchedulerConfig(duration_s=60.0, fs=250.0)
NODE = NodeProxyConfig(stream_telemetry=False)


def run_fleet(link=None):
    # A short excerpt period keeps enough packets in flight for the
    # impaired link to exercise the reassembly counters.
    node = (NODE if link is None
            else NodeProxyConfig(stream_telemetry=False,
                                 excerpt_period_s=6.0))
    scheduler = FleetScheduler(COHORT, CONFIG, node_config=node,
                               link=link)
    fleet = scheduler.run()
    return scheduler, fleet


def impaired_link():
    spec = LinkSpec(loss_rate=0.15, duplicate_rate=0.1,
                    reorder_rate=0.2, jitter_s=2.0,
                    reorder_delay_s=65.0)
    return PerPatientLink(
        lambda pid: ImpairedLink(spec, seed=derive_seed(99, "link", pid)))


class TestDiagnostics:
    def test_channels_sorted_with_expected_keys(self):
        scheduler, _ = run_fleet()
        diag = scheduler.gateway.diagnostics()
        assert list(diag["channels"]) == sorted(diag["channels"])
        assert set(diag["channels"]) == {p.patient_id for p in COHORT}
        entry = next(iter(diag["channels"].values()))
        for key in ("n_excerpts", "n_alarms", "n_confirmed",
                    "n_telemetry", "payload_bits", "n_duplicates",
                    "n_out_of_order", "n_gaps", "n_late_recovered",
                    "pending_reassembly", "stalled_ticks",
                    "last_timestamp_s", "mean_snr_db", "last_mode",
                    "last_soc"):
            assert key in entry

    def test_totals_sum_channels(self):
        scheduler, _ = run_fleet()
        diag = scheduler.gateway.diagnostics()
        for key, total in diag["totals"].items():
            assert total == sum(ch[key]
                                for ch in diag["channels"].values())

    def test_totals_match_summary_surface(self):
        # fleet_summary() folds the same channel counters from the
        # patient rows; cross-check against the numbers it reports.
        scheduler, fleet = run_fleet()
        totals = scheduler.gateway.diagnostics()["totals"]
        assert totals["n_confirmed"] == fleet.summary.confirmed_alarms
        assert totals["n_duplicates"] == fleet.summary.duplicate_packets
        assert totals["n_gaps"] == fleet.summary.reassembly_gaps

    def test_queue_section(self):
        gateway = Gateway(GatewayConfig(queue_capacity=17))
        diag = gateway.diagnostics()
        assert diag["queue"] == {"pending": 0, "capacity": 17,
                                 "dropped": 0}

    def test_impaired_link_populates_reassembly_counters(self):
        scheduler, _ = run_fleet(link=impaired_link())
        totals = scheduler.gateway.diagnostics()["totals"]
        assert totals["n_duplicates"] + totals["n_out_of_order"] \
            + totals["n_gaps"] + totals["n_late_recovered"] > 0


class TestLinkHealth:
    def test_rows_join_board_and_gateway_views(self):
        scheduler, fleet = run_fleet(link=impaired_link())
        diag = scheduler.gateway.diagnostics()
        health = scheduler.board.link_health(diag)
        assert list(health) == sorted(health)
        assert set(health) >= {p.patient_id for p in COHORT}
        for pid, row in health.items():
            ch = diag["channels"].get(pid, {})
            assert row["n_gaps"] == ch.get("n_gaps", 0)
            assert row["n_duplicates"] == ch.get("n_duplicates", 0)
            assert row["state"] in ("ok", "watch", "alert")
            assert isinstance(row["stale"], (bool, np.bool_))

    def test_unregistered_channel_reports_stale(self):
        board = TriageBoard()
        board.register(["known"])
        health = board.link_health(
            {"channels": {"ghost": {"n_gaps": 2}}})
        assert set(health) == {"known", "ghost"}
        assert health["ghost"]["stale"] is True
        assert health["ghost"]["state"] == STATE_OK
        assert health["ghost"]["n_gaps"] == 2

    def test_empty_diagnostics_still_reports_board(self):
        board = TriageBoard()
        board.register(["p0"])
        health = board.link_health({})
        assert list(health) == ["p0"]
        assert health["p0"]["n_gaps"] == 0

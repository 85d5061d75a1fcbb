"""Tests for triage state machines and fleet aggregates."""

import numpy as np
import pytest

from repro.fleet import (
    ReconstructedExcerpt,
    STATE_ALERT,
    STATE_OK,
    STATE_WATCH,
    ServeMessage,
    TriageBoard,
    TriageConfig,
    fleet_summary,
)
from repro.fleet.gateway import PatientChannel
from repro.fleet.triage import row_from_report


def _excerpt(pid="p0", t=0.0, kind="excerpt", snr=25.0, confirmed=None):
    return ReconstructedExcerpt(
        patient_id=pid, timestamp_s=t, kind=kind,
        signal=np.zeros((3, 256)), snr_db=snr, confirmed=confirmed)


def _row(board, pid, channel=None, n_alarms=0):
    """One ungoverned patient row, built from its ``report`` message."""
    report = ServeMessage("report", pid, t_s=120.0, fields={
        "n_sent": 3.0, "n_node_alarms": float(n_alarms),
        "average_power_w": 4e-4, "battery_days": 20.0,
        "governor_switches": 0.0, "final_soc": float("nan"),
        "projected_hours": float("nan")}, info={"governed": "0"})
    return row_from_report(report, channel, board.patient(pid), 2)


class TestStateMachine:
    def test_confirmed_alarm_raises_alert(self):
        board = TriageBoard()
        state = board.observe(_excerpt(kind="alarm", t=10.0, confirmed=True))
        assert state == STATE_ALERT
        assert board.patient("p0").n_alerts == 1

    def test_unconfirmed_alarm_raises_watch(self):
        board = TriageBoard()
        state = board.observe(_excerpt(kind="alarm", t=10.0,
                                       confirmed=False))
        assert state == STATE_WATCH

    def test_low_snr_excerpt_raises_watch(self):
        board = TriageBoard(TriageConfig(snr_watch_db=8.0))
        assert board.observe(_excerpt(snr=25.0)) == STATE_OK
        assert board.observe(_excerpt(snr=5.0, t=60.0)) == STATE_WATCH

    def test_watch_never_lowers_alert(self):
        board = TriageBoard()
        board.observe(_excerpt(kind="alarm", t=10.0, confirmed=True))
        state = board.observe(_excerpt(kind="alarm", t=20.0,
                                       confirmed=False))
        assert state == STATE_ALERT

    def test_decay_one_step_at_a_time(self):
        # stale_after_s pushed out of frame: silence long enough to
        # decay would otherwise flag the link stale (pinning watch),
        # which TestStaleLink covers separately.
        config = TriageConfig(alert_hold_s=100.0, watch_hold_s=50.0,
                              stale_after_s=1e9)
        board = TriageBoard(config)
        board.observe(_excerpt(kind="alarm", t=0.0, confirmed=True))
        board.tick(50.0)
        assert board.patient("p0").state == STATE_ALERT  # still holding
        board.tick(120.0)
        assert board.patient("p0").state == STATE_WATCH
        board.tick(150.0)
        assert board.patient("p0").state == STATE_WATCH  # watch hold
        board.tick(200.0)
        assert board.patient("p0").state == STATE_OK

    def test_quiet_clean_patient_stays_ok(self):
        board = TriageBoard()
        for t in (60.0, 120.0, 180.0):
            board.observe(_excerpt(t=t, snr=22.0))
            board.tick(t)
        assert board.counts() == {STATE_OK: 1, STATE_WATCH: 0,
                                  STATE_ALERT: 0}

    def test_counts_cover_all_states(self):
        board = TriageBoard()
        board.observe(_excerpt(pid="a", kind="alarm", confirmed=True))
        board.observe(_excerpt(pid="b", kind="alarm", confirmed=False))
        board.observe(_excerpt(pid="c", snr=30.0))
        assert board.counts() == {STATE_OK: 1, STATE_WATCH: 1,
                                  STATE_ALERT: 1}


class TestFleetSummary:
    def test_aggregates(self):
        channels = {
            "a": PatientChannel("a", n_excerpts=2, n_alarms=1,
                                n_confirmed=1, payload_bits=80000,
                                snrs=[20.0, 22.0]),
            "b": PatientChannel("b", n_excerpts=2, n_alarms=0,
                                n_confirmed=0, payload_bits=40000,
                                snrs=[15.0]),
        }
        board = TriageBoard()
        board.observe(_excerpt(pid="a", kind="alarm", confirmed=True))
        board.observe(_excerpt(pid="b", snr=15.0))
        rows = [_row(board, "a", channels["a"], n_alarms=1),
                _row(board, "b", channels["b"])]
        summary = fleet_summary(rows, duration_s=120.0)
        assert summary.n_patients == 2
        assert summary.node_alarms == 1
        assert summary.confirmed_alarms == 1
        # 1 alarm / 2 patients over 120 s -> 360 per patient-day.
        assert summary.alarm_rate_per_patient_day == pytest.approx(360.0)
        bytes_per_day = (120000 / 8.0 / 2) * (86400.0 / 120.0)
        assert summary.uplink_bytes_per_patient_day == \
            pytest.approx(bytes_per_day)
        assert summary.mean_battery_days == pytest.approx(20.0)
        assert summary.snr_p50_db == pytest.approx(20.0)
        assert summary.state_counts[STATE_ALERT] == 1

    def test_describe_mentions_key_figures(self):
        row = _row(TriageBoard(), "a", PatientChannel("a", snrs=[20.0]))
        summary = fleet_summary([row], duration_s=120.0)
        text = summary.describe()
        assert "triage" in text
        assert "kB/patient/day" in text
        assert "battery" in text

    def test_empty_reports_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            fleet_summary([], 60.0)

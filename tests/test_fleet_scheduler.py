"""Tests for the batched fleet scheduler."""

import numpy as np
import pytest

from repro.compression import MultiLeadCsEncoder
from repro.fleet import (
    BatchExcerptEncoder,
    CohortConfig,
    FleetScheduler,
    Gateway,
    GatewayConfig,
    NodeProxyConfig,
    SchedulerConfig,
    make_cohort,
)

FAST_NODE = NodeProxyConfig(stream_telemetry=False)


class TestBatchExcerptEncoder:
    def test_matches_scalar_encoder(self, rng):
        batch = rng.normal(size=(6, 3, 256))
        batched = BatchExcerptEncoder(n_leads=3, n=256, cr_percent=60.0,
                                      seed=11)
        scalar = MultiLeadCsEncoder(n_leads=3, n=256, cr_percent=60.0,
                                    seed=11)
        frames = batched.encode_batch(batch)
        for p in range(batch.shape[0]):
            reference = scalar.encode(batch[p])
            for lead in range(3):
                np.testing.assert_allclose(
                    frames[p][lead].measurements,
                    reference[lead].measurements, rtol=1e-10, atol=1e-12)
                assert frames[p][lead].scale == \
                    pytest.approx(reference[lead].scale)
                assert frames[p][lead].payload_bits == \
                    reference[lead].payload_bits
                assert frames[p][lead].additions == reference[lead].additions

    def test_zero_window_encodes_to_zero(self):
        batched = BatchExcerptEncoder(n_leads=1, n=128)
        frames = batched.encode_batch(np.zeros((2, 1, 128)))
        np.testing.assert_array_equal(frames[0][0].measurements,
                                      np.zeros(batched.template.m))
        assert frames[0][0].scale == 1.0

    def test_shape_validation(self):
        batched = BatchExcerptEncoder(n_leads=3, n=256)
        with pytest.raises(ValueError, match="shape"):
            batched.encode_batch(np.zeros((4, 2, 256)))


@pytest.fixture(scope="module")
def small_fleet_report():
    cohort = make_cohort(CohortConfig(n_patients=6, seed=5))
    scheduler = FleetScheduler(
        cohort, SchedulerConfig(duration_s=120.0), node_config=FAST_NODE)
    return cohort, scheduler.run()


class TestFleetRun:
    def test_reports_for_every_patient(self, small_fleet_report):
        cohort, report = small_fleet_report
        assert set(report.node_reports) == {p.patient_id for p in cohort}

    def test_one_excerpt_per_patient_per_tick(self, small_fleet_report):
        cohort, report = small_fleet_report
        n_ticks = 2  # 120 s at the default 60 s period
        excerpts = [e for e in report.excerpts if e.kind == "excerpt"]
        assert len(excerpts) == len(cohort) * n_ticks
        alarms = [e for e in report.excerpts if e.kind == "alarm"]
        assert report.packets_sent == len(excerpts) + len(alarms)

    def test_summary_consistency(self, small_fleet_report):
        cohort, report = small_fleet_report
        summary = report.summary
        assert summary.n_patients == len(cohort)
        assert summary.node_alarms == sum(
            len(r.alarms) for r in report.node_reports.values())
        assert sum(summary.state_counts.values()) <= len(cohort)
        assert np.isfinite(summary.uplink_bytes_per_patient_day)
        assert np.isfinite(summary.mean_battery_days)
        assert summary.dropped_packets == 0
        assert report.patients_per_second > 0

    def test_drain_budget_processes_backlog_eventually(self):
        cohort = make_cohort(CohortConfig(n_patients=4, seed=8))
        scheduler = FleetScheduler(
            cohort, SchedulerConfig(duration_s=120.0, drain_per_tick=1),
            node_config=FAST_NODE)
        report = scheduler.run()
        # All offered packets still processed by the final drain.
        assert len(report.excerpts) == report.packets_sent
        assert scheduler.gateway.pending == 0

    def test_bounded_queue_drops_under_pressure(self):
        cohort = make_cohort(CohortConfig(n_patients=6, seed=5))
        scheduler = FleetScheduler(
            cohort, SchedulerConfig(duration_s=120.0, drain_per_tick=0),
            node_config=FAST_NODE,
            gateway=Gateway(GatewayConfig(queue_capacity=3)))
        report = scheduler.run()
        assert report.summary.dropped_packets > 0
        assert len(report.excerpts) + report.summary.dropped_packets == \
            report.packets_sent

    def test_empty_cohort_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            FleetScheduler([])

    def test_alarms_survive_subperiod_run(self, trained_af_detector):
        # duration < excerpt period: no periodic ticks, but node alarms
        # must still reach the gateway.
        from repro.fleet import PatientProfile

        cohort = [PatientProfile(patient_id="afq", rhythm="af",
                                 snr_db=None, seed=42)]
        scheduler = FleetScheduler(
            cohort, SchedulerConfig(duration_s=45.0), node_config=FAST_NODE,
            af_detector=trained_af_detector)
        report = scheduler.run()
        assert report.summary.node_alarms >= 1
        alarms = [e for e in report.excerpts if e.kind == "alarm"]
        assert len(alarms) == report.summary.node_alarms
        assert report.packets_sent == len(report.excerpts)

"""Governed fleet runs: closed-loop mode adaptation through the stack.

Covers the EnergyGovernor wiring end to end: the scheduler stepping
per-patient governors from triage acuity, mode-routed tick uplink
(raw / multi- / single-lead CS / events-only telemetry), mode + SoC
telemetry flowing through gateway channels into triage, and the
governed power/battery accounting folded into the fleet summary.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.fleet import (
    CohortConfig,
    FleetScheduler,
    NodeProxyConfig,
    PACKET_EXCERPT,
    PACKET_TELEMETRY,
    PatientProfile,
    SchedulerConfig,
    make_cohort,
    synthesize_patient,
)
from repro.power import (
    Battery,
    BatteryModel,
    EnergyGovernor,
    GovernorConfig,
    MODE_EVENTS_ONLY,
    MODE_MULTI_LEAD_CS,
    MODE_RAW,
    MODE_SINGLE_LEAD_CS,
    ModePowerTable,
)

TABLE = ModePowerTable()
PERIOD_S = 30.0
EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def governor_factory(soc: float):
    """A factory pinning every node's starting SoC (tiny cell so a
    minutes-long run actually moves the ladder)."""

    def factory(profile: PatientProfile) -> EnergyGovernor:
        return EnergyGovernor(
            config=GovernorConfig(min_dwell_s=0.0),
            table=TABLE,
            battery=BatteryModel(cell=Battery(capacity_mah=0.05),
                                 soc=soc))

    return factory


def run_fleet(soc: float = 0.9, n_patients: int = 3,
              duration_s: float = 150.0, **kwargs):
    cohort = make_cohort(CohortConfig(n_patients=n_patients, seed=11))
    scheduler = FleetScheduler(
        cohort,
        SchedulerConfig(duration_s=duration_s),
        node_config=NodeProxyConfig(excerpt_period_s=PERIOD_S,
                                    stream_telemetry=False),
        governor_factory=governor_factory(soc),
        **kwargs)
    return scheduler, scheduler.run()


class TestGovernedScheduler:
    def test_modes_descend_as_batteries_drain(self):
        _, report = run_fleet(soc=0.9)
        for governor in report.governors.values():
            modes = [d.mode for d in governor.decisions]
            # Acuity stays ok, so the walk is battery-driven and
            # monotone down the ladder.
            ladder = [MODE_RAW, MODE_MULTI_LEAD_CS,
                      MODE_SINGLE_LEAD_CS, MODE_EVENTS_ONLY]
            ranks = [ladder.index(m) for m in modes]
            assert ranks == sorted(ranks)
        assert report.summary.governed
        assert report.summary.governor_switches > 0

    def test_soc_telemetry_reaches_triage(self):
        scheduler, report = run_fleet(soc=0.8)
        for profile in report.profiles:
            triage = scheduler.board.patients[profile.patient_id]
            assert np.isfinite(triage.soc)
            assert triage.mode in (MODE_RAW, MODE_MULTI_LEAD_CS,
                                   MODE_SINGLE_LEAD_CS,
                                   MODE_EVENTS_ONLY)
            channel = scheduler.gateway.channels[profile.patient_id]
            assert np.isfinite(channel.last_soc)

    def test_events_only_sends_telemetry_packets(self):
        scheduler, report = run_fleet(soc=0.12)
        kinds = {e.kind for e in report.excerpts}
        assert PACKET_TELEMETRY in kinds
        telemetry = [e for e in report.excerpts
                     if e.kind == PACKET_TELEMETRY]
        for excerpt in telemetry:
            assert excerpt.signal.size == 0
            assert excerpt.mode == MODE_EVENTS_ONLY
        assert sum(ch.n_telemetry
                   for ch in scheduler.gateway.channels.values()
                   ) == len(telemetry)

    def test_raw_mode_passes_signal_through_verbatim(self):
        scheduler, report = run_fleet(soc=1.0, duration_s=60.0)
        raw = [e for e in report.excerpts if e.mode == MODE_RAW
               and e.kind == PACKET_EXCERPT]
        assert raw, "a full battery must stream raw"
        for excerpt in raw:
            profile = next(p for p in report.profiles
                           if p.patient_id == excerpt.patient_id)
            record = synthesize_patient(profile, 60.0, 250.0)
            window_n = scheduler.node_config.window_n
            start_options = [record.signals[:, s:s + window_n]
                             for s in range(0, record.n_samples
                                            - window_n + 1)]
            # The reconstructed signal equals some contiguous window of
            # the original record exactly (no CS round-off).
            assert any(np.array_equal(excerpt.signal, w)
                       for w in start_options)

    def test_single_lead_mode_narrows_the_uplink(self):
        scheduler, report = run_fleet(soc=0.33)
        single = [e for e in report.excerpts
                  if e.mode == MODE_SINGLE_LEAD_CS]
        assert single, "a one-third battery must ride single-lead CS"
        for excerpt in single:
            assert excerpt.signal.shape[0] == 1
            assert np.isfinite(excerpt.snr_db)

    def test_governed_power_folds_into_node_reports(self):
        _, governed = run_fleet(soc=0.12, duration_s=150.0)
        cohort = make_cohort(CohortConfig(n_patients=3, seed=11))
        static = FleetScheduler(
            cohort, SchedulerConfig(duration_s=150.0),
            node_config=NodeProxyConfig(excerpt_period_s=PERIOD_S,
                                        stream_telemetry=False)).run()
        # Nodes coasting on events-only must report far less power than
        # the static fleet's always-on CS policy accounting.
        for pid, report in governed.node_reports.items():
            events_power = TABLE.power_w(MODE_EVENTS_ONLY)
            assert report.average_power_w == pytest.approx(
                events_power, rel=0.05)
        assert (governed.summary.mean_node_power_uw
                != static.summary.mean_node_power_uw)

    def test_acuity_override_forces_upshift(self):
        def force_alert(pid: str, t0: float) -> str | None:
            return "alert" if t0 >= 60.0 else None

        scheduler, report = run_fleet(soc=0.12,
                                      acuity_override=force_alert)
        for governor in report.governors.values():
            modes = [d.mode for d in governor.decisions]
            # Coasting before the override, multi-lead CS after.
            assert modes[0] == MODE_EVENTS_ONLY
            assert MODE_MULTI_LEAD_CS in modes[2:]

    def test_extra_load_drains_faster(self):
        _, plain = run_fleet(soc=0.5)
        _, loaded = run_fleet(soc=0.5,
                              extra_load=lambda pid, t0: 0.005)
        assert (loaded.summary.mean_final_soc
                < plain.summary.mean_final_soc)

    def test_one_patient_decisions_cover_the_run(self):
        _, report = run_fleet(soc=0.9, n_patients=1)
        [(pid, governor)] = report.governors.items()
        times = [d.t_s for d in governor.decisions]
        # One decision per period from 0, covering the governed run.
        assert times == [PERIOD_S * i for i in range(len(times))]
        assert governor.now_s == 150.0
        assert sum(governor.mode_seconds.values()) == governor.now_s
        assert governor.n_switches >= 1
        assert 0.0 <= governor.battery.soc < 0.9
        assert report.rows[pid].channel.payload_bits > 0
        assert report.node_reports[pid].average_power_w > 0

    def test_governor_state_persists_across_runs(self):
        governor = governor_factory(0.9)(None)
        cohort = make_cohort(CohortConfig(n_patients=1, seed=11))
        final_soc = []
        for _ in range(2):
            FleetScheduler(
                cohort, SchedulerConfig(duration_s=60.0),
                node_config=NodeProxyConfig(excerpt_period_s=PERIOD_S,
                                            stream_telemetry=False),
                governor_factory=lambda _: governor).run()
            final_soc.append(governor.battery.soc)
        # The second run continues the first one's discharge curve.
        assert final_soc[1] < final_soc[0] < 0.9
        assert len(governor.decisions) == 4

    def test_ungoverned_run_reports_no_governor_state(self):
        cohort = make_cohort(CohortConfig(n_patients=2, seed=11))
        report = FleetScheduler(
            cohort, SchedulerConfig(duration_s=60.0),
            node_config=NodeProxyConfig(stream_telemetry=False)).run()
        assert not report.summary.governed
        assert report.governors == {}
        assert np.isnan(report.summary.mean_final_soc)


def load_energy_governor_demo():
    """Import ``examples/energy_governor.py`` without running it."""
    spec = importlib.util.spec_from_file_location(
        "energy_governor_demo", EXAMPLES_DIR / "energy_governor.py")
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    return demo


class TestEnergyGovernorDemo:
    def test_default_run_prints_the_mode_timeline(self):
        demo = load_energy_governor_demo()
        report = demo.run_governed(300.0, 0.9, 10.0, TABLE)
        governor = report.governors[demo.PROFILE.patient_id]
        timeline = demo.mode_timeline(governor)
        # The merged segments tile the run, and a switch separates
        # every two neighbours.
        assert timeline[0][0] == 0.0
        assert timeline[-1][1] == governor.now_s == 300.0
        for (_, stop, mode), (start, _, next_mode) in zip(timeline,
                                                          timeline[1:]):
            assert stop == start
            assert mode != next_mode
        assert governor.n_switches == len(timeline) - 1
        # The demo's defaults: an alert upshift to raw, back to
        # multi-lead, then down to single-lead as the cell drains.
        assert [(start, mode) for start, _, mode in timeline] == [
            (0.0, MODE_MULTI_LEAD_CS), (20.0, MODE_RAW),
            (70.0, MODE_MULTI_LEAD_CS), (230.0, MODE_SINGLE_LEAD_CS)]
        assert round(100 * governor.battery.soc) == 39


class TestSingleLeadPacket:
    """`NodeProxy.single_lead_packet` must not drift from the batched
    single-lead path the governed scheduler runs."""

    def test_scalar_packet_matches_batch_encoder_output(self):
        from repro.fleet import BatchExcerptEncoder, NodeProxy

        profile = PatientProfile(patient_id="sl0", rhythm="nsr", seed=9)
        record = synthesize_patient(profile, 30.0, 250.0)
        proxy = NodeProxy(profile, NodeProxyConfig(
            excerpt_period_s=PERIOD_S, stream_telemetry=False))
        start = 500
        packet = proxy.single_lead_packet(record, start, PERIOD_S,
                                          soc=0.4)
        assert packet.n_leads == 1
        assert packet.mode == MODE_SINGLE_LEAD_CS
        assert packet.soc == 0.4
        # Same window through the scheduler's batch encoder: identical
        # geometry and measurements up to float round-off.
        cfg = proxy.config
        batch = BatchExcerptEncoder(
            n_leads=1, n=cfg.window_n, cr_percent=cfg.cr_percent,
            quant_bits=cfg.quant_bits, seed=cfg.cs_seed)
        lead = proxy.delineation_lead
        window = record.signals[lead:lead + 1,
                                start:start + cfg.window_n]
        (frame,) = batch.encode_batch(window[np.newaxis])
        (scalar_frame,) = packet.frames
        assert len(scalar_frame) == len(frame) == 1
        np.testing.assert_allclose(scalar_frame[0].measurements,
                                   frame[0].measurements, rtol=1e-12)
        assert scalar_frame[0].payload_bits == frame[0].payload_bits

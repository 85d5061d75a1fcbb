"""Tests for the campaign runner and its reproducibility contract."""

import json

import pytest

from repro.fleet import JournalError, ShardedFleetRunner
from repro.obs import SCOPE_SHARD, Observability
from repro.scenarios import (
    CampaignConfig,
    CampaignRunner,
    ScenarioSpec,
    battery_drain_scenario,
    clean_scenario,
    governed_grid,
    governor_stress_scenario,
    packet_loss_scenario,
)

SMALL = CampaignConfig(n_patients=4, n_sentinels=2, duration_s=60.0,
                       master_seed=77, gateway_n_iter=40)


@pytest.fixture(scope="module")
def small_report(trained_af_detector):
    runner = CampaignRunner(
        (clean_scenario(), packet_loss_scenario(0.10)),
        SMALL, af_detector=trained_af_detector)
    return runner.run()


class TestCampaignRunner:
    def test_scenario_names_must_be_unique(self):
        with pytest.raises(ValueError, match="unique"):
            CampaignRunner((clean_scenario(), clean_scenario()), SMALL)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="scenario"):
            CampaignRunner((), SMALL)

    def test_cohort_contains_sentinels(self):
        cohort = CampaignRunner((clean_scenario(),), SMALL).cohort()
        assert len(cohort) == SMALL.n_patients
        sentinels = [p for p in cohort
                     if p.patient_id.startswith("sentinel")]
        assert len(sentinels) == SMALL.n_sentinels
        for profile in sentinels:
            assert profile.rhythm == "af"
            assert profile.snr_db is None

    def test_cohort_reproducible(self):
        one = CampaignRunner((clean_scenario(),), SMALL).cohort()
        two = CampaignRunner((clean_scenario(),), SMALL).cohort()
        assert one == two


class TestCampaignReport:
    def test_one_result_per_scenario(self, small_report):
        assert [r.scenario for r in small_report.results] == \
            ["clean", "loss-10pct"]
        assert small_report.result("clean").scenario == "clean"
        with pytest.raises(KeyError):
            small_report.result("nope")

    def test_sentinels_raise_and_survive(self, small_report):
        for result in small_report.results:
            assert result.sentinel_node_alarms >= 1
            assert result.sentinel_false_drop_rate == 0.0

    def test_clean_anchor_for_snr_drop(self, small_report):
        assert small_report.result("clean").snr_drop_p50_db == 0.0

    def test_json_round_trips(self, small_report):
        payload = json.loads(small_report.to_json())
        assert payload["master_seed"] == SMALL.master_seed
        assert len(payload["scenarios"]) == 2
        for scenario in payload["scenarios"]:
            assert scenario["n_patients"] == SMALL.n_patients

    def test_runtime_excluded_from_deterministic_surface(self,
                                                         small_report):
        assert small_report.total_runtime_s > 0
        for result in small_report.results:
            assert "runtime_s" not in result.to_dict()

    def test_describe_mentions_every_scenario(self, small_report):
        text = small_report.describe()
        assert "clean" in text and "loss-10pct" in text

    def test_unit_runtimes_cover_the_cohort(self, small_report):
        cohort_ids = {p.patient_id for p in CampaignRunner(
            (clean_scenario(),), SMALL).cohort()}
        for result in small_report.results:
            assert set(result.unit_runtimes_s) == cohort_ids
            assert all(sec >= 0.0
                       for sec in result.unit_runtimes_s.values())
            assert result.unit_runtimes_s not in \
                result.to_dict().values()

    def test_timings_block_is_opt_in(self, small_report):
        assert "timings" not in json.loads(small_report.to_json())
        payload = json.loads(small_report.to_json(include_timings=True))
        timings = payload["timings"]
        assert set(timings) == {"clean", "loss-10pct"}
        for scenario, block in timings.items():
            units = block["units"]
            assert list(units) == sorted(units)
            assert block["runtime_s"] >= 0.0
            assert set(units) == set(
                small_report.result(scenario).unit_runtimes_s)
        # The deterministic surface is unchanged by the timings block.
        with_block = dict(payload)
        with_block.pop("timings")
        assert with_block == json.loads(small_report.to_json())


class TestDeterminism:
    def test_identical_reports_across_two_runs(self, trained_af_detector):
        # The acceptance contract: one master seed -> byte-identical
        # campaign reports, including under link impairments.
        config = CampaignConfig(n_patients=3, n_sentinels=1,
                                duration_s=60.0, master_seed=11,
                                gateway_n_iter=40)
        grid = (clean_scenario(), packet_loss_scenario(0.15))
        one = CampaignRunner(grid, config,
                             af_detector=trained_af_detector).run()
        two = CampaignRunner(grid, config,
                             af_detector=trained_af_detector).run()
        assert one.to_json() == two.to_json()

    def test_master_seed_changes_report(self, trained_af_detector):
        grid = (packet_loss_scenario(0.15),)
        reports = []
        for seed in (11, 12):
            config = CampaignConfig(n_patients=3, n_sentinels=1,
                                    duration_s=60.0, master_seed=seed,
                                    gateway_n_iter=40)
            reports.append(CampaignRunner(
                grid, config, af_detector=trained_af_detector).run())
        assert reports[0].to_json() != reports[1].to_json()


class TestConfigValidation:
    def test_sentinels_bounded_by_cohort(self):
        with pytest.raises(ValueError, match="sentinel"):
            CampaignConfig(n_patients=2, n_sentinels=3)

    def test_need_one_patient(self):
        with pytest.raises(ValueError, match="patient"):
            CampaignConfig(n_patients=0)

    def test_faulty_scenario_runs(self, trained_af_detector):
        # A scenario with signal faults exercises the injection path.
        from repro.scenarios import FaultEvent

        spec = ScenarioSpec(
            name="wobble",
            faults=(FaultEvent("baseline_wander", 0.0, 60.0,
                               severity=0.6),))
        config = CampaignConfig(n_patients=2, n_sentinels=1,
                                duration_s=60.0, master_seed=21,
                                gateway_n_iter=40)
        report = CampaignRunner((spec,), config,
                                af_detector=trained_af_detector).run()
        result = report.result("wobble")
        assert result.packets_sent > 0
        assert result.n_patients == 2


class TestGovernedCampaigns:
    """Governed campaigns: battery/acuity fault kinds, reproducibility."""

    CFG = dict(n_patients=3, n_sentinels=1, duration_s=120.0,
               master_seed=31, gateway_n_iter=40,
               excerpt_period_s=30.0, governed=True)

    def test_battery_drain_campaign_byte_reproducible(
            self, trained_af_detector):
        # Acceptance bar: one master seed -> byte-identical report for
        # the battery_drain scenario, with N-worker == 1-worker.
        grid = (battery_drain_scenario(120.0),)
        reports = []
        for workers in (1, 3):
            config = CampaignConfig(shard_workers=workers, **self.CFG)
            reports.append(CampaignRunner(
                grid, config, af_detector=trained_af_detector).run())
        assert reports[0].to_json() == reports[1].to_json()
        result = reports[0].result("battery-drain")
        assert result.governed
        assert result.governor_switches > 0
        # The drain pushes nodes down the ladder into events-only.
        assert result.mode_seconds.get("delineation_only", 0.0) > 0
        assert result.telemetry_packets > 0

    def test_governed_grid_matches_reruns(self, trained_af_detector):
        config = CampaignConfig(**self.CFG)
        grid = governed_grid(120.0)
        one = CampaignRunner(grid, config,
                             af_detector=trained_af_detector).run()
        two = CampaignRunner(grid, config,
                             af_detector=trained_af_detector).run()
        assert one.to_json() == two.to_json()

    def test_governor_stress_forces_mode_upshift(self,
                                                 trained_af_detector):
        config = CampaignConfig(**self.CFG)
        report = CampaignRunner((governor_stress_scenario(120.0),),
                                config,
                                af_detector=trained_af_detector).run()
        result = report.result("governor-stress")
        # The forced-alert episode keeps high-fidelity streaming alive
        # despite the parasitic drain.
        assert result.mode_seconds.get("multi_lead_cs", 0.0) > 0
        assert result.governor_switches > 0

    def test_node_faults_leave_the_waveform_alone(self,
                                                  trained_af_detector):
        # battery_drain must not change what the chain detects: alarms
        # and SNR match the clean control exactly (same seeds).
        config = CampaignConfig(**self.CFG)
        grid = (clean_scenario(), battery_drain_scenario(120.0))
        report = CampaignRunner(grid, config,
                                af_detector=trained_af_detector).run()
        clean = report.result("clean")
        drained = report.result("battery-drain")
        assert drained.node_alarms == clean.node_alarms
        assert drained.sentinel_false_drop_rate == 0.0

    def test_ungoverned_reports_carry_empty_governed_columns(
            self, small_report):
        result = small_report.results[0]
        assert not result.governed
        assert result.mode_seconds == {}
        payload = result.to_dict()
        assert payload["governed"] is False
        assert payload["mean_final_soc"] is None


class TestShardWorkers:
    """The shard-backed sweep: whole patient stripes per process."""

    CFG = dict(n_patients=3, n_sentinels=1, duration_s=60.0,
               master_seed=21, gateway_n_iter=40)

    def test_three_workers_byte_identical_to_one(self,
                                                 trained_af_detector):
        # Every random stream is seeded per patient and shard rows are
        # folded in cohort x grid order, so the report cannot depend on
        # the shard layout or on process scheduling.
        grid = (clean_scenario(), packet_loss_scenario(0.15))
        reports = []
        for workers in (1, 3):
            config = CampaignConfig(shard_workers=workers, **self.CFG)
            reports.append(CampaignRunner(
                grid, config, af_detector=trained_af_detector).run())
        assert reports[0].to_json() == reports[1].to_json()

    def test_sentinels_survive_loss(self, trained_af_detector):
        config = CampaignConfig(shard_workers=1, **self.CFG)
        report = CampaignRunner((packet_loss_scenario(0.15),), config,
                                af_detector=trained_af_detector).run()
        result = report.results[0]
        assert result.sentinel_node_alarms >= 1
        assert result.sentinel_false_drop_rate == 0.0
        assert result.link_stats["offered"] > 0

    @pytest.mark.parametrize("workers", [-1, 0])
    def test_shard_workers_below_one_rejected(self, workers):
        # One execution path: there is no zero-worker (joint) mode.
        with pytest.raises(ValueError, match="shard_workers must be >= 1"):
            CampaignConfig(shard_workers=workers)

    def test_stop_after_simulates_one_scenario_at_a_time(
            self, trained_af_detector, monkeypatch):
        # Scenarios are simulated inside the grid loop, so a stage
        # checkpoint saves the work of every later scenario.
        calls = []
        real_run = ShardedFleetRunner.run

        def counting_run(runner):
            calls.append(runner.n_shards)
            return real_run(runner)

        monkeypatch.setattr(ShardedFleetRunner, "run", counting_run)
        grid = (clean_scenario(), packet_loss_scenario(0.15))
        config = CampaignConfig(shard_workers=3, **self.CFG)
        report = CampaignRunner(grid, config,
                                af_detector=trained_af_detector).run(
            stop_after="clean")
        assert calls == [3]
        assert [r.scenario for r in report.results] == ["clean"]


class TestJournalCheckpoints:
    """Journal-backed resumable campaigns (``--start-from``/``--stop-after``)."""

    CFG = dict(n_patients=3, n_sentinels=1, duration_s=60.0,
               master_seed=77, gateway_n_iter=30)
    GRID = (clean_scenario(), packet_loss_scenario(0.10))

    def test_journal_dir_must_be_non_empty(self):
        with pytest.raises(ValueError, match="non-empty"):
            CampaignConfig(journal_dir="")

    def test_checkpoint_names_validated(self, trained_af_detector,
                                        tmp_path):
        runner = CampaignRunner(
            self.GRID,
            CampaignConfig(journal_dir=str(tmp_path), **self.CFG),
            af_detector=trained_af_detector)
        with pytest.raises(ValueError, match="start_from"):
            runner.run(start_from="nope")
        with pytest.raises(ValueError, match="stop_after"):
            runner.run(stop_after="nope")
        with pytest.raises(ValueError, match="precedes"):
            runner.run(start_from=self.GRID[1].name,
                       stop_after=self.GRID[0].name)

    def test_start_from_requires_journal_dir(self, trained_af_detector):
        runner = CampaignRunner(self.GRID,
                                CampaignConfig(**self.CFG),
                                af_detector=trained_af_detector)
        with pytest.raises(ValueError, match="journal_dir"):
            runner.run(start_from=self.GRID[1].name)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_stop_then_resume_is_byte_identical(self, workers,
                                                trained_af_detector,
                                                tmp_path):
        """The resumable-campaign acceptance bar: a run stopped after
        stage one and resumed from stage two — replaying stage one from
        its per-shard journals — reports byte-identically to one
        uninterrupted, unjournaled run, at any worker count."""

        def runner(journal_dir):
            return CampaignRunner(
                self.GRID,
                CampaignConfig(journal_dir=journal_dir,
                               shard_workers=workers, **self.CFG),
                af_detector=trained_af_detector)

        full = runner(None).run()
        staged = runner(str(tmp_path)).run(stop_after=self.GRID[0].name)
        assert [r.scenario for r in staged.results] \
            == [self.GRID[0].name]
        resumed = runner(str(tmp_path)).run(start_from=self.GRID[1].name)
        assert resumed.to_json() == full.to_json()
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            f"{spec.name}-s{i:02d}-000000.rpj"
            for spec in self.GRID for i in range(workers)]

    @pytest.mark.parametrize("recordings, resumed, match", [
        ((3,), 1, "missing patients"),
        ((1,), 3, "no journal named"),
        # Re-recording at 1 worker leaves the 3-worker -s01/-s02
        # journals behind: their patients are in two journals.
        ((3, 1), 3, "appears in journals"),
    ], ids=["3-then-1", "1-then-3", "stale-shards"])
    def test_resume_at_another_layout_raises(self, recordings, resumed,
                                             match, trained_af_detector,
                                             tmp_path):
        """Journals are per shard stripe: a resume must use the worker
        count they were recorded with, and never folds a partial
        fleet."""

        def runner(workers):
            return CampaignRunner(
                self.GRID,
                CampaignConfig(journal_dir=str(tmp_path),
                               shard_workers=workers, **self.CFG),
                af_detector=trained_af_detector)

        for workers in recordings:
            runner(workers).run(stop_after=self.GRID[0].name)
        with pytest.raises(JournalError, match=match):
            runner(resumed).run(start_from=self.GRID[1].name)


class TestCampaignObservability:
    def test_runtime_gauges_are_shard_scoped(self, trained_af_detector,
                                             small_report):
        obs = Observability()
        grid = (clean_scenario(), packet_loss_scenario(0.10))
        report = CampaignRunner(grid, SMALL,
                                af_detector=trained_af_detector,
                                obs=obs).run()
        families = obs.metrics.families()
        scenario_g = families["campaign_scenario_runtime_seconds"]
        unit_g = families["campaign_unit_runtime_seconds"]
        assert sorted(dict(key)["scenario"] for key in scenario_g.series) \
            == sorted(spec.name for spec in grid)
        cohort = CampaignRunner(grid, SMALL).cohort()
        units = [(dict(key)["patient"], dict(key)["scenario"])
                 for key in unit_g.series]
        assert sorted(units) == sorted(
            (profile.patient_id, spec.name)
            for profile in cohort for spec in grid)
        # Wall clock stays out of the canonical (fleet-scope) surface,
        # and observing changes nothing in the report.
        assert scenario_g.scope == unit_g.scope == SCOPE_SHARD
        assert "campaign_" not in obs.canonical_json()
        assert report.to_json() == small_report.to_json()

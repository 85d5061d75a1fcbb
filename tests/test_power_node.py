"""Unit tests for the Fig. 6 node-energy scenarios and the Fig. 1 ladder."""

import pytest

from repro.power import (
    AbstractionLadder,
    LADDER_LEVELS,
    NodeEnergyModel,
    figure6_breakdowns,
)

# Near the 20 dB operating points the `fig5-cs-snr` bench case measures
# on the synthetic corpus (`sl_20db_cr` 52.1, `ml_20db_cr` 62.1).
SL_CR = 50.0
ML_CR = 63.0


@pytest.fixture(scope="module")
def breakdowns():
    return figure6_breakdowns(SL_CR, ML_CR)


class TestFigure6:
    def test_radio_dominates_raw_streaming(self, breakdowns):
        raw = breakdowns["no_comp"]
        assert raw.radio > 0.6 * raw.total

    def test_cs_reduces_total_energy(self, breakdowns):
        assert breakdowns["single_lead_cs"].total < \
            breakdowns["no_comp_1lead"].total
        assert breakdowns["multi_lead_cs"].total < \
            breakdowns["no_comp"].total

    def test_compression_slice_is_small(self, breakdowns):
        for key in ("single_lead_cs", "multi_lead_cs"):
            bar = breakdowns[key]
            assert bar.compression < 0.1 * bar.total

    def test_reduction_bands(self, breakdowns):
        model = NodeEnergyModel()
        sl = model.power_reduction_percent(breakdowns["single_lead_cs"],
                                           breakdowns["no_comp_1lead"])
        ml = model.power_reduction_percent(breakdowns["multi_lead_cs"],
                                           breakdowns["no_comp"])
        # Paper: 44.7 % (SL) and 56.1 % (ML); shape requirement: both
        # large, ML > SL.
        assert 30.0 <= sl <= 60.0
        assert 45.0 <= ml <= 70.0
        assert ml > sl

    def test_microjoule_export(self, breakdowns):
        uj = breakdowns["no_comp"].as_microjoules()
        assert set(uj) == {"radio", "sampling", "compression", "os"}
        assert uj["radio"] == pytest.approx(1e6 * breakdowns["no_comp"].radio)

    def test_average_power(self, breakdowns):
        bar = breakdowns["no_comp"]
        assert bar.average_power_w == pytest.approx(bar.total / bar.window_s)

    def test_multi_lead_raw_costs_more_than_single(self, breakdowns):
        assert breakdowns["no_comp"].total > \
            2.5 * breakdowns["no_comp_1lead"].radio


class TestAbstractionLadder:
    @pytest.fixture(scope="class")
    def ladder(self):
        return AbstractionLadder()

    def test_bandwidth_strictly_decreasing_to_beat_classes(self, ladder):
        rates = [ladder.bandwidth_bps_for(level)
                 for level in LADDER_LEVELS[:4]]
        assert all(a > b for a, b in zip(rates, rates[1:]))

    def test_alarm_bandwidth_tiny_versus_raw(self, ladder):
        raw = ladder.bandwidth_bps_for("raw_streaming")
        alarms = ladder.bandwidth_bps_for("alarms")
        assert alarms < raw / 100

    def test_total_power_monotone_over_first_rungs(self, ladder):
        totals = [ladder.rung(level).total_power_w
                  for level in LADDER_LEVELS[:4]]
        assert all(a > b for a, b in zip(totals, totals[1:]))

    def test_processing_grows_with_abstraction(self, ladder):
        cycles = [ladder.processing_cycles_per_s(level)
                  for level in ("raw_streaming", "compressed_sensing",
                                "beat_classes")]
        assert cycles[0] < cycles[1] < cycles[2]

    def test_table_covers_all_levels(self, ladder):
        table = ladder.table()
        assert [rung.level for rung in table] == list(LADDER_LEVELS)

    def test_unknown_level_rejected(self, ladder):
        with pytest.raises(ValueError, match="unknown ladder level"):
            ladder.bandwidth_bps_for("magic")
        with pytest.raises(ValueError, match="unknown ladder level"):
            ladder.processing_cycles_per_s("magic")

    def test_net_win_despite_processing_cost(self, ladder):
        # The Fig. 1 thesis: extra on-node DSP is repaid by radio savings.
        raw = ladder.rung("raw_streaming")
        features = ladder.rung("delineated_features")
        assert features.processing_energy_w > raw.processing_energy_w
        assert features.total_power_w < 0.5 * raw.total_power_w

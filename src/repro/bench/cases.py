"""The registered bench cases: the only definition of each benchmark.

Each case regenerates one paper figure or table (Figs. 1 and 5–7,
T1–T5) or runs one fleet benchmark, at its full size
(``BenchContext()``, what ``benchmarks/test_cases.py`` runs) or its
quick CI size.  Its checks raise ``AssertionError`` when a paper shape
or a fleet contract breaks; a check skipped at quick size says why it
cannot hold there.  Absolute numbers differ from the paper (synthetic
corpus vs MIT-BIH).  Every number a case measures rides along in its
metrics, so a speedup that cut corners shows next to its wall time.
"""

from __future__ import annotations

import os
import statistics
import tempfile
import time
from dataclasses import replace

import numpy as np

from ..classification import (
    AF_LABEL,
    AfDetector,
    HeartbeatClassifier,
    corpus_beat_dataset,
    evaluate_classification,
    train_test_split,
)
from ..compression import (
    CsDecoder,
    CsEncoder,
    JointCsDecoder,
    MultiLeadCsEncoder,
    TreeCsDecoder,
    raw_payload_bits,
    reconstruction_snr_db,
    snr_crossing_cr,
    sparse_binary_matrix,
)
from ..delineation import (
    MmdDelineator,
    RPeakDetector,
    WaveletDelineator,
    evaluate_delineation,
    mmd_delineator_resources,
    wavelet_delineator_resources,
)
from ..filtering import (
    aicf_filter,
    beat_matrix,
    ensemble_noise_reduction_db,
    tracking_gain_vs_ea,
)
from ..fleet import (
    CohortConfig,
    FleetScheduler,
    Gateway,
    GatewayConfig,
    JournalConfig,
    JournalReplayer,
    JournalWriter,
    NodeProxyConfig,
    SchedulerConfig,
    ShardedFleetRunner,
    journal_meta,
    make_cohort,
    run_served_fleet,
)
from ..hwsim import compare_all, run_cs_accelerator, run_mf3l
from ..multimodal import BpEstimator, measure_pat
from ..obs import Observability
from ..power import (
    LADDER_LEVELS,
    MODES,
    AbstractionLadder,
    Battery,
    ModePowerTable,
    NodeEnergyModel,
    best_admissible_static,
    best_admissible_static_cohort,
    compare_policies,
    figure6_breakdowns,
    mixed_acuity_trace,
)
from ..scenarios import CampaignConfig, CampaignRunner, default_grid
from ..signals import RecordSpec, make_corpus, make_record, synthesize_ppg
from .registry import BenchContext, register

FS = 250.0


def _check(ok, what: str) -> None:
    """Raise ``AssertionError(what)`` unless ``ok`` (a broken shape).

    Unlike ``assert``, the check survives ``python -O``.
    """
    if not ok:
        raise AssertionError(what)


def _samples(cohort, duration_s: float) -> int:
    """Samples one fleet leg synthesizes: every lead of every patient."""
    return sum(p.n_leads for p in cohort) * int(duration_s * FS)


# --- figures ---------------------------------------------------------

@register("fig1-abstraction-ladder",
          "Fig. 1 bandwidth/energy ladder over all abstraction rungs",
          tags=("figure",))
def fig1_abstraction_ladder(ctx: BenchContext) -> dict:
    """Walk every abstraction rung of the Fig. 1 ladder once.

    Raising the abstraction of the transmitted data (raw -> compressed
    -> delineated features -> beat classes -> alarms) lowers bandwidth
    and node power: both fall rung by rung up to the beat classes, raw
    streaming costs over 10x the alarm rung, and the added DSP effort
    is repaid by the radio savings.  One size: the ladder is analytic.
    """
    battery = Battery()
    rows = [(rung.level, rung.bandwidth_bps,
             rung.processing_cycles_per_s / 1e3,
             1e6 * rung.radio_energy_w, 1e6 * rung.processing_energy_w,
             1e3 * rung.total_power_w,
             battery.lifetime_days(rung.total_power_w))
            for rung in AbstractionLadder().table()]
    bandwidth = [row[1] for row in rows]
    dsp = [row[2] for row in rows]
    totals = [row[5] for row in rows]
    _check(all(a > b for a, b in zip(bandwidth[:4], bandwidth[1:4])),
           "bandwidth must fall rung by rung up to the beat classes")
    _check(all(a > b for a, b in zip(totals[:4], totals[1:4])),
           "total power must fall rung by rung up to the beat classes")
    _check(totals[0] > 10 * totals[-1],
           "raw streaming must cost over 10x the alarm rung")
    _check(dsp[-1] > dsp[0], "DSP effort must rise with abstraction")
    _check(LADDER_LEVELS[0] == rows[0][0],
           "the ladder must start at raw streaming")
    metrics = {"rungs": len(rows),
               "raw_to_alarm_power_ratio": totals[0] / totals[-1],
               "alarm_battery_days": rows[-1][6]}
    for level, bw, kcyc, radio, proc, total_mw, days in rows:
        metrics.update({f"{level}_bw_bps": bw,
                        f"{level}_dsp_kcyc_s": kcyc,
                        f"{level}_radio_uw": radio,
                        f"{level}_proc_uw": proc,
                        f"{level}_total_mw": total_mw,
                        f"{level}_battery_days": days})
    return metrics


#: Fig. 5 CS window and the offset that skips the synthesis lead-in.
CS_WINDOW = 512
CS_START = 500
#: The full Fig. 5 CR sweep [%].
FIG5_CRS = (40.0, 50.0, 55.0, 60.0, 65.0, 70.0, 75.0, 80.0, 85.0)


def _cs_windows(ctx: BenchContext, n_records: int,
                per_record: int) -> list[np.ndarray]:
    """Consecutive 3-lead CS windows of a ``cs_eval`` corpus."""
    corpus = make_corpus("cs_eval", n_records=n_records, duration_s=30.0,
                         seed=ctx.seed)
    windows = []
    for record in corpus:
        sig = record.signals
        n_avail = (sig.shape[1] - CS_START) // CS_WINDOW
        for w in range(min(n_avail, per_record)):
            lo = CS_START + w * CS_WINDOW
            windows.append(sig[:, lo:lo + CS_WINDOW])
    return windows


@register("fig5-cs-snr",
          "Fig. 5 SL vs ML reconstruction-SNR sweep over CR",
          tags=("figure",))
def fig5_cs_snr(ctx: BenchContext) -> dict:
    """Sweep CR and score SL vs joint ML reconstruction SNR (Fig. 5).

    Paper: single-lead CS reaches the 20 dB "good quality" level at
    CR 65.9 %, multi-lead (joint) CS at 72.7 %.  Shape: SNR falls with
    CR on both curves, ML keeps up with SL at CR >= 60 %, and ML's
    20 dB crossing lies over 3 points above SL's.  Each CR's ML windows
    decode in one ``recover_batch`` call.
    """
    crs = (50.0, 70.0) if ctx.quick else FIG5_CRS
    segments = (_cs_windows(ctx, 1, 3) if ctx.quick
                else _cs_windows(ctx, 4, 10))
    sl_curve, ml_curve = [], []
    for cr in crs:
        sl_encoder = CsEncoder(n=CS_WINDOW, cr_percent=cr, seed=3)
        sl_decoder = CsDecoder(sl_encoder.sensing)
        ml_encoder = MultiLeadCsEncoder(n_leads=3, n=CS_WINDOW,
                                        cr_percent=cr, seed=100)
        ml_decoder = JointCsDecoder(ml_encoder.sensing_matrices)
        sl_values = [reconstruction_snr_db(
            seg[1], sl_decoder.recover(sl_encoder.encode(seg[1])).window)
            for seg in segments]
        ml_frames = [ml_encoder.encode(seg) for seg in segments]
        ml_values = [
            float(np.mean([reconstruction_snr_db(seg[lead],
                                                 rec.windows[lead])
                           for lead in range(3)]))
            for seg, rec in zip(segments,
                                ml_decoder.recover_batch(ml_frames))]
        sl_curve.append(float(np.mean(sl_values)))
        ml_curve.append(float(np.mean(ml_values)))
    cr_axis, sl, ml = np.array(crs), np.array(sl_curve), np.array(ml_curve)
    sl_cross = snr_crossing_cr(cr_axis, sl)
    ml_cross = snr_crossing_cr(cr_axis, ml)
    _check(sl[0] > sl[-1] and ml[0] > ml[-1],
           "reconstruction SNR must fall with CR on both curves")
    high = cr_axis >= 60.0
    _check(np.all(ml[high] >= sl[high] - 0.5),
           "ML SNR must stay within 0.5 dB of SL at CR >= 60 %")
    # The quick CRs (50 and 70 %) leave the SL curve below 20 dB
    # throughout, so it has no crossing to compare.
    if not ctx.quick:
        _check(not np.isnan(sl_cross) and not np.isnan(ml_cross),
               "both SNR curves must cross 20 dB inside the sweep")
        _check(ml_cross > sl_cross + 3.0,
               f"ML 20 dB crossing ({ml_cross:.1f} %) must lie over 3 "
               f"points above SL's ({sl_cross:.1f} %)")
    metrics = {"samples": len(segments) * CS_WINDOW * len(crs),
               "windows": len(segments) * len(crs),
               "sl_snr_db_at_max_cr": sl_curve[-1],
               "ml_snr_db_at_max_cr": ml_curve[-1],
               "sl_20db_cr": sl_cross,
               "ml_20db_cr": ml_cross}
    for cr, sl_db, ml_db in zip(crs, sl_curve, ml_curve):
        metrics[f"sl_snr_db_cr{cr:.0f}"] = sl_db
        metrics[f"ml_snr_db_cr{cr:.0f}"] = ml_db
    return metrics


@register("fig5-density-ablation",
          "Fig. 5 ablation: sensing-matrix ones per column at CR 50 %",
          tags=("figure",))
def fig5_density_ablation(ctx: BenchContext) -> dict:
    """§IV-A: a few non-zeros per sensing-matrix column suffice.

    Over the first 6 lead-II windows of one record, the sparse designs
    (d = 4, 8, 12) must come within 1 dB of the densest (d = 24), at an
    encoder cost that grows linearly with d.  One size.
    """
    segments = [seg[1] for seg in _cs_windows(ctx, 1, 6)]
    snrs, adds = {}, {}
    for d in (2, 4, 8, 12, 24):
        matrix = sparse_binary_matrix(CS_WINDOW // 2, CS_WINDOW, d,
                                      np.random.default_rng(5))
        decoder = CsDecoder(matrix)
        snrs[d] = float(np.mean([
            reconstruction_snr_db(
                seg, decoder.recover(matrix.matrix @ seg).window)
            for seg in segments]))
        adds[d] = matrix.additions_per_window()
    for d in (4, 8, 12):
        _check(snrs[d] > snrs[24] - 1.0,
               f"d={d} SNR {snrs[d]:.2f} dB must be within 1 dB of "
               f"d=24 ({snrs[24]:.2f} dB)")
    _check(adds[24] == 6 * adds[4],
           "encoder additions must grow linearly with d")
    metrics = {"samples": len(segments) * CS_WINDOW * len(snrs)}
    for d in snrs:
        metrics[f"d{d}_snr_db"] = snrs[d]
        metrics[f"d{d}_adds_per_window"] = adds[d]
    return metrics


@register("fig5-tree-ablation",
          "Fig. 5 ablation: connected-tree model (ref [17]) vs plain l1",
          tags=("figure",))
def fig5_tree_ablation(ctx: BenchContext) -> dict:
    """§IV-A structure claim: the connected-tree prior vs plain l1.

    The tree prior must stay within 3 dB of l1 at CR 55 and 70 % (the
    argument is about rejecting isolated artifacts, not raw SNR
    dominance).  One size: the first 6 lead-II windows of one record.
    """
    segments = [seg[1] for seg in _cs_windows(ctx, 1, 6)]
    metrics = {"samples": len(segments) * CS_WINDOW * 2}
    for cr in (55.0, 70.0):
        encoder = CsEncoder(n=CS_WINDOW, cr_percent=cr, seed=3)
        l1 = CsDecoder(encoder.sensing)
        tree = TreeCsDecoder(encoder.sensing)
        l1_snr = float(np.mean([
            reconstruction_snr_db(seg, l1.recover(encoder.encode(seg)).window)
            for seg in segments]))
        tree_snr = float(np.mean([
            reconstruction_snr_db(seg,
                                  tree.recover(encoder.encode(seg)).window)
            for seg in segments]))
        _check(tree_snr > l1_snr - 3.0,
               f"tree SNR {tree_snr:.2f} dB must be within 3 dB of l1 "
               f"({l1_snr:.2f} dB) at CR {cr:.0f} %")
        metrics[f"l1_snr_db_cr{cr:.0f}"] = l1_snr
        metrics[f"tree_snr_db_cr{cr:.0f}"] = tree_snr
    return metrics


@register("fig6-energy-breakdown",
          "Fig. 6 node energy bars (no-comp vs SL-CS vs ML-CS)",
          tags=("figure",))
def fig6_energy_breakdown(ctx: BenchContext) -> dict:
    """Price the three Fig. 6 transmission strategies.

    The bars use CRs near the 20 dB crossings of ``fig5-cs-snr`` on the
    synthetic corpus (SL 50 %, ML 63 %; paper 65.9 / 72.7 on MIT-BIH).
    Paper: CS cuts average power by 44.7 % (SL) and 56.1 % (ML).
    Shape: the radio dominates raw streaming, compression is a small
    slice, and ML saves more than SL, each within its band.
    """
    model = NodeEnergyModel()
    bars = figure6_breakdowns(50.0, 63.0)
    sl_reduction = model.power_reduction_percent(
        bars["single_lead_cs"], bars["no_comp_1lead"])
    ml_reduction = model.power_reduction_percent(
        bars["multi_lead_cs"], bars["no_comp"])
    raw = bars["no_comp"]
    _check(raw.radio > 0.6 * raw.total, "the radio must dominate raw "
           "streaming")
    for key in ("single_lead_cs", "multi_lead_cs"):
        _check(bars[key].compression < 0.1 * bars[key].total,
               f"{key}: compression must stay under 10 % of the window")
    _check(30.0 <= sl_reduction <= 60.0,
           f"SL reduction {sl_reduction:.1f} % outside [30, 60]")
    _check(45.0 <= ml_reduction <= 70.0,
           f"ML reduction {ml_reduction:.1f} % outside [45, 70]")
    _check(ml_reduction > sl_reduction, "ML must save more than SL")
    metrics = {"sl_reduction_percent": sl_reduction,
               "ml_reduction_percent": ml_reduction}
    for name in ("no_comp_1lead", "single_lead_cs", "no_comp",
                 "multi_lead_cs"):
        uj = bars[name].as_microjoules()
        for part in ("radio", "sampling", "compression", "os"):
            metrics[f"{name}_{part}_uj"] = uj[part]
        metrics[f"{name}_total_uj"] = 1e6 * bars[name].total
    return metrics


def _hw_block(ctx: BenchContext) -> tuple[float, np.ndarray, np.ndarray]:
    """One-second 3-lead block and a beat window for the Fig. 7 kernels."""
    record = make_corpus("nsr", n_records=1,
                         duration_s=20.0 if ctx.quick else 60.0,
                         seed=77).records[0]
    beat = record.lead(1).beat_window(record.beats[3])
    return record.fs, record.signals[:, 500:750], beat


@register("fig7-multicore-power",
          "Fig. 7 SC vs MC cycle-accurate power decomposition",
          tags=("figure",))
def fig7_multicore_power(ctx: BenchContext) -> dict:
    """Run the cycle-accurate SC vs MC kernel comparison (Fig. 7).

    Paper: mapping 3L-MF, 3L-MMD and RP-CLASS onto the synchronized
    multi-core platform cuts global power by up to 40 %, with the
    instruction memory gaining from broadcast fetch merging.  Shape:
    every app saves over 10 %, the best at least 33 %, broadcast halves
    MC I-mem power for the filtering apps, and MC runs at a lower
    voltage.  The kernels are functionally verified inside ``run_*``.
    """
    fs, block, beat = _hw_block(ctx)
    comparisons = compare_all(block, beat, fs)
    by_name = {cmp.name: cmp for cmp in comparisons}
    for cmp in comparisons:
        _check(cmp.savings_percent > 10.0,
               f"{cmp.name}: MC must save over 10 %")
    best = max(cmp.savings_percent for cmp in comparisons)
    _check(best >= 33.0, f"best MC saving {best:.1f} % below 33 %")
    for name in ("3L-MF", "3L-MMD"):
        cmp = by_name[name]
        _check(cmp.mc.imem_w < 0.5 * cmp.sc.imem_w,
               f"{name}: broadcast must halve MC I-mem power")
    for cmp in comparisons:
        _check(cmp.mc.voltage_v < cmp.sc.voltage_v,
               f"{cmp.name}: MC must run at a lower voltage")
    metrics = {"samples": block.shape[0] * block.shape[1],
               "apps": len(comparisons),
               "max_mc_savings_percent": best}
    for cmp in comparisons:
        metrics[f"{cmp.name}_savings_percent"] = cmp.savings_percent
        for config, report in (("sc", cmp.sc), ("mc", cmp.mc)):
            prefix = f"{cmp.name}_{config}"
            metrics[f"{prefix}_f_khz"] = report.frequency_hz / 1e3
            metrics[f"{prefix}_v"] = report.voltage_v
            for part, uw in report.as_microwatts().items():
                metrics[f"{prefix}_{part}_uw"] = uw
    return metrics


@register("fig7-broadcast-ablation",
          "Fig. 7 ablation: broadcast interconnect on vs off (3L-MF)",
          tags=("figure",))
def fig7_broadcast_ablation(ctx: BenchContext) -> dict:
    """3L-MF on the multi-core platform with and without broadcast.

    Merging instruction fetches must add over 10 points of MC savings,
    and without it the cores must stall on I-mem conflicts.
    """
    fs, block, _ = _hw_block(ctx)
    runs = {"on": run_mf3l(block, fs, broadcast=True),
            "off": run_mf3l(block, fs, broadcast=False)}
    _check(runs["on"].savings_percent > runs["off"].savings_percent + 10.0,
           "broadcast must add over 10 points of MC savings")
    _check(runs["off"].mc_run.counters.imem_conflict_stalls > 0,
           "without broadcast the cores must stall on I-mem conflicts")
    metrics = {"samples": block.shape[0] * block.shape[1]}
    for key, cmp in runs.items():
        counters = cmp.mc_run.counters
        metrics[f"broadcast_{key}_mc_savings_percent"] = cmp.savings_percent
        metrics[f"broadcast_{key}_imem_accesses"] = counters.imem_accesses
        metrics[f"broadcast_{key}_stalls"] = counters.imem_conflict_stalls
    return metrics


@register("fig7-cs-accelerator",
          "Ref [19] CS-encoder ISA extension vs baseline RISC",
          tags=("figure",))
def fig7_cs_accelerator(ctx: BenchContext) -> dict:
    """§IV-B: an ISA-extension accelerator for CS encoding (ref [19]).

    Ref [19] reports over 10x with full memory-path specialization; the
    extension alone must cut dynamic power over 2.5x and instructions
    over 4x on one lead of the Fig. 7 block.
    """
    fs, block, _ = _hw_block(ctx)
    cmp = run_cs_accelerator(block[1], fs)
    base_instr = cmp.sc_run.counters.total_instructions
    csa_instr = cmp.mc_run.counters.total_instructions
    _check(cmp.processing_power_ratio > 2.5,
           f"dynamic power ratio {cmp.processing_power_ratio:.2f} "
           "must exceed 2.5")
    _check(base_instr > 4 * csa_instr,
           "the extension must cut instructions over 4x")
    return {
        "samples": block.shape[1],
        "baseline_instructions": base_instr,
        "csa_instructions": csa_instr,
        "baseline_dyn_power_nw": 1e9 * (cmp.sc.core_w + cmp.sc.imem_w
                                        + cmp.sc.dmem_w),
        "csa_dyn_power_nw": 1e9 * (cmp.mc.core_w + cmp.mc.imem_w
                                   + cmp.mc.dmem_w),
        "dyn_power_ratio": cmp.processing_power_ratio,
    }


# --- in-text tables --------------------------------------------------

def _nsr_corpus(ctx: BenchContext, n_records: int | None = None):
    """The T1 NSR corpus: 6 x 60 s (2 x 30 s quick)."""
    if n_records is None:
        n_records = 2 if ctx.quick else 6
    return make_corpus("nsr", n_records=n_records,
                       duration_s=30.0 if ctx.quick else 60.0, seed=77)


def _delineate(corpus, delineator_cls) -> list:
    """Delineate lead II of every record; one report per record."""
    reports = []
    for record in corpus:
        ecg = record.lead(1)
        peaks = RPeakDetector(ecg.fs).detect(ecg.signal)
        detected = delineator_cls(ecg.fs).delineate(ecg.signal, peaks)
        reports.append(evaluate_delineation(ecg.beats, detected, ecg.fs))
    return reports


def _fiducial_scores(reports, floor) -> dict:
    """Pool per-fiducial Se/PPV/bias over records and check each floor.

    ``floor(name)`` is the Se and PPV floor of fiducial ``name``
    (``"P-on"``, ``"QRS-peak"``, ...).
    """
    metrics = {}
    for key in sorted(reports[0].fiducials):
        name = f"{key[0]}-{key[1]}"
        tp = sum(r.fiducials[key].true_positive for r in reports)
        fn = sum(r.fiducials[key].false_negative for r in reports)
        fp = sum(r.fiducials[key].false_positive for r in reports)
        errors = np.concatenate([r.fiducials[key].errors_s
                                 for r in reports])
        se = tp / (tp + fn) if tp + fn else 1.0
        ppv = tp / (tp + fp) if tp + fp else 1.0
        _check(se >= floor(name), f"{name}: Se {se:.3f} below "
               f"{floor(name):.2f}")
        _check(ppv >= floor(name), f"{name}: PPV {ppv:.3f} below "
               f"{floor(name):.2f}")
        metrics[f"{name}_se"] = se
        metrics[f"{name}_ppv"] = ppv
        metrics[f"{name}_bias_ms"] = (1e3 * float(np.mean(errors))
                                      if errors.size else 0.0)
    return metrics


@register("t1-delineation-accuracy",
          "T1 wavelet delineation Se/PPV over an NSR corpus",
          tags=("table",))
def t1_delineation_accuracy(ctx: BenchContext) -> dict:
    """Delineate an NSR corpus with the wavelet delineator [12] (T1).

    Paper: the Se and PPV of every retrieved fiducial point exceed
    90 %, the target level for medical use.  Beat sensitivity must
    reach 99 %.
    """
    corpus = _nsr_corpus(ctx)
    reports = _delineate(corpus, WaveletDelineator)
    metrics = _fiducial_scores(reports, lambda name: 0.90)
    beat_sensitivity = float(np.mean([r.beat_sensitivity
                                      for r in reports]))
    _check(beat_sensitivity >= 0.99,
           f"beat sensitivity {beat_sensitivity:.3f} below 0.99")
    metrics.update({
        "samples": sum(r.lead(1).signal.shape[0] for r in corpus),
        "records": len(corpus),
        "beat_sensitivity": beat_sensitivity,
    })
    return metrics


@register("t1-mmd-delineation",
          "T1 MMD delineation Se/PPV over an NSR corpus",
          tags=("table",))
def t1_mmd_delineation(ctx: BenchContext) -> dict:
    """Delineate the T1 corpus with the morphological delineator [13].

    Every fiducial's Se and PPV must reach 90 %, except P-wave points,
    where MMD under noise sits slightly below the wavelet variant
    (85 %).
    """
    corpus = _nsr_corpus(ctx)
    metrics = _fiducial_scores(
        _delineate(corpus, MmdDelineator),
        lambda name: 0.85 if name.startswith("P-") else 0.90)
    metrics["samples"] = sum(r.lead(1).signal.shape[0] for r in corpus)
    return metrics


@register("t1-delineator-agreement",
          "T1 wavelet vs MMD T-peak agreement on one record",
          tags=("table",))
def t1_delineator_agreement(ctx: BenchContext) -> dict:
    """Ref [11]: both embedded delineators agree on the same record.

    The mean |T-peak difference| between the wavelet and MMD
    delineations of the corpus's first record must stay under 30 ms.
    """
    ecg = _nsr_corpus(ctx, n_records=1).records[0].lead(1)
    peaks = RPeakDetector(ecg.fs).detect(ecg.signal)
    wavelet = WaveletDelineator(ecg.fs).delineate(ecg.signal, peaks)
    mmd = MmdDelineator(ecg.fs).delineate(ecg.signal, peaks)
    diffs = [abs(a.t_wave.peak - b.t_wave.peak) / ecg.fs
             for a, b in zip(wavelet, mmd)
             if a.t_wave.present and b.t_wave.present]
    _check(np.mean(diffs) < 0.03,
           f"mean |dT-peak| {1e3 * np.mean(diffs):.1f} ms exceeds 30 ms")
    return {"samples": ecg.signal.shape[0],
            "t_peak_pairs": len(diffs),
            "mean_abs_dt_peak_ms": 1e3 * float(np.mean(diffs))}


@register("t2-delineation-resources",
          "T2 delineator duty-cycle/memory footprint estimates",
          tags=("table",))
def t2_delineation_resources(ctx: BenchContext) -> dict:
    """Estimate delineator duty-cycle/memory footprints (T2).

    Paper: the embedded wavelet delineator needs 7 % of the duty cycle
    and 7.2 kB of memory on a 1 MHz ULP MCU at 250 Hz.  Shape: a
    single-digit duty cycle, about 7 kB, a flat-SE morphology (MMD)
    cheaper per sample, and a memory itemization that sums to the
    total.  One size: the estimates are analytic.
    """
    wavelet = wavelet_delineator_resources(fs=FS)
    mmd = mmd_delineator_resources(fs=FS)
    breakdown = [(name, bytes_ / 1024.0)
                 for name, bytes_ in sorted(wavelet.breakdown.items(),
                                            key=lambda kv: -kv[1])]
    _check(0.02 <= wavelet.duty_cycle <= 0.12,
           f"wavelet duty {100 * wavelet.duty_cycle:.1f} % outside "
           "[2, 12] %")
    _check(5.0 <= wavelet.memory_kb <= 9.5,
           f"wavelet memory {wavelet.memory_kb:.1f} kB outside [5, 9.5]")
    _check(mmd.cycles_per_sample < wavelet.cycles_per_sample,
           "MMD must cost fewer cycles per sample than the wavelet")
    _check(sum(kb for _, kb in breakdown) * 1024 == wavelet.memory_bytes,
           "the memory itemization must sum to the total")
    metrics = {}
    for name, estimate in (("wavelet", wavelet), ("mmd", mmd)):
        metrics[f"{name}_duty_percent"] = 100 * estimate.duty_cycle
        metrics[f"{name}_memory_kb"] = estimate.memory_kb
        metrics[f"{name}_cycles_per_sample"] = estimate.cycles_per_sample
    for name, kb in breakdown:
        metrics[f"wavelet_memory_{name}_kb"] = kb
    return metrics


def _af_detection(ctx: BenchContext, membership: str) -> dict:
    """Train the AF detector and score it on a held-out corpus."""
    n_records = 2 if ctx.quick else 4
    duration = 60.0 if ctx.quick else 120.0
    train = make_corpus("af_mix", n_records=n_records,
                        duration_s=duration, seed=1)
    test = make_corpus("af_mix", n_records=n_records,
                       duration_s=duration, seed=2)
    report = AfDetector(membership=membership).fit(list(train)).evaluate(
        list(test))
    return {"samples": int(2 * n_records * duration * FS),
            "sensitivity": report.sensitivity(AF_LABEL),
            "specificity": report.specificity(AF_LABEL),
            "accuracy": report.accuracy,
            "windows": report.total}


@register("t3-af-detection",
          "T3 AF detector train + held-out evaluation",
          tags=("table",))
def t3_af_detection(ctx: BenchContext) -> dict:
    """Train the AF detector and evaluate on held-out records (T3).

    Paper: 96 % sensitivity and 93 % specificity through the on-node
    chain (R-peak detection -> wavelet delineation -> feature windows
    -> fuzzy decision); the synthetic corpus must reach 90 / 88 %.
    """
    metrics = _af_detection(ctx, "exact")
    _check(metrics["sensitivity"] >= 0.90,
           f"AF sensitivity {metrics['sensitivity']:.3f} below 0.90")
    _check(metrics["specificity"] >= 0.88,
           f"AF specificity {metrics['specificity']:.3f} below 0.88")
    return metrics


@register("t3-af-detection-pwl",
          "T3 AF detector with 4-segment PWL memberships",
          tags=("table",))
def t3_af_detection_pwl(ctx: BenchContext) -> dict:
    """The embedded (4-segment PWL membership) AF detector (T3).

    It must match the exact-membership detector within a few points:
    88 % sensitivity and 85 % specificity on the held-out corpus.
    """
    metrics = _af_detection(ctx, "pwl")
    _check(metrics["sensitivity"] >= 0.88,
           f"PWL AF sensitivity {metrics['sensitivity']:.3f} below 0.88")
    _check(metrics["specificity"] >= 0.85,
           f"PWL AF specificity {metrics['specificity']:.3f} below 0.85")
    return metrics


#: T4 design points: label -> (projection kind, membership).
T4_DESIGN_POINTS = {
    "ternary/exact": ("ternary", "exact"),
    "ternary/pwl": ("ternary", "pwl"),
    "dense-sign/exact": ("dense_sign", "exact"),
    "gaussian/exact": ("gaussian", "exact"),
}


@register("t4-rp-design-points",
          "T4 RP classifier: PWL vs exact memberships, sparse vs dense "
          "projections",
          tags=("table",))
def t4_rp_design_points(ctx: BenchContext) -> dict:
    """Four random-projection classifier design points (§III-D/§IV-A).

    Paper claims: (a) the 4-segment linearized Gaussian memberships are
    close to optimal, (b) the sparse {0, +-1} projection (2 bits per
    element) performs close to dense ones without multiplications, and
    (c) the classifier fits a few kB and a few thousand cycles per
    beat.  Shape: PWL within 5 points of exact, ternary within 6 points
    of Gaussian, ternary/exact at 90 % accuracy and 85 % PVC
    sensitivity, 2-bit storage over 7x smaller than 16-bit, and fewer
    cycles per beat with PWL.
    """
    corpus = make_corpus("ectopy", n_records=3 if ctx.quick else 6,
                         duration_s=60.0, seed=42)
    X, y = corpus_beat_dataset(corpus, rr_features=True)
    Xtr, ytr, Xte, yte = train_test_split(X, y, test_fraction=0.4, seed=5)
    fitted = {}
    for label, (kind, membership) in T4_DESIGN_POINTS.items():
        clf = HeartbeatClassifier(window=X.shape[1] - 2,
                                  projection_kind=kind,
                                  membership=membership,
                                  extra_features=2).fit(Xtr, ytr)
        fitted[label] = clf, evaluate_classification(yte, clf.predict(Xte))
    reports = {label: report for label, (_, report) in fitted.items()}
    costs = {label: clf.projector.cost() for label, (clf, _) in fitted.items()}
    cycles = {label: clf.cycles_per_beat() for label, (clf, _) in fitted.items()}
    accuracy = {label: r.accuracy for label, r in reports.items()}
    _check(abs(accuracy["ternary/exact"] - accuracy["ternary/pwl"]) < 0.05,
           "PWL accuracy must be within 5 points of exact memberships")
    _check(accuracy["ternary/exact"] > accuracy["gaussian/exact"] - 0.06,
           "sparse ternary accuracy must be within 6 points of Gaussian")
    _check(accuracy["ternary/exact"] >= 0.90,
           f"ternary/exact accuracy {accuracy['ternary/exact']:.3f} "
           "below 0.90")
    _check(reports["ternary/exact"].sensitivity("V") >= 0.85,
           "ternary/exact PVC sensitivity below 0.85")
    _check(costs["ternary/exact"].storage_bytes * 7
           < costs["gaussian/exact"].storage_bytes,
           "2-bit matrix storage must be over 7x smaller than 16-bit")
    _check(cycles["ternary/pwl"] < cycles["ternary/exact"],
           "PWL memberships must cut the cycles per beat")
    metrics = {"beats": int(X.shape[0])}
    for label, report in reports.items():
        metrics[f"{label}_accuracy"] = report.accuracy
        metrics[f"{label}_se_v"] = report.sensitivity("V")
        metrics[f"{label}_se_s"] = report.sensitivity("S")
        metrics[f"{label}_matrix_bytes"] = costs[label].storage_bytes
        metrics[f"{label}_cycles_per_beat"] = cycles[label]
    return metrics


@register("t5-multimodal-filtering",
          "T5 beat-locked filtering + PAT -> BP multimodal chain",
          tags=("table",))
def t5_multimodal_filtering(ctx: BenchContext) -> dict:
    """Beat-locked filtering and the PAT -> PWV -> BP chain (T5, §IV-C).

    (a) Ensemble averaging removes noise uncorrelated with the cardiac
    stimulus (over 12 dB) but loses beat-to-beat variation, while
    (b) AICF tracks drifting beats at under half EA's error; (c) PAT
    from ECG + PPG recovers the pulse transit time within 15 ms over at
    least 50 beats and fits the BP surrogate of ref [20].
    """
    rng = np.random.default_rng(17)
    n_beats, period = (40, 100) if ctx.quick else (80, 100)
    n = (n_beats + 1) * period
    clean = np.zeros(n)
    impulses = np.arange(1, n_beats + 1) * period
    t = np.arange(-30, 30)
    pulse = np.exp(-0.5 * (t / 8.0) ** 2)
    for k, center in enumerate(impulses):
        clean[center - 30:center + 30] += (1.0 + 0.02 * k) * pulse
    noisy = clean + rng.normal(0.0, 0.15, n)
    ea_gain = ensemble_noise_reduction_db(noisy, clean, impulses, 30, 30)
    err_aicf, err_ea = tracking_gain_vs_ea(noisy, clean, impulses, 30, 30,
                                           mu=0.2)
    aicf = aicf_filter(noisy, impulses, 30, 30, mu=0.2)
    truth = beat_matrix(clean, aicf.impulses, 30, 30)
    final_err = float(np.sqrt(np.mean((aicf.estimates[-1] - truth[-1]) ** 2)))
    _check(ea_gain > 12.0, f"EA noise reduction {ea_gain:.1f} dB must "
           "exceed 12 dB")
    # Over the quick 40 beats the amplitude drifts half as far, so EA's
    # static template is biased half as much (AICF/EA reads 0.63).
    if not ctx.quick:
        _check(err_aicf < 0.5 * err_ea, "AICF must track drifting beats "
               "at under half EA's error")

    record = make_record(RecordSpec(name="pat",
                                    duration_s=30.0 if ctx.quick else 60.0,
                                    snr_db=25.0, seed=5))
    ppg = synthesize_ppg(record, rng=np.random.default_rng(3))
    series = measure_pat(ppg, record.lead(1).r_peaks)
    true_mean = float(np.mean(ppg.true_ptt_s))
    estimator = BpEstimator().fit(series.pat_s, 25.0 / series.pat_s + 40.0)
    _check(abs(series.mean_pat_s - true_mean) < 0.015,
           "mean PAT must match the true PTT within 15 ms")
    # A 30 s quick record holds fewer than 50 beats.
    if not ctx.quick:
        _check(series.pat_s.shape[0] >= 50,
               f"only {series.pat_s.shape[0]} PAT beats matched (< 50)")
    _check(estimator.fitted, "the BP estimator must fit")
    return {
        "samples": n + record.n_samples,
        "ea_gain_db": ea_gain,
        "ea_tracking_rmse": err_ea,
        "aicf_tracking_rmse": err_aicf,
        "aicf_over_ea_rmse_ratio": err_aicf / err_ea,
        "aicf_final_beat_rmse": final_err,
        "pat_beats_matched": int(series.pat_s.shape[0]),
        "mean_pat_ms": 1e3 * series.mean_pat_s,
        "mean_true_ptt_ms": 1e3 * true_mean,
        "bp_coef_a": estimator.coef_a,
    }


# --- fleet -----------------------------------------------------------

@register("fleet-throughput",
          "End-to-end fleet run: nodes, batched CS uplink, gateway, triage",
          tags=("systems",))
def fleet_throughput(ctx: BenchContext) -> dict:
    """Drive a mid-size cohort end to end through the fleet stack.

    Nothing is dropped, the §V uplink (periodic excerpts + alarms)
    undercuts raw 3-lead streaming over 10x, and the gateway's median
    reconstruction SNR stays above 12 dB at the CR 60 % default.
    """
    n_patients = 4 if ctx.quick else 12
    duration = 60.0 if ctx.quick else 120.0
    cohort = make_cohort(CohortConfig(n_patients=n_patients, seed=7))
    report = FleetScheduler(
        cohort,
        SchedulerConfig(duration_s=duration, fs=FS),
        node_config=NodeProxyConfig(stream_telemetry=False),
    ).run()
    summary = report.summary
    raw_bytes_day = raw_payload_bits(int(86400 * FS), 12) * 3 / 8.0
    reduction = raw_bytes_day / summary.uplink_bytes_per_patient_day
    _check(summary.n_patients == n_patients, "a patient went missing")
    if not ctx.profiled:
        _check(report.patients_per_second > 0.1,
               f"{report.patients_per_second:.3f} patients/s (< 0.1)")
    _check(summary.dropped_packets == 0, "the gateway dropped packets")
    _check(len(report.excerpts) == report.packets_sent,
           "every packet must carry one excerpt")
    _check(reduction > 10.0, f"uplink only {reduction:.1f}x below raw "
           "streaming (need > 10x)")
    _check(summary.snr_p50_db > 12.0,
           f"median reconstruction SNR {summary.snr_p50_db:.1f} dB "
           "(need > 12)")
    return {
        "patients": n_patients,
        "samples": _samples(cohort, duration),
        "packets": report.packets_sent,
        "snr_p50_db": summary.snr_p50_db,
        "dropped": summary.dropped_packets,
        "patients_per_second": report.patients_per_second,
        "node_phase_s": report.timings_s["synthesis+node"],
        "gateway_phase_s": report.timings_s["uplink+gateway"],
        "uplink_kb_per_patient_day":
            summary.uplink_bytes_per_patient_day / 1e3,
        "raw_kb_per_patient_day": raw_bytes_day / 1e3,
        "bandwidth_reduction": reduction,
        "mean_battery_days": summary.mean_battery_days,
    }


#: Process shards of the sharded leg, and its required speedup over
#: one shard on a machine with at least that many cores (full size).
N_SHARDS = 4
MIN_SHARD_SPEEDUP = 2.0


@register("fleet-throughput-sharded",
          "Sharded fleet run: 4 worker processes vs 1, byte-checked",
          tags=("systems",))
def fleet_throughput_sharded(ctx: BenchContext) -> dict:
    """Drive one cohort through 1-shard and 4-shard runs and compare.

    The 4-shard leg runs on shared memory where the platform has it,
    and again on pickle; every leg must fold to the same summary bytes.
    At full size on at least 4 cores, 4 shards must also clear 2x over
    one: fewer cores time-share, and the bar was set for the full
    12-patient cohort, not the quick one's 1-2 patients per shard.
    """
    from repro.fleet.transport import SharedMemoryTransport

    n_patients = 6 if ctx.quick else 12
    duration = 60.0 if ctx.quick else 120.0
    cohort = make_cohort(CohortConfig(n_patients=n_patients, seed=7))
    kwargs = dict(
        config=SchedulerConfig(duration_s=duration, fs=FS),
        node_config=NodeProxyConfig(stream_telemetry=False),
        gateway_config=GatewayConfig(n_iter=80),
    )
    shm = SharedMemoryTransport.available()
    transport = "shared_memory" if shm else "pickle"
    single = ShardedFleetRunner(cohort, n_shards=1, **kwargs).run()
    sharded = ShardedFleetRunner(cohort, n_shards=N_SHARDS,
                                 transport=transport, **kwargs).run()
    _check(sharded.summary.to_json() == single.summary.to_json(),
           "4-shard FleetSummary diverged from the 1-shard run — "
           "sharding determinism regression")
    _check(sharded.packets_sent == single.packets_sent,
           "4-shard run sent a different packet count")
    _check(sharded.summary.n_patients == n_patients,
           "a patient went missing")
    _check(sharded.summary.dropped_packets == 0,
           "the gateway dropped packets")
    if shm:
        pickled = ShardedFleetRunner(cohort, n_shards=N_SHARDS,
                                     transport="pickle", **kwargs).run()
        _check(pickled.summary.to_json() == sharded.summary.to_json(),
               "pickle-transport summary diverged from shared memory "
               "— transport fabric regression")
    wall_single = single.timings_s["total"]
    wall_sharded = sharded.timings_s["total"]
    speedup = wall_single / wall_sharded
    cores = os.cpu_count() or 1
    if not ctx.quick and not ctx.profiled and cores >= N_SHARDS:
        _check(speedup >= MIN_SHARD_SPEEDUP,
               f"{N_SHARDS}-shard run only {speedup:.2f}x faster than "
               f"one shard (need >= {MIN_SHARD_SPEEDUP}x)")
    return {
        "patients": n_patients,
        "samples": _samples(cohort, duration) * (3 if shm else 2),
        "packets": sharded.packets_sent,
        "byte_identical": True,
        "transport": transport,
        "speedup_vs_single_process": speedup,
        "single_process_wall_s": wall_single,
        "sharded_wall_s": wall_sharded,
        "sharded_patients_per_second": sharded.patients_per_second,
        "snr_p50_db": sharded.summary.snr_p50_db,
        "cores": cores,
    }


@register("fleet-serve-throughput",
          "Cohort through the TCP gateway service vs in-process, "
          "byte-checked",
          tags=("systems",))
def fleet_serve_throughput(ctx: BenchContext) -> dict:
    """Drive one cohort in process and through loopback TCP; compare.

    `repro.fleet.serve.run_served_fleet` runs one TCP client per
    patient.  The summaries must be byte-identical, with one connection
    per patient and none rejected.  No speedup bar: the headline
    metrics are the socket tax (served over in-process wall) and the
    served packets per second.
    """
    n_patients = 4 if ctx.quick else 8
    duration = 60.0 if ctx.quick else 120.0
    cohort = make_cohort(CohortConfig(n_patients=n_patients, seed=7))
    config = SchedulerConfig(duration_s=duration, fs=FS)
    node_config = NodeProxyConfig(stream_telemetry=False)
    gateway_config = GatewayConfig(n_iter=80)

    t0 = time.perf_counter()
    local = FleetScheduler(
        cohort, config, node_config=node_config,
        gateway=Gateway(gateway_config)).run()
    wall_local = time.perf_counter() - t0
    served = run_served_fleet(
        cohort, config=config, node_config=node_config,
        gateway_config=gateway_config)
    connections = served.server_stats["connections"]
    _check(served.summary.to_json() == local.summary.to_json(),
           "served FleetSummary diverged from the in-process run — "
           "serving determinism regression")
    _check(served.packets_sent == local.packets_sent,
           "served run sent a different packet count")
    _check(served.summary.n_patients == n_patients,
           "a patient went missing")
    _check(served.dropped_packets == 0, "the served gateway dropped "
           "packets")
    _check(connections["open"] == n_patients,
           "every patient must open exactly one connection")
    _check(connections.get("rejected", 0) == 0,
           "the server rejected a connection")
    wall_served = served.timings_s["total"]
    return {
        "patients": n_patients,
        "samples": _samples(cohort, duration) * 2,
        "packets": served.packets_sent,
        "byte_identical": True,
        "served_packets_per_second": served.packets_sent / wall_served,
        "socket_tax_vs_in_process": wall_served / wall_local,
        "in_process_wall_s": wall_local,
        "served_wall_s": wall_served,
        "connections_opened": connections["open"],
        "max_queue_depth": served.server_stats["max_queue_depth"],
        "snr_p50_db": served.summary.snr_p50_db,
    }


#: Required journal-replay advantage over the recorded live run (5x).
MIN_REPLAY_SPEEDUP = 5.0
#: Replays timed per run; the speedup uses their median wall.
N_REPLAYS = 3


@register("fleet-journal-replay",
          "Journaled fleet run vs its journal replay, byte-checked",
          tags=("systems",))
def fleet_journal_replay(ctx: BenchContext) -> dict:
    """Record a live run to a journal, then replay it faster-than-live.

    A plain and a journaled live run price the write tax; the journal
    then replays `N_REPLAYS` times.  Journaling is out-of-band, every
    replay must reproduce the recorded summary byte for byte, and the
    median replay must beat the live run `MIN_REPLAY_SPEEDUP`x (replay
    skips node-side synthesis; the median keeps one replay slowed by a
    busy host from failing the gate).
    """
    n_patients = 4 if ctx.quick else 8
    duration = 60.0 if ctx.quick else 120.0
    cohort = make_cohort(CohortConfig(n_patients=n_patients, seed=7))
    config = SchedulerConfig(duration_s=duration, fs=FS)
    node_config = NodeProxyConfig(stream_telemetry=True)
    gateway_config = GatewayConfig(n_iter=40)

    def live_run(journal=None):
        return FleetScheduler(
            cohort, config, node_config=node_config,
            gateway=Gateway(gateway_config), journal=journal).run()

    t0 = time.perf_counter()
    plain = live_run()
    wall_plain = time.perf_counter() - t0
    with tempfile.TemporaryDirectory() as tmp:
        journal_config = JournalConfig(dir=tmp, name="bench")
        t0 = time.perf_counter()
        with JournalWriter(
                journal_config,
                meta=journal_meta(duration, FS, gateway_config),
                resume=False) as journal:
            recorded = live_run(journal)
        wall_recorded = time.perf_counter() - t0
        replays = [JournalReplayer(journal_config).run()
                   for _ in range(N_REPLAYS)]
    wall_replay = statistics.median(r.timings_s["total"] for r in replays)
    replay = replays[0]
    _check(recorded.summary.to_json() == plain.summary.to_json(),
           "journaled FleetSummary diverged from the plain run — "
           "the journal write tax is not out-of-band")
    for run in replays:
        _check(run.summary.to_json() == recorded.summary.to_json(),
               "replayed FleetSummary diverged from the recorded run — "
               "journal replay determinism regression")
        _check(run.n_packets == recorded.packets_sent,
               "a replay lost or invented packets")
        _check(run.torn_tail_bytes == 0, "a replay found a torn tail")
    speedup = wall_recorded / wall_replay
    if not ctx.profiled:
        _check(speedup >= MIN_REPLAY_SPEEDUP,
               f"journal replay only {speedup:.1f}x faster than the live "
               f"run (bar: {MIN_REPLAY_SPEEDUP:.0f}x)")
    return {
        "patients": n_patients,
        "samples": _samples(cohort, duration) * 2,
        "packets": replay.n_packets,
        "records": replay.n_records,
        "journal_records": journal.n_records,
        "journal_bytes": journal.n_bytes,
        "byte_identical": True,
        "write_tax_vs_plain": wall_recorded / wall_plain,
        "replay_speedup_vs_live": speedup,
        "plain_wall_s": wall_plain,
        "live_wall_s": wall_recorded,
        "replay_wall_s": wall_replay,
        "snr_p50_db": replay.summary.snr_p50_db,
    }


#: Allowed fleet-run slowdown with observability attached (5 %).
MAX_OBS_OVERHEAD = 0.05


@register("fleet-obs-overhead",
          "Fleet run with vs without observability, byte-checked",
          tags=("systems",))
def fleet_obs_overhead(ctx: BenchContext) -> dict:
    """Time the fleet hot path with and without an obs bundle attached.

    Over interleaved plain and observed runs, the bundle must leave the
    summary bytes alone, its canonical snapshot must repeat byte for
    byte, it must carry the packet counters and a trace, and it must
    cost at most :data:`MAX_OBS_OVERHEAD`.

    The ratio is the *median of per-pair CPU-time ratios*: each
    back-to-back (plain, observed) pair shares machine state, so the
    pairwise ratio cancels the load drift that dwarfs the real
    overhead on shared runners, and the median damps the rest.  Pair
    order alternates so the second-run-is-warmer bias cancels too.
    """
    n_pairs = 3 if ctx.quick else 5
    n_patients = 4 if ctx.quick else 8
    duration = 60.0  # one excerpt period: every patient uplinks once
    cohort = make_cohort(CohortConfig(n_patients=n_patients, seed=7))

    def run_once(obs: Observability | None):
        scheduler = FleetScheduler(
            cohort, SchedulerConfig(duration_s=duration, fs=FS),
            node_config=NodeProxyConfig(stream_telemetry=False),
            obs=obs)
        t0 = time.process_time()
        fleet = scheduler.run()
        return time.process_time() - t0, fleet

    run_once(None)  # warm caches outside both timed variants
    pair_ratios: list[float] = []
    plain_cpu: list[float] = []
    obs_cpu: list[float] = []
    summaries: set[str] = set()
    canonicals: set[str] = set()
    last: dict = {}

    def measure_pairs(n: int) -> None:
        for i in range(n):
            obs = Observability()
            if i % 2:  # alternate order to cancel warm-up bias
                cpu_obs, fleet_obs = run_once(obs)
                cpu_plain, fleet_plain = run_once(None)
            else:
                cpu_plain, fleet_plain = run_once(None)
                cpu_obs, fleet_obs = run_once(obs)
            plain_cpu.append(cpu_plain)
            obs_cpu.append(cpu_obs)
            pair_ratios.append(cpu_obs / cpu_plain)
            summaries.add(fleet_plain.summary.to_json())
            summaries.add(fleet_obs.summary.to_json())
            canonicals.add(obs.canonical_json())
            last.update(obs=obs, fleet=fleet_obs)

    def estimate() -> float:
        # Two consistent estimators of the true overhead: the median
        # pairwise ratio (robust to load spikes hitting single pairs)
        # and the ratio of pooled CPU totals (robust to one noisy
        # denominator inflating a pairwise ratio).  A real regression
        # inflates both; single-core scheduling jitter rarely does, so
        # the gate reads the smaller one.
        return min(float(np.median(pair_ratios)),
                   sum(obs_cpu) / sum(plain_cpu))

    measure_pairs(n_pairs)
    ratio = estimate()
    attempts = 0
    while ratio > 1.0 + MAX_OBS_OVERHEAD and attempts < 2:
        # Jitter on a shared runner can still dwarf the real overhead
        # at this workload size; confirm with more interleaved pairs
        # before calling it a regression.
        attempts += 1
        measure_pairs(n_pairs + 3)
        ratio = estimate()
    series = last["obs"].metrics.snapshot()["series"]
    names = {s["name"] for s in series}
    n_events = len(last["obs"].trace.events)
    _check(len(summaries) == 1,
           "observability changed FleetSummary bytes — "
           "instrumentation is not out-of-band")
    _check(len(canonicals) == 1,
           "canonical obs snapshot varied across identical runs — "
           "trace determinism regression")
    for name in ("gateway_packets_ingested_total",
                 "scheduler_uplink_packets_total"):
        _check(name in names, f"the obs bundle lost the {name} series")
    _check(n_events > 0, "the observed run recorded no trace event")
    # Under the profiler every Python call is surcharged, which
    # penalizes exactly the variant this case measures — only check
    # the budget when the clock is honest.
    if not ctx.profiled:
        _check(ratio <= 1.0 + MAX_OBS_OVERHEAD,
               f"observability overhead {ratio:.3f}x exceeds the "
               f"{1.0 + MAX_OBS_OVERHEAD:.2f}x budget")
    return {
        "patients": n_patients,
        "samples": _samples(cohort, duration) * 2 * len(plain_cpu),
        "overhead_ratio": ratio,
        "plain_cpu_s": float(np.median(plain_cpu)),
        "obs_cpu_s": float(np.median(obs_cpu)),
        "trace_events": n_events,
        "metric_series": len(series),
        "metric_families": len(names),
        "packets": last["fleet"].packets_sent,
    }


#: Required kernel-event efficiency on the sparse cohort: the per-node
#: schedule must process at least this many times fewer events than a
#: lockstep sweep spends per-patient visits on the same virtual stretch.
MIN_EVENT_RATIO = 3.0


@register("fleet-event-kernel",
          "Event-heap kernel: lockstep vs per-node schedule byte-checked"
          " + sparse-cohort event efficiency",
          tags=("systems",))
def fleet_event_kernel(ctx: BenchContext) -> dict:
    """Benchmark the simulation kernel's two contracts at once.

    *Schedule equivalence*: the lockstep schedule and the per-node one
    (every ``uplink_period_s`` at the base period) must fold one cohort
    to the same packets and summary bytes.  *Sparse cohort*: with 90 %
    of the nodes uplinking at 10x the base period, the kernel must
    process :data:`MIN_EVENT_RATIO`x fewer events than the per-patient
    visits of a lockstep sweep, and no sparse node may read as stale.
    """
    # --- schedule equivalence: lockstep vs uniform per-node ---------
    eq_patients = 4 if ctx.quick else 8
    eq_duration = 60.0 if ctx.quick else 120.0
    cohort = make_cohort(CohortConfig(n_patients=eq_patients, seed=7))
    node_config = NodeProxyConfig(stream_telemetry=False)
    uniform = [replace(p, uplink_period_s=node_config.excerpt_period_s)
               for p in cohort]
    reports = {
        schedule: FleetScheduler(
            members, SchedulerConfig(duration_s=eq_duration, fs=FS),
            node_config=node_config, obs=ctx.obs).run()
        for schedule, members in (("lockstep", cohort), ("events", uniform))}
    _check(reports["events"].summary.to_json()
           == reports["lockstep"].summary.to_json(),
           "per-node schedule (every uplink_period_s at the base "
           "period) diverged from the lockstep schedule — simulation "
           "determinism regression")
    for schedule in reports:
        engine = reports[schedule].kernel_stats["engine"]
        _check(engine == f"kernel-{schedule}",
               f"{schedule} run reported engine {engine!r}")
    _check(reports["events"].packets_sent
           == reports["lockstep"].packets_sent,
           "the two schedules sent different packet counts")

    # --- sparse cohort: cost proportional to events, not ticks ------
    period = 20.0 if ctx.quick else 30.0
    n_patients = 24 if ctx.quick else 30
    n_dense = 2 if ctx.quick else 3
    duration = period * 10.0  # ten base ticks
    base = make_cohort(CohortConfig(n_patients=n_patients, seed=3))
    sparse_cohort = [
        p if i < n_dense else replace(p, uplink_period_s=duration)
        for i, p in enumerate(base)]
    report = FleetScheduler(
        sparse_cohort,
        SchedulerConfig(duration_s=duration, fs=FS),
        node_config=NodeProxyConfig(excerpt_period_s=period,
                                    stream_telemetry=False),
        obs=ctx.obs).run()
    stats = report.kernel_stats
    ratio = stats["tick_loop_iterations"] / stats["n_events"]
    _check(stats["engine"] == "kernel-events",
           "the sparse cohort must run the per-node schedule")
    _check(ratio >= MIN_EVENT_RATIO,
           f"sparse cohort processed only {ratio:.2f}x fewer kernel "
           f"events than lockstep per-patient visits (need >= "
           f"{MIN_EVENT_RATIO}x): {stats}")
    _check(report.summary.stale_patients == 0,
           "sparse nodes flagged stale — expected-period staleness "
           "accounting regression")
    return {
        "patients": eq_patients + n_patients,
        "samples": (_samples(cohort, eq_duration) * 2
                    + _samples(sparse_cohort, duration)),
        "byte_identical": True,
        "lockstep_wall_s": reports["lockstep"].timings_s["uplink+gateway"],
        "events_wall_s": reports["events"].timings_s["uplink+gateway"],
        "sparse_events": stats["n_events"],
        "tick_loop_iterations": stats["tick_loop_iterations"],
        "event_ratio": ratio,
        "sparse_packets": report.packets_sent,
        "sparse_stale_patients": report.summary.stale_patients,
    }


@register("fleet-lifetime",
          "Hours-to-empty per policy: EnergyGovernor vs static modes",
          tags=("systems",))
def fleet_lifetime(ctx: BenchContext) -> dict:
    """Simulated battery lifetime of a mixed-acuity cohort per policy.

    The governor and each static Fig. 6 mode run every patient's daily
    acuity trace to end of discharge.  The governor must never stream
    below an acuity floor and must outlive the best *admissible* static
    mode (one that never does either; every patient must agree on it)
    by over 5 %, switching modes at least twice per patient.
    """
    n_patients = 3 if ctx.quick else 8
    step_s = 1200.0 if ctx.quick else 600.0
    horizon_s = (35 if ctx.quick else 40) * 86400.0
    table = ModePowerTable()
    cohort = [compare_policies(mixed_acuity_trace(i), table=table,
                               step_s=step_s, horizon_s=horizon_s)
              for i in range(n_patients)]
    policies = ["governor", *MODES]
    mean_hours = {policy: float(np.mean([res[policy].hours
                                         for res in cohort]))
                  for policy in policies}
    violations = {policy: sum(res[policy].acuity_violation_hours
                              for res in cohort)
                  for policy in policies}
    steps = sum(int(res[policy].hours * 3600.0 / step_s)
                for res in cohort for policy in res)
    switches = float(np.mean([res["governor"].n_switches
                              for res in cohort]))
    best = best_admissible_static_cohort(cohort)
    _check(violations["governor"] == 0.0,
           "the governor streamed below an acuity floor")
    for res in cohort:
        _check(best_admissible_static(res) == best,
               "patients disagree on the best admissible static mode")
    _check(mean_hours["governor"] >= mean_hours[best],
           "the governor must meet the best admissible static mode")
    _check(mean_hours["governor"] > 1.05 * mean_hours[best],
           f"the governor must beat {best} by over 5 %")
    _check(switches >= 2.0, f"only {switches:.1f} governor switches per "
           "patient (need >= 2)")
    metrics = {
        "patients": n_patients,
        "samples": steps,
        "governor_hours": mean_hours["governor"],
        "best_static": best,
        "best_static_hours": mean_hours[best],
        "lifetime_gain": mean_hours["governor"] / mean_hours[best],
        "mean_switches": switches,
    }
    for policy in policies:
        metrics[f"{policy}_mean_hours"] = mean_hours[policy]
        metrics[f"{policy}_violation_hours"] = violations[policy]
    return metrics


#: Wall-time budget of the full campaign, detector training included.
CAMPAIGN_BUDGET_S = 120.0


@register("scenario-campaign",
          "Fault-injection campaign grid over a sentinel cohort",
          tags=("systems",))
def scenario_campaign(ctx: BenchContext) -> dict:
    """Sweep a sentinel cohort across the fault-injection grid.

    Two clean-AF sentinels ride a cohort through the standard grid from
    one master seed, within :data:`CAMPAIGN_BUDGET_S`.  Sentinels alarm
    everywhere, the clean control keeps its SNR with no drop, and 10 %
    packet loss drops no clean AF alarm (ARQ + reassembly).  The quick
    grid runs only ``clean`` and ``motion``, so the four-scenario and
    ``loss-10pct`` checks run at full size only.
    """
    n_patients = 5 if ctx.quick else 20
    grid = default_grid(60.0)
    if ctx.quick:
        grid = grid[:2]
    config = CampaignConfig(n_patients=n_patients, n_sentinels=2,
                            duration_s=60.0, master_seed=ctx.seed)
    t0 = time.perf_counter()
    runner = CampaignRunner(grid, config)
    report = runner.run()
    elapsed = time.perf_counter() - t0
    names = [res.scenario for res in report.results]
    _check(len(set(names)) == len(names), "scenario names must be unique")
    if not ctx.quick:
        _check(len(names) >= 4, "the full grid must hold >= 4 scenarios")
    _check(all(res.n_patients == n_patients for res in report.results),
           "every scenario must run the whole cohort")
    if not ctx.profiled:
        _check(elapsed < CAMPAIGN_BUDGET_S,
               f"campaign took {elapsed:.1f} s, budget "
               f"{CAMPAIGN_BUDGET_S:.0f} s")
    payload = report.to_dict()
    _check(payload["master_seed"] == ctx.seed,
           "the report must carry its master seed")
    _check(len(payload["scenarios"]) == len(report.results),
           "the report must serialize every scenario")
    for res in report.results:
        _check(res.sentinel_node_alarms >= 1,
               f"{res.scenario}: sentinels raised no alarm")
    if not ctx.quick:
        loss = report.result("loss-10pct")
        _check(loss.sentinel_false_drop_rate == 0.0,
               "10 % packet loss dropped a clean AF alarm")
        _check(loss.link_stats["offered"] > 0,
               "the lossy link carried no packet")
    clean = report.result("clean")
    _check(clean.snr_p50_db > 12.0,
           f"clean control SNR {clean.snr_p50_db:.1f} dB (need > 12)")
    _check(clean.sentinel_false_drop_rate == 0.0,
           "the clean control dropped a sentinel alarm")
    _check(clean.queue_dropped == 0, "the clean control dropped packets")
    metrics = {
        "patients": n_patients * len(report.results),
        "samples": _samples(runner.cohort(), 60.0) * len(report.results),
        "scenarios": len(report.results),
        "worst_sentinel_false_drop": max(res.sentinel_false_drop_rate
                                         for res in report.results),
        "campaign_wall_s": elapsed,
    }
    for res in report.results:
        metrics.update({
            f"{res.scenario}_alarms": res.node_alarms,
            f"{res.scenario}_confirmed": res.confirmed_alarms,
            f"{res.scenario}_false_drop_percent":
                100 * res.sentinel_false_drop_rate,
            f"{res.scenario}_snr_p50_db": res.snr_p50_db,
            f"{res.scenario}_snr_drop_p50_db": res.snr_drop_p50_db,
            f"{res.scenario}_kb_per_patient_day":
                res.uplink_bytes_per_patient_day / 1e3,
            f"{res.scenario}_stale": res.stale_patients,
            f"{res.scenario}_duplicates": res.duplicate_packets,
            f"{res.scenario}_gaps": res.reassembly_gaps,
        })
    return metrics

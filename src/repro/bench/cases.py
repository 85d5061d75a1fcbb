"""The registered bench cases: one per legacy benchmark module.

Each workload is a standardized, seeded slice of the experiment its
``benchmarks/`` module runs under pytest: the same code paths and
corpora families, sized so the ``--quick`` grid finishes in CI seconds
while the full grid stays close to the pytest workload.  Quality numbers
(SNR, sensitivity, ...) ride along in the emitted metrics so a perf
regression that comes from *cutting corners* is visible next to the
speedup that caused it.
"""

from __future__ import annotations

import statistics
import tempfile
import time

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
    reconstruction_snr_db,
)
from ..delineation import (
    RPeakDetector,
    WaveletDelineator,
    evaluate_delineation,
    mmd_delineator_resources,
    wavelet_delineator_resources,
)
from ..filtering import ensemble_noise_reduction_db, tracking_gain_vs_ea
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
from ..hwsim import compare_all
from ..multimodal import measure_pat
from ..obs import Observability
from ..power import (
    AbstractionLadder,
    Battery,
    ModePowerTable,
    NodeEnergyModel,
    best_admissible_static_cohort,
    compare_policies,
    figure6_breakdowns,
    mixed_acuity_trace,
)
from ..scenarios import CampaignConfig, CampaignRunner, default_grid
from ..signals import RecordSpec, make_corpus, make_record, synthesize_ppg
from .registry import BenchContext, register

FS = 250.0


def _samples(cohort, duration_s: float) -> int:
    """Samples one fleet leg synthesizes: every lead of every patient."""
    return sum(p.n_leads for p in cohort) * int(duration_s * FS)


@register("fig1-abstraction-ladder",
          "Fig. 1 bandwidth/energy ladder over all abstraction rungs",
          legacy="test_fig1_abstraction_ladder", tags=("figure",))
def fig1_abstraction_ladder(ctx: BenchContext) -> dict:
    """Walk every abstraction rung of the Fig. 1 ladder once."""
    ladder = AbstractionLadder()
    battery = Battery()
    rungs = ladder.table()
    totals = [rung.total_power_w for rung in rungs]
    return {
        "rungs": len(rungs),
        "raw_to_alarm_power_ratio": totals[0] / totals[-1],
        "alarm_battery_days": battery.lifetime_days(totals[-1]),
    }


@register("fig5-cs-snr",
          "Fig. 5 SL vs ML reconstruction-SNR sweep over CR",
          legacy="test_fig5_cs_snr", tags=("figure",))
def fig5_cs_snr(ctx: BenchContext) -> dict:
    """Sweep CR and score SL vs joint ML reconstruction SNR (Fig. 5)."""
    window = 512
    crs = (50.0, 70.0) if ctx.quick else (40.0, 55.0, 70.0, 85.0)
    n_records = 1 if ctx.quick else 2
    windows_per_record = 3 if ctx.quick else 6
    corpus = make_corpus("cs_eval", n_records=n_records, duration_s=30.0,
                         seed=ctx.seed)
    segments = []
    for record in corpus:
        sig = record.signals
        for w in range(windows_per_record):
            lo = 500 + w * window
            segments.append(sig[:, lo:lo + window])
    sl_last = ml_last = float("nan")
    for cr in crs:
        sl_encoder = CsEncoder(n=window, cr_percent=cr, seed=3)
        sl_decoder = CsDecoder(sl_encoder.sensing)
        ml_encoder = MultiLeadCsEncoder(n_leads=3, n=window,
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
        sl_last, ml_last = (float(np.mean(sl_values)),
                            float(np.mean(ml_values)))
    return {
        "samples": len(segments) * window * len(crs),
        "windows": len(segments) * len(crs),
        "sl_snr_db_at_max_cr": sl_last,
        "ml_snr_db_at_max_cr": ml_last,
    }


@register("fig6-energy-breakdown",
          "Fig. 6 node energy bars (no-comp vs SL-CS vs ML-CS)",
          legacy="test_fig6_energy_breakdown", tags=("figure",))
def fig6_energy_breakdown(ctx: BenchContext) -> dict:
    """Price the three Fig. 6 transmission strategies."""
    model = NodeEnergyModel()
    bars = figure6_breakdowns(50.0, 63.0)
    return {
        "sl_reduction_percent": model.power_reduction_percent(
            bars["single_lead_cs"], bars["no_comp_1lead"]),
        "ml_reduction_percent": model.power_reduction_percent(
            bars["multi_lead_cs"], bars["no_comp"]),
    }


@register("fig7-multicore-power",
          "Fig. 7 SC vs MC cycle-accurate power decomposition",
          legacy="test_fig7_multicore_power", tags=("figure",))
def fig7_multicore_power(ctx: BenchContext) -> dict:
    """Run the cycle-accurate SC vs MC kernel comparison (Fig. 7)."""
    corpus = make_corpus("nsr", n_records=1, duration_s=20.0, seed=77)
    record = corpus.records[0]
    block = record.signals[:, 500:750]
    beat = record.lead(1).beat_window(record.beats[3])
    comparisons = compare_all(block, beat, record.fs)
    return {
        "samples": block.shape[0] * block.shape[1],
        "apps": len(comparisons),
        "max_mc_savings_percent": max(cmp.savings_percent
                                      for cmp in comparisons),
    }


@register("t1-delineation-accuracy",
          "T1 wavelet delineation Se/PPV over an NSR corpus",
          legacy="test_t1_delineation_accuracy", tags=("table",))
def t1_delineation_accuracy(ctx: BenchContext) -> dict:
    """Delineate an NSR corpus and score beat sensitivity (T1)."""
    n_records = 2 if ctx.quick else 6
    duration = 30.0 if ctx.quick else 60.0
    corpus = make_corpus("nsr", n_records=n_records, duration_s=duration,
                         seed=77)
    n_samples = 0
    sensitivities = []
    for record in corpus:
        ecg = record.lead(1)
        n_samples += ecg.signal.shape[0]
        peaks = RPeakDetector(ecg.fs).detect(ecg.signal)
        detected = WaveletDelineator(ecg.fs).delineate(ecg.signal, peaks)
        report = evaluate_delineation(ecg.beats, detected, ecg.fs)
        sensitivities.append(report.beat_sensitivity)
    return {
        "samples": n_samples,
        "records": n_records,
        "beat_sensitivity": float(np.mean(sensitivities)),
    }


@register("t2-delineation-resources",
          "T2 delineator duty-cycle/memory footprint estimates",
          legacy="test_t2_delineation_resources", tags=("table",))
def t2_delineation_resources(ctx: BenchContext) -> dict:
    """Estimate delineator duty-cycle/memory footprints (T2)."""
    wavelet = wavelet_delineator_resources(fs=FS)
    mmd = mmd_delineator_resources(fs=FS)
    return {
        "wavelet_duty_percent": 100 * wavelet.duty_cycle,
        "wavelet_memory_kb": wavelet.memory_kb,
        "mmd_cycles_per_sample": mmd.cycles_per_sample,
    }


@register("t3-af-detection",
          "T3 AF detector train + held-out evaluation",
          legacy="test_t3_af_detection", tags=("table",))
def t3_af_detection(ctx: BenchContext) -> dict:
    """Train the AF detector and evaluate on held-out records (T3)."""
    n_records = 2 if ctx.quick else 4
    duration = 60.0 if ctx.quick else 120.0
    train = make_corpus("af_mix", n_records=n_records,
                        duration_s=duration, seed=1)
    test = make_corpus("af_mix", n_records=n_records,
                       duration_s=duration, seed=2)
    detector = AfDetector().fit(list(train))
    report = detector.evaluate(list(test))
    return {
        "samples": int(2 * n_records * duration * FS),
        "sensitivity": report.sensitivity(AF_LABEL),
        "specificity": report.specificity(AF_LABEL),
    }


@register("t4-rp-classification",
          "T4 random-projection heartbeat classifier design point",
          legacy="test_t4_rp_classification", tags=("table",))
def t4_rp_classification(ctx: BenchContext) -> dict:
    """Fit and score the random-projection beat classifier (T4)."""
    n_records = 3 if ctx.quick else 6
    corpus = make_corpus("ectopy", n_records=n_records, duration_s=60.0,
                         seed=42)
    X, y = corpus_beat_dataset(corpus, rr_features=True)
    Xtr, ytr, Xte, yte = train_test_split(X, y, test_fraction=0.4, seed=5)
    clf = HeartbeatClassifier(window=X.shape[1] - 2,
                              projection_kind="ternary",
                              membership="pwl",
                              extra_features=2).fit(Xtr, ytr)
    report = evaluate_classification(yte, clf.predict(Xte))
    return {
        "beats": int(X.shape[0]),
        "accuracy": report.accuracy,
        "pvc_sensitivity": report.sensitivity("V"),
    }


@register("t5-multimodal-filtering",
          "T5 beat-locked filtering + PAT multimodal chain",
          legacy="test_t5_multimodal_filtering", tags=("table",))
def t5_multimodal_filtering(ctx: BenchContext) -> dict:
    """Run beat-locked filtering plus the PAT chain (T5)."""
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
    record = make_record(RecordSpec(name="pat", duration_s=30.0,
                                    snr_db=25.0, seed=5))
    ppg = synthesize_ppg(record, rng=np.random.default_rng(3))
    series = measure_pat(ppg, record.lead(1).r_peaks)
    return {
        "samples": n + record.n_samples,
        "ea_gain_db": ea_gain,
        "aicf_over_ea_rmse_ratio": err_aicf / err_ea,
        "pat_beats_matched": int(series.pat_s.shape[0]),
    }


@register("fleet-throughput",
          "End-to-end fleet run: nodes, batched CS uplink, gateway, triage",
          legacy="test_fleet_throughput", tags=("systems",))
def fleet_throughput(ctx: BenchContext) -> dict:
    """Drive a mid-size cohort end to end through the fleet stack."""
    n_patients = 4 if ctx.quick else 12
    duration = 60.0 if ctx.quick else 120.0
    cohort = make_cohort(CohortConfig(n_patients=n_patients, seed=7))
    scheduler = FleetScheduler(
        cohort,
        SchedulerConfig(duration_s=duration, fs=FS),
        node_config=NodeProxyConfig(stream_telemetry=False),
    )
    report = scheduler.run()
    return {
        "patients": n_patients,
        "samples": _samples(cohort, duration),
        "packets": report.packets_sent,
        "snr_p50_db": report.summary.snr_p50_db,
        "dropped": report.summary.dropped_packets,
    }


@register("fleet-throughput-sharded",
          "Sharded fleet run: 4 worker processes vs 1, byte-checked",
          legacy="test_fleet_throughput_sharded", tags=("systems",))
def fleet_throughput_sharded(ctx: BenchContext) -> dict:
    """Drive one cohort through 1-shard and 4-shard runs and compare.

    Times both layouts over the same cohort and **asserts** the merged
    summaries are byte-identical — a codec or determinism regression
    fails the bench (and therefore the CI quick gate), not just a unit
    test.  The 4-shard leg runs on the shared-memory transport where
    the platform has one (and additionally byte-checks the pickle
    backend against it), so the timing covers the shared-memory
    fabric: shard results travel as segment handles instead of
    through the result pickle.  The headline metric is the 4-process
    speedup over the single-process run; on the 1-core containers that record
    baselines it hovers near 1.0 — multi-core gates live in
    ``benchmarks/test_fleet_throughput_sharded.py``.
    """
    from repro.fleet.transport import SharedMemoryTransport

    n_patients = 6 if ctx.quick else 16
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
    sharded = ShardedFleetRunner(cohort, n_shards=4,
                                 transport=transport, **kwargs).run()
    if sharded.summary.to_json() != single.summary.to_json():
        raise AssertionError(
            "4-shard FleetSummary diverged from the 1-shard run — "
            "sharding determinism regression")
    if shm:
        pickled = ShardedFleetRunner(cohort, n_shards=4,
                                     transport="pickle", **kwargs).run()
        if pickled.summary.to_json() != sharded.summary.to_json():
            raise AssertionError(
                "pickle-transport summary diverged from shared memory "
                "— transport fabric regression")
    wall_single = single.timings_s["total"]
    wall_sharded = sharded.timings_s["total"]
    return {
        "patients": n_patients,
        "samples": _samples(cohort, duration) * (3 if shm else 2),
        "packets": sharded.packets_sent,
        "byte_identical": True,
        "transport": transport,
        "speedup_vs_single_process": wall_single / wall_sharded,
        "single_process_wall_s": wall_single,
        "sharded_wall_s": wall_sharded,
    }


@register("fleet-serve-throughput",
          "Cohort through the TCP gateway service vs in-process, "
          "byte-checked",
          legacy="test_fleet_serve_throughput", tags=("systems",))
def fleet_serve_throughput(ctx: BenchContext) -> dict:
    """Drive one cohort through real loopback sockets and compare.

    Times the same cohort through the in-process scheduler and through
    `repro.fleet.serve.run_served_fleet` (concurrent TCP clients, one
    per patient) and **asserts** the two merged summaries are
    byte-identical — a serving-protocol or framing regression fails
    the bench (and therefore the CI quick gate), not just a unit test.
    The headline metrics are the socket tax (served wall over
    in-process wall) and the served uplink rate in packets per second.
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
    if served.summary.to_json() != local.summary.to_json():
        raise AssertionError(
            "served FleetSummary diverged from the in-process run — "
            "serving determinism regression")
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
    }


#: Required journal-replay advantage over the recorded live run (5x).
MIN_REPLAY_SPEEDUP = 5.0
#: Replays timed per run; the speedup uses their median wall.
N_REPLAYS = 3


@register("fleet-journal-replay",
          "Journaled fleet run vs its journal replay, byte-checked",
          legacy="test_fleet_journal_replay", tags=("systems",))
def fleet_journal_replay(ctx: BenchContext) -> dict:
    """Record a live run to a journal, then replay it faster-than-live.

    Runs one cohort through the in-process scheduler twice — plain and
    with a `JournalWriter` attached — to price the journal write tax,
    then streams the journal back through `JournalReplayer` and
    **asserts** two contracts: the replayed `FleetSummary` must be
    byte-identical to the recorded run's (which must itself be
    byte-identical to the plain run's — journaling is out-of-band),
    and the replay must finish at least `MIN_REPLAY_SPEEDUP`x faster
    than the live run it reproduces (replay skips node-side synthesis
    entirely, so anything slower means the recovery path regressed).
    The journal replays `N_REPLAYS` times; each is byte-checked and the
    speedup uses their median wall, so one replay slowed by a busy host
    cannot fail the gate.  Either violation fails the bench — and the
    CI quick gate.
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
        journal_bytes = journal.n_bytes
        replays = [JournalReplayer(journal_config).run()
                   for _ in range(N_REPLAYS)]
    wall_replay = statistics.median(r.timings_s["total"] for r in replays)
    replay = replays[0]
    if recorded.summary.to_json() != plain.summary.to_json():
        raise AssertionError(
            "journaled FleetSummary diverged from the plain run — "
            "the journal write tax is not out-of-band")
    if any(r.summary.to_json() != recorded.summary.to_json()
           for r in replays):
        raise AssertionError(
            "replayed FleetSummary diverged from the recorded run — "
            "journal replay determinism regression")
    speedup = wall_recorded / wall_replay
    if speedup < MIN_REPLAY_SPEEDUP and not ctx.profiled:
        raise AssertionError(
            f"journal replay only {speedup:.1f}x faster than the live "
            f"run (bar: {MIN_REPLAY_SPEEDUP:.0f}x)")
    return {
        "patients": n_patients,
        "samples": _samples(cohort, duration) * 2,
        "packets": replay.n_packets,
        "records": replay.n_records,
        "journal_bytes": journal_bytes,
        "byte_identical": True,
        "write_tax_vs_plain": wall_recorded / wall_plain,
        "replay_speedup_vs_live": speedup,
        "live_wall_s": wall_recorded,
        "replay_wall_s": wall_replay,
    }


#: Allowed fleet-run slowdown with observability attached (5 %).
MAX_OBS_OVERHEAD = 0.05


@register("fleet-obs-overhead",
          "Fleet run with vs without observability, byte-checked",
          legacy="test_fleet_obs_overhead", tags=("systems",))
def fleet_obs_overhead(ctx: BenchContext) -> dict:
    """Time the fleet hot path with and without an obs bundle attached.

    Interleaves plain and observed runs over one cohort and **asserts**
    the out-of-band contract: the ``FleetSummary`` bytes must be
    identical with and without the bundle, the canonical fleet-scope
    obs snapshot must be byte-identical across observed runs (trace
    determinism), and the overhead ratio must stay within
    :data:`MAX_OBS_OVERHEAD`.  Any violation fails the bench — and
    therefore the CI quick gate — not just a unit test.

    The ratio is the *median of per-pair CPU-time ratios*: each
    back-to-back (plain, observed) pair shares machine state, so the
    pairwise ratio cancels the load drift that dwarfs the real
    overhead on shared runners, and the median damps the rest.  Pair
    order alternates so the second-run-is-warmer bias cancels too.
    Unusually for a bench case the full grid scales the *pair count*,
    not the workload: short runs keep each pair inside one machine
    state window, which is what makes the ratio tight.
    """
    n_pairs = 3 if ctx.quick else 5
    n_patients = 4
    duration = 40.0
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
    n_events = n_series = 0

    def measure_pairs(n: int) -> None:
        nonlocal n_events, n_series
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
            n_events = len(obs.trace.events)
            n_series = len(obs.metrics.snapshot()["series"])

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
    if len(summaries) != 1:
        raise AssertionError(
            "observability changed FleetSummary bytes — "
            "instrumentation is not out-of-band")
    if len(canonicals) != 1:
        raise AssertionError(
            "canonical obs snapshot varied across identical runs — "
            "trace determinism regression")
    # Under the profiler every Python call is surcharged, which
    # penalizes exactly the variant this case measures — only assert
    # the budget when the clock is honest.
    if ratio > 1.0 + MAX_OBS_OVERHEAD and not ctx.profiled:
        raise AssertionError(
            f"observability overhead {ratio:.3f}x exceeds the "
            f"{1.0 + MAX_OBS_OVERHEAD:.2f}x budget")
    return {
        "patients": n_patients,
        "samples": _samples(cohort, duration) * 2 * len(plain_cpu),
        "overhead_ratio": ratio,
        "plain_cpu_s": float(np.median(plain_cpu)),
        "obs_cpu_s": float(np.median(obs_cpu)),
        "trace_events": n_events,
        "metric_series": n_series,
    }


#: Required kernel-event efficiency on the sparse cohort: the per-node
#: schedule must process at least this many times fewer events than a
#: lockstep sweep spends per-patient visits on the same virtual stretch.
MIN_EVENT_RATIO = 3.0


@register("fleet-event-kernel",
          "Event-heap kernel: lockstep vs per-node schedule byte-checked"
          " + sparse-cohort event efficiency",
          legacy="test_fleet_event_kernel", tags=("systems",))
def fleet_event_kernel(ctx: BenchContext) -> dict:
    """Benchmark the simulation kernel's two contracts at once.

    First *schedule equivalence*: one cohort runs under the lockstep
    schedule and again with every node's ``uplink_period_s`` set to the
    base period, which runs the per-node schedule over the same
    instants; the ``FleetSummary`` bytes must match exactly — a
    determinism regression fails the bench (and the CI quick gate),
    not just a unit test.  Then the *sparse cohort*: 90 % of the nodes
    are delineation-only, uplinking at 10x the base period; the kernel
    visits them only when they uplink, so its event count must be at
    least :data:`MIN_EVENT_RATIO` times smaller than the per-patient
    visits a lockstep sweep would spend (``tick_loop_iterations``) —
    the ratio the BENCH artifact records.
    """
    from dataclasses import replace

    # --- schedule equivalence: lockstep vs uniform per-node ---------
    eq_patients = 4 if ctx.quick else 8
    eq_duration = 60.0 if ctx.quick else 120.0
    cohort = make_cohort(CohortConfig(n_patients=eq_patients, seed=7))
    node_config = NodeProxyConfig(stream_telemetry=False)
    uniform = [replace(p, uplink_period_s=node_config.excerpt_period_s)
               for p in cohort]
    summaries = {}
    walls = {}
    for schedule, members in (("lockstep", cohort), ("events", uniform)):
        scheduler = FleetScheduler(
            members, SchedulerConfig(duration_s=eq_duration, fs=FS),
            node_config=node_config, obs=ctx.obs)
        report = scheduler.run()
        summaries[schedule] = report.summary.to_json()
        walls[schedule] = report.timings_s["uplink+gateway"]
    if summaries["events"] != summaries["lockstep"]:
        raise AssertionError(
            "per-node schedule (every uplink_period_s at the base "
            "period) diverged from the lockstep schedule — simulation "
            "determinism regression")

    # --- sparse cohort: cost proportional to events, not ticks ------
    period = 20.0 if ctx.quick else 30.0
    n_patients = 24 if ctx.quick else 30
    n_dense = 2 if ctx.quick else 3
    duration = period * 10.0  # ten base ticks
    base = make_cohort(CohortConfig(n_patients=n_patients, seed=3))
    sparse_cohort = [
        p if i < n_dense else replace(p, uplink_period_s=duration)
        for i, p in enumerate(base)]
    scheduler = FleetScheduler(
        sparse_cohort,
        SchedulerConfig(duration_s=duration, fs=FS),
        node_config=NodeProxyConfig(excerpt_period_s=period,
                                    stream_telemetry=False),
        obs=ctx.obs)
    report = scheduler.run()
    stats = report.kernel_stats
    ratio = stats["tick_loop_iterations"] / stats["n_events"]
    if ratio < MIN_EVENT_RATIO:
        raise AssertionError(
            f"sparse cohort processed only {ratio:.2f}x fewer kernel "
            f"events than lockstep per-patient visits (need >= "
            f"{MIN_EVENT_RATIO}x): {stats}")
    if report.summary.stale_patients:
        raise AssertionError(
            "sparse nodes flagged stale — expected-period staleness "
            "accounting regression")
    return {
        "patients": eq_patients + n_patients,
        "samples": (_samples(cohort, eq_duration) * 2
                    + _samples(sparse_cohort, duration)),
        "byte_identical": True,
        "lockstep_wall_s": walls["lockstep"],
        "events_wall_s": walls["events"],
        "sparse_events": stats["n_events"],
        "tick_loop_iterations": stats["tick_loop_iterations"],
        "event_ratio": ratio,
        "sparse_packets": report.packets_sent,
    }


@register("fleet-lifetime",
          "Hours-to-empty per policy: EnergyGovernor vs static modes",
          legacy="test_fleet_lifetime", tags=("systems",))
def fleet_lifetime(ctx: BenchContext) -> dict:
    """Simulated battery lifetime of a mixed-acuity cohort per policy.

    For every patient the closed-loop governor and each static Fig. 6
    mode run the same deterministic daily acuity trace to end of
    discharge; the headline metric is the governor's lifetime over the
    best *admissible* static mode (one that never streams below its
    acuity floor).
    """
    n_patients = 3 if ctx.quick else 8
    step_s = 1200.0 if ctx.quick else 600.0
    horizon_s = (35 if ctx.quick else 40) * 86400.0
    table = ModePowerTable()
    cohort = [compare_policies(mixed_acuity_trace(i), table=table,
                               step_s=step_s, horizon_s=horizon_s)
              for i in range(n_patients)]
    hours: dict[str, list[float]] = {}
    steps = 0
    for results in cohort:
        for name, res in results.items():
            hours.setdefault(name, []).append(res.hours)
            steps += int(res.hours * 3600.0 / step_s)
    switches = [results["governor"].n_switches for results in cohort]
    mean_hours = {name: float(np.mean(values))
                  for name, values in hours.items()}
    best = best_admissible_static_cohort(cohort)
    return {
        "patients": n_patients,
        "samples": steps,
        "governor_hours": mean_hours["governor"],
        "best_static": best,
        "best_static_hours": mean_hours[best],
        "lifetime_gain": mean_hours["governor"] / mean_hours[best],
        "mean_switches": float(np.mean(switches)),
    }


@register("scenario-campaign",
          "Fault-injection campaign grid over a sentinel cohort",
          legacy="test_scenario_campaign", tags=("systems",))
def scenario_campaign(ctx: BenchContext) -> dict:
    """Sweep a sentinel cohort across the fault-injection grid."""
    n_patients = 5 if ctx.quick else 20
    grid = default_grid(60.0)
    if ctx.quick:
        grid = grid[:2]
    config = CampaignConfig(n_patients=n_patients, n_sentinels=2,
                            duration_s=60.0, master_seed=ctx.seed)
    runner = CampaignRunner(grid, config)
    report = runner.run()
    false_drop = max(res.sentinel_false_drop_rate
                     for res in report.results)
    return {
        "patients": n_patients * len(report.results),
        "samples": _samples(runner.cohort(), 60.0) * len(report.results),
        "scenarios": len(report.results),
        "worst_sentinel_false_drop": false_drop,
    }

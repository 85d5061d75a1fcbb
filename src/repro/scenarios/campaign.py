"""Campaign runner: sweep a cohort across a scenario grid.

One campaign = one cohort x N scenarios.  Every scenario run drives the
full node -> uplink -> gateway -> triage chain through
:class:`~repro.fleet.FleetScheduler`, with the scenario's signal faults
injected into each patient's recording and its link impairments applied
between node and gateway.  The outcome is one structured
:class:`ScenarioResult` per scenario — alarm delivery and false-drop
rates, reconstruction-SNR distribution and degradation versus the clean
control, uplink bytes/patient/day, and link-health counters — bundled
into a JSON-serializable :class:`CampaignReport`.

Reproducibility contract: the entire campaign derives from
``CampaignConfig.master_seed``.  Cohort draw, per-patient recordings,
fault waveforms and per-packet channel draws all use seeds derived with
:func:`~repro.scenarios.derive_seed`; two runs of the same config
produce byte-identical ``report.to_json()``.

The cohort always carries ``n_sentinels`` *sentinel patients*: clean
(noise-free) persistent-AF cases whose alarms are real by construction.
Their end-to-end alarm survival is the campaign's false-drop metric —
the acceptance bar is 0 % under any impairment that does not corrupt
the signal itself.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from ..classification.afib import AfDetector
from ..fleet.cohort import CohortConfig, PatientProfile, make_cohort
from ..fleet.gateway import Gateway, GatewayConfig
from ..fleet.journal import (
    JournalConfig,
    JournalReplayer,
    JournalWriter,
    ReplayReport,
    journal_meta,
)
from ..fleet.node_proxy import NodeProxyConfig
from ..fleet.scheduler import FleetReport, FleetScheduler, SchedulerConfig
from ..fleet.sharding import PerPatientLink, ShardedFleetRunner, ShardHooks
from ..fleet.triage import STATE_ALERT, STATES
from ..obs import Observability, SCOPE_SHARD
from ..power.battery import Battery, BatteryModel
from ..power.governor import EnergyGovernor, GovernorConfig, ModePowerTable
from ..signals.dataset import make_corpus
from ..signals.types import MultiLeadEcg
from .channel import ImpairedLink
from .inject import apply_faults
from .spec import (
    FAULT_BATTERY_DRAIN,
    FAULT_GOVERNOR_STRESS,
    ScenarioSpec,
    derive_seed,
)

#: Patient-id prefix of the clean-AF sentinel patients.
SENTINEL_PREFIX = "sentinel"


@dataclass(frozen=True)
class CampaignConfig:
    """Parameters shared by every scenario run of a campaign.

    Attributes:
        n_patients: Cohort size *including* the sentinels.
        n_sentinels: Clean persistent-AF sentinel patients appended to
            the drawn cohort (their alarms define the false-drop rate).
        duration_s: Simulated recording length per patient.
        fs: Node sampling rate.
        master_seed: The one seed everything derives from.
        gateway_n_iter: FISTA budget of the gateway decoder (lower than
            the single-patient default — a campaign reconstructs
            hundreds of windows).
        excerpt_period_s: Node excerpt period.
        stream_telemetry: Run the per-node streaming monitor (off by
            default for campaign speed).
        shard_workers: Opt-in parallel sweep.  ``0`` (default) keeps
            the joint single-process path: one scheduler per scenario
            over the whole cohort, one shared link RNG drawn in packet
            order.  ``>= 1`` runs each scenario through a
            :class:`~repro.fleet.ShardedFleetRunner` with this many
            worker processes (``1`` runs inline, in this process), each
            patient on its own link seed
            (``derive_seed(master, scenario, "link", patient_id)``),
            and folds the per-patient shard rows in cohort x grid
            order.  Reports are byte-identical across any worker count
            >= 1 (tested); they differ from the joint path only in the
            (equally valid) per-patient channel draws.
        governed: Run every node under a per-patient
            :class:`~repro.power.EnergyGovernor` (closed-loop mode
            adaptation); enables the ``battery_drain`` /
            ``governor_stress`` fault kinds and the governed columns of
            the report.
        governor_capacity_mah: Cell capacity of governed nodes.  The
            default is deliberately tiny so a minutes-long campaign
            walks the whole mode ladder; realistic cells need
            multi-day simulations (see the ``fleet-lifetime`` bench).
        governor_initial_soc: Upper bound of the per-patient starting
            state of charge.
        governor_soc_span: Width of the (seed-derived, per-patient)
            starting-SoC spread below ``governor_initial_soc`` — a
            cohort that all starts at the same SoC switches modes in
            lockstep and exercises nothing.
        governor_min_dwell_s: Governor dwell damping; 0 lets a short
            campaign switch every tick.
        scheduler_engine: Simulation engine of every per-scenario
            :class:`~repro.fleet.FleetScheduler` (``"kernel"`` — the
            event-heap lockstep façade — or the legacy ``"ticks"``
            loop).  The two are byte-identical by contract (tested);
            the knob exists so that contract can be asserted at
            campaign level against the pinned PR-2 goldens.
        journal_dir: Opt-in durable packet log.  When set, every
            scenario's gateway traffic is journaled to
            ``{journal_dir}/{scenario}-NNNNNN.rpj`` segments
            (:class:`~repro.fleet.JournalWriter`), which makes the
            campaign *resumable*: ``run(start_from=...)`` replays
            already-journaled scenarios through
            :class:`~repro.fleet.JournalReplayer` instead of
            re-simulating them, byte-identical by the replay
            determinism contract.  Joint single-process path only —
            mutually exclusive with ``shard_workers``.
    """

    n_patients: int = 20
    n_sentinels: int = 2
    duration_s: float = 60.0
    fs: float = 250.0
    master_seed: int = 2014
    gateway_n_iter: int = 80
    excerpt_period_s: float = 60.0
    stream_telemetry: bool = False
    shard_workers: int = 0
    governed: bool = False
    governor_capacity_mah: float = 0.05
    governor_initial_soc: float = 0.9
    governor_soc_span: float = 0.5
    governor_min_dwell_s: float = 0.0
    scheduler_engine: str = "kernel"
    journal_dir: str | None = None

    def __post_init__(self) -> None:
        if self.n_patients < 1:
            raise ValueError("need at least one patient")
        if not 0 <= self.n_sentinels <= self.n_patients:
            raise ValueError("n_sentinels must be within the cohort")
        if self.shard_workers < 0:
            raise ValueError("shard_workers must be >= 0")
        if self.journal_dir is not None:
            if not self.journal_dir:
                raise ValueError("journal_dir must be a non-empty path")
            if self.shard_workers:
                raise ValueError(
                    "journal_dir journals the joint single-process "
                    "path; it is mutually exclusive with shard_workers")
        if self.governor_capacity_mah <= 0:
            raise ValueError("governor_capacity_mah must be positive")
        if not 0 < self.governor_initial_soc <= 1:
            raise ValueError("governor_initial_soc must be in (0, 1]")
        if self.governor_soc_span < 0:
            raise ValueError("governor_soc_span must be >= 0")


@dataclass(frozen=True)
class ScenarioResult:
    """Structured outcome of one scenario over the cohort.

    All float metrics are rounded to 6 decimals so the serialized
    report is byte-stable.  ``runtime_s`` and ``unit_runtimes_s`` are
    wall-clock and therefore excluded from :meth:`to_dict` (the
    determinism surface); :meth:`CampaignReport.to_json` can attach
    them out-of-band via ``include_timings=True``.
    """

    scenario: str
    description: str
    n_patients: int
    duration_s: float
    packets_sent: int
    packets_reconstructed: int
    node_alarms: int
    confirmed_alarms: int
    alarm_delivery_rate: float
    sentinel_node_alarms: int
    sentinel_confirmed_alarms: int
    sentinel_false_drop_rate: float
    snr_p10_db: float
    snr_p50_db: float
    snr_p90_db: float
    snr_drop_p50_db: float
    uplink_bytes_per_patient_day: float
    state_counts: dict[str, int]
    stale_patients: int
    duplicate_packets: int
    reassembly_gaps: int
    queue_dropped: int
    link_stats: dict[str, int]
    runtime_s: float = 0.0
    governed: bool = False
    mode_seconds: dict[str, float] = field(default_factory=dict)
    governor_switches: int = 0
    mean_final_soc: float = float("nan")
    telemetry_packets: int = 0
    unit_runtimes_s: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """Deterministic dict view (excludes wall-clock runtime)."""
        out = {
            "scenario": self.scenario,
            "description": self.description,
            "n_patients": self.n_patients,
            "duration_s": _round(self.duration_s),
            "packets_sent": self.packets_sent,
            "packets_reconstructed": self.packets_reconstructed,
            "node_alarms": self.node_alarms,
            "confirmed_alarms": self.confirmed_alarms,
            "alarm_delivery_rate": _round(self.alarm_delivery_rate),
            "sentinel_node_alarms": self.sentinel_node_alarms,
            "sentinel_confirmed_alarms": self.sentinel_confirmed_alarms,
            "sentinel_false_drop_rate":
                _round(self.sentinel_false_drop_rate),
            "snr_p10_db": _round(self.snr_p10_db),
            "snr_p50_db": _round(self.snr_p50_db),
            "snr_p90_db": _round(self.snr_p90_db),
            "snr_drop_p50_db": _round(self.snr_drop_p50_db),
            "uplink_bytes_per_patient_day":
                _round(self.uplink_bytes_per_patient_day),
            "state_counts": dict(sorted(self.state_counts.items())),
            "stale_patients": self.stale_patients,
            "duplicate_packets": self.duplicate_packets,
            "reassembly_gaps": self.reassembly_gaps,
            "queue_dropped": self.queue_dropped,
            "link_stats": dict(sorted(self.link_stats.items())),
            "governed": self.governed,
            "mode_seconds": {mode: _round(sec)
                             for mode, sec
                             in sorted(self.mode_seconds.items())
                             if sec > 0},
            "governor_switches": self.governor_switches,
            "mean_final_soc": _round(self.mean_final_soc),
            "telemetry_packets": self.telemetry_packets,
        }
        return out


def _round(value: float, digits: int = 6) -> float | None:
    """JSON-safe rounding (``None`` for nan/inf)."""
    if not np.isfinite(value):
        return None
    return round(float(value), digits)


def _governed_kit(spec: ScenarioSpec, config: CampaignConfig):
    """Scheduler wiring of one governed scenario run.

    Returns ``(governor_factory, extra_load, acuity_override)`` — all
    ``None`` when the campaign is ungoverned.  Per-patient starting SoC
    is seed-derived from the master seed (the cohort must not switch
    modes in lockstep), ``battery_drain`` events become a parasitic
    load averaged over each tick's overlap with the episode, and
    ``governor_stress`` events force the patient's acuity to ``alert``
    for every tick they touch.
    """
    if not config.governed:
        return None, None, None
    table = ModePowerTable()
    gov_config = GovernorConfig(min_dwell_s=config.governor_min_dwell_s)

    def factory(profile: PatientProfile) -> EnergyGovernor:
        frac = derive_seed(config.master_seed, "governor-soc",
                           profile.patient_id) % 10_000 / 10_000.0
        soc = max(0.05, config.governor_initial_soc
                  - config.governor_soc_span * frac)
        return EnergyGovernor(
            config=gov_config, table=table,
            battery=BatteryModel(
                cell=Battery(capacity_mah=config.governor_capacity_mah),
                soc=soc))

    drains = [f for f in spec.faults if f.kind == FAULT_BATTERY_DRAIN]
    stresses = [f for f in spec.faults
                if f.kind == FAULT_GOVERNOR_STRESS]
    period = config.excerpt_period_s

    def extra_load(pid: str, t0: float) -> float:
        total = 0.0
        for fault in drains:
            overlap = (min(fault.stop_s, t0 + period)
                       - max(fault.start_s, t0))
            total += fault.severity * max(0.0, overlap) / period
        return total

    def acuity_override(pid: str, t0: float) -> str | None:
        for fault in stresses:
            if fault.start_s < t0 + period and fault.stop_s > t0:
                return STATE_ALERT
        return None

    return (factory,
            extra_load if drains else None,
            acuity_override if stresses else None)


@dataclass(frozen=True)
class _PatientOutcome:
    """One patient's row of one scenario in the shard-backed sweep.

    Only the numbers the merged :class:`ScenarioResult` needs are kept
    — never the reconstructed signals.
    """

    patient_id: str
    scenario: str
    packets_sent: int
    packets_reconstructed: int
    node_alarms: int
    confirmed_alarms: int
    payload_bits: int
    duplicates: int
    gaps: int
    queue_dropped: int
    snrs: tuple[float, ...]
    state: str
    stale: bool
    link_stats: dict[str, int]
    runtime_s: float
    mode_seconds: dict[str, float]
    governor_switches: int
    final_soc: float
    telemetry_packets: int


def _patient_link(spec: ScenarioSpec, master_seed: int,
                  patient_id: str) -> ImpairedLink:
    """One patient's channel model, seeded per patient.

    Seeding per patient (not per shard) is what makes the shard-backed
    sweep byte-identical across any ``shard_workers`` count.
    """
    return ImpairedLink(spec.link,
                        seed=derive_seed(master_seed, spec.name,
                                         "link", patient_id))


def _fault_injector(spec: ScenarioSpec, master_seed: int):
    """Per-patient fault injection hook with seed-derived streams.

    Shared by the joint and shard-backed paths; seeded per patient for
    the same reason as :func:`_patient_link`.
    """

    def inject(prof: PatientProfile, record: MultiLeadEcg) -> MultiLeadEcg:
        rng = np.random.default_rng(
            derive_seed(master_seed, spec.name, "faults",
                        prof.patient_id))
        return apply_faults(record, spec.faults, rng)

    return inject


def _scenario_shard_hooks(spec: ScenarioSpec, config: CampaignConfig,
                          profiles: list[PatientProfile],
                          master_seed: int) -> ShardHooks:
    """Shard wiring of one scenario: built inside each worker process.

    Module-level (pickled as a :func:`functools.partial` over ``spec``
    and ``config``) so the :class:`~repro.fleet.ShardedFleetRunner` can
    ship it to workers.  Every random stream comes from a per-patient
    derivation site (:func:`_patient_link`, :func:`_fault_injector`),
    which is what makes the sweep byte-identical under any shard
    layout.
    """

    def link_for(patient_id: str):
        """One independent channel per patient."""
        return _patient_link(spec, master_seed, patient_id)

    factory, extra_load, acuity_override = _governed_kit(spec, config)
    return ShardHooks(
        link=PerPatientLink(link_for) if spec.link.impaired else None,
        record_transform=(_fault_injector(spec, master_seed)
                          if spec.signal_faults else None),
        governor_factory=factory,
        extra_load=extra_load,
        acuity_override=acuity_override,
    )


@dataclass
class CampaignReport:
    """All scenario results of one campaign, plus the reproduce recipe."""

    config: CampaignConfig
    results: list[ScenarioResult] = field(default_factory=list)

    def result(self, scenario: str) -> ScenarioResult:
        """The result of one scenario by name."""
        for res in self.results:
            if res.scenario == scenario:
                return res
        raise KeyError(f"no scenario {scenario!r} in this campaign")

    @property
    def total_runtime_s(self) -> float:
        """Wall-clock seconds across every scenario run."""
        return sum(res.runtime_s for res in self.results)

    def to_dict(self, include_timings: bool = False) -> dict:
        """Deterministic dict view — identical across reruns of the
        same config (the campaign's reproducibility surface).

        Args:
            include_timings: Attach a ``"timings"`` block with
                per-scenario and per-``(patient, scenario)`` wall-clock
                durations.  Off by default: wall time varies across
                reruns, so the block is excluded from the
                byte-reproducibility comparison fields.
        """
        out = {
            "master_seed": self.config.master_seed,
            "n_patients": self.config.n_patients,
            "n_sentinels": self.config.n_sentinels,
            "duration_s": _round(self.config.duration_s),
            "scenarios": [res.to_dict() for res in self.results],
        }
        if include_timings:
            out["timings"] = self.timings_dict()
        return out

    def timings_dict(self) -> dict:
        """Wall-clock attribution: per-scenario and per-unit seconds.

        Keys are sorted for a stable layout, but the values are real
        wall time — never compare this block byte-for-byte.
        """
        return {
            res.scenario: {
                "runtime_s": _round(res.runtime_s),
                "units": {pid: _round(sec) for pid, sec
                          in sorted(res.unit_runtimes_s.items())},
            }
            for res in self.results
        }

    def to_json(self, indent: int | None = 2,
                include_timings: bool = False) -> str:
        """Serialized report (deterministic unless timings included)."""
        return json.dumps(self.to_dict(include_timings=include_timings),
                          indent=indent, sort_keys=True)

    def describe(self) -> str:
        """Fixed-width text table (what the example prints)."""
        header = (f"{'scenario':<14} {'alarms':>7} {'conf':>5} "
                  f"{'fdrop%':>7} {'p50 SNR':>8} {'dSNR':>6} "
                  f"{'kB/pt/day':>10} {'stale':>6} {'dup':>4} "
                  f"{'gaps':>5}")
        lines = [
            f"campaign: {self.config.n_patients} patients "
            f"({self.config.n_sentinels} clean-AF sentinels), "
            f"{self.config.duration_s:.0f} s each, master seed "
            f"{self.config.master_seed}",
            header,
            "-" * len(header),
        ]
        for res in self.results:
            p50 = res.snr_p50_db
            drop = res.snr_drop_p50_db
            lines.append(
                f"{res.scenario:<14} {res.node_alarms:>7} "
                f"{res.confirmed_alarms:>5} "
                f"{100 * res.sentinel_false_drop_rate:>6.1f}% "
                f"{p50:>8.1f} {drop:>6.1f} "
                f"{res.uplink_bytes_per_patient_day / 1e3:>10.1f} "
                f"{res.stale_patients:>6} {res.duplicate_packets:>4} "
                f"{res.reassembly_gaps:>5}")
        return "\n".join(lines)


class CampaignRunner:
    """Run a scenario grid over one reproducible cohort.

    Args:
        scenarios: The grid (order preserved in the report; include
            :func:`~repro.scenarios.clean_scenario` first to anchor the
            SNR-degradation column).
        config: Campaign parameters.
        af_detector: Trained fleet AF detector; trained internally from
            a seed-derived corpus when omitted.
        obs: Optional observability bundle.  The joint in-process path
            threads it through the gateway/scheduler/governor hot
            joints; the sharded path keeps it parent-side (workers are
            separate processes) where it records per-scenario and
            per-unit wall-time gauges.
    """

    def __init__(self, scenarios: tuple[ScenarioSpec, ...] | list,
                 config: CampaignConfig | None = None,
                 af_detector: AfDetector | None = None,
                 obs: Observability | None = None) -> None:
        self.scenarios = tuple(scenarios)
        if not self.scenarios:
            raise ValueError("need at least one scenario")
        names = [s.name for s in self.scenarios]
        if len(set(names)) != len(names):
            raise ValueError(f"scenario names must be unique, got {names}")
        self.config = config or CampaignConfig()
        self.af_detector = af_detector
        self.obs = obs

    def cohort(self) -> list[PatientProfile]:
        """The campaign cohort: drawn mix + clean-AF sentinels."""
        cfg = self.config
        n_drawn = cfg.n_patients - cfg.n_sentinels
        profiles: list[PatientProfile] = []
        if n_drawn > 0:
            profiles.extend(make_cohort(CohortConfig(
                n_patients=n_drawn,
                seed=derive_seed(cfg.master_seed, "cohort"))))
        for i in range(cfg.n_sentinels):
            profiles.append(PatientProfile(
                patient_id=f"{SENTINEL_PREFIX}{i:02d}",
                rhythm="af",
                mean_hr_bpm=75.0,
                snr_db=None,
                n_leads=3,
                seed=derive_seed(cfg.master_seed, "sentinel", i),
            ))
        return profiles

    def run(self, start_from: str | None = None,
            stop_after: str | None = None) -> CampaignReport:
        """Execute every scenario and assemble the campaign report.

        Args:
            start_from: Resume checkpoint — the first scenario to
                actually *simulate*.  Scenarios earlier in the grid are
                replayed from their ``journal_dir`` segments (recorded
                by a previous, possibly interrupted, run) and fold to
                byte-identical results.  Requires
                ``CampaignConfig.journal_dir``.
            stop_after: Stage checkpoint — stop (and return the partial
                report) after this scenario completes.  With
                ``journal_dir`` set, a later run can pick up where this
                one stopped via ``start_from``.
        """
        cfg = self.config
        start_idx = self._checkpoint_index(start_from, "start_from")
        stop_idx = self._checkpoint_index(stop_after, "stop_after")
        if stop_idx is not None and start_idx and stop_idx < start_idx:
            raise ValueError("stop_after precedes start_from in the "
                             "scenario grid")
        if start_idx and cfg.journal_dir is None:
            raise ValueError("start_from resumes from journal "
                             "segments; set CampaignConfig.journal_dir")
        detector = self.af_detector or self._train_detector()
        cohort = self.cohort()
        report = CampaignReport(config=cfg)
        clean_p50: float | None = None
        outcomes = (self._run_sharded(cohort, detector)
                    if cfg.shard_workers >= 1 else None)
        for i, spec in enumerate(self.scenarios):
            if outcomes is not None:
                result = self._merge_scenario(spec, cohort, outcomes,
                                              clean_p50)
            elif i < (start_idx or 0):
                result = self._replay_scenario(spec, clean_p50)
            else:
                result = self._run_scenario(spec, cohort, detector,
                                            clean_p50)
            if clean_p50 is None and np.isfinite(result.snr_p50_db):
                # First scenario anchors the SNR-degradation column
                # (put the clean control first).
                clean_p50 = result.snr_p50_db
            if self.obs is not None:
                self._note_runtimes(result)
            report.results.append(result)
            if stop_idx is not None and i == stop_idx:
                break
        return report

    def _checkpoint_index(self, name: str | None,
                          what: str) -> int | None:
        """Grid position of a checkpoint scenario name (``None`` off)."""
        if name is None:
            return None
        for i, spec in enumerate(self.scenarios):
            if spec.name == name:
                return i
        raise ValueError(f"{what}={name!r} is not in the scenario grid "
                         f"{[s.name for s in self.scenarios]}")

    def _note_runtimes(self, result: ScenarioResult) -> None:
        """Stamp wall-time attribution gauges (shard scope: wall clock
        is never part of the canonical fleet-scope surface)."""
        scenario_g = self.obs.metrics.gauge(
            "campaign_scenario_runtime_seconds",
            "Wall seconds spent on one scenario", scope=SCOPE_SHARD)
        scenario_g.set(result.runtime_s, scenario=result.scenario)
        unit_g = self.obs.metrics.gauge(
            "campaign_unit_runtime_seconds",
            "Wall seconds per (patient, scenario) unit",
            scope=SCOPE_SHARD)
        for pid, sec in sorted(result.unit_runtimes_s.items()):
            unit_g.set(sec, patient=pid, scenario=result.scenario)

    def _run_sharded(self, cohort: list[PatientProfile],
                     detector: AfDetector,
                     ) -> dict[tuple[str, str], _PatientOutcome]:
        """Shard-backed sweep: one sharded fleet run per scenario.

        Each scenario's cohort is striped across ``shard_workers``
        processes by a :class:`~repro.fleet.ShardedFleetRunner`; the
        decoded per-patient shard rows become :class:`_PatientOutcome`
        rows keyed by ``(patient_id, scenario)``, which
        :meth:`_merge_scenario` folds.  The per-shard gateway's queue-drop
        counter has no per-patient attribution; it is carried on the
        scenario's first cohort row (zero in practice — the merge only
        ever sums it).
        """
        cfg = self.config
        outcomes: dict[tuple[str, str], _PatientOutcome] = {}
        for spec in self.scenarios:
            runner = ShardedFleetRunner(
                cohort,
                n_shards=cfg.shard_workers,
                config=SchedulerConfig(duration_s=cfg.duration_s,
                                       fs=cfg.fs,
                                       engine=cfg.scheduler_engine),
                node_config=NodeProxyConfig(
                    excerpt_period_s=cfg.excerpt_period_s,
                    stream_telemetry=cfg.stream_telemetry),
                gateway_config=GatewayConfig(n_iter=cfg.gateway_n_iter),
                master_seed=cfg.master_seed,
                hook_factory=functools.partial(_scenario_shard_hooks,
                                               spec, cfg),
                af_detector=detector,
            )
            fleet = runner.run()
            per_row_runtime = (fleet.timings_s.get("total", 0.0)
                               / max(1, len(cohort)))
            for i, profile in enumerate(cohort):
                row = fleet.rows[profile.patient_id]
                channel = row.channel
                outcomes[(profile.patient_id, spec.name)] = \
                    _PatientOutcome(
                        patient_id=profile.patient_id,
                        scenario=spec.name,
                        packets_sent=row.n_sent,
                        packets_reconstructed=row.n_reconstructed,
                        node_alarms=row.n_node_alarms,
                        confirmed_alarms=(channel.n_confirmed
                                          if channel else 0),
                        payload_bits=(channel.payload_bits
                                      if channel else 0),
                        duplicates=(channel.n_duplicates
                                    if channel else 0),
                        gaps=channel.n_gaps if channel else 0,
                        queue_dropped=(fleet.dropped_packets
                                       if i == 0 else 0),
                        snrs=tuple(channel.snrs) if channel else (),
                        state=row.triage.state,
                        stale=row.triage.stale,
                        link_stats=dict(row.link_stats),
                        runtime_s=per_row_runtime,
                        mode_seconds=dict(row.mode_seconds),
                        governor_switches=row.governor_switches,
                        final_soc=row.final_soc,
                        telemetry_packets=(channel.n_telemetry
                                           if channel else 0),
                    )
        return outcomes

    def _merge_scenario(self, spec: ScenarioSpec,
                        cohort: list[PatientProfile],
                        outcomes: dict[tuple[str, str], _PatientOutcome],
                        clean_p50: float | None) -> ScenarioResult:
        """Fold one scenario's per-patient outcomes into a result.

        Iterates the cohort in its (seed-derived) order and looks every
        outcome up by ``(patient_id, scenario)`` key, so the merge is
        independent of completion order.
        """
        cfg = self.config
        rows = [outcomes[(profile.patient_id, spec.name)]
                for profile in cohort]
        n = len(rows)
        scale_day = 86400.0 / cfg.duration_s
        node_alarms = sum(r.node_alarms for r in rows)
        confirmed = sum(r.confirmed_alarms for r in rows)
        snrs = np.array([s for r in rows for s in r.snrs], dtype=float)
        p10, p50, p90 = (np.percentile(snrs, (10, 50, 90)) if snrs.size
                         else (float("nan"),) * 3)
        sentinel_rows = [r for r in rows
                         if r.patient_id.startswith(SENTINEL_PREFIX)]
        sent_node = sum(r.node_alarms for r in sentinel_rows)
        sent_conf = sum(r.confirmed_alarms for r in sentinel_rows)
        false_drop = (1.0 - min(sent_conf, sent_node) / sent_node
                      if sent_node else 0.0)
        delivery = confirmed / node_alarms if node_alarms else 1.0
        drop_p50 = (clean_p50 - float(p50)
                    if clean_p50 is not None and np.isfinite(p50) else 0.0)
        states = Counter(r.state for r in rows)
        link_stats: Counter[str] = Counter()
        for r in rows:
            link_stats.update(r.link_stats)
        mode_seconds: dict[str, float] = {}
        for r in rows:
            for mode, sec in r.mode_seconds.items():
                mode_seconds[mode] = mode_seconds.get(mode, 0.0) + sec
        socs = [r.final_soc for r in rows if np.isfinite(r.final_soc)]
        return ScenarioResult(
            scenario=spec.name,
            description=spec.description,
            n_patients=n,
            duration_s=cfg.duration_s,
            packets_sent=sum(r.packets_sent for r in rows),
            packets_reconstructed=sum(r.packets_reconstructed
                                      for r in rows),
            node_alarms=node_alarms,
            confirmed_alarms=confirmed,
            alarm_delivery_rate=delivery,
            sentinel_node_alarms=sent_node,
            sentinel_confirmed_alarms=sent_conf,
            sentinel_false_drop_rate=false_drop,
            snr_p10_db=float(p10),
            snr_p50_db=float(p50),
            snr_p90_db=float(p90),
            snr_drop_p50_db=drop_p50,
            uplink_bytes_per_patient_day=sum(r.payload_bits for r in rows)
            / 8.0 / n * scale_day,
            state_counts={state: states.get(state, 0)
                          for state in STATES},
            stale_patients=sum(1 for r in rows if r.stale),
            duplicate_packets=sum(r.duplicates for r in rows),
            reassembly_gaps=sum(r.gaps for r in rows),
            queue_dropped=sum(r.queue_dropped for r in rows),
            link_stats=dict(link_stats),
            runtime_s=sum(r.runtime_s for r in rows),
            governed=cfg.governed,
            mode_seconds=mode_seconds,
            governor_switches=sum(r.governor_switches for r in rows),
            mean_final_soc=(float(np.mean(socs)) if socs
                            else float("nan")),
            telemetry_packets=sum(r.telemetry_packets for r in rows),
            unit_runtimes_s={r.patient_id: r.runtime_s for r in rows},
        )

    def _train_detector(self) -> AfDetector:
        """Train the fleet AF detector from a seed-derived corpus."""
        corpus = make_corpus(
            "af_mix", n_records=3, duration_s=120.0,
            seed=derive_seed(self.config.master_seed, "af-train"))
        return AfDetector().fit(list(corpus))

    def _journal_config(self, spec: ScenarioSpec) -> JournalConfig:
        """The journal segment family of one scenario's run."""
        return JournalConfig(dir=self.config.journal_dir,
                             name=spec.name)

    def _run_scenario(self, spec: ScenarioSpec,
                      cohort: list[PatientProfile],
                      detector: AfDetector,
                      clean_p50: float | None) -> ScenarioResult:
        cfg = self.config
        gateway_config = GatewayConfig(n_iter=cfg.gateway_n_iter)
        link = (ImpairedLink(spec.link,
                             seed=derive_seed(cfg.master_seed, spec.name,
                                              "link"))
                if spec.link.impaired else None)
        inject = _fault_injector(spec, cfg.master_seed)
        factory, extra_load, acuity_override = _governed_kit(spec, cfg)
        journal = None
        if cfg.journal_dir is not None:
            # A re-run of a live scenario restarts its journal from
            # scratch (resume=False): segments must describe exactly
            # one run to replay byte-identically.
            journal = JournalWriter(
                self._journal_config(spec),
                meta=journal_meta(cfg.duration_s, cfg.fs,
                                  gateway_config),
                obs=self.obs, resume=False)
        scheduler = FleetScheduler(
            cohort,
            SchedulerConfig(duration_s=cfg.duration_s, fs=cfg.fs,
                            engine=cfg.scheduler_engine),
            node_config=NodeProxyConfig(
                excerpt_period_s=cfg.excerpt_period_s,
                stream_telemetry=cfg.stream_telemetry),
            gateway=Gateway(gateway_config, obs=self.obs),
            af_detector=detector,
            link=link,
            record_transform=inject if spec.signal_faults else None,
            governor_factory=factory,
            extra_load=extra_load,
            acuity_override=acuity_override,
            obs=self.obs,
            journal=journal,
        )
        t0 = time.perf_counter()
        try:
            fleet = scheduler.run()
        finally:
            if journal is not None:
                journal.close()
        runtime = time.perf_counter() - t0
        return self._result_from(spec, fleet, scheduler, clean_p50,
                                 runtime)

    def _replay_scenario(self, spec: ScenarioSpec,
                         clean_p50: float | None) -> ScenarioResult:
        """Fold one already-journaled scenario without re-simulating.

        Streams the scenario's journal segments back through fresh
        gateway cores (:class:`~repro.fleet.JournalReplayer`); the
        replayed summary and rows are byte-identical to the original
        live run's, so the folded :class:`ScenarioResult` is too.
        """
        t0 = time.perf_counter()
        replay = JournalReplayer(self._journal_config(spec)).run()
        runtime = time.perf_counter() - t0
        return self._result_from_replay(spec, replay, clean_p50,
                                        runtime)

    def _result_from_replay(self, spec: ScenarioSpec,
                            replay: ReplayReport,
                            clean_p50: float | None,
                            runtime: float) -> ScenarioResult:
        """Map a replayed journal onto the scenario-result schema.

        Mirrors :meth:`_result_from` field by field, reading from the
        replay's merged summary and per-patient rows instead of the
        live scheduler state.
        """
        summary = replay.summary
        rows = replay.rows
        sentinel_rows = [row for pid, row in rows.items()
                        if pid.startswith(SENTINEL_PREFIX)]
        sent_node = sum(row.n_node_alarms for row in sentinel_rows)
        sent_conf = sum(row.channel.n_confirmed for row in sentinel_rows
                        if row.channel is not None)
        false_drop = (1.0 - min(sent_conf, sent_node) / sent_node
                      if sent_node else 0.0)
        delivery = (summary.confirmed_alarms / summary.node_alarms
                    if summary.node_alarms else 1.0)
        drop_p50 = (clean_p50 - summary.snr_p50_db
                    if clean_p50 is not None
                    and np.isfinite(summary.snr_p50_db) else 0.0)
        return ScenarioResult(
            scenario=spec.name,
            description=spec.description,
            n_patients=summary.n_patients,
            duration_s=summary.duration_s,
            packets_sent=replay.packets_sent,
            packets_reconstructed=sum(row.n_reconstructed
                                      for row in rows.values()),
            node_alarms=summary.node_alarms,
            confirmed_alarms=summary.confirmed_alarms,
            alarm_delivery_rate=delivery,
            sentinel_node_alarms=sent_node,
            sentinel_confirmed_alarms=sent_conf,
            sentinel_false_drop_rate=false_drop,
            snr_p10_db=summary.snr_p10_db,
            snr_p50_db=summary.snr_p50_db,
            snr_p90_db=summary.snr_p90_db,
            snr_drop_p50_db=drop_p50,
            uplink_bytes_per_patient_day=
                summary.uplink_bytes_per_patient_day,
            state_counts=summary.state_counts,
            stale_patients=summary.stale_patients,
            duplicate_packets=summary.duplicate_packets,
            reassembly_gaps=summary.reassembly_gaps,
            queue_dropped=summary.dropped_packets,
            link_stats=replay.link_stats,
            runtime_s=runtime,
            governed=summary.governed,
            mode_seconds=dict(summary.mode_seconds),
            governor_switches=summary.governor_switches,
            mean_final_soc=summary.mean_final_soc,
            telemetry_packets=sum(
                row.channel.n_telemetry for row in rows.values()
                if row.channel is not None),
            unit_runtimes_s={
                pid: runtime / max(1, summary.n_patients)
                for pid in rows},
        )

    def _result_from(self, spec: ScenarioSpec, fleet: FleetReport,
                     scheduler: FleetScheduler,
                     clean_p50: float | None,
                     runtime: float) -> ScenarioResult:
        summary = fleet.summary
        sentinel_ids = [p.patient_id for p in fleet.profiles
                        if p.patient_id.startswith(SENTINEL_PREFIX)]
        sent_node = sum(len(fleet.node_reports[pid].alarms)
                        for pid in sentinel_ids)
        sent_conf = sum(
            scheduler.gateway.channels[pid].n_confirmed
            for pid in sentinel_ids
            if pid in scheduler.gateway.channels)
        false_drop = (1.0 - min(sent_conf, sent_node) / sent_node
                      if sent_node else 0.0)
        delivery = (summary.confirmed_alarms / summary.node_alarms
                    if summary.node_alarms else 1.0)
        drop_p50 = (clean_p50 - summary.snr_p50_db
                    if clean_p50 is not None
                    and np.isfinite(summary.snr_p50_db) else 0.0)
        return ScenarioResult(
            scenario=spec.name,
            description=spec.description,
            n_patients=summary.n_patients,
            duration_s=summary.duration_s,
            packets_sent=fleet.packets_sent,
            packets_reconstructed=len(fleet.excerpts),
            node_alarms=summary.node_alarms,
            confirmed_alarms=summary.confirmed_alarms,
            alarm_delivery_rate=delivery,
            sentinel_node_alarms=sent_node,
            sentinel_confirmed_alarms=sent_conf,
            sentinel_false_drop_rate=false_drop,
            snr_p10_db=summary.snr_p10_db,
            snr_p50_db=summary.snr_p50_db,
            snr_p90_db=summary.snr_p90_db,
            snr_drop_p50_db=drop_p50,
            uplink_bytes_per_patient_day=
                summary.uplink_bytes_per_patient_day,
            state_counts=summary.state_counts,
            stale_patients=summary.stale_patients,
            duplicate_packets=summary.duplicate_packets,
            reassembly_gaps=summary.reassembly_gaps,
            queue_dropped=summary.dropped_packets,
            link_stats=fleet.link_stats,
            runtime_s=runtime,
            governed=summary.governed,
            mode_seconds=dict(summary.mode_seconds),
            governor_switches=summary.governor_switches,
            mean_final_soc=summary.mean_final_soc,
            telemetry_packets=sum(
                ch.n_telemetry
                for ch in scheduler.gateway.channels.values()),
            # The joint path runs the whole cohort in one scheduler
            # loop, so the per-unit split is an even share of the
            # scenario wall time.
            unit_runtimes_s={
                p.patient_id: runtime / max(1, summary.n_patients)
                for p in fleet.profiles},
        )

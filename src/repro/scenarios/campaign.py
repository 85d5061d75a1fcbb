"""Campaign runner: sweep a cohort across a scenario grid.

One campaign = one cohort x N scenarios.  Every scenario run drives the
full node -> uplink -> gateway -> triage chain through a
:class:`~repro.fleet.ShardedFleetRunner` (``1`` worker runs inline),
with the scenario's signal faults injected into each patient's
recording and its link impairments applied between node and gateway.
A journaled scenario is resumed by replaying its per-shard journals
through a :class:`~repro.fleet.JournalReplayer`.  Either way the
scenario yields a :class:`~repro.fleet.FleetSummary` plus per-patient
rows, folded once into a structured :class:`ScenarioResult` — alarm
delivery and false-drop rates, reconstruction-SNR distribution and
degradation versus the clean control, uplink bytes/patient/day, and
link-health counters — bundled into a JSON-serializable
:class:`CampaignReport`.

Reproducibility contract: the entire campaign derives from
``CampaignConfig.master_seed``.  Cohort draw, per-patient recordings,
fault waveforms and per-patient channel draws all use seeds derived
with :func:`~repro.scenarios.derive_seed` from the master seed and the
patient id, never the shard; two runs of the same config produce
byte-identical ``report.to_json()`` at any worker count.

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
from ..fleet.gateway import GatewayConfig
from ..fleet.journal import JournalConfig, JournalReplayer
from ..fleet.node_proxy import NodeProxyConfig
from ..fleet.scheduler import SchedulerConfig
from ..fleet.sharding import (
    PerPatientLink,
    ShardedFleetRunner,
    ShardHooks,
    partition_cohort,
)
from ..fleet.triage import STATE_ALERT, FleetSummary, ShardPatientRow
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

#: Cell capacity of governed nodes (mAh).  Deliberately tiny so a
#: minutes-long campaign walks the whole mode ladder; realistic cells
#: need multi-day simulations (see the ``fleet-lifetime`` bench).
GOVERNOR_CAPACITY_MAH = 0.05

#: Upper bound of a governed patient's starting state of charge.
GOVERNOR_INITIAL_SOC = 0.9

#: Width of the seed-derived, per-patient starting-SoC spread below
#: :data:`GOVERNOR_INITIAL_SOC` — a cohort that all starts at the same
#: SoC switches modes in lockstep and exercises nothing.
GOVERNOR_SOC_SPAN = 0.5

#: Governor dwell damping; 0 lets a short campaign switch every tick.
GOVERNOR_MIN_DWELL_S = 0.0


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
        shard_workers: Worker processes of each scenario's
            :class:`~repro.fleet.ShardedFleetRunner` (``1``, the
            default, runs inline, in this process).  Every patient
            draws from its own link seed
            (``derive_seed(master, scenario, "link", patient_id)``), so
            reports are byte-identical across any worker count
            (tested).
        governed: Run every node under a per-patient
            :class:`~repro.power.EnergyGovernor` (closed-loop mode
            adaptation); enables the ``battery_drain`` /
            ``governor_stress`` fault kinds and the governed columns of
            the report (cells and starting charge: the ``GOVERNOR_*``
            module constants).
        journal_dir: Opt-in durable packet log.  When set, each shard
            of every scenario journals its gateway traffic to
            ``{journal_dir}/{scenario}-sNN-NNNNNN.rpj`` segments (one
            journal per shard), which makes the campaign *resumable*:
            ``run(start_from=...)`` replays already-journaled
            scenarios through :class:`~repro.fleet.JournalReplayer`
            instead of re-simulating them, byte-identical by the replay
            determinism contract.  A resume must use the
            ``shard_workers`` count the journals were recorded with.
    """

    n_patients: int = 20
    n_sentinels: int = 2
    duration_s: float = 60.0
    fs: float = 250.0
    master_seed: int = 2014
    gateway_n_iter: int = 80
    excerpt_period_s: float = 60.0
    stream_telemetry: bool = False
    shard_workers: int = 1
    governed: bool = False
    journal_dir: str | None = None

    def __post_init__(self) -> None:
        if self.n_patients < 1:
            raise ValueError("need at least one patient")
        if not 0 <= self.n_sentinels <= self.n_patients:
            raise ValueError("n_sentinels must be within the cohort")
        if self.shard_workers < 1:
            raise ValueError("shard_workers must be >= 1")
        if self.journal_dir is not None and not self.journal_dir:
            raise ValueError("journal_dir must be a non-empty path")


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
    gov_config = GovernorConfig(min_dwell_s=GOVERNOR_MIN_DWELL_S)

    def factory(profile: PatientProfile) -> EnergyGovernor:
        frac = derive_seed(config.master_seed, "governor-soc",
                           profile.patient_id) % 10_000 / 10_000.0
        soc = max(0.05, GOVERNOR_INITIAL_SOC - GOVERNOR_SOC_SPAN * frac)
        return EnergyGovernor(
            config=gov_config, table=table,
            battery=BatteryModel(
                cell=Battery(capacity_mah=GOVERNOR_CAPACITY_MAH),
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


def _scenario_shard_hooks(spec: ScenarioSpec, config: CampaignConfig,
                          profiles: list[PatientProfile],
                          master_seed: int) -> ShardHooks:
    """Shard wiring of one scenario: built inside each worker process.

    Module-level (pickled as a :func:`functools.partial` over ``spec``
    and ``config``) so the :class:`~repro.fleet.ShardedFleetRunner` can
    ship it to workers.  Every random stream — each patient's channel
    and fault waveforms — is seeded from the master seed, the scenario
    and the patient id, never the shard, which is what makes the sweep
    byte-identical under any shard layout.
    """

    def link_for(patient_id: str) -> ImpairedLink:
        """One independent channel per patient."""
        return ImpairedLink(spec.link,
                            seed=derive_seed(master_seed, spec.name,
                                             "link", patient_id))

    def inject(prof: PatientProfile, record: MultiLeadEcg) -> MultiLeadEcg:
        """Apply the scenario's signal faults to one recording."""
        rng = np.random.default_rng(
            derive_seed(master_seed, spec.name, "faults",
                        prof.patient_id))
        return apply_faults(record, spec.faults, rng)

    factory, extra_load, acuity_override = _governed_kit(spec, config)
    return ShardHooks(
        link=PerPatientLink(link_for) if spec.link.impaired else None,
        record_transform=inject if spec.signal_faults else None,
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
        obs: Optional observability bundle, kept in this process: it
            records per-scenario and per-unit wall-time gauges.  Per-run
            fleet metrics come from
            ``ShardedFleetRunner(obs_config=...)``.
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

        Scenarios run one at a time, in grid order, each folded before
        the next starts.

        Args:
            start_from: Resume checkpoint — the first scenario to
                actually *simulate*.  Scenarios earlier in the grid are
                replayed from their ``journal_dir`` journals (recorded
                by a previous, possibly interrupted, run with the same
                ``shard_workers``) and fold to byte-identical results.
                Requires ``CampaignConfig.journal_dir``.
            stop_after: Stage checkpoint — stop (and return the partial
                report) after this scenario completes.  With
                ``journal_dir`` set, a later run can pick up where this
                one stopped via ``start_from``.

        Raises:
            JournalError: A replayed scenario's journals do not match
                this cohort's shard layout (missing, stale or recorded
                at another worker count).
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
        for i, spec in enumerate(self.scenarios):
            t0 = time.perf_counter()
            if i < (start_idx or 0):
                summary, rows = self._replay(spec, cohort)
            else:
                summary, rows = self._simulate(spec, cohort, detector)
            result = self._fold(spec, summary, rows, clean_p50,
                                time.perf_counter() - t0)
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

    def _train_detector(self) -> AfDetector:
        """Train the fleet AF detector from a seed-derived corpus."""
        corpus = make_corpus(
            "af_mix", n_records=3, duration_s=120.0,
            seed=derive_seed(self.config.master_seed, "af-train"))
        return AfDetector().fit(list(corpus))

    def _journal_config(self, spec: ScenarioSpec) -> JournalConfig | None:
        """The journal family of one scenario (``None`` unjournaled);
        each shard writes ``for_shard(i)`` of it."""
        if self.config.journal_dir is None:
            return None
        return JournalConfig(dir=self.config.journal_dir, name=spec.name)

    def _simulate(self, spec: ScenarioSpec,
                  cohort: list[PatientProfile], detector: AfDetector,
                  ) -> tuple[FleetSummary, dict[str, ShardPatientRow]]:
        """Run one scenario through a sharded fleet run.

        With ``journal_dir`` set, every shard journals its stripe
        afresh (a re-run restarts each shard's journal from scratch).
        """
        cfg = self.config
        fleet = ShardedFleetRunner(
            cohort,
            n_shards=cfg.shard_workers,
            config=SchedulerConfig(duration_s=cfg.duration_s, fs=cfg.fs),
            node_config=NodeProxyConfig(
                excerpt_period_s=cfg.excerpt_period_s,
                stream_telemetry=cfg.stream_telemetry),
            gateway_config=GatewayConfig(n_iter=cfg.gateway_n_iter),
            master_seed=cfg.master_seed,
            hook_factory=functools.partial(_scenario_shard_hooks,
                                           spec, cfg),
            af_detector=detector,
            journal=self._journal_config(spec),
        ).run()
        return fleet.summary, fleet.rows

    def _replay(self, spec: ScenarioSpec, cohort: list[PatientProfile],
                ) -> tuple[FleetSummary, dict[str, ShardPatientRow]]:
        """Fold one already-journaled scenario without re-simulating.

        Replays the journals of every stripe
        :func:`~repro.fleet.partition_cohort` yields at
        ``shard_workers``, merged; the replayed summary and rows are
        byte-identical to the live run's.  The cohort is passed
        explicitly, so a layout mismatch raises
        :class:`~repro.fleet.JournalError` instead of folding a partial
        fleet: a stripe's journal is missing, a patient is in two
        journals, or a patient is in none.
        """
        journal = self._journal_config(spec)
        n_stripes = len(partition_cohort(cohort, self.config.shard_workers))
        replay = JournalReplayer(
            [journal.for_shard(i) for i in range(n_stripes)],
            cohort=cohort).run()
        return replay.summary, replay.rows

    def _fold(self, spec: ScenarioSpec, summary: FleetSummary,
              rows: dict[str, ShardPatientRow],
              clean_p50: float | None, runtime: float) -> ScenarioResult:
        """Map one scenario's fleet summary and rows onto a result.

        Fleet aggregates come from the summary; the packet counts and
        the sentinel, link and telemetry columns come from the
        per-patient rows.  The per-unit runtime is an even share of
        the scenario's wall time.
        """
        sentinels = [row for pid, row in rows.items()
                     if pid.startswith(SENTINEL_PREFIX)]
        sent_node = sum(row.n_node_alarms for row in sentinels)
        sent_conf = sum(row.channel.n_confirmed for row in sentinels
                        if row.channel is not None)
        false_drop = (1.0 - min(sent_conf, sent_node) / sent_node
                      if sent_node else 0.0)
        delivery = (summary.confirmed_alarms / summary.node_alarms
                    if summary.node_alarms else 1.0)
        drop_p50 = (clean_p50 - summary.snr_p50_db
                    if clean_p50 is not None
                    and np.isfinite(summary.snr_p50_db) else 0.0)
        link_stats: Counter[str] = Counter()
        for row in rows.values():
            link_stats.update(row.link_stats)
        return ScenarioResult(
            scenario=spec.name,
            description=spec.description,
            n_patients=summary.n_patients,
            duration_s=summary.duration_s,
            packets_sent=sum(row.n_sent for row in rows.values()),
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
            link_stats=dict(link_stats),
            runtime_s=runtime,
            governed=summary.governed,
            mode_seconds=dict(summary.mode_seconds),
            governor_switches=summary.governor_switches,
            mean_final_soc=summary.mean_final_soc,
            telemetry_packets=sum(row.channel.n_telemetry
                                  for row in rows.values()
                                  if row.channel is not None),
            unit_runtimes_s={pid: runtime / max(1, len(rows))
                             for pid in rows},
        )

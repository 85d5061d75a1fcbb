"""Fleet scheduler: batched, vectorized many-patient processing.

Processing one patient at a time wastes the structure of the fleet
workload: every node on the same schedule encodes a same-length window
with the same per-lead matrix family.  The scheduler exploits that —
each tick it stacks the current excerpt window of every patient (grouped
by lead count) into one numpy batch and encodes the whole group with a
single matrix product per lead (:class:`BatchExcerptEncoder`), instead
of per-patient ``Phi @ x`` calls.  The per-patient node phase (synthesis,
delineation, AF analysis) is independent across patients; it runs
inline here, and :class:`~repro.fleet.ShardedFleetRunner` spreads it
over processes.

The batch path matches :meth:`CsEncoder.encode` up to float round-off
(BLAS summation order, ~1e-15 relative), so gateway reconstruction
cannot tell which path produced a packet (tested).

The receiving side mirrors this: :meth:`Gateway.drain` groups every
queued window by encoder geometry and reconstructs each group with one
batched FISTA (:meth:`JointCsDecoder.recover_batch`), so both halves of
the uplink run on stacked matrix products instead of per-patient loops.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Callable, Protocol

import numpy as np

from ..classification.afib import AfDetector
from ..compression.encoder import EncodedWindow, MultiLeadCsEncoder
from ..compression.multilead import row_stable_matmul
from ..obs import Observability, SCOPE_SHARD
from ..pipeline.node_app import NodeReport
from ..power.governor import (
    MODE_EVENTS_ONLY,
    MODE_MULTI_LEAD_CS,
    MODE_RAW,
    MODE_SINGLE_LEAD_CS,
    EnergyGovernor,
    GovernorDecision,
)
from ..signals.types import MultiLeadEcg
from .cohort import PatientProfile, check_unique_ids, synthesize_patient
from .gateway import Gateway, GatewayConfig, ReconstructedExcerpt
from .kernel import (
    PRIO_ALARM_EARLY,
    PRIO_ALARM_LATE,
    PRIO_DELIVERY,
    PRIO_DRAIN,
    PRIO_GOVERNOR,
    PRIO_REASSEMBLY,
    PRIO_TRIAGE,
    PRIO_UPLINK,
    EventKernel,
)
from .node_proxy import PACKET_EXCERPT, NodeProxy, NodeProxyConfig, UplinkPacket
from .triage import (FleetSummary, ShardPatientRow, TriageBoard,
                     fleet_summary, row_from_report)
from .wire import ServeMessage, encode_packet


class UplinkChannel(Protocol):
    """Anything that can sit between the nodes and the gateway.

    :mod:`repro.scenarios` provides the lossy implementation
    (:class:`~repro.scenarios.ImpairedLink`); ``None`` means a perfect
    link (every packet delivered immediately, exactly once).
    """

    def send(self, packet: UplinkPacket,
             now_s: float) -> list[UplinkPacket]:
        """Offer one packet; return those delivered immediately."""
        ...

    def due(self, now_s: float) -> list[UplinkPacket]:
        """Delayed packets whose delivery time has arrived."""
        ...

    def drain(self) -> list[UplinkPacket]:
        """Everything still in flight (end of run)."""
        ...


#: Hook applied to each freshly synthesized record before the node runs
#: (scenario fault injection); receives the profile and the record.
RecordTransform = Callable[[PatientProfile, MultiLeadEcg], MultiLeadEcg]

#: Builds one :class:`~repro.power.EnergyGovernor` per patient; passing
#: a factory to the scheduler turns the fleet run into a *governed* run
#: (closed-loop mode adaptation per tick).
GovernorFactory = Callable[[PatientProfile], EnergyGovernor]

#: Scenario hook: parasitic battery drain in watts for one patient at
#: one tick start (``battery_drain`` fault events).
ExtraLoad = Callable[[str, float], float]

#: Scenario hook: forced triage acuity for one patient at one tick
#: start, or ``None`` to use the board state (``governor_stress``).
AcuityOverride = Callable[[str, float], "str | None"]


class BatchExcerptEncoder:
    """Vectorized CS encoding of many patients' windows at once.

    Wraps the same per-lead sparse-binary matrices as
    :class:`~repro.compression.MultiLeadCsEncoder` (identical seeds) but
    encodes a whole batch per matrix product: for lead ``l`` the
    measurements of all ``P`` patients are ``X[:, l, :] @ Phi_l.T`` —
    one ``(P, n) x (n, m)`` product instead of ``P`` separate ``(m, n) x
    (n,)`` products — followed by vectorized per-window quantization.

    Args:
        n_leads: Leads per window in this batch group.
        n: Window length in samples.
        cr_percent: Compression ratio.
        quant_bits: Measurement word size.
        seed: Base matrix seed (shared with nodes and gateway).
    """

    def __init__(self, n_leads: int, n: int, cr_percent: float = 60.0,
                 quant_bits: int = 12, seed: int = 11) -> None:
        self.template = MultiLeadCsEncoder(
            n_leads=n_leads, n=n, cr_percent=cr_percent,
            quant_bits=quant_bits, seed=seed)
        self.n_leads = n_leads
        self.n = n
        self.quant_bits = quant_bits
        self._matrices = [enc.sensing.matrix.T.copy()
                          for enc in self.template.encoders]
        self._lead_bits = [enc.payload_bits_per_window()
                           for enc in self.template.encoders]
        self._lead_adds = [enc.sensing.additions_per_window()
                           for enc in self.template.encoders]

    def encode_batch(self, windows: np.ndarray,
                     ) -> list[list[EncodedWindow]]:
        """Encode a ``(P, n_leads, n)`` batch; one frame per patient.

        Returns:
            Per-patient lists of per-lead :class:`EncodedWindow`, each
            matching the scalar encoder's output to float round-off.
        """
        windows = np.asarray(windows, dtype=float)
        if windows.ndim != 3 or windows.shape[1:] != (self.n_leads, self.n):
            raise ValueError(
                f"expected batch of shape (P, {self.n_leads}, {self.n}), "
                f"got {windows.shape}")
        n_patients = windows.shape[0]
        levels = 2 ** (self.quant_bits - 1) - 1
        per_lead: list[tuple[np.ndarray, np.ndarray]] = []
        for lead, matrix_t in enumerate(self._matrices):
            # Row-stable so a patient's measurements do not depend on
            # who shares the batch (shard-layout equivalence).
            y = row_stable_matmul(windows[:, lead, :], matrix_t)  # (P, m)
            peak = np.max(np.abs(y), axis=1)
            scale = np.where(peak == 0.0, 1.0, peak / levels)
            quantized = np.rint(y / scale[:, None]) * scale[:, None]
            per_lead.append((quantized, scale))
        out: list[list[EncodedWindow]] = []
        for p in range(n_patients):
            frame = [
                EncodedWindow(
                    measurements=per_lead[lead][0][p],
                    scale=float(per_lead[lead][1][p]),
                    payload_bits=self._lead_bits[lead],
                    additions=self._lead_adds[lead],
                )
                for lead in range(self.n_leads)
            ]
            out.append(frame)
        return out


@dataclass(frozen=True)
class SchedulerConfig:
    """Fleet-run parameters.

    Attributes:
        duration_s: Simulated recording length per patient.
        fs: Node sampling rate.
        drain_per_tick: Gateway packets processed per tick (``None`` =
            drain fully; a finite budget exercises the bounded queue).
    """

    duration_s: float = 120.0
    fs: float = 250.0
    drain_per_tick: int | None = None


@dataclass
class FleetReport:
    """Outcome of one scheduled fleet run.

    Attributes:
        profiles: The cohort processed.
        node_reports: Per-patient :class:`NodeReport` (energy/bandwidth).
        summary: Fleet-level aggregates (triage, SNR, uplink, battery).
        excerpts: Gateway outputs in processing order.
        packets_sent: Uplink packets offered by the nodes (before any
            channel impairment).
        timings_s: Wall-clock seconds per phase (``synthesis+node``,
            ``uplink+gateway``, ``total``).
        link_stats: Channel-model counters (empty on a perfect link).
        rows: One :class:`~repro.fleet.triage.ShardPatientRow` per
            patient, in cohort order — what ``summary`` folds.
    """

    profiles: list[PatientProfile]
    node_reports: dict[str, NodeReport]
    summary: FleetSummary
    excerpts: list[ReconstructedExcerpt] = field(default_factory=list)
    packets_sent: int = 0
    timings_s: dict[str, float] = field(default_factory=dict)
    link_stats: dict[str, int] = field(default_factory=dict)
    rows: dict[str, ShardPatientRow] = field(default_factory=dict)
    #: Per-patient governors of a governed run (empty when ungoverned);
    #: each carries its decision history and final battery state.
    governors: dict[str, EnergyGovernor] = field(default_factory=dict)
    #: Simulation-clock accounting: the schedule that ran (``engine``:
    #: ``"kernel-lockstep"`` or ``"kernel-events"``), event counts
    #: (``n_events``, ``by_name``) and ``tick_loop_iterations`` —
    #: cohort × base ticks, the lockstep per-patient visits and the
    #: denominator of the ``fleet-event-kernel`` event ratio.
    kernel_stats: dict = field(default_factory=dict)

    @property
    def patients_per_second(self) -> float:
        """End-to-end fleet throughput of this run."""
        total = self.timings_s.get("total", 0.0)
        return len(self.profiles) / total if total > 0 else float("nan")


class _SchedulerMetrics:
    """Pre-resolved metric families for the scheduler's hot paths."""

    def __init__(self, obs: Observability) -> None:
        metrics = obs.metrics
        self.uplink = metrics.counter(
            "scheduler_uplink_packets_total",
            "Packets offered to the uplink, by kind and governed mode.")
        self.transitions = metrics.counter(
            "governor_transitions_total",
            "Governor mode switches, by from/to mode and cause.")
        self.soc = metrics.gauge(
            "governor_soc",
            "Latest battery state of charge per governed patient.")
        self.wall = metrics.gauge(
            "scheduler_wall_seconds",
            "Wall-clock seconds per scheduler phase (process-local).",
            scope=SCOPE_SHARD)


class _RunState:
    """Mutable accounting threaded through one run's kernel events."""

    def __init__(self) -> None:
        self.packets_sent = 0
        self.excerpts: list[ReconstructedExcerpt] = []
        #: Governor decisions of the current sweep (lockstep schedule).
        self.decisions: dict[str, GovernorDecision] | None = None
        #: Per-node pending decisions (per-node schedule: the governor
        #: event stores here, the same node's uplink event pops).
        self.node_decisions: dict[str, GovernorDecision] = {}
        #: Packets counted by the last ``scheduler.tick`` trace.
        self.last_traced_sent = 0
        #: Exact delivery times already carrying a link event.
        self.scheduled_deliveries: set[float] = set()
        self.kernel_stats: dict = {}


class FleetScheduler:
    """Drives a cohort through nodes, uplink, gateway and triage.

    Args:
        cohort: Patient profiles to simulate.
        config: Run parameters.
        node_config: Uplink policy shared by every node.
        gateway: The receiving gateway (fresh default if omitted).
        board: Triage board (fresh default if omitted).
        af_detector: Trained AF detector shared across the fleet.
        link: Channel model between nodes and gateway (``None`` =
            perfect link).  See :class:`UplinkChannel`.
        record_transform: Hook applied to each synthesized record before
            the node processes it (scenario fault injection).
        governor_factory: Builds one per-patient
            :class:`~repro.power.EnergyGovernor`; when given, each tick
            closes the loop gateway-side: the patient's triage state
            feeds the governor, the governor picks the node's operating
            mode, and the tick's uplink (raw excerpt / CS excerpt /
            events-only telemetry) follows that mode, stamped with
            mode + SoC telemetry.
        extra_load: Scenario hook — parasitic watts per (patient, tick
            start) drained on top of the mode power (``battery_drain``).
        acuity_override: Scenario hook — forces a patient's acuity at a
            tick (``governor_stress``); ``None`` returns mean "use the
            board state".
        obs: Optional :class:`~repro.obs.Observability` bundle.  When
            given, the scheduler advances the bundle's virtual clock
            each tick, counts the uplink mix by mode, wires per-patient
            governor decision observers, and shares the bundle with the
            gateway (unless the gateway already carries its own).  All
            instrumentation is out-of-band: run results are
            byte-identical with and without it.
        journal: Optional
            :class:`~repro.fleet.journal.JournalWriter`.  When given,
            it is attached to the gateway (every delivered packet frame
            is logged at ingest) and the scheduler interleaves the
            control records — ``hello`` / ``period`` at start,
            ``expire`` / ``drain`` / ``sweep`` per sweep, the endgame
            ``flush`` / ``drain`` / ``sweep`` and per-patient
            ``report`` rows plus a fleet ``stats`` record — that make
            the log a complete, replayable transcript of the run
            (duck-typed; this module never imports the journal).
        journal_indexes: Per-patient global cohort positions stamped
            into the journal's ``hello`` records; shard workers pass
            their stripe's global indexes so merged shard journals
            recover the full cohort order (default: local order).
    """

    def __init__(self, cohort: list[PatientProfile],
                 config: SchedulerConfig | None = None,
                 node_config: NodeProxyConfig | None = None,
                 gateway: Gateway | None = None,
                 board: TriageBoard | None = None,
                 af_detector: AfDetector | None = None,
                 link: UplinkChannel | None = None,
                 record_transform: RecordTransform | None = None,
                 governor_factory: GovernorFactory | None = None,
                 extra_load: ExtraLoad | None = None,
                 acuity_override: AcuityOverride | None = None,
                 obs: Observability | None = None,
                 journal=None,
                 journal_indexes: dict[str, int] | None = None) -> None:
        if not cohort:
            raise ValueError("cohort must not be empty")
        check_unique_ids(cohort)
        self.cohort = cohort
        self.config = config or SchedulerConfig()
        self.node_config = node_config or NodeProxyConfig()
        #: Per-node uplink periods diverging from the base schedule.
        self._uplink_overrides = {
            p.patient_id: float(p.uplink_period_s) for p in cohort
            if p.uplink_period_s is not None}
        self.obs = obs
        self._obs_m = _SchedulerMetrics(obs) if obs is not None else None
        self.gateway = gateway or Gateway(GatewayConfig(), obs=obs)
        if obs is not None and self.gateway.obs is None:
            self.gateway.attach_obs(obs)
        self.board = board or TriageBoard()
        self.af_detector = af_detector
        self.link = link
        self.record_transform = record_transform
        self.governor_factory = governor_factory
        self.extra_load = extra_load
        self.acuity_override = acuity_override
        self.governors: dict[str, EnergyGovernor] = {}
        self._batch_encoders: dict[int, BatchExcerptEncoder] = {}
        #: Uplink packets offered per patient (before any channel
        #: impairment) — the per-patient split of ``packets_sent``,
        #: which shard workers report row by row.
        self.sent_by_patient: dict[str, int] = {}
        self.journal = journal
        self.journal_indexes = journal_indexes or {}
        #: Virtual time of the sweep being journaled (set by the
        #: reassembly phase, read by the drain phase's record).
        self._journal_now_s = 0.0
        if journal is not None:
            self.gateway.attach_journal(journal)

    def run(self) -> FleetReport:
        """Simulate the full stretch and return the fleet report."""
        cfg = self.config
        t_start = time.perf_counter()
        self.board.register(p.patient_id for p in self.cohort)
        if self.journal is not None:
            for i, profile in enumerate(self.cohort):
                pid = profile.patient_id
                index = self.journal_indexes.get(pid, i)
                self.journal.append_message(ServeMessage(
                    "hello", pid, fields={"index": float(index)}))
        for pid, period in sorted(self._uplink_overrides.items()):
            self.board.set_expected_period(pid, period)
            if self.journal is not None:
                self.journal.append_message(ServeMessage(
                    "period", pid, fields={"period_s": period}))

        # Phase 1 — per-patient node processing.
        def node_phase(profile: PatientProfile,
                       ) -> tuple[NodeProxy, MultiLeadEcg, NodeReport]:
            record = synthesize_patient(profile, cfg.duration_s, cfg.fs)
            if self.record_transform is not None:
                record = self.record_transform(profile, record)
            proxy = NodeProxy(profile, self._node_config_for(profile),
                              self.af_detector)
            report, _ = proxy.run(record, emit_excerpts=False,
                                  emit_alarms=False)
            return proxy, record, report

        results = [node_phase(profile) for profile in self.cohort]
        t_node = time.perf_counter()

        reports = {proxy.profile.patient_id: report
                   for proxy, _, report in results}
        if self.governor_factory is not None:
            self.governors = {profile.patient_id:
                              self.governor_factory(profile)
                              for profile in self.cohort}
            if self._obs_m is not None:
                for pid, governor in self.governors.items():
                    governor.on_decision = self._governor_observer(pid)

        # Phase 2 — uplink, gateway drain and triage on the event
        # kernel.  Alarm packets are *built at the sweep that uplinks
        # them* (early alarms before the excerpts, late ones after), so
        # each node's sequence numbers follow timestamp order and the
        # gateway's seq-ordered reassembly restores the timeline.
        state = _RunState()
        self._run_kernel(results, state)

        if self.link is not None:  # packets still in flight land now
            for packet in self.link.drain():
                self._ingest(packet)
        if self.journal is not None:
            self.journal.append_message(ServeMessage(
                "flush", "", t_s=cfg.duration_s))
        self.gateway.flush_reassembly()
        if self.journal is not None:
            self.journal.append_message(ServeMessage(
                "drain", "", t_s=cfg.duration_s,
                fields={"budget": -1.0}))
        for excerpt in self.gateway.drain():  # leftovers from budgeting
            self.board.observe(excerpt)
            state.excerpts.append(excerpt)
        if self.journal is not None:
            self.journal.append_message(ServeMessage(
                "sweep", "", t_s=cfg.duration_s))
        self.board.tick(cfg.duration_s)
        self._fold_governed_power(reports)
        reconstructed = Counter(e.patient_id for e in state.excerpts)
        rows: dict[str, ShardPatientRow] = {}
        for profile in self.cohort:
            pid = profile.patient_id
            msg = self.report_message(pid, reports)
            if self.journal is not None:
                self.journal.append_message(msg)
            rows[pid] = row_from_report(
                msg, self.gateway.channels.get(pid),
                self.board.patients[pid], reconstructed[pid])
        if self.journal is not None:
            link_stats = dict(getattr(self.link, "stats", {}) or {})
            self.journal.append_message(ServeMessage(
                "stats", "", t_s=cfg.duration_s,
                fields={f"link:{key}": float(value)
                        for key, value in link_stats.items()}))
        t_end = time.perf_counter()

        summary = fleet_summary(list(rows.values()), cfg.duration_s,
                                dropped=self.gateway.dropped)
        timings = {
            "synthesis+node": t_node - t_start,
            "uplink+gateway": t_end - t_node,
            "total": t_end - t_start,
        }
        if self._obs_m is not None:
            for phase, seconds in timings.items():
                self._obs_m.wall.set(seconds, phase=phase)
        return FleetReport(
            profiles=list(self.cohort),
            node_reports=reports,
            summary=summary,
            excerpts=state.excerpts,
            packets_sent=state.packets_sent,
            timings_s=timings,
            link_stats=dict(getattr(self.link, "stats", {}) or {}),
            rows=rows,
            governors=dict(self.governors),
            kernel_stats=state.kernel_stats,
        )

    def report_message(self, pid: str,
                       reports: dict[str, NodeReport]) -> ServeMessage:
        """Build one patient's end-of-run ``report`` message.

        The node-side half of every patient row: :meth:`run` (and the
        serve session the client ships it to) builds the row from it
        with :func:`~repro.fleet.triage.row_from_report`.  Governor
        dwell times go out as ``mode:<name>`` keys *in insertion
        order* (the codec preserves it), so every runtime's
        mode-seconds fold sums in the same order — float-exactly.
        """
        report = reports[pid]
        governor = self.governors.get(pid)
        fields: dict[str, float] = {
            "n_sent": float(self.sent_by_patient.get(pid, 0)),
            "n_node_alarms": float(len(report.alarms)),
            "average_power_w": report.average_power_w,
            "battery_days": report.battery_days,
            "governor_switches": float(
                governor.n_switches if governor is not None else 0),
            "final_soc": (governor.battery.soc
                          if governor is not None else float("nan")),
            "projected_hours": (governor.projected_hours_to_empty()
                                if governor is not None
                                else float("nan")),
        }
        if governor is not None:
            for mode, seconds in governor.mode_seconds.items():
                fields[f"mode:{mode}"] = seconds
        # Duck-typed: only the per-patient scenario link
        # (repro.fleet.sharding.PerPatientLink) carries stats_for; a
        # shared ImpairedLink's totals ride the fleet `stats` record.
        stats_for = getattr(self.link, "stats_for", None)
        link_stats = stats_for(pid) if stats_for is not None else {}
        for key, value in link_stats.items():
            fields[f"link:{key}"] = float(value)
        return ServeMessage(
            "report", pid, t_s=self.config.duration_s, fields=fields,
            info={"governed": "1" if governor is not None else "0"})

    # ------------------------------------------------------------------
    # Phase methods the kernel's sweep events run.
    # ------------------------------------------------------------------

    def _set_vt(self, now_s: float) -> None:
        """Stamp the ambient virtual clock (no-op without obs)."""
        if self.obs is not None:
            self.obs.set_virtual_time(now_s)

    def _phase_reassembly(self, now: float) -> None:
        """Run the gateway's reassembly expiry sweep."""
        if self.journal is not None:
            self.journal.append_message(ServeMessage(
                "expire", "", t_s=now))
            self._journal_now_s = now
        self.gateway.expire_reassembly(now)

    def _phase_drain(self, state: _RunState) -> None:
        """Drain the gateway queue (per-sweep budget) into triage."""
        if self.journal is not None:
            budget = self.config.drain_per_tick
            self.journal.append_message(ServeMessage(
                "drain", "", t_s=self._journal_now_s,
                fields={"budget": (-1.0 if budget is None
                                   else float(budget))}))
        for excerpt in self.gateway.drain(self.config.drain_per_tick):
            self.board.observe(excerpt)
            state.excerpts.append(excerpt)

    def _phase_triage(self, now: float, state: _RunState) -> None:
        """Decay triage states and close the sweep's trace record."""
        if self.journal is not None:
            self.journal.append_message(ServeMessage(
                "sweep", "", t_s=now))
        self.board.tick(now)
        if self.obs is not None and self.obs.trace is not None:
            self.obs.trace.instant(
                now, "scheduler.tick", scope=SCOPE_SHARD,
                n_sent=state.packets_sent - state.last_traced_sent)
        state.last_traced_sent = state.packets_sent

    def _run_kernel(self, results: list[tuple], state: _RunState) -> None:
        """Phase 2 on the event-heap kernel of :mod:`.kernel`.

        Without per-node period overrides the schedule is *lockstep*:
        one sweep event per phase per base tick, each uplink sweep
        encoding the cohort in one batch per lead-count group.  With
        any override each node gets its own uplink (and governor)
        event chain while gateway sweeps stay on the base grid, so a
        sparse cohort costs events, not ticks × cohort.  With every
        override at the base period both fold to the same bytes.
        """
        cfg = self.config
        kernel = EventKernel()
        period = self.node_config.excerpt_period_s
        n_ticks = int(cfg.duration_s // period)
        if self._uplink_overrides:
            overflow = self._schedule_node_events(kernel, results, state)
            engine = "kernel-events"
        else:
            overflow = self._schedule_lockstep(kernel, results, state,
                                               period, n_ticks)
            engine = "kernel-lockstep"
        kernel.run()
        state.packets_sent += self._send_alarms(overflow, cfg.duration_s)
        state.kernel_stats = {
            "engine": engine,
            "n_events": kernel.n_processed,
            "by_name": dict(sorted(kernel.counts_by_name.items())),
            "tick_loop_iterations": n_ticks * len(self.cohort),
        }

    def _schedule_lockstep(self, kernel: EventKernel,
                           results: list[tuple], state: _RunState,
                           period: float, n_ticks: int) -> list[tuple]:
        """Schedule every base tick's sweeps; return the overflow alarms."""
        proxies = [r[0] for r in results]
        records = [r[1] for r in results]
        alarms_by_tick = self._bucket_alarms(results, period, n_ticks)
        for tick in range(1, n_ticks + 1):
            self._schedule_tick_sweeps(kernel, tick, tick * period,
                                       proxies, records,
                                       alarms_by_tick.get(tick, []), state)
        return self._overflow_alarms(alarms_by_tick, n_ticks)

    def _schedule_tick_sweeps(self, kernel: EventKernel, tick: int,
                              now: float, proxies: list[NodeProxy],
                              records: list[MultiLeadEcg],
                              bucket: list[tuple],
                              state: _RunState) -> None:
        """One lockstep tick as events: phase order via priorities."""
        early = [a for a in bucket if a[2] < now]
        late = [a for a in bucket if a[2] >= now]

        def governors() -> None:
            self._set_vt(now)
            state.decisions = self._step_governors(now)

        def alarms_early() -> None:
            self._set_vt(now)
            state.packets_sent += self._send_alarms(early, now)

        def uplinks() -> None:
            self._set_vt(now)
            state.packets_sent += self._send_excerpt_batch(
                proxies, records, tick - 1, now, state.decisions)

        def alarms_late() -> None:
            self._set_vt(now)
            state.packets_sent += self._send_alarms(late, now)

        def delivery() -> None:
            self._set_vt(now)
            self._deliver_due(now)

        def reassembly() -> None:
            self._set_vt(now)
            self._phase_reassembly(now)

        def drain() -> None:
            self._set_vt(now)
            self._phase_drain(state)

        def triage() -> None:
            self._set_vt(now)
            self._phase_triage(now, state)

        if self.governors:
            kernel.schedule(now, PRIO_GOVERNOR, "sweep.governors",
                            governors)
        if early:
            kernel.schedule(now, PRIO_ALARM_EARLY, "sweep.alarms_early",
                            alarms_early)
        kernel.schedule(now, PRIO_UPLINK, "sweep.uplinks", uplinks)
        if late:
            kernel.schedule(now, PRIO_ALARM_LATE, "sweep.alarms_late",
                            alarms_late)
        if self.link is not None:
            kernel.schedule(now, PRIO_DELIVERY, "link.due_sweep",
                            delivery)
        kernel.schedule(now, PRIO_REASSEMBLY, "gateway.expire",
                        reassembly)
        kernel.schedule(now, PRIO_DRAIN, "gateway.drain", drain)
        kernel.schedule(now, PRIO_TRIAGE, "triage.sweep", triage)

    def _schedule_node_events(self, kernel: EventKernel,
                              results: list[tuple], state: _RunState,
                              ) -> list[tuple]:
        """Per-node uplink event chains plus base-grid gateway sweeps.

        Each node is visited only at its own ``uplink_period_s`` (its
        governor decision, alarms and excerpt ride one event), so a
        sparse delineation-only node costs events proportional to its
        uplinks.  Gateway-side sweeps (link due, reassembly expiry,
        drain, triage decay) stay on the base excerpt grid —
        cohort-wide work independent of cohort size per sweep.

        Returns:
            Alarm tuples falling past their node's last tick, sorted by
            timestamp (the caller uplinks them at end of run).
        """
        cfg = self.config
        base = self.node_config.excerpt_period_s
        overflow: list[tuple] = []
        for result in results:
            proxy, record, _ = result
            pid = proxy.profile.patient_id
            period = self._uplink_overrides.get(pid, base)
            n_ticks = int(cfg.duration_s // period)
            buckets = self._bucket_alarms([result], period, n_ticks)
            for tick in range(1, n_ticks + 1):
                self._schedule_node_uplink(
                    kernel, proxy, record, tick, tick * period, period,
                    buckets.get(tick, []), state)
            overflow.extend(self._overflow_alarms(buckets, n_ticks))
        for tick in range(1, int(cfg.duration_s // base) + 1):
            self._schedule_gateway_sweeps(kernel, tick * base, state)
        overflow.sort(key=lambda item: item[2])
        return overflow

    def _schedule_node_uplink(self, kernel: EventKernel,
                              proxy: NodeProxy, record: MultiLeadEcg,
                              tick: int, now: float, period: float,
                              bucket: list[tuple],
                              state: _RunState) -> None:
        """Schedule one node's uplink (and governor) event at ``now``.

        The governor decision is its own event one priority rank ahead
        of the uplink, mirroring the lockstep phase order: decisions at
        a timestamp always land before the uplinks they steer.
        """
        pid = proxy.profile.patient_id
        early = [a for a in bucket if a[2] < now]
        late = [a for a in bucket if a[2] >= now]

        def decide() -> None:
            self._set_vt(now)
            state.node_decisions[pid] = self._decide_one(
                pid, period, now - period)

        def uplink() -> None:
            self._set_vt(now)
            decisions = ({pid: state.node_decisions.pop(pid)}
                         if self.governors else None)
            state.packets_sent += self._send_alarms(early, now)
            state.packets_sent += self._send_excerpt_batch(
                [proxy], [record], tick - 1, now, decisions)
            state.packets_sent += self._send_alarms(late, now)
            self._schedule_link_events(kernel, state)

        if self.governors:
            kernel.schedule(now, PRIO_GOVERNOR, "governor.decide",
                            decide, subject=pid)
        kernel.schedule(now, PRIO_UPLINK, "node.uplink", uplink,
                        subject=pid)

    def _schedule_gateway_sweeps(self, kernel: EventKernel, now: float,
                                 state: _RunState) -> None:
        """Schedule the gateway-side sweeps of one base-grid instant."""

        def delivery() -> None:
            self._set_vt(now)
            self._deliver_due(now)
            self._schedule_link_events(kernel, state)

        def reassembly() -> None:
            self._set_vt(now)
            self._phase_reassembly(now)

        def drain() -> None:
            self._set_vt(now)
            self._phase_drain(state)

        def triage() -> None:
            self._set_vt(now)
            self._phase_triage(now, state)

        if self.link is not None:
            kernel.schedule(now, PRIO_DELIVERY, "link.due_sweep",
                            delivery)
        kernel.schedule(now, PRIO_REASSEMBLY, "gateway.expire",
                        reassembly)
        kernel.schedule(now, PRIO_DRAIN, "gateway.drain", drain)
        kernel.schedule(now, PRIO_TRIAGE, "triage.sweep", triage)

    def _schedule_link_events(self, kernel: EventKernel,
                              state: _RunState) -> None:
        """Schedule an exact-time delivery event for the link's next due.

        Links exposing ``next_due_s`` (the
        :class:`~repro.scenarios.ImpairedLink` family) get their
        delayed copies popped at the exact jittered delivery time
        instead of waiting for the next base-grid sweep; one event per
        distinct due time is kept outstanding, and dues past the run's
        end fall through to the end-of-run drain as before.
        """
        if self.link is None:
            return
        next_due = getattr(self.link, "next_due_s", None)
        if next_due is None:
            return
        t_due = next_due()
        if t_due is None or t_due > self.config.duration_s \
                or t_due in state.scheduled_deliveries:
            return
        state.scheduled_deliveries.add(t_due)
        t_fire = max(t_due, kernel.now_s)

        def deliver() -> None:
            self._set_vt(t_fire)
            self._deliver_due(t_fire)
            self._schedule_link_events(kernel, state)

        kernel.schedule(t_fire, PRIO_DELIVERY, "link.delivery", deliver)

    def _governor_observer(self, pid: str):
        """Build one patient's out-of-band governor decision observer.

        The returned callable feeds the SoC gauge on every decision and,
        on a mode switch, the transition counter plus a
        ``governor.switch`` trace instant stamped at the decision's
        virtual time with the full cause (from/to mode, reason, acuity,
        state of charge).
        """
        m = self._obs_m
        trace = self.obs.trace

        def observe(decision: GovernorDecision) -> None:
            m.soc.set(decision.soc, patient=pid)
            if not decision.switched:
                return
            m.transitions.inc(patient=pid,
                              from_mode=decision.prev_mode,
                              to_mode=decision.mode,
                              reason=decision.reason)
            if trace is not None:
                trace.instant(decision.t_s, "governor.switch",
                              subject=pid,
                              from_mode=decision.prev_mode,
                              to_mode=decision.mode,
                              reason=decision.reason,
                              acuity=decision.acuity,
                              soc=decision.soc)

        return observe

    def _step_governors(self, now_s: float) -> dict[str, GovernorDecision]:
        """Advance every patient's governor by one tick interval.

        The acuity fed in is the triage board's state from the previous
        tick (or the scenario override); the decision covers the
        interval *ending* at ``now_s``.
        """
        period = self.node_config.excerpt_period_s
        t0 = now_s - period
        return {profile.patient_id:
                self._decide_one(profile.patient_id, period, t0)
                for profile in self.cohort}

    def _decide_one(self, pid: str, period_s: float,
                    t0: float) -> GovernorDecision:
        """One patient's governor decision for the interval from ``t0``.

        Shared by the cohort-wide lockstep sweep and the per-node
        governor events of the kernel's heterogeneous schedule (where
        ``period_s`` is the node's own uplink period).
        """
        acuity = (self.acuity_override(pid, t0)
                  if self.acuity_override is not None else None)
        if acuity is None:
            acuity = self.board.patient(pid).state
        extra = (self.extra_load(pid, t0)
                 if self.extra_load is not None else 0.0)
        return self.governors[pid].step(period_s, acuity,
                                        extra_load_w=extra)

    def _node_config_for(self, profile: PatientProfile) -> NodeProxyConfig:
        """The node config of one profile, with its period override."""
        period = self._uplink_overrides.get(profile.patient_id)
        if period is None:
            return self.node_config
        return replace(self.node_config, excerpt_period_s=period)

    def _fold_governed_power(self, reports: dict[str, NodeReport]) -> None:
        """Replace static node power with the governor's mode schedule.

        An ungoverned :class:`NodeReport` prices the fixed §V policy;
        under a governor the node's actual power follows the mode dwell
        times, so the per-patient power and battery projections (which
        triage aggregates) are recomputed from them.  Both sides of the
        fleet accounting deliberately use the *mode schedule only*
        (alarm-packet energy — microjoules against a tick's
        milliJoules of streaming — is excluded from the drain and from
        this power alike, keeping SoC and power mutually consistent).
        """
        for pid, governor in self.governors.items():
            total = sum(governor.mode_seconds.values())
            if total <= 0 or pid not in reports:
                continue
            power = sum(governor.table.power_w(mode) * sec
                        for mode, sec in governor.mode_seconds.items()
                        ) / total
            reports[pid].average_power_w = power
            reports[pid].battery_days = (
                governor.battery.cell.lifetime_days(power))

    def _batch_encoder(self, n_leads: int) -> BatchExcerptEncoder:
        """Cached batch encoder of one lead-count group."""
        if n_leads not in self._batch_encoders:
            nc = self.node_config
            self._batch_encoders[n_leads] = BatchExcerptEncoder(
                n_leads=n_leads, n=nc.window_n, cr_percent=nc.cr_percent,
                quant_bits=nc.quant_bits, seed=nc.cs_seed)
        return self._batch_encoders[n_leads]

    def _send_excerpt_batch(self, proxies: list[NodeProxy],
                            records: list[MultiLeadEcg],
                            period_idx: int, now_s: float,
                            decisions: dict[str, GovernorDecision]
                            | None = None) -> int:
        """Encode + ingest every patient's periodic uplink for one tick.

        Ungoverned runs keep the original behavior: every patient sends a
        multi-lead CS excerpt, grouped by lead count into one vectorized
        :meth:`BatchExcerptEncoder.encode_batch` call per group.  In a
        governed run each patient's tick uplink follows its governor
        decision instead: raw excerpt / multi- or single-lead CS
        excerpt / events-only telemetry, all stamped with mode and SoC.
        Single-lead-CS members batch together with 1-lead patients —
        same encoder geometry, one matrix product.
        """
        groups: dict[int, list[tuple]] = {}
        n = self.node_config.window_n
        sent = 0
        for proxy, record in zip(proxies, records):
            starts = proxy.excerpt_starts(record.n_samples, record.fs)
            if period_idx >= len(starts):
                continue  # recording too short for this period
            start = starts[period_idx]
            hr = proxy.heart_rates.get(period_idx, float("nan"))
            decision = (decisions.get(proxy.profile.patient_id)
                        if decisions is not None else None)
            if decision is None:
                window = record.signals[:, start:start + n]
                groups.setdefault(record.n_leads, []).append(
                    (proxy, window, start, MODE_MULTI_LEAD_CS,
                     float("nan"), hr, None))
            elif decision.mode == MODE_EVENTS_ONLY:
                self._transmit(proxy.telemetry_packet(
                    now_s, mean_hr_bpm=hr, soc=decision.soc), now_s)
                sent += 1
            elif decision.mode == MODE_RAW:
                self._transmit(proxy.raw_packet(
                    record, start, now_s, mean_hr_bpm=hr,
                    soc=decision.soc), now_s)
                sent += 1
            elif decision.mode == MODE_SINGLE_LEAD_CS:
                lead = proxy.delineation_lead
                window = record.signals[lead:lead + 1, start:start + n]
                groups.setdefault(1, []).append(
                    (proxy, window, start, MODE_SINGLE_LEAD_CS,
                     decision.soc, hr, 1))
            else:
                window = record.signals[:, start:start + n]
                groups.setdefault(record.n_leads, []).append(
                    (proxy, window, start, MODE_MULTI_LEAD_CS,
                     decision.soc, hr, None))
        for n_leads, members in groups.items():
            batch = np.stack([member[1] for member in members])
            frames = self._batch_encoder(n_leads).encode_batch(batch)
            for (proxy, window, start, mode, soc, hr,
                 packet_leads), frame in zip(members, frames):
                packet = proxy.packet_from_frames(
                    kind=PACKET_EXCERPT,
                    timestamp_s=now_s,
                    start=start,
                    frames=[frame],
                    reference=window[np.newaxis]
                    if self.node_config.attach_reference else None,
                    mean_hr_bpm=hr,
                    mode=mode,
                    soc=soc,
                    n_leads=packet_leads,
                )
                self._transmit(packet, now_s)
                sent += 1
        return sent

    def _send_alarms(self, items: list[tuple], now_s: float) -> int:
        """Build and uplink the alarm packets of one tick bucket.

        ``items`` holds ``(proxy, record, timestamp_s, alarm_start)``
        tuples sorted by timestamp, so per-patient sequence numbers are
        assigned in timestamp order.  Alarms always carry CS context in
        every governed mode; governed runs stamp the node's current
        mode and SoC telemetry on the packet.
        """
        for proxy, record, _, alarm_start in items:
            packet = proxy.alarm_packet(record, alarm_start)
            governor = self.governors.get(proxy.profile.patient_id)
            if governor is not None:
                packet = replace(packet, mode=governor.mode,
                                 soc=governor.battery.soc)
            self._transmit(packet, now_s)
        return len(items)

    def _transmit(self, packet: UplinkPacket, now_s: float) -> None:
        """Offer one packet to the link (or straight to the gateway)."""
        self.sent_by_patient[packet.patient_id] = \
            self.sent_by_patient.get(packet.patient_id, 0) + 1
        if self._obs_m is not None:
            self._obs_m.uplink.inc(patient=packet.patient_id,
                                   kind=packet.kind, mode=packet.mode)
        if self.link is None:
            self._ingest(packet)
            return
        for delivered in self.link.send(packet, now_s):
            self._ingest(delivered)

    def _ingest(self, packet: UplinkPacket) -> None:
        """Hand one delivered packet to the gateway as its wire frame.

        The gateway decodes and checks it like any network peer's
        frame, so an in-process run exercises exactly what a
        socket-separated gateway would see.
        """
        self.gateway.ingest(encode_packet(packet))

    def _deliver_due(self, now_s: float) -> None:
        """Hand delayed link deliveries whose time has come to ingest."""
        if self.link is None:
            return
        for packet in self.link.due(now_s):
            self._ingest(packet)

    @staticmethod
    def _bucket_alarms(results: list[tuple], period_s: float,
                       n_ticks: int) -> dict[int, list[tuple]]:
        """Group node alarms by uplink tick.

        Returns:
            Tick number -> ``(proxy, record, timestamp_s, alarm_start)``
            tuples sorted by timestamp within each bucket.
        """
        buckets: dict[int, list[tuple]] = {}
        for proxy, record, report in results:
            for alarm in report.alarms:
                ts = alarm.start / record.fs
                tick = min(n_ticks, int(ts // period_s) + 1)
                buckets.setdefault(max(1, tick), []).append(
                    (proxy, record, ts, alarm.start))
        for bucket in buckets.values():
            bucket.sort(key=lambda item: item[2])
        return buckets

    @staticmethod
    def _overflow_alarms(buckets: dict[int, list[tuple]],
                         n_ticks: int) -> list[tuple]:
        """Alarms bucketed past the last tick, in timestamp order.

        Only a run shorter than one period has any; it uplinks them at
        end of run so that no alarm is silently lost.
        """
        return [item for tick in sorted(buckets) if tick > n_ticks
                for item in buckets[tick]]

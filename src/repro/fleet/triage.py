"""Per-patient triage state machines and fleet-level aggregates.

Turns the gateway's reconstructed-excerpt stream into the thing a
monitoring service actually shows a clinician: a per-patient state
(``ok`` / ``watch`` / ``alert``) with hysteresis, and fleet statistics —
alarm rates, reconstruction-SNR distribution, uplink bandwidth and
battery projections.

Every runtime (in-process, sharded, served, replayed) reports one
:class:`ShardPatientRow` per patient, built by :func:`row_from_report`
from the node's end-of-run ``report`` message plus the gateway channel
and triage machine of that patient.  :func:`fleet_summary` folds those
rows, in cohort order, into the one :class:`FleetSummary`.

State machine:

* a gateway-**confirmed** alarm raises ``alert``;
* an **unconfirmed** alarm, or a routine excerpt whose reconstruction
  quality falls below ``snr_watch_db``, raises ``watch`` (never lowers);
* states decay one step at a time after a quiet hold period.

Link health rides on top of the rhythm states: a patient whose node has
been silent for ``stale_after_s`` is flagged **stale** (and escalated to
``watch`` — a silent node is indistinguishable from a detached one).
The flag clears on the next packet.  :meth:`TriageBoard.register` seeds
a state machine per cohort member up front, so a node whose *every*
packet is lost still shows up stale instead of simply not existing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .gateway import PatientChannel, ReconstructedExcerpt
from .node_proxy import PACKET_ALARM
from .wire import ServeMessage, _count_field

STATE_OK = "ok"
STATE_WATCH = "watch"
STATE_ALERT = "alert"

#: Escalation order (index = severity).
STATES = (STATE_OK, STATE_WATCH, STATE_ALERT)


@dataclass(frozen=True)
class TriageConfig:
    """Escalation and decay policy.

    Attributes:
        alert_hold_s: Quiet time before ``alert`` decays to ``watch``.
        watch_hold_s: Quiet time before ``watch`` decays to ``ok``.
        snr_watch_db: Routine excerpts reconstructed below this SNR put
            the patient on ``watch`` (link or electrode trouble).
        stale_after_s: Silence (no packet observed) after which a
            registered patient's link is flagged stale.
    """

    alert_hold_s: float = 300.0
    watch_hold_s: float = 180.0
    snr_watch_db: float = 8.0
    stale_after_s: float = 150.0


@dataclass
class PatientTriage:
    """One patient's triage state with escalation timestamps.

    Attributes:
        stale: Link-health flag: no packet for ``stale_after_s``.
        last_seen_s: Time of the last packet observed (run start when
            nothing has arrived yet).
        n_stale_events: Times the link went stale over the run.
    """

    patient_id: str
    state: str = STATE_OK
    since_s: float = 0.0
    last_event_s: float = float("-inf")
    n_alerts: int = 0
    n_watches: int = 0
    stale: bool = False
    last_seen_s: float = 0.0
    n_stale_events: int = 0
    #: Latest battery state-of-charge telemetry (nan until a governed
    #: packet arrives).
    soc: float = float("nan")
    #: Latest operating-mode telemetry ("" until a packet arrives).
    mode: str = ""
    #: Expected uplink period of this patient's node in seconds (nan =
    #: the fleet-wide default).  Sparse delineation-only nodes
    #: legitimately stay silent for their whole period, so staleness
    #: waits ``max(stale_after_s, 1.5 x expected_period_s)`` before
    #: flagging them detached.
    expected_period_s: float = float("nan")

    def _escalate(self, target: str, now_s: float) -> None:
        if STATES.index(target) > STATES.index(self.state):
            self.state = target
            self.since_s = now_s
        self.last_event_s = max(self.last_event_s, now_s)

    def observe(self, excerpt: ReconstructedExcerpt,
                config: TriageConfig) -> str:
        """Feed one gateway output; return the (possibly new) state."""
        now = excerpt.timestamp_s
        self.last_seen_s = max(self.last_seen_s, now)
        self.stale = False
        self.mode = excerpt.mode
        if np.isfinite(excerpt.soc):
            self.soc = excerpt.soc
        if excerpt.kind == PACKET_ALARM:
            if excerpt.confirmed:
                self.n_alerts += 1
                self._escalate(STATE_ALERT, now)
            else:
                self.n_watches += 1
                self._escalate(STATE_WATCH, now)
        elif np.isfinite(excerpt.snr_db) \
                and excerpt.snr_db < config.snr_watch_db:
            self.n_watches += 1
            self._escalate(STATE_WATCH, now)
        else:
            self.last_event_s = max(self.last_event_s, now)
        return self.state

    def tick(self, now_s: float, config: TriageConfig) -> str:
        """Apply quiet-period decay and link-health check at ``now_s``.

        A stale link keeps the patient at ``watch`` or above for as long
        as the silence lasts (re-asserted every tick, so the quiet-decay
        rule below cannot quietly lower a patient nobody can observe).
        A declared :attr:`expected_period_s` stretches the silence
        allowance so a sparse node between scheduled uplinks is not
        mistaken for a detached one.
        """
        stale_after = config.stale_after_s
        if np.isfinite(self.expected_period_s):
            stale_after = max(stale_after, 1.5 * self.expected_period_s)
        if now_s - self.last_seen_s >= stale_after:
            if not self.stale:
                self.stale = True
                self.n_stale_events += 1
            self._escalate(STATE_WATCH, now_s)
        if self.state == STATE_ALERT \
                and now_s - self.last_event_s >= config.alert_hold_s:
            self.state = STATE_WATCH
            self.since_s = now_s
            self.last_event_s = now_s
        elif self.state == STATE_WATCH \
                and now_s - self.last_event_s >= config.watch_hold_s:
            self.state = STATE_OK
            self.since_s = now_s
        return self.state


@dataclass
class TriageBoard:
    """The fleet-wide triage view: one state machine per patient."""

    config: TriageConfig = field(default_factory=TriageConfig)
    patients: dict[str, PatientTriage] = field(default_factory=dict)

    def patient(self, patient_id: str) -> PatientTriage:
        """The (created-on-demand) state machine of one patient."""
        if patient_id not in self.patients:
            self.patients[patient_id] = PatientTriage(patient_id)
        return self.patients[patient_id]

    def register(self, patient_ids) -> None:
        """Seed a state machine per cohort member (enables staleness).

        Without registration a patient only exists on the board once a
        packet arrives — a fully silent node would never be flagged.
        """
        for patient_id in patient_ids:
            self.patient(patient_id)

    def set_expected_period(self, patient_id: str,
                            period_s: float) -> None:
        """Declare one node's expected uplink period (sparse cohorts).

        Lets staleness detection distinguish a detached node from one
        that is simply between sparse scheduled uplinks; the scheduler
        calls this for every profile carrying an ``uplink_period_s``
        override.
        """
        self.patient(patient_id).expected_period_s = float(period_s)

    def stale_ids(self) -> list[str]:
        """Patients whose link is currently flagged stale (sorted)."""
        return sorted(p.patient_id for p in self.patients.values()
                      if p.stale)

    def observe(self, excerpt: ReconstructedExcerpt) -> str:
        """Route one gateway output to its patient's state machine."""
        return self.patient(excerpt.patient_id).observe(excerpt, self.config)

    def tick(self, now_s: float) -> None:
        """Apply decay to every patient."""
        for triage in self.patients.values():
            triage.tick(now_s, self.config)

    def counts(self) -> dict[str, int]:
        """Patients per state (all three keys always present)."""
        out = {state: 0 for state in STATES}
        for triage in self.patients.values():
            out[triage.state] += 1
        return out

    def link_health(self, diagnostics: dict) -> dict[str, dict]:
        """One link-health row per patient, sorted by id.

        Joins the board's staleness view with the reassembly counters
        from :meth:`~repro.fleet.gateway.Gateway.diagnostics` — the
        supported way to ask "which links are hurting and why" without
        spelunking channel attributes.  A patient known to the gateway
        but never registered on the board reports ``stale=True`` (its
        state machine never existed, so nothing ever cleared it).
        """
        channels = diagnostics.get("channels", {})
        out: dict[str, dict] = {}
        for pid in sorted(set(self.patients) | set(channels)):
            triage = self.patients.get(pid)
            ch = channels.get(pid, {})
            out[pid] = {
                "state": triage.state if triage else STATE_OK,
                "stale": triage.stale if triage else True,
                "n_stale_events":
                    triage.n_stale_events if triage else 0,
                "n_gaps": ch.get("n_gaps", 0),
                "n_duplicates": ch.get("n_duplicates", 0),
                "n_out_of_order": ch.get("n_out_of_order", 0),
                "n_late_recovered": ch.get("n_late_recovered", 0),
                "pending_reassembly": ch.get("pending_reassembly", 0),
                "stalled_ticks": ch.get("stalled_ticks", 0),
            }
        return out


@dataclass(frozen=True)
class ShardPatientRow:
    """Everything a runtime reports about one patient.

    Channel counters and SNR samples, triage state, node and governor
    aggregates, and per-patient link statistics.  Built by
    :func:`row_from_report`, folded by :func:`fleet_summary`.
    """

    patient_id: str
    n_sent: int
    n_reconstructed: int
    n_node_alarms: int
    average_power_w: float
    battery_days: float
    channel: PatientChannel | None
    triage: PatientTriage
    governed: bool
    mode_seconds: dict[str, float]
    governor_switches: int
    final_soc: float
    projected_hours: float
    link_stats: dict[str, int]


def row_from_report(msg: ServeMessage, channel: PatientChannel | None,
                    triage: PatientTriage,
                    n_reconstructed: int) -> ShardPatientRow:
    """Build one patient's row from its end-of-run ``report`` message.

    ``msg`` (:meth:`~repro.fleet.FleetScheduler.report_message`) is the
    node side; the gateway side is the patient's channel (``None`` when
    no packet arrived), triage machine and reconstructed-output count.

    Raises:
        WireFormatError: A count field is NaN or infinite.
    """
    fields = msg.fields
    nan = float("nan")
    return ShardPatientRow(
        patient_id=msg.patient_id,
        n_sent=_count_field(fields, "n_sent"),
        n_reconstructed=n_reconstructed,
        n_node_alarms=_count_field(fields, "n_node_alarms"),
        average_power_w=fields.get("average_power_w", nan),
        battery_days=fields.get("battery_days", nan),
        channel=channel,
        triage=triage,
        governed=msg.info.get("governed") == "1",
        mode_seconds={key[5:]: value for key, value in fields.items()
                      if key.startswith("mode:")},
        governor_switches=_count_field(fields, "governor_switches"),
        final_soc=fields.get("final_soc", nan),
        projected_hours=fields.get("projected_hours", nan),
        link_stats={key[5:]: _count_field(fields, key) for key in fields
                    if key.startswith("link:")},
    )


@dataclass(frozen=True)
class FleetSummary:
    """Aggregate fleet statistics over one simulated stretch.

    Attributes:
        n_patients: Cohort size.
        duration_s: Simulated recording duration per patient.
        state_counts: Final triage states (ok / watch / alert).
        node_alarms: Alarms raised on-node across the fleet.
        confirmed_alarms: Alarms upheld by the gateway.
        alarm_rate_per_patient_day: Node alarm rate, extrapolated.
        snr_p10_db / snr_p50_db / snr_p90_db: Reconstruction-SNR
            distribution across all scored excerpts.
        uplink_bytes_per_patient_day: Application payload per patient,
            extrapolated to a day.
        mean_node_power_uw: Mean node power (radio + MCU + front end).
        mean_battery_days: Mean time between charges across the fleet.
        dropped_packets: Packets lost to the bounded ingest queue.
        stale_patients: Patients whose link is stale at end of run.
        duplicate_packets: Duplicates dropped by gateway reassembly.
        reassembly_gaps: Sequence numbers lost for good on the uplink.
        governed: Whether the fleet ran under per-node EnergyGovernors.
        mode_seconds: Fleet-wide seconds spent per operating mode
            (governed runs only; empty otherwise).
        governor_switches: Mode changes across the fleet.
        mean_final_soc: Mean battery state of charge at end of run (nan
            when ungoverned).
        projected_lifetime_h_p50: Median projected hours-to-empty if
            each node's final mode held (nan when ungoverned).
    """

    n_patients: int
    duration_s: float
    state_counts: dict[str, int]
    node_alarms: int
    confirmed_alarms: int
    alarm_rate_per_patient_day: float
    snr_p10_db: float
    snr_p50_db: float
    snr_p90_db: float
    uplink_bytes_per_patient_day: float
    mean_node_power_uw: float
    mean_battery_days: float
    dropped_packets: int
    stale_patients: int = 0
    duplicate_packets: int = 0
    reassembly_gaps: int = 0
    governed: bool = False
    mode_seconds: dict[str, float] = field(default_factory=dict)
    governor_switches: int = 0
    mean_final_soc: float = float("nan")
    projected_lifetime_h_p50: float = float("nan")

    def to_dict(self) -> dict:
        """Canonical dict view: sorted sub-keys, NaN folded to None.

        No rounding is applied — two summaries serialize identically
        *iff* every aggregate matches bit for bit, which is exactly the
        equivalence the sharded runner is tested against
        (N-shard == 1-shard).
        """

        def scrub(value: float) -> float | None:
            """NaN/inf are not JSON; fold them to None determinstically."""
            if isinstance(value, float) and not np.isfinite(value):
                return None
            return value

        return {
            "n_patients": self.n_patients,
            "duration_s": scrub(self.duration_s),
            "state_counts": dict(sorted(self.state_counts.items())),
            "node_alarms": self.node_alarms,
            "confirmed_alarms": self.confirmed_alarms,
            "alarm_rate_per_patient_day":
                scrub(self.alarm_rate_per_patient_day),
            "snr_p10_db": scrub(self.snr_p10_db),
            "snr_p50_db": scrub(self.snr_p50_db),
            "snr_p90_db": scrub(self.snr_p90_db),
            "uplink_bytes_per_patient_day":
                scrub(self.uplink_bytes_per_patient_day),
            "mean_node_power_uw": scrub(self.mean_node_power_uw),
            "mean_battery_days": scrub(self.mean_battery_days),
            "dropped_packets": self.dropped_packets,
            "stale_patients": self.stale_patients,
            "duplicate_packets": self.duplicate_packets,
            "reassembly_gaps": self.reassembly_gaps,
            "governed": self.governed,
            "mode_seconds": {mode: scrub(sec) for mode, sec
                             in sorted(self.mode_seconds.items())},
            "governor_switches": self.governor_switches,
            "mean_final_soc": scrub(self.mean_final_soc),
            "projected_lifetime_h_p50":
                scrub(self.projected_lifetime_h_p50),
        }

    def to_json(self) -> str:
        """Byte-stable serialization of :meth:`to_dict` (sorted keys).

        The byte-equivalence surface of the sharding tests and the
        ``fleet-throughput-sharded`` bench gate.
        """
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    def describe(self) -> str:
        """Multi-line human-readable summary (what the example prints)."""
        c = self.state_counts
        return "\n".join([
            f"fleet of {self.n_patients} patients, "
            f"{self.duration_s:.0f} s each",
            f"  triage: {c.get(STATE_OK, 0)} ok / "
            f"{c.get(STATE_WATCH, 0)} watch / "
            f"{c.get(STATE_ALERT, 0)} alert",
            f"  alarms: {self.node_alarms} raised on-node, "
            f"{self.confirmed_alarms} gateway-confirmed "
            f"({self.alarm_rate_per_patient_day:.1f} /patient/day)",
            f"  reconstruction SNR p10/p50/p90: "
            f"{self.snr_p10_db:.1f} / {self.snr_p50_db:.1f} / "
            f"{self.snr_p90_db:.1f} dB",
            f"  uplink: {self.uplink_bytes_per_patient_day / 1e3:.0f} "
            f"kB/patient/day, {self.dropped_packets} dropped",
            f"  link health: {self.stale_patients} stale, "
            f"{self.duplicate_packets} duplicates dropped, "
            f"{self.reassembly_gaps} gaps",
            f"  node power: {self.mean_node_power_uw:.0f} uW mean, "
            f"battery {self.mean_battery_days:.1f} days",
        ] + ([
            f"  governor: {self.governor_switches} mode switches, "
            f"SoC {100 * self.mean_final_soc:.0f} % mean, projected "
            f"lifetime {self.projected_lifetime_h_p50:.0f} h (p50); "
            + ", ".join(f"{mode} {sec / 3600.0:.1f} h"
                        for mode, sec in sorted(self.mode_seconds.items())
                        if sec > 0)
        ] if self.governed else []))


def fleet_summary(rows: Sequence[ShardPatientRow], duration_s: float,
                  dropped: int = 0) -> FleetSummary:
    """Fold one row per cohort member, in cohort order, into one view.

    The fold of every runtime.  The power, battery and mode-dwell folds
    are float sums, so two runtimes agree byte for byte only on rows in
    the same order; everything else is an integer or order-free.

    Args:
        rows: The patient rows, in cohort order.
        duration_s: Simulated duration each row covers.
        dropped: Packets lost to bounded gateway queues across the run.

    Raises:
        ValueError: ``rows`` is empty.
    """
    n = len(rows)
    if n == 0:
        raise ValueError("need at least one patient row")
    nan = float("nan")
    governed = [row for row in rows if row.governed]
    mode_seconds: dict[str, float] = {}
    for row in governed:
        for mode, sec in row.mode_seconds.items():
            mode_seconds[mode] = mode_seconds.get(mode, 0.0) + sec
    channels = [row.channel for row in rows if row.channel is not None]
    snrs = np.array([s for ch in channels for s in ch.snrs], dtype=float)
    p10, p50, p90 = (np.percentile(snrs, (10, 50, 90)) if snrs.size
                     else (nan,) * 3)
    state_counts = {state: 0 for state in STATES}
    for row in rows:
        state_counts[row.triage.state] += 1
    scale_day = 86400.0 / duration_s
    node_alarms = sum(row.n_node_alarms for row in rows)
    payload_bits = sum(ch.payload_bits for ch in channels)
    return FleetSummary(
        n_patients=n,
        duration_s=duration_s,
        state_counts=state_counts,
        node_alarms=node_alarms,
        confirmed_alarms=sum(ch.n_confirmed for ch in channels),
        alarm_rate_per_patient_day=node_alarms / n * scale_day,
        snr_p10_db=float(p10),
        snr_p50_db=float(p50),
        snr_p90_db=float(p90),
        uplink_bytes_per_patient_day=payload_bits / 8.0 / n * scale_day,
        mean_node_power_uw=1e6 * float(np.mean(
            [row.average_power_w for row in rows])),
        mean_battery_days=float(np.mean([row.battery_days for row in rows])),
        dropped_packets=dropped,
        stale_patients=sum(1 for row in rows if row.triage.stale),
        duplicate_packets=sum(ch.n_duplicates for ch in channels),
        reassembly_gaps=sum(ch.n_gaps for ch in channels),
        governed=bool(governed),
        mode_seconds=mode_seconds,
        governor_switches=sum(row.governor_switches for row in governed),
        mean_final_soc=(float(np.mean([row.final_soc for row in governed]))
                        if governed else nan),
        projected_lifetime_h_p50=(
            float(np.percentile(np.asarray(
                [row.projected_hours for row in governed]), 50))
            if governed else nan),
    )

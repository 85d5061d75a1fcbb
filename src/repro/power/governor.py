"""Closed-loop EnergyGovernor: battery/acuity-adaptive operating modes.

The paper's Fig. 6 compares three *fixed* transmission strategies (raw
streaming, single-lead CS, multi-lead CS) and reports what each would
save.  A deployed wearable does not get to pick one forever: the battery
drains, patients deteriorate and recover, and the right strategy changes
mid-shift.  Related ultra-low-power monitors win their lifetime budgets
exactly here — by *switching* modes as the energy budget and the
clinical picture evolve (Hadizadeh et al. 2019; Deepu et al. 2014, both
in PAPERS.md).

This module turns the static Fig. 6 comparison into a policy:

* :data:`MODES` orders the four operating modes by fidelity (and,
  monotonically, by power): ``raw`` > ``multi_lead_cs`` >
  ``single_lead_cs`` > ``delineation_only`` (events-only uplink);
* :class:`ModePowerTable` prices each mode's average node power from
  the existing :class:`~repro.power.NodeEnergyModel` pieces plus the
  :class:`~repro.power.DutyCycledRadio` standing costs, so the numbers
  stay consistent with the Fig. 6 bars (which this module never touches);
* :class:`EnergyGovernor` picks a mode each batch interval from the
  battery state of charge (:class:`~repro.power.BatteryModel`), with
  hysteresis and a minimum dwell so modes don't thrash, and a
  gateway-fed triage *acuity floor*: ``alert`` patients stream
  high-fidelity regardless of budget, ``ok`` patients may coast on
  events-only when the battery runs low;
* :func:`simulate_lifetime` / :func:`compare_policies` measure simulated
  hours-to-empty per policy (the ``fleet-lifetime`` bench case).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..compression.encoder import CsEncoder, MultiLeadCsEncoder
from .battery import Battery, BatteryModel
from .dutycycle import DutyCycledRadio
from .node import NodeEnergyModel

#: Highest-fidelity mode: every raw sample of every lead over the air.
MODE_RAW = "raw"
#: All leads compressed with the joint-decoder operating point.
MODE_MULTI_LEAD_CS = "multi_lead_cs"
#: One lead compressed; the others stay on-node.
MODE_SINGLE_LEAD_CS = "single_lead_cs"
#: Events-only uplink: delineation verdicts and alarms, no waveforms.
MODE_EVENTS_ONLY = "delineation_only"

#: Operating modes ordered by descending fidelity (and power); the
#: governor expresses every preference as an index into this tuple.
MODES = (MODE_RAW, MODE_MULTI_LEAD_CS, MODE_SINGLE_LEAD_CS,
         MODE_EVENTS_ONLY)

#: Triage acuities the gateway feeds back, most severe first
#: (mirrors ``repro.fleet.triage.STATES`` without importing it —
#: power must stay importable without the fleet layer).
ACUITY_ALERT = "alert"
ACUITY_WATCH = "watch"
ACUITY_OK = "ok"


def mode_fidelity(mode: str) -> int:
    """Fidelity rank of a mode (0 = highest).  Raises on unknown mode."""
    try:
        return MODES.index(mode)
    except ValueError:
        raise ValueError(
            f"unknown mode {mode!r}; choose from {MODES}") from None


@dataclass(frozen=True)
class ModePowerTable:
    """Average node power per operating mode, Fig.6-consistent.

    Every mode pays the common standing costs — front-end acquisition of
    all leads, the RTOS tick, the always-on DSP chain (conditioning +
    delineation) and the radio's beacon-maintenance duty cycle — plus
    its own uplink payload (batched per
    :attr:`DutyCyclePolicy.batch_interval_s`) and, for the CS modes, the
    encoder's MCU cycles.  ``single_lead_cs`` still *acquires* every
    lead (delineation keeps running); only the uplink narrows.

    Args:
        node: The Fig. 6 node energy model (radio, MCU, front end).
        duty: Duty-cycling policy pricing maintenance and burst batching.
        window_n: CS window length in samples.
        cr_percent: CS operating point of both CS modes.
        dsp_cycles_per_sample: Always-on DSP chain cost (matches
            :class:`~repro.pipeline.CardiacMonitorNode`).
        events_bits_per_s: Events-only uplink rate (delineation verdicts
            at a resting heart rate; ~9 fiducials x 16 bit + label per
            beat).
    """

    node: NodeEnergyModel = field(default_factory=NodeEnergyModel)
    duty: DutyCycledRadio = field(default_factory=DutyCycledRadio)
    window_n: int = 256
    cr_percent: float = 60.0
    dsp_cycles_per_sample: float = 260.0
    events_bits_per_s: float = 190.0

    def common_power_w(self) -> float:
        """Standing power every mode pays (sampling + OS + DSP + beacon)."""
        node = self.node
        sampling = node.frontend.sampling_energy(
            int(round(node.fs)), node.n_leads, 1.0)
        os_power = node.mcu.rtos_energy(1.0)
        dsp = node.mcu.compute_energy(
            self.dsp_cycles_per_sample * node.fs * node.n_leads)
        return sampling + os_power + dsp + self.duty.maintenance_power_w()

    def payload_bits_per_s(self, mode: str) -> float:
        """Application uplink rate of one mode (bits per second)."""
        mode_fidelity(mode)
        node = self.node
        if mode == MODE_RAW:
            return node.n_leads * node.sample_bits * node.fs
        if mode == MODE_MULTI_LEAD_CS:
            encoder = self._ml_encoder()
            return encoder.payload_bits_per_window() / self._window_s()
        if mode == MODE_SINGLE_LEAD_CS:
            encoder = self._sl_encoder()
            return encoder.payload_bits_per_window() / self._window_s()
        return self.events_bits_per_s

    def compression_power_w(self, mode: str) -> float:
        """MCU power spent encoding in one mode."""
        node = self.node
        if mode == MODE_MULTI_LEAD_CS:
            adds = self._ml_encoder().additions_per_window()
        elif mode == MODE_SINGLE_LEAD_CS:
            adds = self._sl_encoder().sensing.additions_per_window()
        else:
            return 0.0
        cycles_per_s = adds * node.cycles_per_addition / self._window_s()
        return node.mcu.compute_energy(cycles_per_s)

    def power_w(self, mode: str) -> float:
        """Total average node power of one mode (memoized — building a
        CS encoder constructs its sensing matrices, which must not be
        paid per governor step)."""
        cache = self.__dict__.get("_power_cache")
        if cache is None:
            cache = {}
            object.__setattr__(self, "_power_cache", cache)
        if mode not in cache:
            radio = self.duty.payload_power_w(
                self.payload_bits_per_s(mode))
            cache[mode] = (self.common_power_w() + radio
                           + self.compression_power_w(mode))
        return cache[mode]

    def table(self) -> dict[str, float]:
        """Mode -> average power, for reports and examples."""
        return {mode: self.power_w(mode) for mode in MODES}

    def _window_s(self) -> float:
        return self.window_n / self.node.fs

    def _ml_encoder(self) -> MultiLeadCsEncoder:
        return MultiLeadCsEncoder(
            n_leads=self.node.n_leads, n=self.window_n,
            cr_percent=self.cr_percent, quant_bits=self.node.sample_bits)

    def _sl_encoder(self) -> CsEncoder:
        return CsEncoder(n=self.window_n, cr_percent=self.cr_percent,
                         quant_bits=self.node.sample_bits)


@dataclass(frozen=True)
class GovernorConfig:
    """Mode-selection policy: SoC floors, hysteresis, acuity overrides.

    Attributes:
        soc_floors: Minimum state of charge at which each mode may be
            *held*; scanning :data:`MODES` high-fidelity-first, the
            budget target is the first mode whose floor the SoC clears.
            Floors must be non-increasing along :data:`MODES` and the
            lowest-power mode's floor must be 0 (there is always a mode
            the battery affords).
        hysteresis_soc: Extra SoC headroom demanded before *upgrading*
            fidelity, so a mode boundary cannot be crossed back and
            forth by measurement jitter.
        min_dwell_s: Minimum time between mode switches.  Acuity-forced
            upgrades (a patient escalating to ``alert``) bypass the
            dwell — clinical urgency beats switch damping.
        acuity_floors: Triage acuity -> lowest fidelity allowed while
            the patient is in that state.  ``alert`` defaults to
            multi-lead CS streaming *regardless of budget*; unknown
            acuities fall back to events-only (no constraint).
    """

    soc_floors: dict[str, float] = field(default_factory=lambda: {
        MODE_RAW: 0.70,
        MODE_MULTI_LEAD_CS: 0.45,
        MODE_SINGLE_LEAD_CS: 0.20,
        MODE_EVENTS_ONLY: 0.0,
    })
    hysteresis_soc: float = 0.05
    min_dwell_s: float = 120.0
    acuity_floors: dict[str, str] = field(default_factory=lambda: {
        ACUITY_ALERT: MODE_MULTI_LEAD_CS,
        ACUITY_WATCH: MODE_SINGLE_LEAD_CS,
        ACUITY_OK: MODE_EVENTS_ONLY,
    })

    def __post_init__(self) -> None:
        if set(self.soc_floors) != set(MODES):
            raise ValueError(f"soc_floors must cover exactly {MODES}")
        floors = [self.soc_floors[mode] for mode in MODES]
        if any(b > a for a, b in zip(floors, floors[1:])):
            raise ValueError(
                "soc_floors must be non-increasing from raw to "
                "delineation_only")
        if floors[-1] != 0.0:
            raise ValueError("the lowest-power mode's floor must be 0")
        if self.hysteresis_soc < 0 or self.min_dwell_s < 0:
            raise ValueError("hysteresis and dwell must be non-negative")
        for acuity, mode in self.acuity_floors.items():
            mode_fidelity(mode)  # validates

    def acuity_floor_index(self, acuity: str) -> int:
        """Fidelity index the acuity demands (lowest allowed fidelity)."""
        return mode_fidelity(
            self.acuity_floors.get(acuity, MODE_EVENTS_ONLY))


@dataclass(frozen=True)
class GovernorDecision:
    """One batch-interval outcome of the governor.

    Attributes:
        t_s: Decision time (start of the interval).
        mode: Mode in force over the interval.
        prev_mode: Mode before this decision.
        switched: Whether this decision changed the mode.
        reason: Why: ``hold`` (no change wanted), ``dwell`` (change
            wanted but damped), ``budget`` (SoC-driven switch),
            ``acuity-floor`` (triage-forced upgrade) or
            ``battery-empty`` (end of discharge forces events-only).
        acuity: The triage acuity fed in.
        soc: State of charge *after* the interval's drain.
        power_w: Average node power charged over the interval.
    """

    t_s: float
    mode: str
    prev_mode: str
    switched: bool
    reason: str
    acuity: str
    soc: float
    power_w: float


class EnergyGovernor:
    """Per-node closed-loop mode controller.

    Each batch interval the caller feeds the current gateway acuity and
    the governor (1) picks an operating mode from the battery state of
    charge and the acuity floor, with hysteresis and dwell damping, and
    (2) drains the battery at that mode's power.  The decision history
    is kept for telemetry and reports.

    Args:
        config: Selection policy (floors, hysteresis, acuity overrides).
        table: Mode power table (Fig. 6-consistent pricing).
        battery: The stateful battery; defaults to a full standard cell.
        mode: Initial operating mode.
        now_s: Simulation clock origin.
    """

    def __init__(self, config: GovernorConfig | None = None,
                 table: ModePowerTable | None = None,
                 battery: BatteryModel | None = None,
                 mode: str = MODE_MULTI_LEAD_CS,
                 now_s: float = 0.0) -> None:
        self.config = config or GovernorConfig()
        self.table = table or ModePowerTable()
        self.battery = battery if battery is not None else BatteryModel()
        mode_fidelity(mode)  # validates
        self.mode = mode
        self.now_s = now_s
        self._last_switch_s = now_s
        self.decisions: list[GovernorDecision] = []
        self.mode_seconds: dict[str, float] = {m: 0.0 for m in MODES}
        #: Optional observer called with each completed
        #: :class:`GovernorDecision` at the end of :meth:`step` — the
        #: observability layer's attachment point.  Strictly
        #: out-of-band: the return value is ignored and the governor
        #: never consults it.  This module stays importable without the
        #: fleet layer, so the hook is a bare callable, not an
        #: Observability handle.
        self.on_decision = None

    @property
    def n_switches(self) -> int:
        """Mode changes taken so far."""
        return sum(1 for d in self.decisions if d.switched)

    def projected_hours_to_empty(self) -> float:
        """Hours until end of discharge if the current mode holds."""
        return self.battery.hours_to_empty(self.table.power_w(self.mode))

    def decide(self, now_s: float, acuity: str) -> tuple[str, str]:
        """Pick the mode for the interval starting at ``now_s``.

        Pure selection — no battery drain, no state change.  Returns
        ``(mode, reason)`` (see :class:`GovernorDecision` for reasons).
        """
        if self.battery.empty:
            return MODE_EVENTS_ONLY, "battery-empty"
        cfg = self.config
        soc = self.battery.soc
        cur_idx = mode_fidelity(self.mode)
        floor_idx = cfg.acuity_floor_index(acuity)
        budget_idx = len(MODES) - 1
        for idx, mode in enumerate(MODES):
            need = cfg.soc_floors[mode]
            if idx < cur_idx:  # upgrades must clear hysteresis headroom
                need += cfg.hysteresis_soc
            if soc >= need:
                budget_idx = idx
                break
        target_idx = min(budget_idx, floor_idx)
        if target_idx == cur_idx:
            return self.mode, "hold"
        # Any upgrade the acuity floor *demands* (patient escalated
        # above what the current mode serves) bypasses dwell damping —
        # even when the budget would take fidelity further still.
        forced_up = floor_idx < cur_idx
        if (not forced_up
                and now_s - self._last_switch_s < cfg.min_dwell_s):
            return self.mode, "dwell"
        return MODES[target_idx], "acuity-floor" if forced_up else "budget"

    def step(self, dt_s: float, acuity: str = ACUITY_OK,
             extra_load_w: float = 0.0) -> GovernorDecision:
        """Run one batch interval: decide, then drain the battery.

        Args:
            dt_s: Interval length.
            acuity: Gateway-fed triage acuity of this patient.
            extra_load_w: Parasitic drain on top of the mode power
                (scenario ``battery_drain`` faults).

        Returns:
            The decision record, with the post-interval state of charge.

        Raises:
            ValueError: ``dt_s`` is not positive, or ``extra_load_w``
                is negative or not finite — a NaN parasitic load from a
                corrupt ``battery_drain`` fault would otherwise
                silently drain the battery to zero and poison the
                hours-to-empty projection.
        """
        if dt_s <= 0:
            raise ValueError("dt must be positive")
        if not math.isfinite(extra_load_w) or extra_load_w < 0:
            raise ValueError("extra load must be a non-negative finite "
                             f"wattage, got {extra_load_w}")
        prev = self.mode
        mode, reason = self.decide(self.now_s, acuity)
        switched = mode != prev
        if switched:
            self._last_switch_s = self.now_s
            self.mode = mode
        power = self.table.power_w(mode) + extra_load_w
        soc = self.battery.drain(power, dt_s)
        self.mode_seconds[mode] = self.mode_seconds.get(mode, 0.0) + dt_s
        self.now_s += dt_s
        decision = GovernorDecision(
            t_s=self.now_s - dt_s, mode=mode, prev_mode=prev,
            switched=switched, reason=reason, acuity=acuity,
            soc=soc, power_w=power)
        self.decisions.append(decision)
        if self.on_decision is not None:
            self.on_decision(decision)
        return decision


@dataclass(frozen=True)
class LifetimeResult:
    """Outcome of one :func:`simulate_lifetime` run.

    Attributes:
        policy: ``"governor"`` or the static mode simulated.
        hours: Simulated hours until end of discharge (or the horizon,
            whichever came first — check :attr:`survived_horizon`).
        survived_horizon: The battery outlived the simulation horizon.
        n_switches: Mode changes taken (0 for static policies).
        mode_hours: Hours spent per mode.
        acuity_violation_hours: Hours during which the mode in force sat
            *below* the acuity floor — a static events-only policy
            "wins" lifetime only by ignoring alert patients, and this
            column is where that shows.
    """

    policy: str
    hours: float
    survived_horizon: bool
    n_switches: int
    mode_hours: dict[str, float]
    acuity_violation_hours: float


def simulate_lifetime(policy: str,
                      acuity_at,
                      table: ModePowerTable | None = None,
                      config: GovernorConfig | None = None,
                      cell: Battery | None = None,
                      step_s: float = 600.0,
                      horizon_s: float = 40.0 * 86400.0,
                      initial_soc: float = 1.0) -> LifetimeResult:
    """Simulate hours-to-empty of one policy under an acuity trace.

    Args:
        policy: ``"governor"`` for the closed loop, or a static mode
            from :data:`MODES` held for the whole run.
        acuity_at: ``fn(t_s) -> acuity`` — the patient's triage state
            over time (deterministic traces keep benches reproducible).
        table: Mode power table (default pricing if omitted).
        config: Governor policy (``"governor"`` only).
        cell: Battery cell spec (default small LiPo).
        step_s: Simulation step / governor batch interval.
        horizon_s: Simulation cap.
        initial_soc: Starting state of charge.

    Returns:
        The :class:`LifetimeResult`; ``hours`` is capped at the horizon.
    """
    table = table or ModePowerTable()
    config = config or GovernorConfig()
    battery = BatteryModel(cell=cell or Battery(), soc=initial_soc)
    if policy != "governor":
        mode_fidelity(policy)  # validates
    governor = (EnergyGovernor(config=config, table=table, battery=battery)
                if policy == "governor" else None)
    mode_seconds: dict[str, float] = {m: 0.0 for m in MODES}
    violation_s = 0.0
    t = 0.0
    while t < horizon_s and not battery.empty:
        acuity = acuity_at(t)
        if governor is not None:
            decision = governor.step(step_s, acuity)
            mode = decision.mode
        else:
            mode = policy
            battery.drain(table.power_w(mode), step_s)
        mode_seconds[mode] += step_s
        if mode_fidelity(mode) > config.acuity_floor_index(acuity):
            violation_s += step_s
        t += step_s
    return LifetimeResult(
        policy=policy,
        hours=t / 3600.0,
        survived_horizon=not battery.empty,
        n_switches=governor.n_switches if governor is not None else 0,
        mode_hours={m: s / 3600.0 for m, s in mode_seconds.items()},
        acuity_violation_hours=violation_s / 3600.0,
    )


def compare_policies(acuity_at,
                     table: ModePowerTable | None = None,
                     config: GovernorConfig | None = None,
                     cell: Battery | None = None,
                     step_s: float = 600.0,
                     horizon_s: float = 40.0 * 86400.0,
                     ) -> dict[str, LifetimeResult]:
    """Hours-to-empty of the governor versus every static mode.

    The interesting comparison is against the *admissible* static modes
    — those that never violate the acuity floor (for a cohort with alert
    episodes that means multi-lead CS or raw).  The governor must meet
    or beat the best admissible static lifetime; the inadmissible rows
    are reported with their violation hours so the trade is visible.
    """
    table = table or ModePowerTable()  # share one memoized pricing
    results = {"governor": simulate_lifetime(
        "governor", acuity_at, table=table, config=config, cell=cell,
        step_s=step_s, horizon_s=horizon_s)}
    for mode in MODES:
        results[mode] = simulate_lifetime(
            mode, acuity_at, table=table, config=config, cell=cell,
            step_s=step_s, horizon_s=horizon_s)
    return results


def mixed_acuity_trace(patient_index: int):
    """Deterministic daily acuity cycle of one mixed-cohort patient.

    Patient ``i`` has one ``alert`` episode of ``1 + (i % 3)`` hours per
    day starting at hour ``(5 * i) % 19``, followed by a two-hour
    ``watch`` tail; the rest of the day is ``ok``.  Pure function of
    ``(patient_index, t_s)`` — the fleet-lifetime bench and examples
    replay identically on every run.

    Returns:
        ``fn(t_s) -> acuity`` for :func:`simulate_lifetime`.
    """
    if patient_index < 0:
        raise ValueError("patient_index must be >= 0")
    alert_start_h = (5 * patient_index) % 19
    alert_len_h = 1 + (patient_index % 3)

    def acuity_at(t_s: float) -> str:
        hour = (t_s / 3600.0) % 24.0
        if alert_start_h <= hour < alert_start_h + alert_len_h:
            return ACUITY_ALERT
        if (alert_start_h + alert_len_h <= hour
                < alert_start_h + alert_len_h + 2.0):
            return ACUITY_WATCH
        return ACUITY_OK

    return acuity_at


def best_admissible_static(results: dict[str, LifetimeResult]) -> str:
    """The longest-lived static mode that never violated its acuity floor.

    Raises:
        ValueError: When no static mode is admissible (should not
            happen — raw always satisfies every floor).
    """
    return best_admissible_static_cohort([results])


def best_admissible_static_cohort(
        cohort_results: list[dict[str, LifetimeResult]]) -> str:
    """Cohort-level :func:`best_admissible_static`.

    A static mode is admissible only when it accumulates **zero**
    acuity-violation hours across *every* patient; among those, the one
    with the longest mean lifetime wins.  This is the single source of
    the admissibility rule — the ``fleet-lifetime`` bench case calls
    it rather than re-deriving it.

    Raises:
        ValueError: On an empty cohort, or when no static mode is
            admissible (cannot happen with the builtin floors — raw
            satisfies every acuity).
    """
    if not cohort_results:
        raise ValueError("need at least one patient's results")
    admissible: list[tuple[float, str]] = []
    for mode in MODES:
        if any(r[mode].acuity_violation_hours > 0.0
               for r in cohort_results):
            continue
        mean_hours = (sum(r[mode].hours for r in cohort_results)
                      / len(cohort_results))
        admissible.append((mean_hours, mode))
    if not admissible:
        raise ValueError("no admissible static mode in results")
    return max(admissible)[1]

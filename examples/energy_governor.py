"""Energy governor demo: one node draining through its mode ladder.

The paper's Fig. 6 compares three *fixed* transmission strategies; this
demo closes the loop instead.  A node starts near full charge and, as
the (deliberately tiny) battery drains, the EnergyGovernor walks it down
the ladder — raw samples, multi-lead CS, single-lead CS, events-only
telemetry — while an alert episode mid-recording forces a high-fidelity
upshift regardless of the budget.  The second half prints the
fleet-lifetime comparison: simulated hours-to-empty of the governor
versus every static Fig. 6 mode on a mixed-acuity day cycle.

The node runs as a one-patient governed ``FleetScheduler``, the same
loop a governed fleet runs, so:

* the payload line counts the packets the gateway received, not a
  mode's nominal streaming rate;
* alarm radio energy does not drain the battery (the fleet prices the
  mode schedule only);
* acuity is the demo's alert third (``acuity_override``), not a
  node-local alarm proxy.

Run:  python examples/energy_governor.py [--duration 300] [--soc 0.9]
"""

from __future__ import annotations

import argparse

from repro.fleet import (
    FleetReport,
    FleetScheduler,
    NodeProxyConfig,
    PatientProfile,
    SchedulerConfig,
)
from repro.power import (
    ACUITY_ALERT,
    ACUITY_OK,
    Battery,
    BatteryModel,
    EnergyGovernor,
    GovernorConfig,
    MODES,
    ModePowerTable,
    best_admissible_static_cohort,
    compare_policies,
    mixed_acuity_trace,
)

#: The demo's one patient.
PROFILE = PatientProfile(patient_id="demo", rhythm="paroxysmal_af",
                         af_burden=0.4, snr_db=25.0, seed=17)


def run_governed(duration_s: float, soc: float, interval_s: float,
                 table: ModePowerTable) -> FleetReport:
    """Run the demo node as a one-patient governed fleet.

    The governor decides every ``interval_s``, dwells at least two
    intervals per mode, drains a 0.05 mAh cell from ``soc``, and sees
    the middle third of the recording as an alert episode.
    """
    governor = EnergyGovernor(
        config=GovernorConfig(min_dwell_s=2 * interval_s),
        table=table,
        battery=BatteryModel(cell=Battery(capacity_mah=0.05), soc=soc))

    def acuity(_: str, t_s: float) -> str:
        third = duration_s / 3.0
        return ACUITY_ALERT if third <= t_s < 2 * third else ACUITY_OK

    return FleetScheduler(
        [PROFILE], SchedulerConfig(duration_s=duration_s),
        node_config=NodeProxyConfig(excerpt_period_s=interval_s),
        governor_factory=lambda _: governor,
        acuity_override=acuity).run()


def mode_timeline(governor: EnergyGovernor) -> list[tuple[float, float, str]]:
    """Consecutive same-mode decisions merged into (start, stop, mode)."""
    decisions = governor.decisions
    starts = [(d.t_s, d.mode) for i, d in enumerate(decisions)
              if i == 0 or d.mode != decisions[i - 1].mode]
    stops = [t_s for t_s, _ in starts[1:]] + [governor.now_s]
    return [(start, stop, mode)
            for (start, mode), stop in zip(starts, stops)]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--duration", type=float, default=300.0,
                        help="simulated seconds of recording")
    parser.add_argument("--soc", type=float, default=0.9,
                        help="starting state of charge (0-1)")
    parser.add_argument("--interval", type=float, default=10.0,
                        help="governor batch interval in seconds")
    parser.add_argument("--lifetime-patients", type=int, default=4,
                        help="cohort size of the lifetime comparison")
    args = parser.parse_args()

    table = ModePowerTable()
    print("mode power table (Fig. 6-consistent, incl. duty-cycle "
          "standing costs):")
    for mode in MODES:
        print(f"  {mode:<18} {1e6 * table.power_w(mode):8.1f} uW")

    print(f"\nprocessing {args.duration:.0f} s recording, starting at "
          f"{100 * args.soc:.0f} % charge (alert episode in the middle "
          "third) ...")
    report = run_governed(args.duration, args.soc, args.interval, table)
    governor = report.governors[PROFILE.patient_id]

    print("mode timeline:")
    for start, stop, mode in mode_timeline(governor):
        print(f"  {start:6.0f} - {stop:6.0f} s  {mode}")
    print(f"mode switches: {governor.n_switches}")
    print(f"final state of charge: {100 * governor.battery.soc:.0f} %")
    node = report.node_reports[PROFILE.patient_id]
    print(f"average node power: {1e6 * node.average_power_w:.0f} uW")
    row = report.rows[PROFILE.patient_id]
    print("payload received by the gateway: "
          f"{row.channel.payload_bits / 8e3:.1f} kB ({row.n_sent} "
          f"packets sent, {len(node.beats)} beats, {len(node.alarms)} "
          "alarms)")

    print(f"\nlifetime comparison ({args.lifetime_patients} "
          "mixed-acuity patients, standard 150 mAh cell):")
    cohort = [compare_policies(mixed_acuity_trace(i), table=table,
                               step_s=1800.0)
              for i in range(args.lifetime_patients)]
    hours: dict[str, list[float]] = {}
    violations: dict[str, float] = {}
    for results in cohort:
        for name, res in results.items():
            hours.setdefault(name, []).append(res.hours)
            violations[name] = (violations.get(name, 0.0)
                                + res.acuity_violation_hours)
    best = best_admissible_static_cohort(cohort)
    print(f"  {'policy':<18} {'mean hours':>10} {'violation h':>12}")
    for name in ("governor", *MODES):
        mean_h = sum(hours[name]) / len(hours[name])
        print(f"  {name:<18} {mean_h:>10.0f} {violations[name]:>12.0f}")
    mean_governor = sum(hours["governor"]) / len(hours["governor"])
    mean_best = sum(hours[best]) / len(hours[best])
    print(f"governor vs best admissible static ({best}): "
          f"{mean_governor / mean_best:.2f}x lifetime")


if __name__ == "__main__":
    main()

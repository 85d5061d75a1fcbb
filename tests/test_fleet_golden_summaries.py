"""Golden fleet summaries: pin `FleetSummary` values, not only equality.

Every byte-equivalence leg compares one runtime with another (sharded
against in-process, replayed against live, ...), and all of them fold
through the same `fleet_summary`.  A fold bug that moved every runtime
the same way would pass all of them.  This harness pins the summary
*values* of three small in-process `FleetScheduler` runs against a
committed table (``tests/golden/fleet_summaries.json``):

* ``plain-dropping``: a plain cohort behind a two-packet gateway queue
  with a one-packet drain budget, so the queue drops packets;
* ``governed-small-cell``: every node governed on a 0.05 mAh cell (the
  scenario campaign's default), so batteries drain and modes switch;
* ``governed-raw``: every node governed from raw mode on a full cell.

Integers, booleans and strings must match exactly.  Floats match to
``rel=1e-9``: FISTA's matrix products run on BLAS kernels picked per
CPU, so no float is bit-stable across machines.  The exact byte check
of a change is a ``sha256(to_json())`` run of both trees on one host.

Regenerate after an *intentional* change to the summary with::

    PYTHONPATH=src python tests/test_fleet_golden_summaries.py --regenerate

and review the diff of the JSON like any other code change.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.fleet import (
    CohortConfig,
    FleetScheduler,
    Gateway,
    GatewayConfig,
    NodeProxyConfig,
    SchedulerConfig,
    make_cohort,
)
from repro.power import (
    Battery,
    BatteryModel,
    EnergyGovernor,
    GovernorConfig,
    MODE_RAW,
    ModePowerTable,
)

GOLDEN_PATH = Path(__file__).parent / "golden" / "fleet_summaries.json"

COHORT = make_cohort(CohortConfig(n_patients=3, seed=5))
DURATION_S = 120.0
PERIOD_S = 20.0


#: Starting state of charge per patient: staggered, so the cohort does
#: not switch modes in lockstep.
START_SOC = {p.patient_id: 0.9 - 0.1 * i for i, p in enumerate(COHORT)}


def _small_cell_governor(profile) -> EnergyGovernor:
    """A governor on the campaign's 0.05 mAh cell."""
    return EnergyGovernor(
        config=GovernorConfig(min_dwell_s=0.0), table=ModePowerTable(),
        battery=BatteryModel(cell=Battery(capacity_mah=0.05),
                             soc=START_SOC[profile.patient_id]))


def _raw_governor(_profile) -> EnergyGovernor:
    """A governor that starts, and on a full cell stays, in raw mode."""
    return EnergyGovernor(mode=MODE_RAW)


#: Leg name -> (queue capacity, drain budget, governor factory).
LEGS = {
    "plain-dropping": (2, 1, None),
    "governed-small-cell": (4096, None, _small_cell_governor),
    "governed-raw": (4096, None, _raw_governor),
}


def run_leg(name: str, detector):
    """One leg's in-process fleet report."""
    queue_capacity, budget, factory = LEGS[name]
    return FleetScheduler(
        COHORT,
        SchedulerConfig(duration_s=DURATION_S, drain_per_tick=budget),
        node_config=NodeProxyConfig(excerpt_period_s=PERIOD_S,
                                    stream_telemetry=False),
        gateway=Gateway(GatewayConfig(n_iter=40,
                                      queue_capacity=queue_capacity)),
        af_detector=detector,
        governor_factory=factory).run()


def check_precondition(name: str, summary: dict) -> None:
    """What makes each leg worth pinning."""
    if name == "plain-dropping":
        assert not summary["governed"]
        assert summary["dropped_packets"] > 0
    elif name == "governed-small-cell":
        assert summary["governed"]
        assert summary["governor_switches"] > 0
    else:
        assert summary["governed"]
        assert summary["mode_seconds"][MODE_RAW] > 0
    assert summary["node_alarms"] > 0


def assert_matches(actual, expected, path: str = "summary") -> None:
    """Exact on ints, bools, strings and None; ``rel=1e-9`` on floats."""
    if isinstance(expected, dict):
        assert isinstance(actual, dict), path
        assert sorted(actual) == sorted(expected), path
        for key in expected:
            assert_matches(actual[key], expected[key], f"{path}.{key}")
    elif isinstance(expected, float):
        assert isinstance(actual, float), (path, actual)
        assert actual == pytest.approx(expected, rel=1e-9), (
            path, actual, expected)
    else:
        assert type(actual) is type(expected), (path, actual, expected)
        assert actual == expected, (path, actual, expected)


@pytest.fixture(scope="module")
def golden() -> dict:
    if not GOLDEN_PATH.exists():  # pragma: no cover - repo invariant
        pytest.fail(f"golden fixture missing: {GOLDEN_PATH}; "
                    "regenerate with --regenerate (see module docstring)")
    return json.loads(GOLDEN_PATH.read_text())


class TestGoldenFleetSummaries:
    def test_every_leg_pinned(self, golden):
        assert sorted(golden) == sorted(LEGS)

    @pytest.mark.parametrize("name", sorted(LEGS))
    def test_golden_precondition(self, golden, name):
        check_precondition(name, golden[name])

    @pytest.mark.parametrize("name", sorted(LEGS))
    def test_summary_matches_golden(self, golden, name,
                                    trained_af_detector):
        summary = run_leg(name, trained_af_detector).summary.to_dict()
        check_precondition(name, summary)
        assert_matches(summary, golden[name])


def _regenerate() -> None:  # pragma: no cover - manual tool
    from repro.classification import AfDetector
    from repro.signals import make_corpus

    print("training AF detector (fixed corpus, seed 1) ...")
    detector = AfDetector().fit(
        list(make_corpus("af_mix", n_records=3, duration_s=120.0,
                         seed=1)))
    table = {}
    for name in sorted(LEGS):
        table[name] = run_leg(name, detector).summary.to_dict()
        check_precondition(name, table[name])
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(table, indent=2, sort_keys=True)
                           + "\n")
    print(f"wrote {GOLDEN_PATH}")
    for name, entry in table.items():
        print(f"  {name}: {entry['dropped_packets']} dropped, "
              f"{entry['governor_switches']} switches, "
              f"{entry['node_alarms']} node alarms")


if __name__ == "__main__":  # pragma: no cover - manual tool
    import sys

    if "--regenerate" in sys.argv:
        _regenerate()
    else:
        print(__doc__)

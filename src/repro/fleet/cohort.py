"""Heterogeneous virtual-patient cohorts.

A fleet simulation needs a population, not a record: patients differ in
rhythm (sinus, ectopy, persistent or paroxysmal AF), heart rate, noise
environment (resting vs. ambulatory) and hardware (1- or 3-lead nodes).
:func:`make_cohort` draws such a population reproducibly — every patient
gets a deterministic seed derived from the cohort master seed, so the
same configuration always yields the same fleet, record for record.

Synthesis reuses :mod:`repro.signals` unchanged: a profile maps to a
:class:`~repro.signals.RecordSpec` and single-/dual-lead patients keep a
lead subset of the standard 3-lead projection (lead II first, the
morphology every downstream consumer prefers).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..signals.dataset import RecordSpec, make_record
from ..signals.types import MultiLeadEcg

#: Rhythm kinds a profile may carry (``ectopy`` is sinus + PVC/APC).
RHYTHM_KINDS = ("nsr", "ectopy", "af", "paroxysmal_af")

#: Lead rows kept per node lead count (indices into the standard 3-lead
#: set).  Orderings preserve the repo-wide convention that lead index
#: ``min(1, n_leads - 1)`` is lead II, the delineation morphology.
_LEAD_SUBSETS = {1: (1,), 2: (0, 1), 3: (0, 1, 2)}


@dataclass(frozen=True)
class PatientProfile:
    """One virtual patient and the node strapped to them.

    Attributes:
        patient_id: Unique identifier within the cohort.
        rhythm: One of :data:`RHYTHM_KINDS`.
        mean_hr_bpm: Baseline heart rate.
        snr_db: Acquisition noise level (``None`` = clean).
        ambulatory: Use the motion-heavy noise mix.
        n_leads: Leads acquired by this patient's node (1-3).
        af_burden: Fraction of time in AF (``paroxysmal_af`` only).
        pvc_fraction: PVC fraction (``ectopy`` only).
        apc_fraction: APC fraction (``ectopy`` only).
        seed: Deterministic per-patient seed.
        uplink_period_s: Optional per-node uplink period override in
            seconds (``None`` = the fleet-wide
            :attr:`~repro.fleet.NodeProxyConfig.excerpt_period_s`).
            Sparse delineation-only nodes set this much higher than
            the base period; the scheduler's event kernel then visits
            them only when they actually uplink, instead of every
            tick.
    """

    patient_id: str
    rhythm: str = "nsr"
    mean_hr_bpm: float = 70.0
    snr_db: float | None = 20.0
    ambulatory: bool = False
    n_leads: int = 3
    af_burden: float = 0.4
    pvc_fraction: float = 0.0
    apc_fraction: float = 0.0
    seed: int = 0
    uplink_period_s: float | None = None

    def __post_init__(self) -> None:
        if self.rhythm not in RHYTHM_KINDS:
            raise ValueError(f"unknown rhythm kind {self.rhythm!r}")
        if self.n_leads not in _LEAD_SUBSETS:
            raise ValueError("n_leads must be 1, 2 or 3")
        if self.uplink_period_s is not None \
                and not self.uplink_period_s > 0:
            raise ValueError("uplink_period_s must be positive")

    def record_spec(self, duration_s: float) -> RecordSpec:
        """The :class:`RecordSpec` synthesizing this patient's ECG."""
        rhythm = "nsr" if self.rhythm == "ectopy" else self.rhythm
        return RecordSpec(
            name=self.patient_id,
            duration_s=duration_s,
            rhythm=rhythm,
            mean_hr_bpm=self.mean_hr_bpm,
            pvc_fraction=self.pvc_fraction if self.rhythm == "ectopy" else 0.0,
            apc_fraction=self.apc_fraction if self.rhythm == "ectopy" else 0.0,
            af_burden=self.af_burden,
            snr_db=self.snr_db,
            ambulatory=self.ambulatory,
            seed=self.seed,
        )


def check_unique_ids(cohort: list[PatientProfile]) -> None:
    """Raise ``ValueError`` naming the first patient id listed twice.

    Channels, triage machines and rows are keyed by patient id, so a
    repeated id would merge two nodes into one patient.
    """
    seen: set[str] = set()
    for pid in (profile.patient_id for profile in cohort):
        if pid in seen:
            raise ValueError(f"patient id {pid!r} appears twice in the cohort")
        seen.add(pid)


def synthesize_patient(profile: PatientProfile, duration_s: float = 60.0,
                       fs: float = 250.0) -> MultiLeadEcg:
    """Synthesize one patient's annotated recording.

    The full 3-lead record is rendered, then the profile's lead subset is
    kept — wave timing is identical across leads by construction, so the
    shared annotations stay valid.  Single-lead nodes keep lead II, and
    every subset preserves the convention that lead index
    ``min(1, n_leads - 1)`` carries the lead II morphology.
    """
    record = make_record(profile.record_spec(duration_s), fs=fs)
    subset = _LEAD_SUBSETS[profile.n_leads]
    return MultiLeadEcg(
        fs=record.fs,
        signals=record.signals[list(subset)].copy(),
        beats=record.beats,
        lead_names=tuple(record.lead_names[i] for i in subset),
        name=record.name,
    )


@dataclass(frozen=True)
class CohortConfig:
    """Population mix of a cohort.

    Fractions are expected proportions of each archetype; the remainder
    after AF / paroxysmal AF / ectopy is plain sinus rhythm.

    Attributes:
        n_patients: Cohort size.
        seed: Master seed; per-patient seeds derive from it.
        af_fraction: Persistent-AF patients.
        paroxysmal_fraction: Paroxysmal-AF patients.
        ectopy_fraction: Sinus patients with PVC/APC ectopy.
        single_lead_fraction: Patients wearing a 1-lead node.
        ambulatory_fraction: Patients in the ambulatory noise mix.
        clean_fraction: Patients with noise-free acquisition (bench
            nodes; their alarms must survive the gateway unchanged).
    """

    n_patients: int = 50
    seed: int = 2014
    af_fraction: float = 0.15
    paroxysmal_fraction: float = 0.20
    ectopy_fraction: float = 0.20
    single_lead_fraction: float = 0.25
    ambulatory_fraction: float = 0.30
    clean_fraction: float = 0.10

    def __post_init__(self) -> None:
        if self.n_patients < 1:
            raise ValueError("need at least one patient")
        mix = self.af_fraction + self.paroxysmal_fraction + self.ectopy_fraction
        if mix > 1.0:
            raise ValueError("rhythm fractions must sum to at most 1")


def make_cohort(config: CohortConfig | None = None,
                n_patients: int | None = None,
                seed: int | None = None) -> list[PatientProfile]:
    """Draw a reproducible heterogeneous cohort.

    Args:
        config: Full population mix (defaults used if omitted).
        n_patients: Shorthand override of ``config.n_patients``.
        seed: Shorthand override of ``config.seed``.

    Returns:
        ``config.n_patients`` profiles with deterministic per-patient
        seeds: the same arguments always produce the same cohort.
    """
    config = config or CohortConfig()
    overrides = {}
    if n_patients is not None:
        overrides["n_patients"] = n_patients
    if seed is not None:
        overrides["seed"] = seed
    if overrides:
        config = replace(config, **overrides)
    rng = np.random.default_rng(config.seed)
    profiles: list[PatientProfile] = []
    for i in range(config.n_patients):
        draw = rng.random()
        if draw < config.af_fraction:
            rhythm = "af"
        elif draw < config.af_fraction + config.paroxysmal_fraction:
            rhythm = "paroxysmal_af"
        elif draw < (config.af_fraction + config.paroxysmal_fraction
                     + config.ectopy_fraction):
            rhythm = "ectopy"
        else:
            rhythm = "nsr"
        clean = rng.random() < config.clean_fraction
        ambulatory = (not clean) and rng.random() < config.ambulatory_fraction
        if clean:
            snr: float | None = None
        else:
            snr = float(rng.uniform(12.0, 18.0) if ambulatory
                        else rng.uniform(18.0, 28.0))
        profiles.append(PatientProfile(
            patient_id=f"p{i:04d}",
            rhythm=rhythm,
            mean_hr_bpm=float(rng.uniform(55.0, 95.0)),
            snr_db=snr,
            ambulatory=ambulatory,
            n_leads=1 if rng.random() < config.single_lead_fraction else 3,
            af_burden=float(rng.uniform(0.25, 0.6)),
            pvc_fraction=0.10,
            apc_fraction=0.06,
            seed=int(rng.integers(0, 2 ** 31)),
        ))
    return profiles

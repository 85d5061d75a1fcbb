"""Unified performance harness: one registry, one runner, one artifact.

Every figure/table benchmark and every systems benchmark (fleet
throughput, scenario campaign, ...) is defined once, as a registered
:class:`BenchCase` that carries its shape checks, and driven by one
:class:`BenchRunner` with warmup+repeat timing and fixed seeds
(``benchmarks/test_cases.py`` runs the same cases under pytest).  The
runner emits a single schema-versioned ``BENCH_<rev>.json`` — per-case
wall time, throughput (samples/s, patients/s), peak RSS and pass/fail
against the committed baselines in ``benchmarks/baselines.json`` —
plus a human-readable table::

    PYTHONPATH=src python -m repro.bench --quick

The paper argues in budgets (pJ/cycle per operation, bits per heartbeat
on the air); this module gives the *software* reproduction the same
discipline: a machine-readable performance trajectory, regressed in CI.
"""

from .registry import BenchCase, BenchContext, all_cases, get_case, register
from .runner import (
    BenchReport,
    BenchRunner,
    load_baselines,
    resolve_revision,
    write_baselines,
)
from .schema import BENCH_SCHEMA, BenchSchemaError, validate_report

__all__ = [
    "BENCH_SCHEMA",
    "BenchCase",
    "BenchContext",
    "BenchReport",
    "BenchRunner",
    "BenchSchemaError",
    "all_cases",
    "get_case",
    "load_baselines",
    "register",
    "resolve_revision",
    "validate_report",
    "write_baselines",
]

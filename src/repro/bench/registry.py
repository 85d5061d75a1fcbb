"""BenchCase registry: every benchmark behind one callable API.

A case is a plain function ``workload(ctx) -> dict`` registered with
:func:`register`.  The returned dict carries the case's *work counts*
under the reserved keys ``samples`` and ``patients`` (used by the runner
to derive throughput) plus any case-specific quality metrics (SNR,
sensitivity, ...), all JSON-scalar.

A workload raises ``AssertionError`` when the shape it checks breaks
(see :mod:`repro.bench.cases`), so one definition serves the CLI grid
and ``benchmarks/test_cases.py``, which runs every case at full size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints only
    from ..obs import Observability

#: Reserved workload-result keys the runner turns into throughput.
COUNT_KEYS = ("samples", "patients")


@dataclass(frozen=True)
class BenchContext:
    """Execution context handed to every workload.

    Attributes:
        quick: CI-sized workload (seconds) instead of the full one.
        seed: Base seed; workloads must derive all randomness from it
            so repeated runs time identical work.
        obs: Optional shared :class:`~repro.obs.Observability` bundle
            (the ``--obs`` CLI flag); workloads that drive the fleet
            stack may thread it through so the emitted report can
            attach a metrics snapshot.  ``None`` in plain runs.
        profiled: This invocation runs under cProfile (the runner's
            extra untimed pass).  Wall-clock is distorted by tracing
            overhead, so workloads must skip internal timing
            assertions when set.
    """

    quick: bool = False
    seed: int = 2014
    obs: "Observability | None" = None
    profiled: bool = False


@dataclass(frozen=True)
class BenchCase:
    """One registered benchmark.

    Attributes:
        name: Stable kebab-case identifier (key in baselines.json).
        summary: One-line description for the report table.
        workload: ``fn(ctx) -> dict`` — runs the benchmark once and
            returns counts + metrics (see module docstring).
        tags: Free-form grouping labels (``"figure"``, ``"table"``,
            ``"systems"``).
    """

    name: str
    summary: str
    workload: Callable[[BenchContext], dict]
    tags: tuple[str, ...] = field(default_factory=tuple)


_REGISTRY: dict[str, BenchCase] = {}


def register(name: str, summary: str,
             tags: tuple[str, ...] = ()) -> Callable:
    """Decorator registering one workload function as a bench case."""

    def wrap(fn: Callable[[BenchContext], dict]) -> Callable:
        if name in _REGISTRY:
            raise ValueError(f"bench case {name!r} already registered")
        _REGISTRY[name] = BenchCase(name=name, summary=summary,
                                    workload=fn, tags=tuple(tags))
        return fn

    return wrap


def all_cases() -> dict[str, BenchCase]:
    """Name -> case for every registered benchmark (discovery import)."""
    from . import cases  # noqa: F401  (import populates the registry)

    return dict(_REGISTRY)


def get_case(name: str) -> BenchCase:
    """Look one case up by name.

    Raises:
        KeyError: Unknown case name (message lists what exists).
    """
    cases = all_cases()
    if name not in cases:
        known = ", ".join(sorted(cases))
        raise KeyError(f"unknown bench case {name!r}; known: {known}")
    return cases[name]

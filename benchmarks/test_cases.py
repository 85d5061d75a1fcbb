"""Every registered ``repro.bench`` case at full size, under pytest.

The cases in ``repro.bench.cases`` are the only definition of each
paper figure/table and fleet benchmark: workload, sizes and shape
checks.  Each test runs one case once at full size
(``BenchContext()``); a broken shape raises ``AssertionError`` inside
the workload and fails the test.  ``-s`` prints the metrics the case
returns, the same ones ``BENCH_<rev>.json`` records::

    PYTHONPATH=src python -m pytest benchmarks/ --benchmark-only -s
    PYTHONPATH=src python -m pytest benchmarks/ -k fleet-throughput-sharded
"""

from __future__ import annotations

import pytest

from repro.bench import BenchContext, all_cases

CASES = all_cases()


@pytest.mark.parametrize("name", sorted(CASES))
def test_case(benchmark, name):
    case = CASES[name]
    metrics = benchmark.pedantic(case.workload, args=(BenchContext(),),
                                 rounds=1, iterations=1)
    print(f"\n=== {name}: {case.summary} ===")
    for key, value in metrics.items():
        print(f"  {key:<40} {value}")

"""Machine-independent performance gates (see ``docs/PERFORMANCE.md``)."""

from repro.bench.core import (
    BATCH_SPEEDUP_FLOOR,
    BENCH_SCHEMA,
    batch_comparison,
    check_regression,
    reference_comparison,
    run_bench,
)

__all__ = [
    "BATCH_SPEEDUP_FLOOR",
    "BENCH_SCHEMA",
    "batch_comparison",
    "check_regression",
    "reference_comparison",
    "run_bench",
]

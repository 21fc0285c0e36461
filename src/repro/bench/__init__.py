"""Benchmark harness shared by the per-figure benches in benchmarks/."""

from repro.bench.harness import (
    BenchRow,
    make_fastver,
    op_count,
    print_table,
    run_baseline,
    scale_factor,
    scaled,
)

__all__ = [
    "BenchRow",
    "make_fastver",
    "op_count",
    "print_table",
    "run_baseline",
    "scale_factor",
    "scaled",
]

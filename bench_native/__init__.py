"""bench_native: the wall-clock benchmark of the FastVer reproduction.

Five workloads, twelve end-to-end metrics and a per-layer ledger, all
measured from outside the program by timing calls into its public
functions. ``BENCHMARK.json`` at the repository root is the contract;
``README.md`` beside this file says why each workload exists and how to
read the numbers.

Importing this package imports nothing from ``repro``: ``setup_s`` is
timed from just before that import, so only :mod:`bench_native.drive`
(and :mod:`bench_native.layers`, for traced runs) touch it.
"""

from __future__ import annotations

import sys
from pathlib import Path

#: The checkout root: the directory that holds ``BENCHMARK.json``.
ROOT = Path(__file__).resolve().parent.parent
#: Where traces, result sets and profiles are written (git-ignored).
OUT_DIR = Path(__file__).resolve().parent / "out"


def require_program() -> None:
    """Put ``src/`` on ``sys.path``; exit non-zero when the program under
    test is not in this checkout (the benchmark measures nothing then)."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"bench_native: no program to measure: {src}/repro is missing")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))

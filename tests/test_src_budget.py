"""`src/` size is a tracked metric (ROADMAP aim 2), not an assertion in
prose: a PR that grows `src/` past the ceiling, or pushes another file
over 850 lines, has to edit this file — which makes the growth a
reviewed line in its diff rather than a side effect."""

from __future__ import annotations

from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: Total lines of `src/**/*.py` as of the last PR that touched this file.
SRC_LINES_CEILING = 18_334
#: The files over 850 lines (path under src/repro).
OVER_850 = {"core/fastver.py", "server/pipeline.py", "faults/chaos.py"}


def line_counts() -> dict[str, int]:
    return {str(path.relative_to(SRC / "repro")): len(path.read_text().splitlines())
            for path in SRC.rglob("*.py")}


def test_src_total_stays_under_the_ceiling():
    assert sum(line_counts().values()) <= SRC_LINES_CEILING


def test_large_files_are_exactly_the_known_set():
    assert {name for name, n in line_counts().items() if n > 850} == OVER_850

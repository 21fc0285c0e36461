"""`src/` size is a tracked metric (ROADMAP aim 2), not an assertion in
prose: a PR that grows `src/` past the ceiling, or pushes another file
over 850 lines, has to edit this file — which makes the growth a
reviewed line in its diff rather than a side effect.

The same goes for code nothing runs: every module, module-level function,
class and method under `src/repro` must be referenced from somewhere other
than its own definition and its package's `__init__` re-exports — another
`src/` file, `benchmarks/`, `bench_native/` or `examples/`. Tests and docs
do not count. What stays unreferenced on purpose is listed, with why, in
:data:`UNREFERENCED_ALLOWED`.
"""

from __future__ import annotations

import ast
import functools
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
#: Trees whose references count, besides `src/` itself.
CONSUMERS = ("benchmarks", "bench_native", "examples")

#: Total lines of `src/**/*.py` as of the last PR that touched this file.
SRC_LINES_CEILING = 17_724
#: The files over 850 lines (path under src/repro).
OVER_850 = {"core/fastver.py", "server/pipeline.py", "faults/chaos.py"}

#: Definitions (dotted, under `repro.`) that nothing references, and why
#: each stays.
UNREFERENCED_ALLOWED = {
    "spec.model": "the executable spec: tests compare the verifier to it",
    "core.fastver.FastVer.rebalance_partitions":
        "§6.2 partition rebalancing; the grow_then_rebalance tier-map pin runs it",
    "merkle.sparse.check_invariants":
        "structural oracle that the Merkle tests assert after every mutation",
    "workloads.ycsb.run_workload":
        "the one-call YCSB driver the workload tests run against FastVer",
    "adversary.host.forge_receipt_payload":
        "receipt-forgery attack the receipt tests stage by hand",
    "obs.trace.SpanQueries.traces":
        "trace ids a ring or spool holds; replay-fidelity tests compare the two by it",
    "store.faster.FasterKV.delete":
        "FASTER's tombstone delete (FastVer deletes with a null value); store tests use it",
}


def line_counts() -> dict[str, int]:
    return {str(path.relative_to(SRC / "repro")): len(path.read_text().splitlines())
            for path in SRC.rglob("*.py")}


def test_src_total_stays_under_the_ceiling():
    assert sum(line_counts().values()) <= SRC_LINES_CEILING


def test_large_files_are_exactly_the_known_set():
    assert {name for name, n in line_counts().items() if n > 850} == OVER_850


# ---------------------------------------------------------------------------
# The unreferenced-code gate
# ---------------------------------------------------------------------------
def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _module_name(path: Path) -> str:
    """`repro.x.y` for src/repro/x/y.py, `repro.x` for its `__init__`."""
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _is_reexport(node: ast.AST) -> bool:
    """An import or `__all__` in a package `__init__` (a re-export)."""
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return True
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)


def _names_a_path(text: str) -> bool:
    """A string that is itself a name, a dotted path or a `module:attr`
    target (prose strings and docstrings name nothing)."""
    return re.fullmatch(r"[\w.:]+", text) is not None


def _references(tree: ast.Module, skip_reexports: bool):
    """(token, line) for every identifier, imported name and name-like
    string in ``tree``, and the set of modules it imports or names."""
    tokens: list[tuple[str, int]] = []
    modules: set[str] = set()
    for root in tree.body:
        if skip_reexports and _is_reexport(root):
            continue
        for node in ast.walk(root):
            line = getattr(node, "lineno", 0)
            if isinstance(node, ast.Name):
                tokens.append((node.id, line))
            elif isinstance(node, ast.Attribute):
                tokens.append((node.attr, line))
            elif isinstance(node, ast.Import):
                modules.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                modules.add(node.module)
                for alias in node.names:
                    modules.add(f"{node.module}.{alias.name}")
                    tokens.append((alias.name, line))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and _names_a_path(node.value):
                tokens.extend((word, line) for word in re.split(r"[.:]", node.value))
                modules.add(node.value.partition(":")[0])
    return tokens, modules


def _definitions(tree: ast.Module, module: str):
    """(dotted name, bare name, first line, last line) of every module-level
    function and class and every method, dunders skipped."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)) or _dunder(node.name):
            continue
        yield f"{module}.{node.name}", node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and not _dunder(member.name):
                    yield (f"{module}.{node.name}.{member.name}", member.name,
                           member.lineno, member.end_lineno)


@functools.cache
def unreferenced() -> frozenset[str]:
    """Dotted names (without the `repro.` prefix) that nothing references."""
    trees = {path: ast.parse(path.read_text(), str(path))
             for path in sorted(PACKAGE.rglob("*.py"))}
    consumers = [path for name in CONSUMERS
                 for path in sorted((ROOT / name).rglob("*.py"))]
    where: dict[str, set[tuple[Path, int]]] = {}  # token -> (file, line)s
    imported: set[str] = set()
    for path in [*trees, *consumers]:
        tree = trees.get(path) or ast.parse(path.read_text(), str(path))
        tokens, modules = _references(tree, path.name == "__init__.py"
                                      and path in trees)
        for token, line in tokens:
            where.setdefault(token, set()).add((path, line))
        imported |= modules

    found: set[str] = set()
    for path, tree in trees.items():
        module = _module_name(path)
        dead: set[str] = set()
        used_elsewhere = module in imported  # by path, not via its __init__
        for dotted, name, first, last in _definitions(tree, module):
            sites = where.get(name, ())
            if not any(p != path or not first <= n <= last for p, n in sites):
                dead.add(dotted.removeprefix("repro."))
            if dotted.count(".") == module.count(".") + 1:  # top level
                used_elsewhere = used_elsewhere or any(p != path for p, _ in sites)
        if used_elsewhere or path.name == "__init__.py" or _dunder(path.stem):
            found |= dead
        else:
            found.add(module.removeprefix("repro."))  # its members go with it
    return frozenset(found)


def test_every_definition_in_src_is_referenced():
    """A definition that only tests reach is dead weight in `src/`: delete
    it (and its tests), give it a caller, or list it with a reason."""
    unlisted = sorted(unreferenced() - UNREFERENCED_ALLOWED.keys())
    assert not unlisted, f"nothing in src/ or its consumers references {unlisted}"


def test_allowlist_has_no_stale_entries():
    stale = sorted(UNREFERENCED_ALLOWED.keys() - unreferenced())
    assert not stale, f"referenced now, drop from UNREFERENCED_ALLOWED: {stale}"

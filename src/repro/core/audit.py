"""Host-side consistency auditing (diagnostics, not security).

The host's bookkeeping — aux words, the deferred index, the cache-location
map, mirror contents — is all untrusted: corrupting it can never fool the
verifier. But a *buggy* host corrupts availability (spurious integrity
alarms, stuck records), so a production deployment wants an invariant
checker. :func:`audit` validates every cross-structure invariant the
FastVer driver maintains and reports violations; the test suite runs it
after randomized schedules as a regression net for driver bugs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.fastver import FastVer
from repro.core.hostmirror import host_value_hash
from repro.core.keys import BitKey
from repro.core.records import Aux, MerkleValue


@dataclass
class AuditReport:
    """Outcome of one audit pass."""

    records: int = 0
    cached: int = 0
    deferred: int = 0
    merkle: int = 0
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def audit(db: FastVer) -> AuditReport:
    """Check all host-side invariants; never mutates anything."""
    report = AuditReport()
    width = db.config.key_width

    # 1. For every record, the tier map, the aux word and the mirrors
    #    name the same tier (and the same write-set entry within it).
    stored = set()
    for key, value, aux_word in db.store.items():
        report.records += 1
        stored.add(key)
        aux = Aux.unpack(aux_word)
        tier = db.tier_of(key)
        setattr(report, tier, getattr(report, tier) + 1)
        if tier != aux.state.name.lower():
            report.violations.append(
                f"{key!r} is in the {tier} tier but aux says {aux.state.name}")
        elif tier == "deferred" and \
                db.deferred_index[key] != (aux.timestamp, aux.epoch):
            report.violations.append(
                f"{key!r} aux {aux!r} disagrees with deferred index "
                f"{db.deferred_index[key]}")

    # 2. Dangling index entries.
    for key in sorted(set(db.deferred_index) - stored):
        report.violations.append(f"deferred index points at missing {key!r}")
    for key, vid in sorted(db.cached_where.items()):
        if key not in db.mirrors[vid].entries:
            report.violations.append(
                f"cached_where points at missing mirror entry {key!r}")

    # 3. Mirror internal invariants: children counts and parent links.
    for vid, mirror in enumerate(db.mirrors):
        counts: dict = {}
        for key, entry in mirror.entries.items():
            if entry.parent_key is not None and entry.via == "merkle":
                counts[entry.parent_key] = counts.get(entry.parent_key, 0) + 1
                if entry.parent_key not in mirror.entries:
                    report.violations.append(
                        f"mirror {vid}: {key!r} parent {entry.parent_key!r} "
                        f"not cached")
        for key, entry in mirror.entries.items():
            if entry.children_cached != counts.get(key, 0):
                report.violations.append(
                    f"mirror {vid}: {key!r} children_cached="
                    f"{entry.children_cached}, actual {counts.get(key, 0)}")

    # 4. Tree reachability and hash coherence among merkle-state records.
    #    (Hashes for deferred/cached children are legitimately stale, §4.3.1.)
    root = BitKey.root()
    root_value = db.host_value(root)
    stack = [(root, root_value)]
    seen = set()
    while stack:
        node, value = stack.pop()
        if node in seen:
            report.violations.append(f"tree cycle through {node!r}")
            break
        seen.add(node)
        if not isinstance(value, MerkleValue):
            continue
        for side in (0, 1):
            ptr = value.pointer(side)
            if ptr is None:
                continue
            child_value = db.host_value(ptr.key)
            if child_value is None:
                report.violations.append(f"dangling pointer to {ptr.key!r}")
                continue
            if db.tier_of(node) != "cached" and \
                    db.tier_of(ptr.key) == "merkle" and \
                    host_value_hash(child_value) != ptr.hash:
                report.violations.append(
                    f"stale hash for cold child {ptr.key!r} at {node!r}")
            if ptr.key.length < width:
                stack.append((ptr.key, child_value))

    return report

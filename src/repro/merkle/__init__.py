"""Sparse Merkle trees encoded as records."""

from repro.merkle.sparse import (
    ABSENT_NULL,
    ABSENT_SPLIT,
    FOUND,
    LookupResult,
    build_tree,
    check_invariants,
    lookup,
    merkle_parent_of,
    path_to_root,
)

__all__ = [
    "ABSENT_NULL",
    "ABSENT_SPLIT",
    "FOUND",
    "LookupResult",
    "build_tree",
    "check_invariants",
    "lookup",
    "merkle_parent_of",
    "path_to_root",
]

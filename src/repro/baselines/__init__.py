"""Baseline integrity systems the paper compares against (§3, §8.5)."""

from repro.baselines.deferred_only import DeferredProgram, DeferredStore
from repro.baselines.merkle_only import CachedMerkleStore, plain_merkle_store

__all__ = [
    "DeferredProgram",
    "DeferredStore",
    "CachedMerkleStore",
    "plain_merkle_store",
]

"""The FASTER-style untrusted host store substrate (§7).

Hash index over a hybrid-log allocator, atomic (value, aux) updates,
ordered scans, and CPR-style checkpoint/recovery. Single-threaded: FASTER's
epoch protection guards threads this store does not have. Everything in
this package is *untrusted* in FastVer's threat model.
"""

from repro.store.atomic import compare_and_swap_pair
from repro.store.checkpoint import CheckpointToken, recover, take_checkpoint
from repro.store.faster import FasterKV, KeyDirectory
from repro.store.hashindex import HashIndex
from repro.store.hybridlog import NULL_ADDRESS, HybridLog, LogDevice, LogRecord

__all__ = [
    "compare_and_swap_pair",
    "CheckpointToken",
    "recover",
    "take_checkpoint",
    "FasterKV",
    "KeyDirectory",
    "HashIndex",
    "NULL_ADDRESS",
    "HybridLog",
    "LogDevice",
    "LogRecord",
]

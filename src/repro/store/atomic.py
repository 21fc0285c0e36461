"""Atomic (value, aux) updates — the 128-bit CAS of §5.3 and §7.

FastVer's worker loop hinges on atomically swapping a record's value and
64-bit aux word together: for 8-byte values this is a hardware 128-bit CAS;
for larger values FASTER-style short-lived record mutexes are used. The
store is single-threaded, so the primitive is trivially atomic — but we
keep the CAS *shape*: callers pass the expected (value, aux) pair and the
update is refused if the record has moved on, so the
speculative-update-then-log protocol of §5.3 (Example 5.2) is exercised
for real.
"""

from __future__ import annotations

from repro.instrument import COUNTERS


def compare_and_swap_pair(record, expected_value, expected_aux: int,
                          new_value, new_aux: int) -> bool:
    """Atomically install (new_value, new_aux) iff the record still holds
    (expected_value, expected_aux). Returns success.

    ``record`` is any object with ``value`` and ``aux`` attributes (a
    :class:`~repro.store.hybridlog.LogRecord`).
    """
    COUNTERS.cas_attempts += 1
    if record.value != expected_value or record.aux != expected_aux:
        COUNTERS.cas_failures += 1
        return False
    record.value = new_value
    record.aux = new_aux
    return True

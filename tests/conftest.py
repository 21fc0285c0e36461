"""Shared fixtures for the FastVer reproduction test suite."""

from __future__ import annotations

import pytest

from repro import FastVer, FastVerConfig, new_client
from repro.instrument import COUNTERS


@pytest.fixture(autouse=True)
def _reset_counters():
    """Each test starts from zeroed global work counters."""
    COUNTERS.reset()
    yield
    COUNTERS.reset()


def small_fastver(n_records: int = 100, n_workers: int = 2,
                  partition_depth: int | None = 3, cache_capacity: int = 64,
                  key_width: int = 16, batch_ops: int | None = None,
                  **kwargs):
    """A small loaded FastVer plus a registered client (test workhorse)."""
    db = FastVer(
        FastVerConfig(key_width=key_width, n_workers=n_workers,
                      cache_capacity=cache_capacity,
                      partition_depth=partition_depth, batch_ops=batch_ops,
                      **kwargs),
        items=[(k, b"v%d" % k) for k in range(n_records)],
    )
    client = new_client(1)
    db.register_client(client)
    return db, client


def fresh_copy(page: bytes) -> bytes:
    """Equal bytes in a new object (``bytes(page)`` would return ``page``)."""
    return bytes(bytearray(page))


@pytest.fixture
def db_and_client():
    return small_fastver()

"""The examples are part of the deliverable: run each one and check its
observable claims (they double as end-to-end smoke tests)."""

from __future__ import annotations

import importlib
import sys

import pytest

sys.path.insert(0, ".")  # examples/ is not a package; import by path


def run_example(name: str, capsys) -> str:
    module = importlib.import_module(f"examples.{name}")
    module.main()
    return capsys.readouterr().out


class TestExamples:
    def test_quickstart(self, capsys):
        out = run_example("quickstart", capsys)
        assert "b'updated-by-alice'" in out
        assert "settled after verify()?  True" in out

    def test_password_vault(self, capsys):
        out = run_example("password_vault", capsys)
        assert "alice/correct-horse -> True" in out
        assert "alice/wrong-pass    -> False" in out
        assert "TAMPERING DETECTED" in out

    def test_bank_ledger(self, capsys):
        out = run_example("bank_ledger", capsys)
        assert "total money: 2000000 (expected 2000000)" in out
        assert "every transfer settled" in out

    def test_attack_gallery_all_detected(self, capsys):
        out = run_example("attack_gallery", capsys)
        assert "UNDETECTED" not in out
        # Every registered attack appears with a detector name.
        for attack in ("tamper_value", "tamper_timestamp",
                       "cross_mode_confusion", "skip_migration",
                       "duplicate_read_entry", "corrupt_merkle_pointer",
                       "rollback_record"):
            assert attack in out

    def test_crash_recovery(self, capsys):
        out = run_example("crash_recovery", capsys)
        assert "ROLLBACK DETECTED" in out
        assert "b'after-checkpoint'" in out
        # Reboot-mid-epoch: the epoch fails loudly, then recovery restores
        # full service.
        assert "rebooted mid-epoch" in out
        assert "reboot-mid-epoch recovered: get(2) -> b'post-recovery'" in out
        # Log-scan salvage of a rotten device page.
        assert "[salvage] skipped the rotten page" in out
        assert "!!" not in out

    def test_latency_budget(self, capsys):
        out = run_example("latency_budget", capsys)
        assert "budget" in out
        assert "decided the latency" in out

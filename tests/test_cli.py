"""Tests for the ``python -m repro`` command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import main


class TestCli:
    def test_demo_detects_tampering(self, capsys):
        assert main(["demo", "--records", "200"]) == 0
        out = capsys.readouterr().out
        assert "detected:" in out
        assert "epoch 0 verified" in out

    def test_ycsb_prints_metrics(self, capsys):
        code = main(["ycsb", "--records", "500", "--ops", "800",
                     "--workers", "2", "--verify-every", "400"])
        assert code == 0
        out = capsys.readouterr().out
        assert "throughput" in out
        assert "verification latency" in out
        assert "YCSB-A" in out

    def test_ycsb_workload_selection(self, capsys):
        code = main(["ycsb", "--workload", "C", "--records", "300",
                     "--ops", "300", "--theta", "0"])
        assert code == 0
        assert "YCSB-C" in capsys.readouterr().out

    def test_audit_clean(self, capsys):
        assert main(["audit", "--records", "200", "--ops", "400"]) == 0
        assert "all host invariants hold" in capsys.readouterr().out

    def test_metrics_json_checked(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "METRICS.json"
        code = main(["metrics", "--records", "120", "--ops", "300",
                     "--maintain-every", "100", "--format", "json",
                     "--check", "--out", str(out_path)])
        assert code == 0
        assert "payload check: ok" in capsys.readouterr().out
        payload = json.loads(out_path.read_text())
        assert payload["schema"] == "repro.metrics.v2"
        assert payload["latency"]["verified_latency"]["count"] == 300
        assert payload["attribution"]["consistent"]
        # v2 fields: spool stats, window metadata, exemplars, SLO.
        assert payload["trace"]["spool"]["appended"] > 0
        assert payload["windows"]["verified_latency"]["resets"] > 0
        assert payload["exemplar_digest"]
        assert payload["slo"]["epochs"] > 0
        assert set(payload["slo"]["objectives"]) == {
            "verified_latency_p99", "shed_rate",
            "settlement_overflow", "scrub_quarantine"}

    def test_obs_replay_and_slo_report(self, capsys, tmp_path):
        spool_dir = str(tmp_path / "spool")
        code = main(["chaos", "--seed", "7", "--ops", "400",
                     "--records", "120", "--topology", "server+slo",
                     "--spool-dir", spool_dir])
        assert code == 0
        out = capsys.readouterr().out
        assert "trace spool" in out and "replay ok" in out
        code = main(["obs", "replay", "--dir", spool_dir, "--existing",
                     "--find-lifecycle", "admit,receipt"])
        assert code == 0
        out = capsys.readouterr().out
        assert "replayed" in out and "lifecycle trace" in out
        code = main(["obs", "slo-report", "--topology", "server",
                     "--seed", "7", "--ops", "400", "--records", "120"])
        assert code == 0
        out = capsys.readouterr().out
        assert "slo report" in out and "exemplars retained" in out

    def test_metrics_text_report(self, capsys):
        code = main(["metrics", "--records", "120", "--ops", "200",
                     "--maintain-every", "100"])
        assert code == 0
        out = capsys.readouterr().out
        assert "verified_latency" in out
        assert "cost attribution" in out
        assert "crossings" in out

    def test_trace_find_lifecycle(self, capsys):
        code = main(["trace", "--topology", "batched+failover",
                     "--seed", "7", "--ops", "600", "--records", "200",
                     "--find-lifecycle",
                     "admit,stage,flush,fence,retry,receipt"])
        assert code == 0
        out = capsys.readouterr().out
        assert "lifecycle trace" in out
        assert "fence" in out and "retry" in out and "receipt" in out

    def test_trace_filter_no_match_fails(self, capsys):
        code = main(["trace", "--ops", "50", "--records", "50",
                     "--kind", "promote"])
        assert code == 1
        assert "no events matched" in capsys.readouterr().out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_no_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])

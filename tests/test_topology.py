"""`repro.topology`: the string form, the builder, and the digest pins.

The pin table holds one full chaos digest per deployment shape, recorded
at commit b8e41a0 — before the `Topology` refactor, through the seven
mode flags `run_chaos` took then. Every row must reproduce byte-for-byte
through every later change to how a stack is described or built; a
digest that moves is a defect, not a re-pin. CI's chaos job reads its
`batched` pin from this table too.
"""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.adversary.redteam import run_redteam
from repro.cli import main
from repro.faults.chaos import ChaosReport, run_chaos
from repro.topology import SERVING, Topology, build

#: (topology, seed, ops, records) -> ChaosReport.digest()
CHAOS_DIGESTS = {
    ("direct", 7, 300, 60):
        "50b5d033b13e21fdddc6adb8ef1c7a7e172acc96a6a285006f638d3f35520761",
    ("direct", 11, 300, 60):
        "96ca9163a59e1152dad35391277ed823b4a638f84657aab0c019557adfa3cd92",
    ("server", 7, 300, 60):
        "f55c7ff16eebfe62f0e4fc265ba12fb6fbf886c2a03d6b0a9933e6de56d505af",
    ("server", 11, 300, 60):
        "6a472b3af05ce192279662f9960fb9211d05fa06ee0fad03a9f72f1d9d6963cd",
    ("batched", 7, 300, 60):
        "cb538a28ec22b5eef1b99857ccb0a2966587a6e40d8170a2ef05ef4bbed7dd48",
    ("batched", 11, 300, 60):
        "4de90800030fc9713241d294d983776e56ed80b803e0765a2f313dfd8614174d",
    ("pipelined", 7, 300, 60):
        "f9b65471dcb401c7ea55fe262b84100a4792e1bb8ece4cfe817a935f3a54f0eb",
    ("pipelined", 11, 300, 60):
        "1b94a6da3d9d2ce3738e6fb27c85e8f2d6e9a2a7c0fb7bc8a6d33b0efb853007",
    ("failover", 7, 300, 60):
        "2605ee9c9a26ce889e4a77c40af953f9282996caa424572c835e7a72a9110d1d",
    ("failover", 11, 300, 60):
        "67b6e56d810655549a8dfdfdb684617813d9afaf77d53b7829b6f9fb1c3ebd9b",
    ("failover:3", 7, 300, 60):
        "d5c77dd3f02076922bfc0a03a940f9685f7ac400d9aacd53e3f8ea54ac7777b7",
    ("failover:3", 11, 300, 60):
        "609f32cf35a394f5180c6ae8bc8b2709e9de1887659feb4e54ecad9fb847bcd1",
    ("pipelined+failover", 7, 300, 60):
        "12a702609665033d431ef9da6577eb779f9f7f15a79d96b3b0eac1ec4803a77d",
    ("pipelined+failover", 11, 300, 60):
        "31820f8ab2e154905fa866d3c658ed014fee3847a8c9178d4ee2d83701c05bd9",
    ("scrub", 7, 300, 60):
        "8470e0a95b444c36a38442f97a6033b238247d3e32c18252f221362af3c1a4c1",
    ("scrub", 11, 300, 60):
        "fef71e341e8d58707cb0d711f8c376c75409df4be8747123afde15932a7322c2",
    ("server+scrub", 7, 300, 60):
        "cd4ba25db4bc0997928676712f2488a004d6381cb557ed754f098dbd5879799f",
    ("server+scrub", 11, 300, 60):
        "07bdea87647d1af351aba6e80f1b67ea38d204559e06df2259de090cc455f46c",
    ("server+slo", 7, 300, 60):
        "6e1cfdd861069dc600f65caa471758011205675fe59719366118f19336ae844d",
    ("server+slo", 11, 300, 60):
        "b74eee81139d56a544a147757295c42aab04252bb8ee6291d6b301589623fb7c",
    # The three synchronous group-commit pins tests/test_pipelined.py
    # carried as LEGACY_DIGESTS since the pipelined pump landed.
    ("batched", 7, 600, 200):
        "a577d0567dcac45e29a933854bf4766b030c996470a671326f21a3a13cecdcce",
    ("batched+failover", 7, 600, 200):
        "46d5dbbd1320577966e9614a6ed3d0124f533c6d7faed2be306e80594279197c",
    ("batched", 11, 400, 120):
        "f5f91227fbf8a4bbf056ab255c6eac3eb737c6737ba170fd13eb434131d626e3",
}

#: seed -> run_redteam(seed).digest(), full matrix, zero escapes.
REDTEAM_DIGESTS = {
    7: "1aa37623492f51a24a74412cc486b3464484f5c975ce33e1cd27982dc1859b9f",
}


class TestPins:
    @pytest.mark.parametrize("scenario", sorted(CHAOS_DIGESTS),
                             ids=lambda v: "-".join(map(str, v)))
    def test_chaos_digest(self, scenario):
        topology, seed, ops, records = scenario
        report = run_chaos(seed=seed, ops=ops, records=records,
                           topology=topology)
        assert report.ok
        assert report.digest() == CHAOS_DIGESTS[scenario]

    @pytest.mark.parametrize("seed", sorted(REDTEAM_DIGESTS))
    def test_redteam_digest(self, seed):
        report = run_redteam(seed=seed)
        assert report.escapes == 0
        assert report.digest() == REDTEAM_DIGESTS[seed]


class TestStringForm:
    @given(st.sampled_from(SERVING), st.integers(0, 40), st.booleans(),
           st.booleans())
    def test_parse_inverts_str(self, serving, standbys, scrub, slo):
        if serving == "direct" and standbys:
            with pytest.raises(ValueError):
                Topology(serving, standbys, scrub, slo)
            return
        t = Topology(serving, standbys, scrub, slo)
        assert Topology.parse(str(t)) == t

    @pytest.mark.parametrize("text,fields", [
        ("direct", ("direct", 0, False, False)),
        ("scrub", ("direct", 0, True, False)),
        ("failover", ("server", 1, False, False)),
        ("server+failover", ("server", 1, False, False)),
        ("failover:3+scrub", ("server", 3, True, False)),
        ("slo+pipelined+failover:2", ("pipelined", 2, False, True)),
    ])
    def test_shorthand_and_term_order(self, text, fields):
        assert Topology.parse(text) == Topology(*fields)

    @pytest.mark.parametrize("text", [
        "", "+", "server+", "turbo", "Server", "direct+failover",
        "failover:0", "failover:", "failover:x", "failover:-1", "direct:2",
        "server+batched", "scrub+scrub", "failover+failover:2",
        "pipelined+slo+slo",
    ])
    def test_unknown_or_contradictory_strings_raise(self, text):
        with pytest.raises(ValueError):
            Topology.parse(text)

    def test_constructor_rejects_what_parse_rejects(self):
        for bad in (("turbo",), ("direct", 1), ("server", -1)):
            with pytest.raises(ValueError):
                Topology(*bad)


#: The shapes CI soaks, the pin table keys on, and docs/PROTOCOL.md lists.
PRESETS = sorted({scenario[0] for scenario in CHAOS_DIGESTS}
                 | {"pipelined+slo", "failover:3+scrub"})


class TestBuild:
    @pytest.mark.parametrize("text", PRESETS)
    def test_every_preset_serves_and_closes_an_epoch(self, text):
        topology = Topology.parse(text)
        items = [(k, b"seed-%d" % k) for k in range(24)]
        stack = build(topology, items, seed=3, label="preset")
        assert (stack.server is not None) == topology.served
        assert (stack.sdk is not None) == topology.served
        assert stack.op(5).payload == b"seed-5"
        stack.op(5, b"written")
        assert stack.op(5).payload == b"written"
        before = stack.client.settled_epoch
        stack.close_epoch()
        assert stack.client.settled_epoch > before
        assert stack.now >= 0.0
        if topology.served:
            config = stack.server.config
            assert config.group_commit == topology.batched
            assert config.pipeline == (topology.serving == "pipelined")
            assert config.scrub_enabled == topology.scrub
            assert (config.slo is not None) == topology.slo
            group = stack.server.replication
            assert (len(group.standbys) if group else 0) == topology.standbys

    def test_server_overrides_and_conditional_slo(self):
        from repro.obs.slo import SloConfig
        tight = SloConfig(verified_p99_budget=1.0)
        items = [(k, b"v") for k in range(8)]
        plain = build(Topology("batched"), items, seed=1, label="x",
                      server={"max_batch_ops": 64, "slo": tight})
        assert plain.server.config.max_batch_ops == 64
        assert plain.server.config.slo is None
        armed = build(Topology("batched", slo=True), items, seed=1,
                      label="x", server={"slo": tight})
        assert armed.server.config.slo is tight


class TestCli:
    def test_json_carries_every_report_field_but_forensics(self, capsys):
        code = main(["chaos", "--seed", "7", "--ops", "200", "--records",
                     "60", "--topology", "server+scrub", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        fields = {f.name for f in dataclasses.fields(ChaosReport)}
        assert set(payload) == (fields - {"forensics"}) | {
            "digest", "ok", "mode"}
        assert payload["mode"] == "server+scrub"
        assert payload["scrub"] is True
        report = run_chaos(seed=7, ops=200, records=60,
                           topology="server+scrub")
        assert payload["digest"] == report.digest()

    @pytest.mark.parametrize("flag", [
        "--server", "--failover", "--batched", "--pipelined", "--scrub",
        "--obs", "--standbys"])
    @pytest.mark.parametrize("command", ["chaos", "trace", "obs"])
    def test_the_old_mode_flags_no_longer_parse(self, command, flag):
        argv = [command] + (["tail"] if command == "obs" else []) + [flag]
        with pytest.raises(SystemExit):
            main(argv + (["3"] if flag == "--standbys" else []))

    def test_contradictory_topology_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["chaos", "--topology", "direct+failover"])
        assert exc.value.code == 2
        assert "direct" in capsys.readouterr().err

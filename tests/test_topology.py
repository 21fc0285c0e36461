"""Topology pins: one table of full chaos digests per deployment shape.

Recorded at commit b8e41a0, before the `Topology` refactor, through the
seven mode flags `run_chaos` took then. Every row must reproduce
byte-for-byte through every later change to how a stack is described or
built; a digest that moves is a defect, not a re-pin.
"""

from __future__ import annotations

import pytest

from repro.adversary.redteam import run_redteam
from repro.faults.chaos import run_chaos

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

#: The flag spelling each topology string had when the table was cut.
_FLAGS_AT_B8E41A0 = {
    "direct": {},
    "server": {"server": True},
    "batched": {"batched": True},
    "pipelined": {"pipelined": True},
    "failover": {"failover": True},
    "failover:3": {"failover": True, "standbys": 3},
    "pipelined+failover": {"pipelined": True, "failover": True},
    "batched+failover": {"batched": True, "failover": True},
    "scrub": {"scrub": True},
    "server+scrub": {"server": True, "scrub": True},
    "server+slo": {"server": True, "obs": True},
}


class TestPinnedDigests:
    @pytest.mark.parametrize("scenario,digest", sorted(
        CHAOS_DIGESTS.items()), ids=lambda v: str(v))
    def test_chaos_digest_is_byte_identical(self, scenario, digest):
        topology, seed, ops, records = scenario
        report = run_chaos(seed=seed, ops=ops, records=records,
                           **_FLAGS_AT_B8E41A0[topology])
        assert report.ok
        assert report.digest() == digest

    @pytest.mark.parametrize("seed,digest", sorted(REDTEAM_DIGESTS.items()))
    def test_redteam_digest_is_byte_identical(self, seed, digest):
        report = run_redteam(seed=seed)
        assert report.escapes == 0
        assert report.digest() == digest

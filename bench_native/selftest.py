"""``python -m bench_native.selftest``: the benchmark checks itself.

* every name the benchmark prints is a name in BENCHMARK.json, with the
  same unit, and the other way round;
* every ``layers.TARGETS`` entry resolves on this commit, and wrapping
  them all and unwrapping again leaves the program as it was;
* the percentile helper and the self-time arithmetic give the right
  answers on inputs small enough to do by hand.

Exits non-zero on the first section that fails. Runs in about a second.
"""

from __future__ import annotations

import json
import sys

from bench_native import ROOT, require_program
from bench_native.layers import (PER_LAYER, TARGETS, SpanRecorder, resolve,
                                 self_times)
from bench_native.stats import (median, percentile, quiet_half,
                                quiet_median, spread)
from bench_native.workloads import END_TO_END, SEGMENTS, WORKLOADS

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    if not ok:
        failures.append(what)
        print(f"FAIL {what}")


def names_match_contract() -> None:
    with open(ROOT / "BENCHMARK.json") as f:
        contract = json.load(f)
    check([w["name"] for w in contract["workloads"]] == list(WORKLOADS),
          "BENCHMARK.json workloads == workloads.WORKLOADS, in order")
    for section, ours in (("end_to_end", END_TO_END),
                          ("per_layer", PER_LAYER)):
        theirs = {m["name"]: m["unit"] for m in contract[section]}
        for name in sorted(set(ours) ^ set(theirs)):
            check(False, f"{section} metric {name} is in only one of "
                         f"BENCHMARK.json and the benchmark")
        for name in sorted(set(ours) & set(theirs)):
            check(ours[name] == theirs[name],
                  f"{section} metric {name}: unit {ours[name]!r} printed, "
                  f"{theirs[name]!r} in BENCHMARK.json")
    check(all(0 < m["bound"] <= 0.25 for m in contract["end_to_end"]),
          "every bound in (0, 0.25]")
    check(contract["paths"] == ["bench_native"], "paths is bench_native")
    for w in WORKLOADS.values():
        check(w.entries % (SEGMENTS * w.epoch_entries) == 0,
              f"{w.name}: entries is a whole number of epochs per segment")


def targets_resolve() -> None:
    require_program()
    before = {}
    for _layer, target in TARGETS:
        try:
            owner, name, _value = resolve(target)
            before[target] = vars(owner).get(name)
        except (ImportError, AttributeError) as exc:
            check(False, f"target {target} resolves ({exc})")
    recorder = SpanRecorder(capacity=16)
    recorder.install()
    # value_hash calls hash_bytes through the copy core.records imported.
    from repro.core import records
    records.value_hash(records.DataValue(b"x"))
    recorder.uninstall()
    names = [TARGETS[recorder.target[i]][1] for i in range(recorder.n)]
    check(not recorder.unresolved, "install() resolved every target")
    check(names == ["repro.core.records:value_hash",
                    "repro.core.records:encode_value",
                    "repro.crypto.hashing:hash_bytes"]
          and list(recorder.parent[:3]) == [-1, 0, 0],
          f"a wrapped call recorded its nested spans, one through a "
          f"module alias: {names}")
    for target, raw in before.items():
        owner, name, _value = resolve(target)
        check(vars(owner).get(name) is raw,
              f"uninstall() restored {target}")


def percentile_helper() -> None:
    hundred = list(range(1, 101))
    check(percentile(hundred, 50) == 50, "p50 of 1..100 is 50")
    check(percentile(hundred, 99) == 99, "p99 of 1..100 is 99")
    check(percentile(hundred, 100) == 100, "p100 of 1..100 is 100")
    check(percentile([7], 99) == 7, "p99 of one sample is that sample")
    check(percentile([3, 1, 2], 50) == 2, "percentile sorts its input")
    check(sum(v > percentile(range(1000), 99) for v in range(1000)) == 10,
          "p99 of 1,000 samples leaves ten beyond it")
    check(median([1, 2, 3, 10]) == 2.5, "median of an even count")
    check(abs(spread([90, 95, 100, 105, 110, 90, 95, 100, 105, 110])
              - 0.125) < 1e-9, "spread = (q3 - q1) / median")
    check(quiet_half([5, 1, 4, 2, 3], lambda v: v) == [5, 4, 3],
          "quiet_half keeps the faster half, rounded up")
    check(quiet_median([9.0, 1.0, 2.0, 8.0]) == 1.5,
          "quiet_median is the median of the shorter half")
    try:
        percentile([], 50)
        check(False, "percentile of nothing raises")
    except ValueError:
        pass


def self_time_arithmetic() -> None:
    # root [0, 100) > a [10, 40) > c [15, 25); root > b [50, 90); a second
    # root d [200, 230) with no children.
    starts = [0, 10, 15, 50, 200]
    ends = [100, 40, 25, 90, 230]
    parents = [-1, 0, 1, 0, -1]
    durations = [e - s for s, e in zip(starts, ends)]
    own = self_times(durations, parents)
    check(own == [30, 20, 10, 40, 30], f"self times of the span tree: {own}")
    check(sum(own) == 100 + 30,
          "self times add up to the roots' durations")


def main() -> int:
    for section in (names_match_contract, targets_resolve, percentile_helper,
                    self_time_arithmetic):
        section()
        print(f"{'ok  ' if not failures else 'FAIL'} {section.__name__}")
        if failures:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

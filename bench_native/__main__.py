"""``python -m bench_native``: the benchmark's one command.

With ``--workload`` it is the benchmark contract's invocation (one
workload, time-boxed, one JSON object as the last line). Without, it
runs the whole suite at fixed op counts and prints every metric.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from bench_native import OUT_DIR, require_program, suite
from bench_native.workloads import WORKLOADS


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench_native",
                                     description=__doc__)
    parser.add_argument("--seed", type=int, default=1)
    contract = parser.add_argument_group("one workload (benchmark contract)")
    contract.add_argument("--workload", choices=list(WORKLOADS))
    contract.add_argument("--seconds", type=float, default=10.0)
    contract.add_argument("--trace", type=int, choices=(0, 1), default=0)
    whole = parser.add_argument_group("whole suite (fixed op counts)")
    whole.add_argument("--reps", type=int, default=3,
                       help="runs per workload, never below 3; raise to 5 "
                            "(not the op counts down) if two sets disagree")
    whole.add_argument("--smoke", action="store_true",
                       help="1/20 op counts, one traced run per workload: "
                            "schema and oracle only")
    whole.add_argument("--out", help="result-set file (default: "
                                     "bench_native/out/result-seed<N>.json)")
    other = parser.add_mutually_exclusive_group()
    other.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    other.add_argument("--check-deterministic", action="store_true")
    other.add_argument("--profile", action="store_true")
    args = parser.parse_args(argv)

    if args.compare:
        return suite.compare(*args.compare)
    require_program()
    if args.check_deterministic:
        return suite.check_deterministic(args.seed)
    if args.profile:
        return suite.profile(args.seed)
    if args.workload:
        print(json.dumps(suite.contract_run(
            args.workload, args.seed, args.seconds, bool(args.trace))))
        return 0
    if args.reps < 3 and not args.smoke:
        parser.error("--reps must be at least 3")
    out = args.out or OUT_DIR / f"result-seed{args.seed}.json"
    return suite.full_suite(args.seed, args.reps, args.smoke, Path(out))


if __name__ == "__main__":
    sys.exit(main())

"""One run of one workload in this process; prints one JSON object.

Every run the benchmark makes is a fresh ``python -m bench_native.worker``
subprocess, so ``setup_s`` includes the cold import and ``peak_rss_mb``
is this run's own.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from bench_native import OUT_DIR, require_program
from bench_native.workloads import WORKLOADS

def profile_by_module(profiler, wall_s: float) -> dict[str, float]:
    """cProfile ``tottime`` summed by ``src/repro/<module>`` file, as a
    share of the profiled wall — the number for leaf-heavy layers whose
    methods are too hot to wrap (``core.keys``, ``core.records``). Time
    inside a builtin (``sorted``, ``blake2b``) goes to the module that
    called it."""
    import pstats

    def module(function) -> str | None:
        filename = function[0]
        marker = filename.rfind("/repro/")
        if marker < 0 or not filename.endswith(".py"):
            return None
        return filename[marker + 7:-3].replace("/", ".")

    shares: dict[str, float] = {}

    def charge(name: str | None, seconds: float) -> None:
        name = name or "(other)"
        shares[name] = shares.get(name, 0.0) + seconds / wall_s

    for function, (_cc, _nc, tottime, _ct, callers) in \
            pstats.Stats(profiler).stats.items():
        if module(function) or not callers:
            charge(module(function), tottime)
        else:
            for caller, (_nc, _cc, caller_tottime, _ct) in callers.items():
                charge(module(caller), caller_tottime)
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench_native.worker")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    size = parser.add_mutually_exclusive_group(required=True)
    size.add_argument("--seconds", type=float)
    size.add_argument("--entries", type=int)
    size.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--obs", type=int, choices=(0, 1), default=1,
                        help="0 runs under repro.obs.set_enabled(False)")
    parser.add_argument("--probe-scale", type=float, default=1.0,
                        help="side-probe size as a share of full (0: none)")
    parser.add_argument("--recover-once", action="store_true",
                        help="one checkpoint/recover cycle: the run's "
                             "recover_s is not going to be reported")
    parser.add_argument("--profile", action="store_true")
    args = parser.parse_args(argv)
    require_program()
    workload = WORKLOADS[args.workload]
    if hasattr(os, "sched_setaffinity"):
        # One thread, one core: migrations between the box's two cores
        # were a third of the run-to-run spread.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    t0 = time.perf_counter()
    from bench_native import drive      # imports repro: setup starts here
    system = drive.System(workload, args.seed)
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    budget = drive.Budget(seconds=args.seconds, entries=args.entries)
    run = drive.Run(system, args.seed)
    recorder = profiler = None
    if args.trace:
        from bench_native.layers import SpanRecorder
        recorder = SpanRecorder()
    if args.profile:
        import cProfile
        profiler = cProfile.Profile()
    import repro.obs
    try:
        repro.obs.set_enabled(bool(args.obs))
        if recorder is not None:
            recorder.install()
        if profiler is not None:
            profiler.enable()
        measured = run.measure(budget, probe_scale=args.probe_scale)
    finally:
        if profiler is not None:
            profiler.disable()
        if recorder is not None:
            recorder.uninstall()
        repro.obs.set_enabled(True)
    # Taken before the durability probe, whose cycle count goes by the
    # clock.
    digest = run.digest()
    durable = run.durability(once=args.recover_once)

    metrics, samples = drive.end_to_end(measured)
    metrics["setup_s"] = setup_s
    if "recover_s" in durable:
        metrics["recover_s"] = durable["recover_s"]
    result = {
        "workload": workload.name, "seed": args.seed,
        "entries": measured["entries"], "key_ops": measured["key_ops"],
        "wall_s": measured["wall_s"], "closes": measured["closes"],
        "attempted": run.attempted, "failed": run.failed,
        "first_failure": run.first_failure,
        "metrics": metrics, "samples": samples,
        "counters_digest": digest,
    }
    if recorder is not None:
        from bench_native.layers import per_layer
        ledger = recorder.ledger()
        result["layers"] = per_layer(
            ledger, recorder.unresolved, measured, run.deferred_at_close,
            durable.get("checkpoint_ms"))
        recorder.write(OUT_DIR / f"trace-{workload.name}.json", ledger)
    if profiler is not None:
        result["profile"] = profile_by_module(profiler, measured["wall_s"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Runs workers and puts their results together: the benchmark
contract's single-workload run, the whole suite, the ledger pass, and
the comparison of two result sets.

Every worker is a fresh subprocess that has ended before its result is
used; nothing here imports ``repro``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from bench_native import ROOT
from bench_native.layers import PER_LAYER
from bench_native.stats import median, quiet_median
from bench_native.workloads import END_TO_END, WORKLOADS

#: Fresh-process set-ups behind one run's ``setup_s`` (quiet median).
SETUP_SAMPLES = 5
#: Longest one worker may take (the contract allows a run 180 s).
WORKER_TIMEOUT_S = 170


def spawn(workload: str, seed: int, *flags: str) -> dict:
    """Run one worker to its end and return the JSON object it printed."""
    done = subprocess.run(
        [sys.executable, "-m", "bench_native.worker", "--workload", workload,
         "--seed", str(seed), *flags],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S,
        # Fixed str/bytes hashing: one less thing that differs between
        # two runs of the same work.
        env={**os.environ, "PYTHONHASHSEED": "0"})
    if done.returncode != 0:
        raise RuntimeError(f"worker {workload} {' '.join(flags)} exited "
                           f"{done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def bounds() -> dict[str, tuple[str, float]]:
    """metric -> (better, bound) from BENCHMARK.json, the one place the
    regression bounds are written down."""
    with open(ROOT / "BENCHMARK.json") as f:
        contract = json.load(f)
    return {m["name"]: (m["better"], m["bound"])
            for m in contract["end_to_end"]}


# ----------------------------------------------------------------------
# One workload: the untraced run and the ledger pass
# ----------------------------------------------------------------------
def untraced(workload: str, seed: int, *size: str) -> dict:
    """One untraced run; its ``setup_s`` becomes the quiet median over
    SETUP_SAMPLES fresh processes (this run's own among them)."""
    result = spawn(workload, seed, *size)
    setups = [result["metrics"]["setup_s"]] + [
        spawn(workload, seed, "--setup-only")["setup_s"]
        for _ in range(SETUP_SAMPLES - 1)]
    result["metrics"]["setup_s"] = quiet_median(setups)
    return result


def ledger_pass(workload: str, seed: int, *size: str) -> dict:
    """The traced run, plus two untraced runs of the same work — one as
    is, one under ``repro.obs.set_enabled(False)`` — that give tracing's
    and obs' own cost as throughput ratios with their base. No side
    probes in any of the three, so they do the same work."""
    size = (*size, "--probe-scale", "0", "--recover-once")
    traced = spawn(workload, seed, *size, "--trace", "1")
    plain = spawn(workload, seed, *size)
    quiet = spawn(workload, seed, *size, "--obs", "0")
    runs = [traced, plain, quiet]
    rate = [r["metrics"]["throughput_ops_s"] for r in runs]
    layers = dict.fromkeys(PER_LAYER) | traced["layers"]
    layers["trace.overhead_ratio"] = rate[1] / rate[0]
    layers["obs.off_speedup"] = rate[2] / rate[1]
    return {"layers": layers,
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "first_failure": next((r["first_failure"] for r in runs
                                   if r["first_failure"]), None)}


def contract_run(workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    """What the benchmark contract asks of one invocation: the last line
    of standard output, as a dict."""
    if trace:
        result = ledger_pass(workload, seed, "--seconds", str(seconds / 3))
        # The contract wants a number for every metric on every run: a
        # figure whose target no longer resolves reads -1 here (and null
        # in the suite's own output).
        metrics = {name: {"value": -1.0 if result["layers"][name] is None
                          else result["layers"][name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        result = untraced(workload, seed, "--seconds", str(seconds))
        missing = sorted(set(END_TO_END) - set(result["metrics"]))
        if missing:
            raise RuntimeError(f"{workload} gave no samples for {missing}")
        metrics = {name: {"value": result["metrics"][name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    if result["failed"]:
        print(f"bench_native: {workload}: {result['failed']} failed, first: "
              f"{result['first_failure']}", file=sys.stderr)
    return {"correct": result["failed"] == 0,
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics}


# ----------------------------------------------------------------------
# The whole suite
# ----------------------------------------------------------------------
def full_suite(seed: int, reps: int, smoke: bool, out_path) -> int:
    """Every workload ``reps`` times, interleaved (A B C D E, A B C D E,
    ...), fixed op counts, tracing off; then one ledger pass each.
    ``smoke`` is one traced run each at 1/20 size: schema and oracle
    only, its timings mean nothing."""
    names = list(WORKLOADS)
    runs: dict[str, list[dict]] = {name: [] for name in names}
    passes: dict[str, dict] = {}
    if smoke:
        for name in names:
            size = ("--entries", str(WORKLOADS[name].entries // 20))
            run = spawn(name, seed, *size, "--trace", "1",
                        "--probe-scale", "0.05", "--recover-once")
            runs[name].append(run)
            passes[name] = {"layers": dict.fromkeys(PER_LAYER) | run["layers"],
                            "attempted": 0, "failed": 0}
    else:
        for rep in range(reps):
            for name in names:
                print(f"rep {rep + 1}/{reps} {name}", file=sys.stderr)
                runs[name].append(untraced(
                    name, seed, "--entries", str(WORKLOADS[name].entries)))
        for name in names:
            print(f"ledger pass {name}", file=sys.stderr)
            passes[name] = ledger_pass(
                name, seed, "--entries", str(WORKLOADS[name].entries))

    report = {"seed": seed, "reps": len(runs[names[0]]), "smoke": smoke,
              "workloads": {}}
    failed_anywhere = False
    for name in names:
        metrics = {}
        for metric, unit in END_TO_END.items():
            values = [r["metrics"][metric] for r in runs[name]
                      if metric in r["metrics"]]
            if values:
                metrics[metric] = {"median": median(values),
                                   "min": min(values), "max": max(values),
                                   "unit": unit, "reps": len(values)}
        attempted = sum(r["attempted"] for r in runs[name]) \
            + passes[name]["attempted"]
        failed = sum(r["failed"] for r in runs[name]) + passes[name]["failed"]
        digests = sorted({r["counters_digest"] for r in runs[name]})
        if failed or len(digests) > 1:
            failed_anywhere = True
        report["workloads"][name] = {
            "metrics": metrics,
            "samples_per_rep": runs[name][0]["samples"],
            "attempted": attempted, "failed": failed,
            "failed_share": failed / attempted,
            "first_failure": next(
                (r["first_failure"] for r in [*runs[name], passes[name]]
                 if r.get("first_failure")), None),
            # One digest when the reps did byte-identical work.
            "counters_digest": digests[0] if len(digests) == 1 else digests,
            "layers": passes[name]["layers"],
        }
    print_report(report)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w") as f:
        json.dump(report, f, indent=1)
    print(f"\nresult set written to {out_path}")
    if failed_anywhere:
        print("FAILED: an oracle rejected an answer, an op failed, or the "
              "reps' counters_digest differ", file=sys.stderr)
    return 1 if failed_anywhere else 0


def print_report(report: dict) -> None:
    print(f"bench_native seed={report['seed']} reps={report['reps']}"
          + (" SMOKE (timings mean nothing)" if report["smoke"] else ""))
    for name, row in report["workloads"].items():
        print(f"\n== {name}: failed_share {row['failed_share']:.6f} "
              f"({row['failed']}/{row['attempted']}), counters_digest "
              f"{str(row['counters_digest'])[:16]}, samples/rep "
              f"{row['samples_per_rep']}")
        for metric, m in row["metrics"].items():
            print(f"  {metric:<22}{m['median']:>14.3f} {m['unit']:<4} "
                  f"(min {m['min']:.3f}, max {m['max']:.3f}, "
                  f"{m['reps']} reps)")
        print("  -- per layer (traced run)")
        for metric, value in row["layers"].items():
            shown = "null" if value is None else f"{value:.4f}"
            print(f"  {metric:<42}{shown:>14} {PER_LAYER[metric]}")


# ----------------------------------------------------------------------
# Comparing two result sets
# ----------------------------------------------------------------------
def compare(path_a: str, path_b: str) -> int:
    """Per workload x end-to-end metric: both medians, how much worse B
    is than A (negative: better), the bound, and a verdict — ``ok``,
    ``regressed`` (worse by more than the bound), or ``unresolved`` (a
    set's own min-max spread exceeds the bound, so the medians cannot
    tell)."""
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    limit = bounds()
    verdicts = {"ok": 0, "regressed": 0, "unresolved": 0}
    print(f"{'workload':<18}{'metric':<22}{'A':>12}{'B':>12}{'worse by':>10}"
          f"{'bound':>7}  verdict")
    for name in WORKLOADS:
        row_a, row_b = a["workloads"][name], b["workloads"][name]
        for metric in END_TO_END:
            ma, mb = row_a["metrics"].get(metric), row_b["metrics"].get(metric)
            if ma is None or mb is None:
                continue
            better, bound = limit[metric]
            worse = (mb["median"] - ma["median"]) / ma["median"]
            if better == "higher":
                worse = -worse
            noisy = any((m["max"] - m["min"]) / m["median"] > bound
                        for m in (ma, mb))
            verdict = ("regressed" if worse > bound
                       else "unresolved" if noisy else "ok")
            verdicts[verdict] += 1
            print(f"{name:<18}{metric:<22}{ma['median']:>12.3f}"
                  f"{mb['median']:>12.3f}{worse:>+10.1%}{bound:>7.0%}  "
                  f"{verdict}")
        # Any increase in failures is a regression; the digest says
        # whether both sets did byte-identical work.
        verdict = ("regressed" if row_b["failed_share"] > row_a["failed_share"]
                   else "ok")
        verdicts[verdict] += 1
        print(f"{name:<18}{'failed_share':<22}{row_a['failed_share']:>12.6f}"
              f"{row_b['failed_share']:>12.6f}{'':>17}  {verdict}")
        same = row_a["counters_digest"] == row_b["counters_digest"]
        print(f"{name:<18}{'counters_digest':<22}"
              f"{'identical' if same else 'DIFFERENT':>24}")
    print(", ".join(f"{n} {v}" for v, n in verdicts.items()))
    return 0 if verdicts["ok"] == sum(verdicts.values()) else 1


# ----------------------------------------------------------------------
# The determinism pin and the profile view
# ----------------------------------------------------------------------
def check_deterministic(seed: int) -> int:
    """Two runs at one seed must give the identical ``counters_digest``
    (SHA-256 over the counter snapshot and the op-outcome sequence); a
    run at another seed must give a different one. Quarter size: the
    digest does not need the timings."""
    status = 0
    for name, workload in WORKLOADS.items():
        size = ("--entries", str(workload.entries // 4),
                "--probe-scale", "0.25", "--recover-once")
        first, again, other = (
            spawn(name, s, *size)["counters_digest"]
            for s in (seed, seed, seed + 1))
        ok = first == again and first != other
        status |= not ok
        print(f"{name:<18} seed {seed}: {first[:16]} / {again[:16]}  "
              f"seed {seed + 1}: {other[:16]}  "
              f"{'deterministic' if ok else 'MISMATCH'}")
    return status


def profile(seed: int) -> int:
    """cProfile ``tottime`` by ``src/repro`` module as a share of wall,
    quarter size. Shifts proportions toward many small calls, so it
    finds candidates; it is no part of BENCHMARK.json."""
    for name, workload in WORKLOADS.items():
        result = spawn(name, seed, "--entries", str(workload.entries // 4),
                       "--probe-scale", "0", "--recover-once", "--profile")
        print(f"\n== {name}: share of profiled wall by module")
        for module, share in result["profile"].items():
            if share >= 0.005:
                print(f"  {module:<28}{share:>7.1%}")
    return 0

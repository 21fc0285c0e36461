"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``demo``   — the quickstart flow (load, ops, tamper, detect)
* ``ycsb``   — run a YCSB workload against FastVer under the cost model
               and print throughput / verification latency
* ``audit``  — load a store, run a random workload, audit host invariants
* ``attacks``— run the byzantine attack gallery
* ``chaos``  — deterministic fault-injection soak asserting the tri-state
               invariant (verified / caught-tampering / recoverable)
* ``bench-failover`` — recovery-time objective: warm-standby failover vs
               cold checkpoint restore, recorded to BENCH_failover.json
* ``bench-repair`` — mean-time-to-repair: single-page verified repair vs
               whole-store salvage/restore, plus the background scrub
               throughput tax, recorded to BENCH_repair.json
* ``bench-batching`` — group-commit crossing amortization: modeled
               throughput across a batch-size sweep, recorded to
               BENCH_batching.json
* ``metrics`` — one measured run with the observability layer armed:
               latency histograms (p50/p95/p99/p99.9), per-subsystem
               cost attribution, and run metrics, exported as JSON,
               Prometheus text, or a human-readable report
* ``trace``  — run a chaos scenario and query its span-based trace ring:
               filter by trace id / event kind, or reconstruct a full
               request lifecycle with ``--find-lifecycle``
* ``obs``    — the persistent observability pipeline: ``tail`` the
               trace spool of a scenario run, ``replay`` a persisted
               spool directory cold (asserting replay fidelity against
               the live ring), or print an ``slo-report`` of burn-rate
               alerts and exemplars from an SLO-armed run

``chaos``, ``trace`` and ``obs`` name the stack they run with one
``--topology`` string (``pipelined+failover``, ``failover:3+scrub``; see
:mod:`repro.topology`).

These wrap the same public APIs the examples use; the CLI exists so a
downstream user can poke the system without writing code.
"""

from __future__ import annotations

import argparse
import sys

from repro import FastVer, FastVerConfig, new_client
from repro.instrument import COUNTERS
from repro.topology import Topology


def _topology(text: str) -> Topology:
    try:
        return Topology.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FastVer reproduction: a verified key-value store",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="quickstart: ops, verify, tamper-detect")
    demo.add_argument("--records", type=int, default=1000)

    ycsb = sub.add_parser("ycsb", help="run a YCSB workload and print metrics")
    ycsb.add_argument("--workload", choices=["A", "B", "C", "E"], default="A")
    ycsb.add_argument("--records", type=int, default=10_000)
    ycsb.add_argument("--ops", type=int, default=20_000)
    ycsb.add_argument("--workers", type=int, default=4)
    ycsb.add_argument("--verify-every", type=int, default=None)
    ycsb.add_argument("--theta", type=float, default=0.9)
    ycsb.add_argument("--depth", type=int, default=4,
                      help="Merkle partition depth d")
    ycsb.add_argument("--modeled-records", type=int, default=None,
                      help="database size the cost model should assume")

    aud = sub.add_parser("audit", help="run ops then audit host invariants")
    aud.add_argument("--records", type=int, default=500)
    aud.add_argument("--ops", type=int, default=2_000)

    sub.add_parser("attacks", help="run the byzantine attack gallery")

    # chaos, trace and obs all run one chaos scenario; they describe it
    # with the same four arguments.
    scenario = argparse.ArgumentParser(add_help=False)
    scenario.add_argument("--seed", type=int, default=7)
    scenario.add_argument("--ops", type=int, default=2000)
    scenario.add_argument("--records", type=int, default=200)
    scenario.add_argument("--topology", type=_topology, default=Topology(),
                          metavar="T",
                          help="the stack under test: direct (default), "
                               "server, batched or pipelined, plus any of "
                               "failover[:N], scrub, slo joined with '+' "
                               "(e.g. pipelined+failover, failover:3+scrub); "
                               "docs/PROTOCOL.md 'Topologies' says what each "
                               "term builds and which faults it arms")
    # trace and obs query the events the scenario left behind.
    query = argparse.ArgumentParser(add_help=False)
    query.add_argument("--trace", default=None,
                       help="print the full span for this trace id")
    query.add_argument("--kind", default=None,
                       help="print only events of this kind")
    query.add_argument("--last", type=int, default=None,
                       help="print only the last N events")
    query.add_argument("--find-lifecycle", default=None, metavar="KINDS",
                       help="comma-separated event kinds; find and print one "
                            "trace whose span covers all of them (exit 1 if "
                            "none does)")
    query.add_argument("--json", action="store_true",
                       help="emit events as JSON lines instead of columns")

    chaos = sub.add_parser(
        "chaos", parents=[scenario],
        help="deterministic fault-injection soak (tri-state check)")
    chaos.add_argument("--tamper-every", type=int, default=None,
                       help="also tamper every N ops and demand detection")
    chaos.add_argument("--spool-dir", default=None, metavar="DIR",
                       help="persist the trace spool's JSONL segments to "
                            "DIR (query later with 'repro obs replay "
                            "--dir DIR --existing')")
    chaos.add_argument("--check-deterministic", action="store_true",
                       help="run twice and require identical digests")
    chaos.add_argument("--redteam", nargs="?", const="all", default=None,
                       metavar="CELLS",
                       help="run the distributed byzantine red-team matrix "
                            "instead of the random-fault soak: active "
                            "rollback/fork, receipt replay, split-brain, "
                            "double-lease courting, stale-replica replay, "
                            "shipping-fork, and dedup/batch tampering "
                            "campaigns, every one required to be detected. "
                            "CELLS is all (default), or a comma list of "
                            "direct, server, batched, failover, pipelined")
    chaos.add_argument("--json", action="store_true",
                       help="emit the report as machine-readable JSON "
                            "(CI-friendly; exit code still signals any "
                            "escape or hard failure)")

    bench_fo = sub.add_parser(
        "bench-failover",
        help="measure failover RTO vs cold checkpoint-restore RTO and "
             "write BENCH_failover.json")
    bench_fo.add_argument("--records", type=int, default=1200)
    bench_fo.add_argument("--ops", type=int, default=400)
    bench_fo.add_argument("--seed", type=int, default=7)
    bench_fo.add_argument("--out", default="BENCH_failover.json")

    bench_rp = sub.add_parser(
        "bench-repair",
        help="measure single-page repair MTTR vs salvage and cold-restore "
             "RTO plus the scrub throughput tax; write BENCH_repair.json")
    bench_rp.add_argument("--records", type=int, default=1200)
    bench_rp.add_argument("--ops", type=int, default=400)
    bench_rp.add_argument("--seed", type=int, default=7)
    bench_rp.add_argument("--out", default="BENCH_repair.json")

    bench_ba = sub.add_parser(
        "bench-batching",
        help="sweep group-commit batch sizes, assert the amortization "
             "curve, and write BENCH_batching.json")
    bench_ba.add_argument("--records", type=int, default=400)
    bench_ba.add_argument("--ops", type=int, default=2000)
    bench_ba.add_argument("--seed", type=int, default=7)
    bench_ba.add_argument("--out", default="BENCH_batching.json")

    met = sub.add_parser(
        "metrics",
        help="measured run with histograms + cost attribution; export "
             "JSON / Prometheus text / human-readable report")
    met.add_argument("--records", type=int, default=400)
    met.add_argument("--ops", type=int, default=2000)
    met.add_argument("--seed", type=int, default=7)
    met.add_argument("--workers", type=int, default=4)
    met.add_argument("--batch", type=int, default=8)
    met.add_argument("--maintain-every", type=int, default=250,
                     help="close an epoch (settling verified latencies) "
                          "every N ops")
    met.add_argument("--format", choices=["json", "prom", "text"],
                     default="text")
    met.add_argument("--out", default=None,
                     help="also write the export to this file")
    met.add_argument("--check", action="store_true",
                     help="validate the payload (schema, attribution "
                          "consistency, quantile monotonicity) and fail "
                          "on any problem")

    tr = sub.add_parser(
        "trace", parents=[scenario, query],
        help="run a chaos scenario and query the span-based trace ring")
    tr.add_argument("--tamper-every", type=int, default=None)

    obs = sub.add_parser(
        "obs", parents=[scenario, query],
        help="persistent observability pipeline: spool tail/replay and "
             "SLO burn-rate reports")
    obs.add_argument("action", choices=["tail", "replay", "slo-report"],
                     help="tail: run a scenario and print the spool's "
                          "last events; replay: read a persisted spool "
                          "cold and query it (running a scenario first "
                          "unless --existing); slo-report: run the "
                          "scenario with '+slo' armed and print the "
                          "burn-rate and exemplar report")
    obs.add_argument("--dir", default=None, metavar="DIR",
                     help="spool directory: written by the scenario run, "
                          "or read cold with --existing")
    obs.add_argument("--existing", action="store_true",
                     help="replay only: skip the scenario run and read "
                          "the spool already persisted in --dir")
    return parser


def cmd_demo(args) -> int:
    from repro.core.records import DataValue
    from repro.errors import IntegrityError

    db = FastVer(FastVerConfig(key_width=32, n_workers=2, partition_depth=4),
                 items=[(k, b"value-%d" % k) for k in range(args.records)])
    client = new_client(1)
    db.register_client(client)
    db.put(client, 7, b"hello")
    print("get(7) ->", db.get(client, 7).payload)
    report = db.verify()
    db.flush()
    print(f"epoch {report.epoch} verified; client settled at epoch "
          f"{client.settled_epoch}")
    print("tampering with record 42 in the untrusted store...")
    record = db.store.read_record(db.data_key(42))
    record.value = DataValue(b"EVIL")
    try:
        db.get(client, 42)
        db.flush()
        db.verify()
        print("UNDETECTED (this should never print)")
        return 1
    except IntegrityError as exc:
        print("detected:", type(exc).__name__)
        return 0


def cmd_ycsb(args) -> int:
    from repro.sim.executor import SimulatedExecutor
    from repro.workloads.ycsb import WORKLOADS, YcsbGenerator

    spec = WORKLOADS[f"YCSB-{args.workload}"]
    COUNTERS.reset()
    db = FastVer(
        FastVerConfig(key_width=64, n_workers=args.workers,
                      partition_depth=args.depth),
        items=[(k, k.to_bytes(8, "big")) for k in range(args.records)],
    )
    client = new_client(1)
    db.register_client(client)
    generator = YcsbGenerator(
        spec, args.records,
        distribution="uniform" if args.theta == 0 else "zipfian",
        theta=args.theta)
    modeled = args.modeled_records or args.records
    executor = SimulatedExecutor(db, client, args.workers, modeled)
    result = executor.run(generator, args.ops,
                          verify_every=args.verify_every)
    m = result.metrics
    print(f"workload            YCSB-{args.workload} "
          f"(zipf θ={args.theta}) over {args.records} records")
    print(f"key operations      {m.key_ops}")
    print(f"throughput          {m.throughput_mops:.3f} Mops/s (simulated)")
    print(f"verifications       {m.n_verifications}")
    print(f"verification latency {m.verification_latency_s * 1e3:.3f} ms "
          f"(simulated)")
    print(f"verifier fraction   {m.verifier_fraction:.2f}")
    print(f"counters            {COUNTERS}")
    return 0


def cmd_audit(args) -> int:
    import random

    from repro.core.audit import audit

    db = FastVer(FastVerConfig(key_width=32, n_workers=2, partition_depth=4),
                 items=[(k, b"v%d" % k) for k in range(args.records)])
    client = new_client(1)
    db.register_client(client)
    rng = random.Random(0)
    for i in range(args.ops):
        k = rng.randrange(args.records * 2)
        if rng.random() < 0.5:
            db.put(client, k, b"x%d" % i, worker=i % 2)
        else:
            db.get(client, k, worker=i % 2)
        if i % 500 == 499:
            db.verify()
    db.flush()
    report = audit(db)
    print(f"records={report.records} cached={report.cached} "
          f"deferred={report.deferred} merkle={report.merkle}")
    if report.ok:
        print("audit: all host invariants hold")
        return 0
    for violation in report.violations[:20]:
        print("VIOLATION:", violation)
    return 1


def cmd_attacks(_args) -> int:
    import examples.attack_gallery as gallery  # pragma: no cover - thin
    gallery.main()
    return 0


def _write_forensics(report) -> None:
    """A chaos or red-team report that failed carries the run's trace
    events; dump them next to the operator, keyed by the fault seed."""
    if report.forensics is None:
        return
    import json
    path = f"trace_forensics_seed{report.seed}.json"
    with open(path, "w") as fh:
        json.dump(report.forensics, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path} ({len(report.forensics['events'])} trace "
          f"events for forensics)")


def cmd_redteam(args) -> int:
    """The ``chaos --redteam`` mode: the zero-escape byzantine gate."""
    import json

    from repro.adversary.redteam import REDTEAM_TOPOLOGIES, run_redteam

    if args.redteam == "all":
        topologies = None
    else:
        topologies = tuple(t.strip() for t in args.redteam.split(","))
        unknown = [t for t in topologies if t not in REDTEAM_TOPOLOGIES]
        if unknown:
            print(f"unknown red-team topology {unknown[0]!r} "
                  f"(choose from {', '.join(REDTEAM_TOPOLOGIES)})")
            return 2

    def once():
        return run_redteam(seed=args.seed, topologies=topologies)

    report = once()
    if args.check_deterministic:
        second = once()
        if second.digest() != report.digest():
            print("NON-DETERMINISTIC: second red-team run digest",
                  second.digest())
            return 1
    if args.json:
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        print(f"red-team seed={report.seed} "
              f"cells={len(report.verdicts)} escapes={report.escapes}")
        print(f"{'attack':<16} {'topology':<9} {'verdict':<9} "
              f"{'detector':<21} {'latency':>8}")
        for v in report.verdicts:
            verdict = "detected" if v.detected else "ESCAPED"
            print(f"{v.attack:<16} {v.topology:<9} {verdict:<9} "
                  f"{v.detector:<21} {v.latency_ticks:>8.1f}")
        print(f"digest               {report.digest()}")
    _write_forensics(report)
    if report.escapes:
        for v in report.verdicts:
            if v.escaped:
                print(f"ESCAPE: {v.attack} x {v.topology}: {v.note}")
        print(f"reproduce with: python -m repro chaos --redteam "
              f"{args.redteam} --seed {report.seed}")
        return 1
    if not args.json:
        print("zero escapes: every attack detected before anything "
              "settled")
    return 0


def cmd_chaos(args) -> int:
    from repro.faults.chaos import run_chaos

    if args.redteam is not None:
        return cmd_redteam(args)

    topology = args.topology

    def once():
        return run_chaos(seed=args.seed, ops=args.ops, records=args.records,
                         tamper_every=args.tamper_every, topology=topology,
                         spool_dir=args.spool_dir)

    report = once()
    if args.json:
        import dataclasses
        import json
        fields = dataclasses.asdict(report)
        del fields["forensics"]  # written to its own file below
        print(json.dumps(dict(fields, mode=str(topology), ok=report.ok,
                              digest=report.digest()),
                         indent=2, sort_keys=True))
    else:
        print(f"chaos seed={report.seed} mode={topology} "
              f"ops={report.ops_attempted} ok={report.ops_ok}")
        print(f"availability errors  {report.availability_errors}")
        print(f"recoveries           {report.recoveries} "
              f"(salvages {report.salvages}, failovers {report.failovers})")
        print(f"integrity detections {report.integrity_detections}")
        print(f"receipts dropped     {report.receipts_dropped}")
        if report.pipelined:
            print(f"pipelined batches    {report.pipelined_batches} "
                  f"dispatched with streamed settlement")
        if topology.standbys:
            print(f"shipped batches      {report.shipped_batches} "
                  f"(channel rejects {report.repl_rejects})")
            print(f"group resyncs        {report.delta_resyncs} delta, "
                  f"{report.snapshot_resyncs} snapshot "
                  f"({report.standbys} standby(s), "
                  f"{report.lease_expiries} lease expiries)")
            if not report.leader_converged:
                print("LEADER NOT CONVERGED: the group did not settle on "
                      "a single leased leader after the soak")
        if topology.scrub:
            print(f"scrub                {report.scrub_pages} pages, "
                  f"{report.scrub_mismatches} quarantined, "
                  f"{report.scrub_repairs} repaired "
                  f"({report.provisional_serves} provisional serves "
                  f"refuted before settlement)")
            print(f"scrub convergence    "
                  f"{'converged' if report.scrub_converged else 'DID NOT CONVERGE'}, "
                  f"{report.quarantined_final} page(s) left quarantined")
            print(f"repair ledger        {report.repair_ledger_digest}")
        print(f"trace spool          {report.spool_events} events retained "
              f"(replay {'ok' if report.spool_replay_ok else 'BROKEN'}"
              + (f", persisted to {args.spool_dir}" if args.spool_dir
                 else "") + ")")
        if topology.slo:
            print(f"slo                  {report.slo_alerts} alert(s) fired"
                  + (f", still firing: {', '.join(report.slo_firing)}"
                     if report.slo_firing else ", none firing at end"))
            print(f"exemplars            {report.exemplar_digest}")
        if report.unrecoverable:
            print("UNRECOVERABLE: the recovery ladder ran out of rungs; "
                  "the error carries the fault seed and trace digest")
        print(f"fault fires          {report.fault_fires}")
        print(f"digest               {report.digest()}")
    _write_forensics(report)
    if report.hard_failures:
        for failure in report.hard_failures:
            print("HARD FAILURE:", failure)
        print(f"FAILING SEED {report.seed}; injection trace digest "
              f"{report.trace_digest}")
        print(f"reproduce with: python -m repro chaos --seed {report.seed} "
              f"--ops {args.ops} --records {args.records}"
              + (f" --tamper-every {args.tamper_every}"
                 if args.tamper_every else "")
              + f" --topology {topology}")
        return 1
    if args.check_deterministic:
        second = once()
        if second.digest() != report.digest():
            print("NON-DETERMINISTIC: second run digest",
                  second.digest())
            return 1
        if not args.json:
            print("deterministic: second run matched bit-for-bit")
    if not args.json:
        print("tri-state invariant held for every operation")
    return 0


def cmd_bench_failover(args) -> int:
    import json

    from repro.bench.failover import run_failover_bench

    result = run_failover_bench(records=args.records, ops=args.ops,
                                seed=args.seed)
    print(f"records               {result['records']} "
          f"(+{result['ops']} ops before failure)")
    print(f"restore RTO           {result['restore_rto_ticks']:.2f} ticks "
          f"(cold checkpoint restore)")
    print(f"failover RTO          {result['failover_rto_ticks']:.2f} ticks "
          f"(warm standby promotion)")
    print(f"ratio                 {result['ratio']:.4f} "
          f"(target < {result['target_ratio']})")
    q = result["quorum"]
    print(f"quorum RTO            {q['rto_ticks']:.2f} ticks "
          f"(N={q['n_standbys']} group, {q['multiple_of_single']:.2f}x "
          f"single-standby, max {q['max_multiple']}x)")
    print(f"delta resync          {q['delta_resync_ticks']:.2f} ticks vs "
          f"snapshot {q['snapshot_resync_ticks']:.2f} "
          f"({q['delta_speedup']:.1f}x faster, "
          f"floor {q['min_delta_speedup']}x)")
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")
    if not result["ok"]:
        print("FAILED: an RTO or resync criterion missed its target "
              "(ratio, quorum multiple, or delta speedup)")
        return 1
    return 0


def cmd_bench_repair(args) -> int:
    import json

    from repro.bench.repair import run_repair_bench

    result = run_repair_bench(records=args.records, ops=args.ops,
                              seed=args.seed)
    detail = result["repair_detail"]
    print(f"records               {result['records']} "
          f"(+{result['ops']} ops before the rot)")
    print(f"repair MTTR           {result['repair_mttr_ticks']:.2f} ticks "
          f"(1 page from {detail['source']}, tier {detail['tier']})")
    print(f"salvage RTO           {result['salvage_rto_ticks']:.2f} ticks "
          f"(lenient log-scan rebuild)")
    print(f"restore RTO           {result['restore_rto_ticks']:.2f} ticks "
          f"(cold checkpoint restore)")
    print(f"MTTR vs salvage       {result['mttr_vs_salvage']:.4f} "
          f"(max {result['max_mttr_vs_salvage']})")
    print(f"MTTR vs restore       {result['mttr_vs_restore']:.4f} "
          f"(max {result['max_mttr_vs_restore']})")
    print(f"scrub overhead        {result['scrub_overhead'] * 100:.1f}% "
          f"op-phase ticks, scrub-on vs off "
          f"(max {result['max_scrub_overhead'] * 100:.0f}%)")
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")
    if not result["ok"]:
        print("FAILED: a repair-MTTR or scrub-overhead criterion missed "
              "its target")
        return 1
    return 0


def cmd_bench_batching(args) -> int:
    import json

    from repro.bench.batching import run_batching_bench

    result = run_batching_bench(records=args.records, ops=args.ops,
                                seed=args.seed)
    print(f"records               {result['records']} "
          f"({result['ops']} YCSB-A ops, {result['n_workers']} shards)")
    for row in result["rows"]:
        print(f"batch {row['batch']:>4}            "
              f"{row['crossings']:>5} crossings "
              f"(saved {row['crossings_saved']:>5}, "
              f"fill {row['batch_fill_avg']:>7.2f})  "
              f"{row['throughput_mops']:.3f} Mops/s modeled")
    print(f"throughput ratio      {result['ratio_64_over_1']:.2f}x "
          f"(batch 64 vs 1; target >= {result['target_ratio']})")
    print(f"crossings_saved       "
          f"{'monotone' if result['crossings_saved_monotone'] else 'NOT monotone'} "
          f"in batch size")
    cache = result["bitkey_cache"]
    print(f"bitkey memo           {cache['derive_ns_per_call']:.0f} ns/derive "
          f"-> {cache['memoized_ns_per_call']:.0f} ns memoized "
          f"({cache['hits']} hits / {cache['misses']} misses)")
    overhead = result["tracing_overhead"]
    print(f"tracing overhead      "
          f"{overhead['relative_delta'] * 100:.2f}% modeled-throughput "
          f"delta at batch {overhead['batch']} "
          f"(bound {overhead['bound'] * 100:.0f}%)")
    for row in result["pipelined_rows"]:
        print(f"pipelined {row['batch']:>4}        "
              f"{row['crossings']:>5} crossings "
              f"({row['batches_pipelined']} streamed batches, "
              f"inflight max {row['inflight_batches_max']})  "
              f"{row['throughput_mops']:.3f} Mops/s modeled")
    print(f"pipelined ratio       "
          f"{result['pipelined_ratio_over_sync64']:.2f}x over sync batch-64 "
          f"at batch {result['pipelined_best_batch']} "
          f"(target >= {result['pipelined_target_ratio']}; "
          f"admission-wait p95 {result['pipelined_wait_p95']:.0f} vs "
          f"{result['sync64_wait_p95']:.0f} ticks)")
    frontier = result["adaptive_frontier"]
    for row in frontier["rows"]:
        label = (f"static {row['batch']:>4}" if row["mode"] == "static"
                 else "adaptive   ")
        print(f"frontier {label}   p99 {row['p99_verified_ticks']:>7.1f} ticks  "
              f"{row['throughput_mops']:.3f} Mops/s modeled "
              f"({row['epoch_closes']} epoch closes)")
    print(f"adaptive frontier     budget {frontier['budget_ticks']:.0f} ticks "
          f"(slack {frontier['budget_slack']:.2f}) "
          f"{'held' if frontier['adaptive_holds_budget'] else 'MISSED'}; "
          f"{'beats' if frontier['adaptive_beats_meeting_statics'] else 'LOSES TO'}"
          f" statics meeting budget {frontier['static_meeting_budget']}")
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")
    if not result["ok"]:
        print("FAILED: the amortization curve missed the acceptance bar")
        return 1
    return 0


def cmd_metrics(args) -> int:
    import json

    from repro.obs.export import check_payload, to_prometheus
    from repro.obs.profile import CostAttribution
    from repro.obs.runner import run_instrumented

    run = run_instrumented(records=args.records, ops=args.ops,
                           seed=args.seed, n_workers=args.workers,
                           batch=args.batch,
                           maintain_every=args.maintain_every)
    payload = run.payload()
    if args.format == "json":
        rendered = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    elif args.format == "prom":
        rendered = to_prometheus(payload)
    else:
        m = payload["metrics"]
        lat = payload["latency"]
        att = payload["attribution"]
        lines = [
            f"run                  {args.ops} YCSB-A ops over "
            f"{args.records} records (seed {args.seed}, "
            f"batch {args.batch}, {args.workers} shards)",
            f"throughput           {m['throughput_mops']:.3f} Mops/s "
            f"(modeled)",
            f"verifier fraction    {m['verifier_fraction']:.2f}",
            f"verification latency {m['verification_latency_s'] * 1e3:.3f} ms",
            "",
            "latency histograms (simulated):",
        ]
        for name in sorted(lat):
            s = lat[name]
            lines.append(
                f"  {name:<16} n={s['count']:<6} p50={s['p50']:<8g} "
                f"p95={s['p95']:<8g} p99={s['p99']:<8g} "
                f"p99.9={s['p99.9']:<8g} ({s['unit']})")
        lines += [""]
        attribution = CostAttribution(parts=dict(att["parts_ns"]),
                                      model_total_ns=att["model_total_ns"])
        lines.append(attribution.flame_report())
        rendered = "\n".join(lines) + "\n"
    sys.stdout.write(rendered)
    if args.out:
        with open(args.out, "w") as fh:
            if args.format in ("prom", "text"):
                fh.write(rendered)
            else:
                json.dump(payload, fh, indent=2, sort_keys=True)
                fh.write("\n")
        print(f"wrote {args.out}")
    if args.check:
        problems = check_payload(payload)
        if problems:
            for problem in problems:
                print("CHECK FAILED:", problem)
            return 1
        print("payload check: ok")
    return 0


def _print_events(events, as_json: bool) -> None:
    import json

    for event in events:
        if as_json:
            print(json.dumps(event.as_dict(), sort_keys=True))
        else:
            detail = " ".join(f"{k}={v}" for k, v in event.detail.items())
            trace = event.trace if event.trace is not None else "-"
            print(f"{event.ts:>12.1f} {event.kind:<9} {trace:<16} {detail}")


def _query(source, args, noun: str) -> int:
    """Answer the --find-lifecycle / --trace / --kind / --last filters
    from ``source`` (the ring, a live spool, or a cold spool reader)."""
    if args.find_lifecycle:
        kinds = {k.strip() for k in args.find_lifecycle.split(",")
                 if k.strip()}
        trace = source.find_lifecycle(kinds)
        if trace is None:
            print(f"no {noun}trace covers all of: {sorted(kinds)}")
            return 1
        print(f"# lifecycle trace {trace} covers {sorted(kinds)}:")
        _print_events(source.lifecycle(trace), args.json)
        return 0
    events = source.events(trace=args.trace, kind=args.kind, last=args.last)
    if not events:
        print(f"no {noun}events matched the filter")
        return 1
    _print_events(events, args.json)
    return 0


def cmd_trace(args) -> int:
    from repro.faults.chaos import run_chaos
    from repro.obs import TRACER

    run_chaos(seed=args.seed, ops=args.ops, records=args.records,
              tamper_every=args.tamper_every, topology=args.topology)
    print(f"# trace ring: {len(TRACER)} events held, "
          f"{TRACER.dropped} dropped (capacity {TRACER.capacity})")
    return _query(TRACER, args, "")


def cmd_obs(args) -> int:
    """The ``obs`` command: spool tail/replay and SLO burn-rate reports."""
    import dataclasses

    from repro.faults.chaos import run_chaos
    from repro.obs import LATENCIES, TRACER
    from repro.obs.sink import SpoolReader, replay_fidelity

    def run_scenario(topology=args.topology):
        return run_chaos(seed=args.seed, ops=args.ops, records=args.records,
                         topology=topology, spool_dir=args.dir)

    if args.action == "tail":
        run_scenario()
        spool = TRACER.sink
        print(f"# spool: {spool.stats()}")
        if args.trace or args.kind or args.find_lifecycle:
            return _query(spool, args, "spooled ")
        _print_events(spool.last(args.last if args.last is not None
                                 else 20), args.json)
        return 0

    if args.action == "replay":
        if args.dir is None:
            print("obs replay needs --dir (the spool directory)")
            return 2
        if not args.existing:
            run_scenario()
        try:
            reader = SpoolReader(args.dir)
        except FileNotFoundError as exc:
            print(f"ERROR: {exc}")
            return 2
        print(f"# replayed {len(reader)} events from {args.dir}")
        if not args.existing:
            # Cold reader vs the still-live ring: the replay contract.
            if not replay_fidelity(TRACER, reader):
                print("REPLAY FIDELITY BROKEN: a span in the ring is not "
                      "reconstructable from the persisted spool")
                return 1
            print("# replay fidelity: every live span reconstructed "
                  "from disk")
        if args.trace or args.kind or args.find_lifecycle or args.last:
            return _query(reader, args, "spooled ")
        return 0

    # slo-report: run the scenario with the SLO engine armed.
    topology = dataclasses.replace(args.topology, slo=True)
    report = run_scenario(topology)
    print(f"slo report (chaos seed={args.seed}, mode={topology}, "
          f"{args.ops} ops)")
    print(f"alerts fired         {report.slo_alerts}")
    print(f"firing at end        "
          f"{', '.join(report.slo_firing) if report.slo_firing else '-'}")
    print(f"exemplar digest      {report.exemplar_digest}")
    print(f"spool                {report.spool_events} events "
          f"(replay {'ok' if report.spool_replay_ok else 'BROKEN'})")
    for event in TRACER.sink.events(kind="slo") if TRACER.sink else []:
        d = event.detail
        print(f"  t={event.ts:>10.1f} {d.get('objective', '?'):<22} "
              f"-> {d.get('state', '?'):<10} "
              f"fast={d.get('fast_burn', 0):>8.2f} "
              f"slow={d.get('slow_burn', 0):>8.2f}")
    exemplars = LATENCIES.exemplars()
    print(f"exemplars retained   {len(exemplars)}")
    for ex in exemplars:
        print(f"  {ex.name:<16} {ex.kind:<9} at={ex.at:<7} "
              f"value={ex.value:<10.1f} trace={ex.trace}")
    return 0 if report.ok else 1


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "demo": cmd_demo,
        "ycsb": cmd_ycsb,
        "audit": cmd_audit,
        "attacks": cmd_attacks,
        "chaos": cmd_chaos,
        "bench-failover": cmd_bench_failover,
        "bench-repair": cmd_bench_repair,
        "bench-batching": cmd_bench_batching,
        "metrics": cmd_metrics,
        "trace": cmd_trace,
        "obs": cmd_obs,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

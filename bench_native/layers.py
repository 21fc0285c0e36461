"""The traced run: spans recorded from outside, and the per-layer ledger.

One table, :data:`TARGETS`, names the public functions at each layer's
boundary. A traced run wraps each of them at run time — rebinding the
``from x import f`` copies it finds in ``sys.modules['repro.*']`` — and
every call through a wrapper records a span (target, start, end, parent
span, op id) into in-memory arrays. A layer's self time is its spans'
duration minus the part their child spans cover.

Leaf methods too hot to wrap (``BitKey.__lt__/__hash__/bit``) are
charged to their callers here; ``--profile`` gives them a number.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array

#: (layer, "module:attribute path") — layer names are this repo's modules.
TARGETS = (
    ("client", "repro.client.sdk:RetryingClient.get"),
    ("client", "repro.client.sdk:RetryingClient.put"),
    ("server", "repro.server.pipeline:FastVerServer.submit"),
    ("server", "repro.server.pipeline:FastVerServer.pump"),
    ("server", "repro.server.pipeline:FastVerServer.handle"),
    ("server", "repro.server.pipeline:FastVerServer.maintain"),
    ("core.fastver", "repro.core.fastver:FastVer.get"),
    ("core.fastver", "repro.core.fastver:FastVer.put"),
    ("core.fastver", "repro.core.fastver:FastVer.scan"),
    ("core.fastver", "repro.core.fastver:FastVer.apply_get"),
    ("core.fastver", "repro.core.fastver:FastVer.apply_put"),
    ("core.fastver", "repro.core.fastver:FastVer.apply_batch"),
    ("core.fastver", "repro.core.fastver:FastVer.verify"),
    ("core.fastver", "repro.core.fastver:FastVer.flush"),
    ("core.fastver", "repro.core.fastver:FastVer.checkpoint"),
    ("core.fastver", "repro.core.fastver:FastVer.recover"),
    ("core.protocol", "repro.core.protocol:Client.make_get"),
    ("core.protocol", "repro.core.protocol:Client.make_put"),
    ("core.protocol", "repro.core.protocol:Client.accept"),
    ("core.protocol", "repro.core.protocol:Client.accept_epoch"),
    ("core.log", "repro.core.log:VerificationLog.append"),
    ("core.log", "repro.core.log:VerificationLog.flush"),
    ("core.log", "repro.core.log:VerificationLog.drain"),
    ("core.hostmirror", "repro.core.hostmirror:VerifierMirror.victims"),
    ("core.hostmirror", "repro.core.hostmirror:VerifierMirror.add"),
    ("core.hostmirror", "repro.core.hostmirror:VerifierMirror.remove"),
    ("core.hostmirror", "repro.core.hostmirror:VerifierMirror.touch"),
    ("core.records", "repro.core.records:encode_value"),
    ("core.records", "repro.core.records:value_hash"),
    ("core.records", "repro.core.records:decode_value"),
    ("core.keys", "repro.core.keys:BitKey.data_key"),
    ("core.keys", "repro.core.keys:BitKey.to_bytes"),
    ("core.keys", "repro.core.keys:BitKey.from_encoded"),
    ("core.verifier", "repro.core.multiverifier:VerifierGroup.process_batch"),
    ("core.verifier", "repro.core.multiverifier:VerifierGroup.apply_batch"),
    ("core.verifier",
     "repro.core.multiverifier:VerifierGroup.start_epoch_close"),
    ("core.verifier",
     "repro.core.multiverifier:VerifierGroup.finish_epoch_close"),
    ("merkle", "repro.merkle.sparse:lookup"),
    ("merkle", "repro.merkle.sparse:merkle_parent_of"),
    ("crypto.hashing", "repro.crypto.hashing:hash_bytes"),
    ("crypto.hashing", "repro.crypto.hashing:hash_fields"),
    ("crypto.multiset", "repro.crypto.multiset:MultisetHasher.insert_entry"),
    ("crypto.mac", "repro.crypto.mac:MacKey.sign"),
    ("crypto.mac", "repro.crypto.mac:MacKey.verify"),
    ("enclave", "repro.enclave.enclave:SimulatedEnclave.ecall"),
    ("store", "repro.store.faster:FasterKV.read"),
    ("store", "repro.store.faster:FasterKV.read_record"),
    ("store", "repro.store.faster:FasterKV.upsert"),
    ("store", "repro.store.faster:FasterKV.try_cas"),
    ("store", "repro.store.faster:FasterKV.rmw"),
    ("store", "repro.store.faster:FasterKV.scan_from"),
    ("obs", "repro.obs.trace:Tracer.record"),
    ("obs", "repro.obs.histogram:LatencyRecorder.observe"),
)

LAYERS = tuple(dict.fromkeys(layer for layer, _ in TARGETS))

#: The cost model's subsystems (repro.obs.profile.SUBSYSTEMS) and the
#: layers whose measured self time stands against each modeled share.
MODEL_LAYERS = {
    "merkle": ("crypto.hashing",),
    "multiset": ("crypto.multiset",),
    "mac": ("crypto.mac",),
    "crossings": ("enclave",),
    "store": ("store", "core.log"),
    "host_mirror": ("core.hostmirror",),
}
#: The model prices the host mirror at zero; a modeled share is floored
#: here so ``model_gap`` stays a finite number that still says "unpriced".
MODEL_SHARE_FLOOR = 0.001

#: name -> unit of every per-layer metric a ``--trace 1`` run reports.
PER_LAYER = {
    **{f"{layer}.{figure}": unit for layer in LAYERS
       for figure, unit in (("self_us_per_op", "us"),
                            ("calls_per_op", "count"))},
    "core.hostmirror.victims_us_per_op": "us",
    "core.hostmirror.evictions_per_op": "count",
    "core.fastver.verify_ms_per_close": "ms",
    "core.fastver.reapplied_per_close": "count",
    "core.fastver.checkpoint_ms": "ms",
    "core.verifier.cache_hit_ratio": "ratio",
    "core.verifier.merkle_adds_per_op": "count",
    "core.verifier.deferred_adds_per_op": "count",
    "crypto.merkle_hashes_per_op": "count",
    "crypto.merkle_hash_bytes_per_op": "B",
    "crypto.multiset_updates_per_op": "count",
    "crypto.mac_ops_per_op": "count",
    "enclave.crossings_per_op": "count",
    "enclave.log_entries_per_crossing": "count",
    "store.reads_per_op": "count",
    "store.writes_per_op": "count",
    "store.cas_failures": "count",
    "server.maintain_ms_per_close": "ms",
    "server.batch_fill_avg": "count",
    "server.crossings_saved_per_op": "count",
    "server.shed": "count",
    "client.retries": "count",
    "obs.events_per_op": "count",
    "obs.off_speedup": "ratio",
    **{f"model_gap.{subsystem}": "ratio" for subsystem in MODEL_LAYERS},
    "trace.overhead_ratio": "ratio",
    "trace.coverage": "ratio",
}

#: Spans written to the trace file (the ledger uses every span).
TRACE_FILE_SPANS = 20_000


def resolve(target: str):
    """(owner, attribute name, current value) of a TARGETS entry; raises
    AttributeError/ImportError when it no longer resolves."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, name, getattr(owner, name)


def self_times(durations, parents) -> list[int]:
    """Self time of each span: its duration minus its children's (the
    program is single-threaded, so child spans nest and never overlap)."""
    own = list(durations)
    for i, parent in enumerate(parents):
        if parent >= 0:
            own[parent] -= durations[i]
    return own


class SpanRecorder:
    """Wraps the TARGETS that resolve and records one span per call."""

    def __init__(self, capacity: int = 1 << 20):
        self.capacity = capacity
        self.target = array("i", bytes(4 * capacity))
        self.start = array("q", bytes(8 * capacity))
        self.end = array("q", bytes(8 * capacity))
        self.parent = array("i", bytes(4 * capacity))
        self.op = array("i", bytes(4 * capacity))
        self.n = 0          # spans recorded
        self.open = -1      # innermost span still running
        self.ops = 0        # outermost traced calls so far (the op id)
        self.unresolved: list[str] = []
        self._installed: list[tuple[object, str, object]] = []

    def _grow(self) -> None:
        for buffer in (self.target, self.start, self.end, self.parent,
                       self.op):
            buffer.frombytes(bytes(buffer.itemsize * self.capacity))
        self.capacity *= 2

    def _wrap(self, fn, target_id: int):
        rec = self
        target, start, end = self.target, self.start, self.end
        parent, op = self.parent, self.op
        now = time.perf_counter_ns

        def traced(*args, **kwargs):
            i = rec.n
            if i == rec.capacity:
                rec._grow()
            rec.n = i + 1
            up = rec.open
            rec.open = i
            if up < 0:
                rec.ops += 1
            target[i] = target_id
            parent[i] = up
            op[i] = rec.ops
            start[i] = now()
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = now()
                rec.open = up

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target. One that no longer resolves is noted (its
        layer's figures become null) with a warning, never a crash."""
        for target_id, (layer, target) in enumerate(TARGETS):
            try:
                owner, name, current = resolve(target)
            except (ImportError, AttributeError) as exc:
                self.unresolved.append(target)
                print(f"bench_native: warning: {target} ({layer}) does not "
                      f"resolve: {exc}", file=sys.stderr)
                continue
            raw = vars(owner).get(name, current)
            if isinstance(raw, (staticmethod, classmethod)):
                self._set(owner, name, raw,
                          type(raw)(self._wrap(raw.__func__, target_id)))
                continue
            wrapped = self._wrap(raw, target_id)
            self._set(owner, name, raw, wrapped)
            if not isinstance(owner, type):
                # A module-level function: other modules hold copies.
                for module_name, module in list(sys.modules.items()):
                    if not module_name.startswith("repro") or module is owner:
                        continue
                    for alias, value in list(vars(module).items()):
                        if value is raw:
                            self._set(module, alias, raw, wrapped)

    def _set(self, owner, name: str, original, replacement) -> None:
        setattr(owner, name, replacement)
        self._installed.append((owner, name, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._installed):
            setattr(owner, name, original)
        self._installed.clear()

    # ------------------------------------------------------------------
    def ledger(self) -> dict[str, dict]:
        """Per target: calls, total and self nanoseconds."""
        n = self.n
        durations = [self.end[i] - self.start[i] for i in range(n)]
        own = self_times(durations, self.parent[:n])
        rows = {target: {"layer": layer, "calls": 0, "total_ns": 0,
                         "self_ns": 0} for layer, target in TARGETS}
        names = [target for _layer, target in TARGETS]
        for i in range(n):
            row = rows[names[self.target[i]]]
            row["calls"] += 1
            row["total_ns"] += durations[i]
            row["self_ns"] += own[i]
        return rows

    def write(self, path, ledger: dict) -> None:
        """The trace file: the ledger, and the first TRACE_FILE_SPANS
        spans as [target, start_ns, end_ns, parent span, op id] rows."""
        n = min(self.n, TRACE_FILE_SPANS)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            json.dump({
                "targets": [target for _layer, target in TARGETS],
                "ledger": ledger,
                "spans_recorded": self.n,
                "span_fields": ["target", "start_ns", "end_ns", "parent",
                                "op"],
                "spans": [[self.target[i], self.start[i], self.end[i],
                           self.parent[i], self.op[i]] for i in range(n)],
            }, out)


def modeled_shares(counters: dict[str, int]) -> dict[str, float]:
    """The cost model's share of modeled time per subsystem, for the
    same counter deltas the traced run produced."""
    from repro.instrument import Counters
    from repro.obs import attribute_costs
    return attribute_costs(Counters(**counters)).fractions()


def per_layer(ledger: dict[str, dict], unresolved: list[str],
              measured: dict, deferred_at_close: list[int],
              checkpoint_ms: float | None) -> dict[str, float | None]:
    """Every PER_LAYER figure this one traced run can give (the ratios
    against other arms are added by the caller). ``None`` = a target of
    that layer no longer resolves."""
    ops = measured["key_ops"]
    closes = measured["closes"]
    c = measured["counters"]
    broken = {layer for layer, target in TARGETS if target in unresolved}
    self_ns = dict.fromkeys(LAYERS, 0)
    calls = dict.fromkeys(LAYERS, 0)
    for row in ledger.values():
        self_ns[row["layer"]] += row["self_ns"]
        calls[row["layer"]] += row["calls"]
    out: dict[str, float | None] = {}
    for layer in LAYERS:
        ok = layer not in broken
        out[f"{layer}.self_us_per_op"] = self_ns[layer] / 1e3 / ops if ok else None
        out[f"{layer}.calls_per_op"] = calls[layer] / ops if ok else None

    def row(target: str):
        return None if target in unresolved else ledger[target]

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    victims = row("repro.core.hostmirror:VerifierMirror.victims")
    verify = row("repro.core.fastver:FastVer.verify")
    maintain = row("repro.server.pipeline:FastVerServer.maintain")
    out.update({
        "core.hostmirror.victims_us_per_op":
            victims and victims["self_ns"] / 1e3 / ops,
        "core.hostmirror.evictions_per_op":
            (c["merkle_evicts"] + c["deferred_evicts"]) / ops,
        "core.fastver.verify_ms_per_close":
            verify and ratio(verify["total_ns"] / 1e6, closes),
        "core.fastver.reapplied_per_close":
            ratio(sum(deferred_at_close), len(deferred_at_close)),
        "core.fastver.checkpoint_ms": checkpoint_ms,
        "core.verifier.cache_hit_ratio":
            ratio(c["cache_hits"], c["cache_hits"] + c["cache_misses"]),
        "core.verifier.merkle_adds_per_op": c["merkle_adds"] / ops,
        "core.verifier.deferred_adds_per_op": c["deferred_adds"] / ops,
        "crypto.merkle_hashes_per_op": c["merkle_hashes"] / ops,
        "crypto.merkle_hash_bytes_per_op": c["merkle_hash_bytes"] / ops,
        "crypto.multiset_updates_per_op": c["multiset_updates"] / ops,
        "crypto.mac_ops_per_op": c["mac_ops"] / ops,
        "enclave.crossings_per_op": c["enclave_entries"] / ops,
        "enclave.log_entries_per_crossing":
            ratio(c["log_entries"], c["enclave_entries"]),
        "store.reads_per_op": c["store_reads"] / ops,
        "store.writes_per_op": c["store_writes"] / ops,
        "store.cas_failures": c["cas_failures"],
        "server.maintain_ms_per_close":
            maintain and ratio(maintain["total_ns"] / 1e6, closes),
        "server.batch_fill_avg": ratio(c["batch_ops_total"], c["batches"]),
        "server.crossings_saved_per_op": c["crossings_saved"] / ops,
        "server.shed": c["shed"],
        "client.retries": c["retried"],
        "obs.events_per_op": None if "obs" in broken else calls["obs"] / ops,
    })
    traced_ns = sum(self_ns.values())
    modeled = modeled_shares(c)
    for subsystem, layers in MODEL_LAYERS.items():
        if broken.intersection(layers):
            out[f"model_gap.{subsystem}"] = None
            continue
        share = ratio(sum(self_ns[layer] for layer in layers), traced_ns)
        out[f"model_gap.{subsystem}"] = share / max(
            modeled[subsystem], MODEL_SHARE_FLOOR)
    out["trace.coverage"] = ratio(traced_ns / 1e9, measured["wall_s"])
    return out

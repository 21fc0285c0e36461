"""One description of "which stack is this", and the one place it is built.

A :class:`Topology` names a deployment of the one verifier core (paper §8,
"Systems Evaluated"). Its string form — ``failover:3+scrub``, ``server+slo``
— is what ``--topology`` takes, chaos reports print as ``mode``, and CI and
the digest pins key on; docs/PROTOCOL.md ("Topologies") has the term table.
"""

from dataclasses import dataclass

from repro import (BackoffPolicy, Client, FastVer, FastVerConfig,
                   FastVerServer, MacKey, ReplicationConfig, RetryingClient,
                   ServerConfig)
from repro.obs.slo import SloConfig

#: ``direct`` calls, or a server pumping per op / in group commits / streamed.
SERVING = ("direct", "server", "batched", "pipelined")


@dataclass(frozen=True)
class Topology:
    serving: str = "direct"
    #: Replication-group size; any standby means kill-primary failover.
    standbys: int = 0
    scrub: bool = False
    slo: bool = False

    def __post_init__(self):
        if self.serving not in SERVING or self.standbys < 0 \
                or (self.standbys and not self.served):
            raise ValueError(f"contradictory topology: {self.standbys} "
                             f"standby(s) behind {self.serving!r} serving")

    @property
    def served(self) -> bool:
        return self.serving != "direct"

    @property
    def batched(self) -> bool:
        return self.serving in ("batched", "pipelined")

    def __str__(self) -> str:
        terms = [self.serving]
        if self.standbys:
            terms.append("failover" if self.standbys == 1
                         else f"failover:{self.standbys}")
        terms += [flag for flag in ("scrub", "slo") if getattr(self, flag)]
        # "failover" alone means a server, "scrub" alone a direct store.
        if len(terms) > 1 and \
                terms[0] == ("server" if self.standbys else "direct"):
            del terms[0]
        return "+".join(terms)

    @classmethod
    def parse(cls, text: str) -> "Topology":
        fields: dict = {}
        for term in text.split("+"):
            name, colon, count = term.partition(":")
            if term in SERVING:
                field, value = "serving", term
            elif name == "failover" and (count.isdigit() or not colon):
                field, value = "standbys", int(count) if colon else 1
            elif term in ("scrub", "slo"):
                field, value = term, True
            else:
                field, value = term, None
            if field in fields or not value:
                raise ValueError(f"unknown or contradictory term {term!r} "
                                 f"in topology {text!r}")
            fields[field] = value
        fields.setdefault("serving",
                          "server" if "standbys" in fields else "direct")
        return cls(**fields)


#: The test-sized store chaos and red-team run against.
SMALL = FastVerConfig(key_width=16, n_workers=2, partition_depth=3,
                      cache_capacity=64)


class Stack:
    """What :func:`build` returns (no ``server`` or ``sdk`` when direct)."""

    def __init__(self, db, client, server=None, sdk=None):
        self._db = db
        self.client = client
        self.server = server
        self.sdk = sdk

    @property
    def db(self) -> FastVer:
        """The live database (a server swaps its own on salvage/promotion)."""
        return self.server.db if self.server is not None else self._db

    @property
    def now(self) -> float:
        return self.server.now if self.server is not None else 0.0

    def op(self, key, payload: bytes | None = None, worker: int = 0):
        """One honest get (``payload`` None) or put through the stack."""
        if self.sdk is not None:
            return (self.sdk.get(key) if payload is None
                    else self.sdk.put(key, payload))
        if payload is None:
            return self._db.get(self.client, key, worker=worker)
        return self._db.put(self.client, key, payload, worker=worker)

    def close_epoch(self) -> None:
        """Honest epoch close + checkpoint."""
        if self.server is not None:
            self.server.maintain()
        else:
            self._db.verify()
            self._db.flush()
            self._db.checkpoint()


def build(topology: Topology, items, *, seed: int, label: str,
          client_id: int = 1, fastver: FastVerConfig = SMALL,
          server: dict | None = None, backoff: BackoffPolicy | None = None,
          **hooks) -> Stack:
    """Load ``items`` into a fresh FastVer, register one client keyed by
    ``label``, take the clean baseline checkpoint, and put the serving
    stack ``topology`` names in front of it. ``server`` overrides
    :class:`ServerConfig` fields (its ``slo`` entry is what to arm *if*
    the topology arms one); ``hooks`` may carry the server's ``salvage``
    and the group's ``promote`` callback. A direct store has no pump to
    run a scrubber from: under ``scrub`` the harness drives its own."""
    db = FastVer(fastver, items=items)
    client = Client(client_id, MacKey.generate(label))
    db.register_client(client)
    db.verify()
    db.checkpoint()
    if not topology.served:
        return Stack(db, client)
    cfg: dict = {"scrub_enabled": topology.scrub}
    if topology.batched:
        cfg.update(group_commit=True, max_batch_ops=4, max_batch_ticks=16.0,
                   pipeline=topology.serving == "pipelined")
    cfg.update(server or {})
    cfg["slo"] = cfg.get("slo", SloConfig()) if topology.slo else None
    srv = FastVerServer(db, ServerConfig(**cfg),
                        salvage_hook=hooks.get("salvage"), warm=items)
    if topology.standbys:
        srv.attach_standby(
            config=ReplicationConfig(n_standbys=topology.standbys),
            promote_hook=hooks.get("promote"))
    sdk = RetryingClient(srv, client, policy=backoff or BackoffPolicy(
        max_attempts=5, base_delay=2.0, max_delay=16.0, seed=seed))
    return Stack(db, client, srv, sdk)

#!/usr/bin/env python3
"""Durability demo (§7): epoch-synchronized checkpoints, crash recovery,
the rollback attack the sealed slot defeats, a surprise enclave reboot in
the middle of an epoch, and log-scan salvage of a damaged device.

Run:  python examples/crash_recovery.py
"""

from repro import FastVer, FastVerConfig, new_client
from repro.errors import EnclaveRebootError, RollbackError
from repro.faults import FaultPlan, install_faults
from repro.store.recovery import salvage


def main() -> None:
    db = FastVer(
        FastVerConfig(key_width=32, n_workers=2, partition_depth=3,
                      cache_capacity=128),
        items=[(k, b"v%d" % k) for k in range(500)],
    )
    client = new_client(1)
    db.register_client(client)

    db.put(client, 1, b"before-checkpoint")
    db.verify()
    db.flush()
    ckpt1 = db.checkpoint()
    print("checkpoint v%d taken (epoch %d verified)"
          % (ckpt1.version, client.settled_epoch))

    db.put(client, 1, b"after-checkpoint")
    db.verify()
    db.flush()
    ckpt2 = db.checkpoint()
    print("checkpoint v%d taken (epoch %d verified)"
          % (ckpt2.version, client.settled_epoch))

    # --- crash! -----------------------------------------------------------
    print("\n[crash] enclave rebooted, volatile state lost")
    db.recover(ckpt2)
    print("recovered from v%d: get(1) -> %r"
          % (ckpt2.version, db.get(client, 1).payload))
    db.verify()
    db.flush()
    print("post-recovery epoch verified; client settled at epoch",
          client.settled_epoch)

    # --- the rollback attack ------------------------------------------------
    print("\n[attack] host replays the OLDER checkpoint to hide the update")
    try:
        db.recover(ckpt1)
        print("!! rollback accepted (should never happen)")
    except RollbackError as exc:
        print("[verifier] ROLLBACK DETECTED:", exc)
    # The failed restore left the enclave empty; recovering from the
    # legitimate checkpoint brings service back.
    db.recover(ckpt2)
    print("service restored from v%d after the failed rollback"
          % ckpt2.version)

    # --- a surprise reboot in the middle of an epoch ------------------------
    print("\n[fault] enclave reboots mid-epoch (power loss on the TEE)")
    db.put(client, 2, b"mid-epoch")
    install_faults(db, FaultPlan(seed=0, specs={"ecall.reboot": [0]}))
    try:
        db.verify()
        print("!! epoch closed across a reboot (should never happen)")
    except EnclaveRebootError:
        print("[enclave] rebooted mid-epoch; the epoch failed loudly, "
              "nothing half-committed")
    install_faults(db, None)
    db.recover(db.last_checkpoint)
    db.put(client, 2, b"post-recovery")
    db.verify()
    db.flush()
    print("reboot-mid-epoch recovered: get(2) -> %r (settled epoch %d)"
          % (db.get(client, 2).payload, client.settled_epoch))

    # --- a damaged device page and log-scan salvage -------------------------
    print("\n[damage] one log page rots on the untrusted device")
    device = db.store.log.device
    tail = db.store.log.tail_address
    db.store.log.flush_until(tail)
    current = dict(db.items_snapshot())
    victim = sorted(a for a in range(tail) if a in device)[len(device) // 2]
    device._pages[victim] = b"\x00bitrot"
    survivors = dict(salvage(device, tail, db.config.key_width))
    latest = sum(current.get(k) == payload for k, payload in survivors.items())
    print("[salvage] skipped the rotten page %d and kept %d records, %d of %d "
          "at their latest value" % (victim, len(survivors), latest,
                                     len(current)))


if __name__ == "__main__":
    main()

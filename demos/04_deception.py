"""Tripwires for attackers who made it past everything else.

Three primitives, all cheap: canary tokens hidden in firmware images
(nobody legitimate reads those bytes), canary ports that nothing real
listens on, and a moving-target schedule that reshuffles device
addresses so yesterday's reconnaissance is stale. A feint patch rounds
it out by advertising decoy change-regions in unsigned metadata.

Run:  python3 demos/04_deception.py
"""

import random

from fleetsec.deception import (
    MtdSpec,
    PortCanaries,
    attach_feint_patch,
    check_access,
    make_schedule,
    mtd_rotate,
    plant_canary,
)

rng = random.Random(5)

firmware = bytes(range(256)) * 16
planted, token = plant_canary(firmware, rng)
print(f"token at offset {token.placement} of {len(planted)}-byte image")

# Reads that stay clear of the token are silent. A dump that touches it
# names the actor in the alert it returns; the token keeps no log.
assert check_access(token, (0, 1024, 300, "updater"), "cam-7") is None
alert = check_access(token, (0, len(planted), 301, "attacker:probe"), "cam-7")
print(f"alert at t={alert.time}: {alert.kind} on {alert.device_id} by {alert.actor}")

# Port canaries: 443 is real, 8022 and 8443 only exist to be touched.
ports = PortCanaries("cam-7", legitimate_ports=[443])
ports.open_canary_port(8022)
ports.open_canary_port(8443)
assert ports.record_connection(443, source="alice", time=10) is None
hit = ports.record_connection(8022, source="attacker:scan", time=11)
print(f"alert: {hit.kind} port 8022 by {hit.actor}")

# MTD: every rotation is a fresh injective assignment from the pool, and
# with a strictly larger pool every device is guaranteed to move.
# The interval and pool are one MtdSpec, as in a scenario's deception.mtd.
spec = MtdSpec(rotation_interval=60, address_pool=tuple(f"10.9.0.{i}" for i in range(10)))
schedule = make_schedule(spec, device_ids=["cam-7", "cam-8", "cam-9"], rng=rng)
print(f"initial addresses: {dict(schedule.assignment)}")
for k in range(1, 4):
    moved = mtd_rotate(schedule, now=k * 60, rng=rng)
    changed = sum(moved.assignment[d] != schedule.assignment[d] for d in moved.assignment)
    print(f"rotation {k}: {changed}/3 devices moved")
    schedule = moved

# Feint patch: decoy regions ride in debug metadata that nothing signs,
# so a verifier's verdict cannot depend on them. Their only job is to
# waste a reverse engineer's afternoon.
meta = {"image_size": len(planted), "build": "2026.08"}
meta = attach_feint_patch(meta, [(512, 64, "rewritten key schedule"), (2048, 128, "new auth path")])
print(f"feint regions: {[p['note'] for p in meta['feint_patches']]}")

"""Firmware updates a device can check for itself.

Every manifest carries a signed timestamp over the image digest, so a
device can refuse anything older than what it already runs without
trusting the network clock. This script provisions a tiny PKI, ships an
update, then tries the classic attacks against it: replay, tampering,
and pulling the power mid-write.

Run:  python3 demos/02_secure_updates.py
"""

import dataclasses
import hashlib

from fleetsec import Keystore, TimestampAuthority, apply_update, boot, build_manifest, initial_state
from fleetsec.update_protocol import (
    DeviceMode,
    Slots,
    device_verify,
    interrupt_update,
    recover_to_trusted,
)

store = Keystore(seed=2024)
store.generate_key("publisher")
store.generate_key("tsa-root")
tsa = TimestampAuthority(store, "tsa-root")

fw1 = bytes([1]) * 4096
fw2 = bytes([2]) * 4096

# Factory state: v1 in slot A, trust anchors burned in.
state = initial_state(
    hashlib.sha256(fw1).digest(), 1,
    store.public_key("tsa-root"), store.public_key("publisher"), gen_time=0,
)
print(f"factory: v{state.active().version} in slot {state.active_slot.value}")

m2 = build_manifest(fw2, "cam-fw", 2, expiry=1000, publisher_key=store.handle("publisher"), tsa=tsa, now=100)
print(f"manifest v2 timestamped serial={m2.token.serial} gen_time={m2.token.gen_time}")

# The happy path installs into the inactive slot and flips.
state = apply_update(state, m2, fw2, now=150)
print(f"updated: v{state.active().version} in slot {state.active_slot.value}, v1 kept in {state.active_slot.other().value}")

# Replaying the accepted manifest is not fresh any more. The old v1
# manifest loses for the same reason: its timestamp predates what runs.
events = []
state = apply_update(state, m2, fw2, now=200, events=events)
print(f"replay of v2: rejected ({events[-1].reason})")

# One flipped byte and the image no longer matches the signed digest.
tampered = bytearray(fw2)
tampered[100] ^= 0xFF
print(f"tampered image: {device_verify(state, m2, bytes(tampered), now=200)}")

# Power loss halfway through writing v3. The torn slot never becomes
# active; boot lands on the intact one.
fw3 = bytes([3]) * 4096
m3 = build_manifest(fw3, "cam-fw", 3, expiry=1000, publisher_key=store.handle("publisher"), tsa=tsa, now=300)
torn = interrupt_update(state, m3, fw3, cut_point=0.6)
print(f"interrupted write: mode={torn.mode.value}, inactive verified={torn.inactive().verified}")
torn, booted = boot(torn)
print(f"boot after interrupt: slot {booted.value}, v{torn.active().version}, mode={torn.mode.value}")

# Retry completes the update.
state = apply_update(torn, m3, fw3, now=310)
print(f"retried: v{state.active().version}")

# If both slots are ever unverified the device refuses to run anything
# and waits for factory recovery. Recovery still checks signatures and
# digests, it only waives freshness (a factory image is old by nature).
bricked = dataclasses.replace(
    state,
    slots=Slots(
        a=dataclasses.replace(state.slots.a, verified=False),
        b=dataclasses.replace(state.slots.b, verified=False),
    ),
)
bricked, booted = boot(bricked)
print(f"both slots torn: boot -> {booted}, mode={bricked.mode.value}")

factory = build_manifest(fw1, "cam-fw", 1, expiry=10_000, publisher_key=store.handle("publisher"), tsa=tsa, now=5)
recovered = recover_to_trusted(bricked, factory, fw1, now=400)
assert recovered.mode is DeviceMode.RUNNING
print(f"factory recovery: v{recovered.active().version} in slot {recovered.active_slot.value}, needs re-provisioning")

"""Firmware manifests and the on-device A/B update state machine.

A manifest binds (firmware_id, version, digest, expiry) to a timestamp
token over the digest, all under a publisher signature. Devices verify
with a fixed check order so rejection reasons are deterministic, write
only the inactive slot, and fall back to the last verified slot when a
boot finds the active one unverified. A device with no bootable slot
parks in a fail state until factory recovery. Install and factory
recovery return the new state together with their verdict; a rejected
manifest leaves the state as it was.

Rollback protection is a conjunction: the candidate must carry both a
higher version and a later token gen_time than the active slot. Version
alone breaks if a publisher key is misused to renumber old firmware; a
timestamp alone breaks under TSA clock reuse.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import Iterator

from .errors import FleetsecError
from .keystore import KeyHandle, PublicKeyInfo, verify
from .tsa import (
    MismatchedImprintError,
    TimestampAuthority,
    TimestampToken,
    UntrustedSignerError,
    decode_token,
    verify_token,
)
from .wire import U64_MAX, ConfigError, Reader, b64e, build, load_json, lp, read_spec, save_json, u64, write_spec

DIGEST_LEN = 32


class ExpiryInPastError(FleetsecError):
    pass


class NotInFailStateError(FleetsecError):
    pass


class RejectReason(str, Enum):
    BAD_PUBLISHER_SIG = "BadPublisherSig"
    UNTRUSTED_TIMESTAMP = "UntrustedTimestamp"
    DIGEST_MISMATCH = "DigestMismatch"
    ROLLBACK = "Rollback"
    EXPIRED = "Expired"
    FAIL_STATE = "FailState"  # apply_update only: the device waits for factory recovery


@dataclass(frozen=True)
class Verdict:
    accepted: bool
    reason: RejectReason | None = None

    def __post_init__(self):
        if self.accepted and self.reason is not None:
            raise ValueError("accepted verdict cannot carry a reason")
        if not self.accepted and self.reason is None:
            raise ValueError("rejected verdict needs a reason")

    def __str__(self) -> str:
        if self.accepted:
            return "Accept"
        return f"Reject({self.reason.value})"

    @classmethod
    def accept(cls) -> Verdict:
        return cls(True)

    @classmethod
    def reject(cls, reason: RejectReason) -> Verdict:
        return cls(False, reason)


def manifest_signed_body(
    firmware_id: str, version: int, digest: bytes, expiry: int, token: TimestampToken
) -> bytes:
    return (
        lp(firmware_id.encode("utf-8"))
        + u64(version)
        + lp(digest)
        + u64(expiry)
        + lp(token.encode())
    )


@dataclass(frozen=True)
class FirmwareManifest:
    """Signed update authorization.

    Honest publishers produce token.imprint = digest and expiry >
    token.gen_time (build_manifest guarantees both). The type itself does
    not reject other combinations: verification has to be able to examine
    adversarial manifests and name what is wrong with them.
    """

    firmware_id: str
    version: int
    digest: bytes
    expiry: int
    token: TimestampToken
    publisher_sig: bytes

    def __post_init__(self):
        if self.version < 0:
            raise ConfigError("version", "must be non-negative")
        for name in ("version", "expiry"):
            if getattr(self, name) > U64_MAX:
                raise ConfigError(name, "must be at most 2**64 - 1")
        if len(self.digest) != DIGEST_LEN:
            raise ConfigError("digest", f"must be {DIGEST_LEN} bytes")

    def signed_body(self) -> bytes:
        return manifest_signed_body(
            self.firmware_id, self.version, self.digest, self.expiry, self.token
        )

    def encode(self) -> bytes:
        return self.signed_body() + lp(self.publisher_sig)

    def to_json_obj(self, debug: dict | None = None) -> dict:
        obj = {
            "firmware_id": self.firmware_id,
            "version": self.version,
            "digest": b64e(self.digest),
            "expiry": self.expiry,
            "token": b64e(self.token.encode()),
            "publisher_sig": b64e(self.publisher_sig),
        }
        if debug is not None:
            obj["debug"] = debug
        return obj


def decode_manifest(data: bytes) -> FirmwareManifest:
    reader = Reader(data)
    firmware_id = reader.lp().decode("utf-8", errors="replace")
    version = reader.u64()
    digest = reader.lp()
    expiry = reader.u64()
    token = decode_token(reader.lp(), "manifest.token")
    publisher_sig = reader.lp()
    reader.expect_end()
    return build(FirmwareManifest, "manifest", firmware_id, version, digest, expiry, token, publisher_sig)


def build_manifest(
    firmware: bytes,
    firmware_id: str,
    version: int,
    expiry: int,
    publisher_key: KeyHandle,
    tsa: TimestampAuthority,
    now: int,
) -> FirmwareManifest:
    if expiry <= now:
        raise ExpiryInPastError(f"expiry {expiry} is not after now {now}")
    digest = hashlib.sha256(firmware).digest()
    token = tsa.issue_token(digest, now)
    unsigned = FirmwareManifest(firmware_id, version, digest, expiry, token, b"")
    return replace(unsigned, publisher_sig=publisher_key.sign(unsigned.signed_body()))


class Slot(str, Enum):
    A = "A"
    B = "B"

    def other(self) -> Slot:
        return Slot.B if self is Slot.A else Slot.A


class DeviceMode(str, Enum):
    RUNNING = "Running"
    UPDATING = "Updating"
    FAIL_STATE = "FailState"


@dataclass(frozen=True)
class SlotState:
    image_digest: bytes
    version: int
    gen_time: int
    verified: bool

    def __post_init__(self):
        if len(self.image_digest) != DIGEST_LEN:
            raise ConfigError("image_digest", f"must be {DIGEST_LEN} bytes")


# version/gen_time -1 lose every freshness comparison against real manifests
EMPTY_SLOT = SlotState(image_digest=b"\x00" * DIGEST_LEN, version=-1, gen_time=-1, verified=False)


@dataclass(frozen=True)
class Slots:
    a: SlotState = field(metadata={"key": "A"})
    b: SlotState = field(metadata={"key": "B"})


@dataclass(frozen=True)
class DeviceUpdateState:
    active_slot: Slot
    slots: Slots
    trust_anchor_tsa: PublicKeyInfo
    trust_anchor_publisher: PublicKeyInfo
    mode: DeviceMode

    def slot(self, which: Slot) -> SlotState:
        return self.slots.a if which is Slot.A else self.slots.b

    def active(self) -> SlotState:
        return self.slot(self.active_slot)

    def inactive(self) -> SlotState:
        return self.slot(self.active_slot.other())

    def _with_slot(self, which: Slot, value: SlotState, **changes) -> DeviceUpdateState:
        slots = replace(self.slots, **{"a" if which is Slot.A else "b": value})
        return replace(self, slots=slots, **changes)

    def save(self, path: str | Path) -> None:
        save_json(path, write_spec(self))

    @classmethod
    def load(cls, path: str | Path) -> DeviceUpdateState:
        """The state saved at path; each mistake is a ConfigError at its key path under path."""
        return build(cls, str(path), **read_spec(cls, load_json(path), str(path)))


def initial_state(
    image_digest: bytes,
    version: int,
    trust_anchor_tsa: PublicKeyInfo,
    trust_anchor_publisher: PublicKeyInfo,
    gen_time: int = 0,
) -> DeviceUpdateState:
    """Factory-fresh device: verified image in slot A, slot B empty."""
    return DeviceUpdateState(
        active_slot=Slot.A,
        slots=Slots(SlotState(image_digest, version, gen_time, verified=True), EMPTY_SLOT),
        trust_anchor_tsa=trust_anchor_tsa,
        trust_anchor_publisher=trust_anchor_publisher,
        mode=DeviceMode.RUNNING,
    )


def _failed_checks(
    state: DeviceUpdateState,
    manifest: FirmwareManifest,
    firmware: bytes,
    now: int,
    freshness: bool = True,
) -> Iterator[RejectReason]:
    """The verification order, walked by install and by factory recovery.

    Yields the reason of each failing check, lazily: a caller that takes
    the first reason runs no check after it.
    """
    if not verify(state.trust_anchor_publisher, manifest.signed_body(), manifest.publisher_sig):
        yield RejectReason.BAD_PUBLISHER_SIG
    try:
        verify_token(manifest.token, manifest.digest, state.trust_anchor_tsa)
    except (UntrustedSignerError, MismatchedImprintError):
        yield RejectReason.UNTRUSTED_TIMESTAMP
    if hashlib.sha256(firmware).digest() != manifest.digest:
        yield RejectReason.DIGEST_MISMATCH
    active = state.active()
    if freshness and not (
        manifest.version > active.version and manifest.token.gen_time > active.gen_time
    ):
        yield RejectReason.ROLLBACK
    if not now < manifest.expiry:
        yield RejectReason.EXPIRED


def device_verify(
    state: DeviceUpdateState, manifest: FirmwareManifest, firmware: bytes, now: int
) -> Verdict:
    """Pure verification; first failing check names the reason.

    Order: publisher signature, timestamp token, image digest, freshness
    (version AND gen_time both strictly newer than the active slot),
    expiry. Authenticity before freshness keeps reasons deterministic and
    stops an attacker from probing version state with unsigned junk.
    """
    reason = next(_failed_checks(state, manifest, firmware, now), None)
    return Verdict.accept() if reason is None else Verdict.reject(reason)


def _installed(manifest: FirmwareManifest) -> SlotState:
    """The verified slot an accepted manifest installs."""
    return SlotState(manifest.digest, manifest.version, manifest.token.gen_time, verified=True)


def apply_update(
    state: DeviceUpdateState, manifest: FirmwareManifest, firmware: bytes, now: int
) -> tuple[DeviceUpdateState, Verdict]:
    """Install into the inactive slot on Accept; return the new state and the verdict.

    On a rejection the state comes back unchanged. A device in its fail
    state refuses every manifest with FailState until factory recovery.
    """
    if state.mode is DeviceMode.FAIL_STATE:
        return state, Verdict.reject(RejectReason.FAIL_STATE)
    verdict = device_verify(state, manifest, firmware, now)
    if not verdict.accepted:
        return state, verdict
    target = state.active_slot.other()
    installed = state._with_slot(target, _installed(manifest), active_slot=target, mode=DeviceMode.RUNNING)
    return installed, verdict


def interrupt_update(
    state: DeviceUpdateState,
    manifest: FirmwareManifest,
    firmware: bytes,
    cut_point: float,
) -> DeviceUpdateState:
    """Model a write torn at cut_point: inactive slot holds a partial image."""
    if not 0 <= cut_point < 1:
        raise ValueError(f"cut_point must be in [0, 1), got {cut_point}")
    partial = firmware[: int(len(firmware) * cut_point)]
    torn = SlotState(
        image_digest=hashlib.sha256(partial).digest(),
        version=manifest.version,
        gen_time=manifest.token.gen_time,
        verified=False,
    )
    return state._with_slot(
        state.active_slot.other(), torn, mode=DeviceMode.UPDATING
    )


def boot(state: DeviceUpdateState) -> tuple[DeviceUpdateState, Slot | None]:
    """Boot the active slot, fall back to the other, or park in FailState."""
    if state.active().verified:
        return replace(state, mode=DeviceMode.RUNNING), state.active_slot
    fallback = state.active_slot.other()
    if state.slot(fallback).verified:
        return replace(state, active_slot=fallback, mode=DeviceMode.RUNNING), fallback
    return replace(state, mode=DeviceMode.FAIL_STATE), None


def recover_to_trusted(
    state: DeviceUpdateState,
    factory_manifest: FirmwareManifest,
    factory_firmware: bytes,
    now: int,
) -> tuple[DeviceUpdateState, Verdict]:
    """Factory recovery from FailState; return the new state and the verdict.

    Verification runs as usual minus the freshness check (a factory image
    is by definition old); signature, token, digest, and expiry are still
    enforced because recovery is itself an attack surface. A refused
    image leaves the device in its fail state, unchanged, with the reason
    of the first failing check. Identity must be re-provisioned after a
    recovery; callers flag that in the registry.
    """
    if state.mode is not DeviceMode.FAIL_STATE:
        raise NotInFailStateError(f"device mode is {state.mode.value}")
    failed = _failed_checks(state, factory_manifest, factory_firmware, now, freshness=False)
    reason = next(failed, None)
    if reason is not None:
        return state, Verdict.reject(reason)
    recovered = replace(
        state,
        active_slot=Slot.A,
        slots=Slots(_installed(factory_manifest), EMPTY_SLOT),
        mode=DeviceMode.RUNNING,
    )
    return recovered, Verdict.accept()

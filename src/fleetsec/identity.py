"""Device identity: registration, claim matching, blacklist, lifecycle.

Claim secrets are stored only as salted SHA-256 hashes (salt = the
device id, so equal secrets on different devices hash differently).
Claiming compares hashes in constant time. The lifecycle is a small
state machine:

    Unprovisioned -> Claimed          (claim with matching secret)
    Claimed       -> Deprovisioned    (deprovision; owner cleared)
    Claimed       -> Blacklisted
    Unprovisioned -> Blacklisted
    Deprovisioned -> Unprovisioned    (re-register with a NEW secret)

Blacklisting is terminal: there is no unblacklist operation, and a
blacklisted id cannot be re-registered. Rendezvous sessions model the
device-initiated proxy connection as an opaque unique address.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Iterable

from .errors import FleetsecError
from .keystore import Keystore, PublicKeyInfo
from .wire import ConfigError, build, load_json, read_spec, save_json, write_spec

_FILE_FORMAT = "fleetsec-registry-v1"


class DuplicateDeviceError(FleetsecError):
    pass


class UnknownDeviceError(FleetsecError):
    pass


class BlacklistedError(FleetsecError):
    pass


class SecretMismatchError(FleetsecError):
    pass


class AlreadyClaimedError(FleetsecError):
    pass


class NotClaimedError(FleetsecError):
    pass


class NotClaimableError(FleetsecError):
    """Claim attempted against a deprovisioned record; re-register first."""


class InvalidSessionError(FleetsecError):
    pass


class LifecycleError(FleetsecError):
    """Operation not allowed from the record's current status."""


class Status(str, Enum):
    UNPROVISIONED = "Unprovisioned"
    CLAIMED = "Claimed"
    BLACKLISTED = "Blacklisted"
    DEPROVISIONED = "Deprovisioned"


class Channel(str, Enum):
    PRE_PROVISIONED = "PreProvisioned"
    DEVICE_ENTERED_SECRET = "DeviceEnteredSecret"
    DEVICE_DISPLAYED_KEY = "DeviceDisplayedKey"
    COMPANION_DEVICE = "CompanionDevice"


def claim_hash(device_id: str, secret: bytes) -> bytes:
    return hashlib.sha256(device_id.encode("utf-8") + b"\x1f" + secret).digest()


@dataclass(frozen=True)
class DeviceRecord:
    device_id: str
    claim_hash: bytes
    owner: str | None
    device_pub: PublicKeyInfo | None
    status: Status
    needs_reprovision: bool
    generation: int  # registrations of this id; names its device key

    def __post_init__(self):
        if not self.device_id:
            raise ConfigError("device_id", "must be non-empty")
        if len(self.claim_hash) != 32:
            raise ConfigError("claim_hash", "must be 32 bytes")
        if self.status is Status.CLAIMED and self.owner is None:
            raise ConfigError("owner", "must be set when status is Claimed")
        # blacklisted records keep their last owner for audit
        if self.status in (Status.UNPROVISIONED, Status.DEPROVISIONED) and self.owner is not None:
            raise ConfigError("owner", f"must be null when status is {self.status.value}")


@dataclass(frozen=True)
class _RegistryFile:
    format: str
    seed: int
    next_session: int
    devices: tuple[DeviceRecord, ...]


@dataclass(frozen=True)
class ClaimRequest:
    user: str
    device_id: str
    secret: bytes
    channel: Channel = Channel.PRE_PROVISIONED

    def __post_init__(self):
        if not self.secret:
            raise ConfigError("secret", "must be non-empty")


@dataclass(frozen=True)
class RendezvousSession:
    session_id: str
    device_id: str
    established_at: int
    encrypted: bool = True


class DeviceRegistry:
    """Shared registry service: records, sessions, per-device keypairs.

    Device keypairs live in an internal seeded keystore under ids of the
    form device:<id>:g<generation>; the generation counter bumps on every
    re-registration so a re-provisioned device never reuses key material.
    """

    def __init__(self, seed: int = 0):
        self._seed = int(seed)
        self._keystore = Keystore(seed)
        self._records: dict[str, DeviceRecord] = {}
        # each device's open session, if any: a connect replaces it and a claim uses it up
        self._sessions: dict[str, RendezvousSession] = {}
        self._next_session = 1

    def record(self, device_id: str) -> DeviceRecord:
        try:
            return self._records[device_id]
        except KeyError:
            raise UnknownDeviceError(f"unknown device {device_id!r}") from None

    def device_ids(self) -> list[str]:
        return sorted(self._records)

    def register_device(self, device_id: str, claim_secret: bytes) -> DeviceRecord:
        if not claim_secret:
            raise ConfigError("secret", "must be non-empty")
        existing = self._records.get(device_id)
        if existing is not None and existing.status is not Status.DEPROVISIONED:
            raise DuplicateDeviceError(f"device {device_id!r} already registered")
        rec = DeviceRecord(
            device_id=device_id,
            claim_hash=claim_hash(device_id, claim_secret),
            owner=None,
            device_pub=None,
            status=Status.UNPROVISIONED,
            needs_reprovision=False,
            generation=existing.generation + 1 if existing is not None else 1,
        )
        self._records[device_id] = rec
        return rec

    def device_connect(self, device_id: str, clock: int) -> RendezvousSession:
        rec = self.record(device_id)
        if rec.status is Status.BLACKLISTED:
            raise BlacklistedError(f"device {device_id!r} is blacklisted")
        session = RendezvousSession(
            session_id=f"rv-{self._next_session:06d}",
            device_id=device_id,
            established_at=clock,
        )
        self._next_session += 1
        self._sessions[device_id] = session
        return session

    def claim(self, session: RendezvousSession, request: ClaimRequest) -> DeviceRecord:
        """Link device to user when the secret matches.

        The secret is checked before the claim-state gate so a guesser
        learns nothing about provisioning state from the error, and every
        wrong guess surfaces as SecretMismatch regardless of target. The
        session is used up by this claim, whether it succeeds or fails, so
        each guess costs the guesser a fresh device_connect. Only a
        device's latest session is open.
        """
        if self._sessions.get(session.device_id) != session:
            raise InvalidSessionError("session is not open in this registry")
        del self._sessions[session.device_id]
        if request.device_id != session.device_id:
            raise InvalidSessionError("claim request names a different device")
        rec = self.record(request.device_id)
        if rec.status is Status.BLACKLISTED:
            raise BlacklistedError(f"device {request.device_id!r} is blacklisted")
        offered = claim_hash(request.device_id, request.secret)
        if not hmac.compare_digest(offered, rec.claim_hash):
            raise SecretMismatchError("claim secret does not match")
        if rec.status is Status.CLAIMED:
            raise AlreadyClaimedError(f"device {request.device_id!r} already has an owner")
        if rec.status is Status.DEPROVISIONED:
            raise NotClaimableError(
                f"device {request.device_id!r} is deprovisioned; re-register it first"
            )
        key_id = f"device:{request.device_id}:g{rec.generation}"
        device_pub = self._keystore.generate_key(key_id)
        rec = replace(
            rec,
            status=Status.CLAIMED,
            owner=request.user,
            device_pub=device_pub,
            needs_reprovision=False,
        )
        self._records[request.device_id] = rec
        return rec

    def blacklist(self, device_id: str) -> DeviceRecord:
        rec = self.record(device_id)
        if rec.status is Status.DEPROVISIONED:
            raise LifecycleError(
                f"device {device_id!r} is deprovisioned; re-register before blacklisting"
            )
        rec = replace(rec, status=Status.BLACKLISTED)
        self._records[device_id] = rec
        self._sessions.pop(device_id, None)
        return rec

    def deprovision(self, device_id: str) -> DeviceRecord:
        rec = self.record(device_id)
        if rec.status is not Status.CLAIMED:
            raise NotClaimedError(f"device {device_id!r} is {rec.status.value}")
        rec = replace(
            rec, status=Status.DEPROVISIONED, owner=None, device_pub=None,
            needs_reprovision=True,
        )
        self._records[device_id] = rec
        return rec

    def detect_credential_clone(
        self, observations: Iterable[tuple[str, str, int]]
    ) -> list[str]:
        """Device ids seen from two source tags in overlapping time windows.

        Each (device, source) pair's observations collapse to a closed
        interval [first, last]; two sources overlapping flags theft, while
        disjoint intervals look like a legitimately re-homed device.
        """
        windows: dict[str, dict[str, list[int]]] = {}
        for device_id, source, time in observations:
            per_source = windows.setdefault(device_id, {})
            span = per_source.get(source)
            if span is None:
                per_source[source] = [time, time]
            else:
                span[0] = min(span[0], time)
                span[1] = max(span[1], time)
        flagged = []
        for device_id, per_source in windows.items():
            spans = sorted(per_source.values())
            if any(spans[i + 1][0] <= spans[i][1] for i in range(len(spans) - 1)):
                flagged.append(device_id)
        return sorted(flagged)

    def to_json_obj(self) -> dict:
        """Snapshot without secrets: claim hashes only, never the secrets.

        The keystore seed is included so device keys (hash-derived from
        seed + key id) survive a reload; a production registry would keep
        that in an HSM rather than a JSON file.
        """
        devices = tuple(self._records[d] for d in sorted(self._records))
        return write_spec(_RegistryFile(_FILE_FORMAT, self._seed, self._next_session, devices))

    def save(self, path: str | Path) -> None:
        save_json(path, self.to_json_obj())

    @classmethod
    def from_json_obj(cls, obj, source: str = "registry") -> DeviceRegistry:
        """The registry in obj; each mistake is a ConfigError at its key path under source."""
        if isinstance(obj, dict) and obj.get("format") != _FILE_FORMAT:
            raise ConfigError(f"{source}.format", "missing or unsupported registry format tag")
        file = build(_RegistryFile, source, **read_spec(_RegistryFile, obj, source))
        registry = build(cls, source, file.seed)
        registry._next_session = file.next_session
        for i, rec in enumerate(file.devices):
            path = f"{source}.devices[{i}]"
            if rec.device_id in registry._records:
                raise ConfigError(f"{path}.device_id", f"duplicate device id {rec.device_id!r}")
            registry._records[rec.device_id] = rec
            if rec.device_pub is not None:
                # the key claim issued: this registration's id, its bytes derived from the seed
                key_id, where = f"device:{rec.device_id}:g{rec.generation}", f"{path}.device_pub"
                if rec.status not in (Status.CLAIMED, Status.BLACKLISTED):
                    raise ConfigError(where, f"must be null when status is {rec.status.value}")
                if rec.device_pub.key_id != key_id:
                    raise ConfigError(where, f"key id must be {key_id!r}")
                if registry._keystore.generate_key(key_id).public_bytes != rec.device_pub.public_bytes:
                    raise ConfigError(where, "does not match the registry seed")
        return registry

    @classmethod
    def load(cls, path: str | Path) -> DeviceRegistry:
        """The registry saved at path; each mistake is a ConfigError at its key path under path."""
        return cls.from_json_obj(load_json(path), str(path))

"""Deception primitives: canary tokens, canary ports, feint patches, MTD.

Canary tokens are 16 random bytes embedded in a firmware image; any read
touching the token's range gives an alert naming the reader. Canary
ports alert on every connection, since nothing legitimate listens there.
Both checks return their alert (or None) and keep no log of their own:
the caller decides where alerts go.
Feint patches decorate a manifest's unsigned debug metadata with decoy
change-regions. Moving-target defense rotates device addresses over a
pool on a fixed interval, keeping the assignment injective; its
interval and pool are one MtdSpec, a scenario's `deception.mtd` section.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import FleetsecError
from .wire import ConfigError

TOKEN_LEN = 16


class ImageTooSmallError(FleetsecError):
    pass


class PortInUseError(FleetsecError):
    pass


class PoolTooSmallError(FleetsecError):
    pass


class RegionOutOfBoundsError(FleetsecError):
    pass


@dataclass(frozen=True)
class Alert:
    time: int
    device_id: str
    kind: str
    actor: str
    detail: str


@dataclass(frozen=True)
class CanaryToken:
    token_id: bytes
    placement: int

    def __post_init__(self):
        if len(self.token_id) != TOKEN_LEN:
            raise ValueError(f"token_id must be {TOKEN_LEN} bytes")
        if self.placement < 0:
            raise ValueError("placement must be non-negative")


def plant_canary(
    firmware: bytes, rng: random.Random, offset: int | None = None
) -> tuple[bytes, CanaryToken]:
    """Embed a fresh token; returns the new image and the token record.

    Default placement appends the token so the original image bytes stay
    intact; pass an offset to overwrite in place instead. Either way the
    image digest changes, so the update manifest must be built after
    planting.
    """
    if len(firmware) < TOKEN_LEN:
        raise ImageTooSmallError(
            f"image is {len(firmware)} bytes, need at least {TOKEN_LEN}"
        )
    token_id = rng.randbytes(TOKEN_LEN)
    if offset is None:
        placement = len(firmware)
        planted = firmware + token_id
    else:
        if not 0 <= offset <= len(firmware) - TOKEN_LEN:
            raise RegionOutOfBoundsError(
                f"offset {offset} does not fit a {TOKEN_LEN}-byte token"
            )
        placement = offset
        planted = firmware[:offset] + token_id + firmware[offset + TOKEN_LEN :]
    return planted, CanaryToken(token_id=token_id, placement=placement)


def check_access(
    token: CanaryToken,
    read_event: tuple[int, int, int, str],
    device_id: str = "",
) -> Alert | None:
    """Alert iff the read range (offset, length, time, actor) hits the token."""
    offset, length, time, actor = read_event
    if offset < token.placement + TOKEN_LEN and token.placement < offset + length:
        return Alert(
            time=time,
            device_id=device_id,
            kind="canary_token",
            actor=actor,
            detail=f"read [{offset},{offset + length}) hit canary at {token.placement}",
        )
    return None


class PortCanaries:
    """Per-device canary port table; connections to canaries always alert."""

    def __init__(self, device_id: str, legitimate_ports: Iterable[int] = ()):
        self._device_id = device_id
        self._legitimate = set(legitimate_ports)
        self._canaries: set[int] = set()

    def open_canary_port(self, port: int) -> None:
        if port in self._legitimate or port in self._canaries:
            raise PortInUseError(f"port {port} is already in use")
        self._canaries.add(port)

    def canary_ports(self) -> list[int]:
        return sorted(self._canaries)

    def record_connection(self, port: int, source: str, time: int) -> Alert | None:
        if port not in self._canaries:
            return None
        return Alert(
            time=time,
            device_id=self._device_id,
            kind="canary_port",
            actor=source,
            detail=f"connection to canary port {port}",
        )


@dataclass(frozen=True)
class MtdSpec:
    """Rotate every rotation_interval ticks over a pool of distinct addresses."""

    rotation_interval: int
    address_pool: tuple[str, ...]

    def __post_init__(self):
        if self.rotation_interval < 1:
            raise ConfigError("rotation_interval", "must be positive")
        if not self.address_pool or len(set(self.address_pool)) != len(self.address_pool):
            raise ConfigError("address_pool", "must be non-empty and unique")


@dataclass(frozen=True)
class MtdSchedule:
    spec: MtdSpec
    assignment: Mapping[str, str]

    def __post_init__(self):
        addresses = set(self.assignment.values())
        if len(addresses) != len(self.assignment):
            raise ValueError("assignment must be injective")
        if not addresses <= set(self.spec.address_pool):
            raise ValueError("assigned addresses must come from the pool")


def make_schedule(spec: MtdSpec, device_ids: Iterable[str], rng: random.Random) -> MtdSchedule:
    pool, devices = spec.address_pool, sorted(device_ids)
    if len(pool) < len(devices):
        raise PoolTooSmallError(f"{len(devices)} devices but only {len(pool)} addresses")
    return MtdSchedule(spec, dict(zip(devices, rng.sample(pool, len(devices)))))


def mtd_rotate(schedule: MtdSchedule, now: int, rng: random.Random) -> MtdSchedule:
    """Fresh injective assignment; a strictly larger pool guarantees movement.

    One sample gives every device an address. With pool size above the
    device count, each device the sample left on its old address takes a
    seeded pick among the addresses no device holds, and its old address
    joins those free ones; since no device holds a free address, the pick
    always moves it. At exact capacity that is impossible to promise (the
    only assignments may be permutations with fixed points), so any
    injective draw is allowed.
    """
    interval, pool = schedule.spec.rotation_interval, schedule.spec.address_pool
    if now % interval != 0:
        raise ValueError(f"rotation at {now} not on the {interval}-tick grid")
    old = schedule.assignment
    devices = sorted(old)
    picks = rng.sample(pool, len(devices))
    stayed = [i for i, d in enumerate(devices) if picks[i] == old[d]]
    if stayed and len(pool) > len(devices):
        held = set(picks)
        free = [a for a in pool if a not in held]
        for i in stayed:
            j = rng.randrange(len(free))
            picks[i], free[j] = free[j], picks[i]
    return MtdSchedule(schedule.spec, dict(zip(devices, picks)))


def attach_feint_patch(
    metadata: Mapping, decoy_regions: Iterable[tuple[int, int, str]]
) -> dict:
    """Record decoy change-regions in unsigned debug metadata.

    The input must carry image_size for bounds checking. Returns a deep
    copy; the manifest's signed body is untouched, so verification
    verdicts cannot change.
    """
    if "image_size" not in metadata:
        raise ValueError("metadata lacks image_size; cannot bound-check regions")
    image_size = metadata["image_size"]
    out = copy.deepcopy(dict(metadata))
    patches = out.setdefault("feint_patches", [])
    for offset, length, note in decoy_regions:
        if offset < 0 or length < 1 or offset + length > image_size:
            raise RegionOutOfBoundsError(
                f"region [{offset},{offset + length}) outside image of {image_size} bytes"
            )
        patches.append({"offset": offset, "length": length, "note": note})
    return out

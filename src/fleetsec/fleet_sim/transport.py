"""Fragmentation for constrained links and a lossy simulated link.

Frames carry a 4-byte header: message id (2 bytes), fragment index
(1 byte), and total-minus-one (1 byte), so every frame names the full
fragment count and a 12-byte MTU still moves 8 payload bytes. Payloads
are capped at 256 fragments. A link's mtu is at most 65,535 bytes, so a
payload that fits a link is under 256 × 65,531 bytes (about 16.8 MB).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from ..errors import FleetsecError
from ..wire import ConfigError

HEADER_LEN = 4
MAX_FRAGMENTS = 256
MAX_MESSAGE_ID = 2**16 - 1
MAX_MTU = 65535

_OCTETS = [bytes((i,)) for i in range(MAX_FRAGMENTS)]  # header index and total bytes


class MtuTooSmallError(FleetsecError):
    pass


class PayloadTooLargeError(FleetsecError):
    pass


class ReassemblyError(FleetsecError):
    """Frames are malformed or from mixed messages."""


class MissingFragmentError(ReassemblyError):
    def __init__(self, message_id: int, missing: list[int]):
        super().__init__(f"message {message_id} missing fragments {missing}")
        self.message_id = message_id
        self.missing = missing


def fragment(payload: bytes, mtu: int, message_id: int = 0) -> list[bytes]:
    if mtu <= HEADER_LEN:
        raise MtuTooSmallError(f"mtu {mtu} leaves no room after {HEADER_LEN}-byte header")
    if not 0 <= message_id <= MAX_MESSAGE_ID:
        raise ValueError(f"message_id out of range: {message_id}")
    chunk = mtu - HEADER_LEN
    total = max(1, -(-len(payload) // chunk))  # empty payload still sends one frame
    if total > MAX_FRAGMENTS:
        raise PayloadTooLargeError(
            f"{len(payload)} bytes need {total} fragments, cap is {MAX_FRAGMENTS}"
        )
    mid, last = message_id.to_bytes(2, "big"), _OCTETS[total - 1]
    return [
        b"".join((mid, _OCTETS[index], last, payload[index * chunk : (index + 1) * chunk]))
        for index in range(total)
    ]


def reassemble(frames: Iterable[bytes]) -> bytes:
    got: dict[int, bytes] = {}
    mid: bytes | None = None  # header bytes every frame must repeat
    for frame in frames:
        if len(frame) < HEADER_LEN:
            raise ReassemblyError(f"frame shorter than {HEADER_LEN}-byte header")
        if mid is None:
            mid, last = frame[:2], frame[3]
            total = last + 1
        elif frame[:2] != mid:
            raise ReassemblyError(
                f"mixed messages: {int.from_bytes(mid, 'big')} and {int.from_bytes(frame[:2], 'big')}"
            )
        elif frame[3] != last:
            raise ReassemblyError(f"conflicting totals: {total} and {frame[3] + 1}")
        index, body = frame[2], frame[HEADER_LEN:]
        if index >= total:
            raise ReassemblyError(f"fragment index {index} beyond total {total}")
        if got.setdefault(index, body) != body:
            raise ReassemblyError(f"conflicting duplicates of fragment {index}")
    if mid is None:
        raise ReassemblyError("no frames")
    if len(got) != total:  # indices are below total, so a full dict misses none
        missing = [i for i in range(total) if i not in got]
        raise MissingFragmentError(int.from_bytes(mid, "big"), missing)
    return b"".join([got[i] for i in range(total)])


@dataclass(frozen=True)
class LinkSpec:
    """A link's frame size in bytes, its latency in ticks and its drop rate."""

    mtu: int = 1024
    latency: int = 0
    drop_rate: float = 0.0

    def __post_init__(self):
        if self.mtu <= HEADER_LEN:
            raise ConfigError("mtu", f"must exceed the {HEADER_LEN}-byte fragment header")
        if self.mtu > MAX_MTU:
            raise ConfigError("mtu", f"must be at most {MAX_MTU}")
        if self.latency < 0:
            raise ConfigError("latency", "must be non-negative")
        if not 0 <= self.drop_rate < 1:
            raise ConfigError("drop_rate", "must be in [0, 1)")


class SimLink:
    """Lossy constrained link: its spec's mtu and latency, seeded independent drops."""

    def __init__(self, spec: LinkSpec, rng: random.Random):
        self.spec = spec
        self._rng = rng

    def deliver(self, frames: Sequence[bytes]) -> list[bytes]:
        """Frames surviving this hop, in order; each is dropped independently.

        Each draw gives the number of frames kept before the next drop,
        ⌊ln(1 − u) / ln(1 − p)⌋, a geometric count with the law of one
        draw per frame: one draw per delivery plus one per drop.
        """
        drop_rate = self.spec.drop_rate
        if drop_rate == 0:
            return list(frames)
        draw, log_keep = self._rng.random, math.log1p(-drop_rate)
        kept: list[bytes] = []
        start, n = 0, len(frames)
        while True:
            # compared as a float: at a subnormal drop rate the gap is inf
            gap = math.log(1.0 - draw()) / log_keep
            if gap >= n - start:
                kept += frames[start:]
                return kept
            end = start + int(gap)
            kept += frames[start:end]
            start = end + 1  # frames[end] is dropped

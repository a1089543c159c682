"""Canonical binary encoding shared by timestamp tokens and manifests.

Convention: fixed field order, unsigned 64-bit big-endian integers,
length-prefixed byte strings (32-bit big-endian length prefix). Decoding
is strict: truncated fields or trailing bytes raise DecodeError.
"""

from __future__ import annotations

import base64

from .errors import FleetsecError

U64_MAX = 2**64 - 1


class DecodeError(FleetsecError):
    """Canonical encoding could not be parsed."""


def u64(value: int) -> bytes:
    if not 0 <= value <= U64_MAX:
        raise ValueError(f"value out of u64 range: {value}")
    return value.to_bytes(8, "big")


def lp(data: bytes) -> bytes:
    if len(data) > 2**32 - 1:
        raise ValueError("byte string too long for length prefix")
    return len(data).to_bytes(4, "big") + data


class Reader:
    """Strict cursor over a canonical byte string."""

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    def take(self, n: int) -> bytes:
        if self._pos + n > len(self._data):
            raise DecodeError(f"truncated: wanted {n} bytes at offset {self._pos}")
        out = self._data[self._pos : self._pos + n]
        self._pos += n
        return out

    def u64(self) -> int:
        return int.from_bytes(self.take(8), "big")

    def lp(self) -> bytes:
        length = int.from_bytes(self.take(4), "big")
        return self.take(length)

    def expect_end(self) -> None:
        if self._pos != len(self._data):
            raise DecodeError(f"{len(self._data) - self._pos} trailing bytes")


def b64e(data: bytes) -> str:
    """base64url text for JSON byte fields."""
    return base64.urlsafe_b64encode(data).decode("ascii")


def b64d(text: str) -> bytes:
    if not isinstance(text, str):
        raise DecodeError(f"bad base64url field: expected a string, got {type(text).__name__}")
    try:
        return base64.urlsafe_b64decode(text.encode("ascii"))
    except (ValueError, UnicodeEncodeError) as exc:
        raise DecodeError(f"bad base64url field: {exc}") from exc

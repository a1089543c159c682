"""Timestamp authority: signed tokens binding a digest to a trusted time.

Tokens carry (imprint, gen_time, serial) in canonical form plus the
issuing key's name and a signature over that triple. They are not RFC
3161 DER; the structure keeps the same semantics at a fraction of the
surface. gen_time is always a caller-supplied tick clock.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FleetsecError
from .keystore import Keystore, PublicKeyInfo, verify
from .wire import ConfigError, Reader, build, check_u64, lp, u64

IMPRINT_LEN = 32


class BadImprintLengthError(FleetsecError):
    pass


class UntrustedSignerError(FleetsecError):
    """Token was not signed by the trust anchor."""


class MismatchedImprintError(FleetsecError):
    """Token is authentic but covers a different digest."""


def token_signed_body(imprint: bytes, gen_time: int, serial: int) -> bytes:
    return lp(imprint) + u64(gen_time) + u64(serial)


@dataclass(frozen=True)
class TimestampToken:
    imprint: bytes
    gen_time: int
    serial: int
    tsa_key: str
    signature: bytes

    def __post_init__(self):
        if len(self.imprint) != IMPRINT_LEN:
            raise BadImprintLengthError(
                f"imprint must be {IMPRINT_LEN} bytes, got {len(self.imprint)}"
            )
        if self.serial < 1:
            raise ConfigError("serial", "must be positive")
        if self.gen_time < 0:
            raise ConfigError("gen_time", "must be non-negative")

    def signed_body(self) -> bytes:
        return token_signed_body(self.imprint, self.gen_time, self.serial)

    def encode(self) -> bytes:
        return self.signed_body() + lp(self.tsa_key.encode("utf-8")) + lp(self.signature)

    def hex_dump(self) -> str:
        return self.encode().hex()


def decode_token(data: bytes, path: str = "token") -> TimestampToken:
    """The token in data; a field its checks refuse is named under path."""
    reader = Reader(data)
    imprint = reader.lp()
    gen_time = reader.u64()
    serial = reader.u64()
    tsa_key = reader.lp().decode("utf-8", errors="replace")
    signature = reader.lp()
    reader.expect_end()
    return build(TimestampToken, path, imprint, gen_time, serial, tsa_key, signature)


class TimestampAuthority:
    """Issues tokens with a strictly increasing serial, signing via a keystore.

    The signing key never leaves the keystore; the TSA only holds its name.
    """

    def __init__(self, keystore: Keystore, key_id: str, start_serial: int = 0):
        keystore.public_key(key_id)  # fail fast on unknown ids
        if start_serial < 0:
            raise ValueError("start_serial must be non-negative")
        self._keystore = keystore
        self._key_id = key_id
        self._serial = start_serial

    @property
    def public_key(self) -> PublicKeyInfo:
        """Trust anchor to distribute to devices."""
        return self._keystore.public_key(self._key_id)

    def issue_token(self, imprint: bytes, now: int) -> TimestampToken:
        if len(imprint) != IMPRINT_LEN:
            raise BadImprintLengthError(
                f"imprint must be {IMPRINT_LEN} bytes, got {len(imprint)}"
            )
        check_u64("now", now)
        check_u64("serial", self._serial + 1)
        self._serial += 1
        body = token_signed_body(imprint, now, self._serial)
        signature = self._keystore.sign(self._key_id, body)
        return TimestampToken(imprint, now, self._serial, self._key_id, signature)


def verify_token(
    token: TimestampToken, expected_imprint: bytes, trust_anchor: PublicKeyInfo
) -> None:
    """Raise unless token is anchor-signed and covers expected_imprint.

    The key name must match the anchor's: the name is outside the signed
    body, so an unchecked rename would otherwise slip through.
    """
    if token.tsa_key != trust_anchor.key_id:
        raise UntrustedSignerError(
            f"token names key {token.tsa_key!r}, anchor is {trust_anchor.key_id!r}"
        )
    if not verify(trust_anchor, token.signed_body(), token.signature):
        raise UntrustedSignerError("token signature does not verify under trust anchor")
    if token.imprint != expected_imprint:
        raise MismatchedImprintError("token covers a different digest")

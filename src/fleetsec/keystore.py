"""Seeded software keystore: private keys never leave the object.

Stands in for a secure element. Private keys derive from the store seed
and the key id, so two stores built from the same seed hold identical
keys regardless of generation order. Ed25519 signing is deterministic,
which keeps every signed artifact byte-reproducible under a fixed seed.
"""

from __future__ import annotations

import base64
import functools
import hashlib
from dataclasses import dataclass, field
from pathlib import Path

from cryptography.exceptions import InvalidSignature
from cryptography.fernet import Fernet, InvalidToken
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from .errors import FleetsecError
from .wire import ConfigError, build, check_u64, load_json, read_spec, save_json, write_spec

ALGORITHM_ED25519 = "Ed25519"
SUPPORTED_ALGORITHMS = frozenset({ALGORITHM_ED25519})
PUBLIC_KEY_LEN = 32

_DERIVE_DOMAIN = b"fleetsec.keystore.v1"
_FILE_FORMAT = "fleetsec-keystore-v1"

# Verify outcomes remembered, keyed on every byte that was verified. A
# fleet checks the same few manifests and tokens thousands of times.
_VERIFY_MEMO_SIZE = 4096


class DuplicateKeyError(FleetsecError):
    pass


class UnknownKeyError(FleetsecError):
    pass


class KeystoreFileError(FleetsecError):
    """A key asked of a store loaded without private material; a bad file is a ConfigError."""


@dataclass(frozen=True)
class PublicKeyInfo:
    key_id: str
    algorithm: str
    public_bytes: bytes = field(metadata={"key": "public"})

    def __post_init__(self):
        if not self.key_id:
            raise ConfigError("key_id", "must be a non-empty string")
        if self.algorithm not in SUPPORTED_ALGORITHMS:
            raise ConfigError("algorithm", f"{self.algorithm!r} is not supported")
        if len(self.public_bytes) != PUBLIC_KEY_LEN:
            # named by the key that holds these bytes in a file
            raise ConfigError("public", f"must be {PUBLIC_KEY_LEN} bytes")


@dataclass(frozen=True)
class _KeyEntry(PublicKeyInfo):
    """A key as a keystore file holds it: the private key encrypted, where it was saved."""

    private_enc: str | None = None


@dataclass(frozen=True)
class _KeystoreFile:
    format: str
    keys: tuple[_KeyEntry, ...] = ()
    seed_enc: str | None = None


def verify(pub: PublicKeyInfo, message: bytes, signature: bytes) -> bool:
    """True iff signature is valid for message under pub.

    Malformed signatures return False rather than raising: callers treat
    every failure mode as "not authentic". Outcomes, accept and reject
    alike, are memoized on (algorithm, public key, message, signature),
    so one differing byte is a fresh verify.
    """
    parts = (pub.public_bytes, message, signature)
    if not all(isinstance(part, (bytes, bytearray, memoryview)) for part in parts):
        return False
    return _verify_bytes(pub.algorithm, *map(bytes, parts))


@functools.lru_cache(maxsize=_VERIFY_MEMO_SIZE)
def _verify_bytes(algorithm: str, public_bytes: bytes, message: bytes, signature: bytes) -> bool:
    if algorithm != ALGORITHM_ED25519:
        return False
    try:
        Ed25519PublicKey.from_public_bytes(public_bytes).verify(signature, message)
    except (InvalidSignature, ValueError):
        return False
    return True


class KeyHandle:
    """Sign-only view of one key; grants no access to private bytes."""

    def __init__(self, store: Keystore, key_id: str):
        store.public_key(key_id)  # fail fast on unknown ids
        self._store = store
        self._key_id = key_id

    @property
    def key_id(self) -> str:
        return self._key_id

    @property
    def public(self) -> PublicKeyInfo:
        return self._store.public_key(self._key_id)

    def sign(self, message: bytes) -> bytes:
        return self._store.sign(self._key_id, message)


def _fernet_key(passphrase: str) -> bytes:
    # sha256 as KDF is deliberate desk-scale simplicity; files are local fixtures
    return base64.urlsafe_b64encode(hashlib.sha256(passphrase.encode("utf-8")).digest())


class Keystore:
    """Holds keypairs; exposes only generate/sign/verify/public lookups."""

    def __init__(self, seed: int):
        self._seed: int | None = int(seed)
        check_u64("seed", self._seed)
        self._private: dict[str, Ed25519PrivateKey] = {}
        self._public: dict[str, PublicKeyInfo] = {}

    def generate_key(self, key_id: str) -> PublicKeyInfo:
        if not key_id:
            raise ConfigError("key_id", "must be a non-empty string")
        if key_id in self._public:
            raise DuplicateKeyError(f"key {key_id!r} already exists")
        if self._seed is None:
            raise KeystoreFileError("keystore was loaded without private material")
        raw = hashlib.sha256(
            _DERIVE_DOMAIN
            + self._seed.to_bytes(8, "big")
            + key_id.encode("utf-8")
        ).digest()
        private = Ed25519PrivateKey.from_private_bytes(raw)
        info = PublicKeyInfo(
            key_id, ALGORITHM_ED25519, private.public_key().public_bytes_raw()
        )
        self._private[key_id] = private
        self._public[key_id] = info
        return info

    def sign(self, key_id: str, message: bytes) -> bytes:
        if key_id not in self._public:
            raise UnknownKeyError(f"unknown key {key_id!r}")
        private = self._private.get(key_id)
        if private is None:
            raise UnknownKeyError(f"key {key_id!r} has no private material in this store")
        return private.sign(message)

    def public_key(self, key_id: str) -> PublicKeyInfo:
        try:
            return self._public[key_id]
        except KeyError:
            raise UnknownKeyError(f"unknown key {key_id!r}") from None

    def handle(self, key_id: str) -> KeyHandle:
        return KeyHandle(self, key_id)

    def key_ids(self) -> list[str]:
        return sorted(self._public)

    def save(self, path: str | Path, passphrase: str | None = None) -> None:
        """Write keystore state to a JSON file.

        Without a passphrase only public material is written. With one,
        private keys (and the derivation seed) are included encrypted;
        raw private bytes never hit disk.
        """
        fernet = Fernet(_fernet_key(passphrase)) if passphrase is not None else None
        keys, seed_enc = [], None
        for key_id in sorted(self._public):
            private, private_enc = self._private.get(key_id), None
            if fernet is not None and private is not None:
                private_enc = fernet.encrypt(private.private_bytes_raw()).decode("ascii")
            keys.append(_KeyEntry(**vars(self._public[key_id]), private_enc=private_enc))
        if fernet is not None and self._seed is not None:
            seed_enc = fernet.encrypt(self._seed.to_bytes(8, "big")).decode("ascii")
        save_json(path, write_spec(_KeystoreFile(_FILE_FORMAT, tuple(keys), seed_enc)))

    @classmethod
    def load(cls, path: str | Path, passphrase: str | None = None) -> Keystore:
        """The keystore saved at path; each mistake, a wrong passphrase too, is a ConfigError."""
        fernet = Fernet(_fernet_key(passphrase)) if passphrase is not None else None
        store, root = cls(0), str(path)
        store._seed = None
        obj = load_json(path)
        if isinstance(obj, dict) and obj.get("format") != _FILE_FORMAT:
            raise ConfigError(f"{root}.format", "missing or unsupported keystore format tag")
        file = build(_KeystoreFile, root, **read_spec(_KeystoreFile, obj, root))
        if fernet is not None and file.seed_enc is not None:
            store._seed = int.from_bytes(_decrypt(fernet, file.seed_enc, f"{root}.seed_enc", 8), "big")
        for i, entry in enumerate(file.keys):
            if entry.key_id in store._public:
                raise ConfigError(f"{root}.keys[{i}].key_id", f"duplicate key id {entry.key_id!r}")
            info = PublicKeyInfo(entry.key_id, entry.algorithm, entry.public_bytes)
            store._public[info.key_id] = info
            if fernet is not None and entry.private_enc is not None:
                where = f"{root}.keys[{i}].private_enc"
                raw = _decrypt(fernet, entry.private_enc, where, 32)
                private = Ed25519PrivateKey.from_private_bytes(raw)
                if private.public_key().public_bytes_raw() != info.public_bytes:
                    raise ConfigError(where, "does not match the public key")
                store._private[info.key_id] = private
        return store


def _decrypt(fernet: Fernet, token: str, path: str, length: int) -> bytes:
    """The `length` bytes that token encrypts; anything else is refused at path."""
    try:
        plain = fernet.decrypt(token.encode("ascii"))
    except (InvalidToken, ValueError):
        raise ConfigError(path, "wrong passphrase or corrupted keystore file") from None
    if len(plain) != length:
        raise ConfigError(path, f"decrypts to {len(plain)} bytes, not {length}")
    return plain

"""Every malformed registry, device-state and keystore file, and what loading it says.

Each case edits one item of a valid file (or replaces the whole text) and
pins the outcome of the loader the CLI calls: the error's class and
message, with the file's path written as <file>, or "loads" where the file
is accepted.
"""

import copy
import hashlib
import json
import math

import pytest

from fleetsec.identity import ClaimRequest, DeviceRegistry
from cryptography.fernet import Fernet

from fleetsec.keystore import Keystore, _fernet_key
from fleetsec.update_protocol import DeviceUpdateState, initial_state
from fleetsec.wire import write_spec

from helpers import DROP, firmware_image, make_pki, set_path

PASSPHRASE = "pw"
_TEXT = object()  # the value replaces the file's whole text


class _Encrypted(bytes):
    """Plaintext that a case writes encrypted under PASSPHRASE, as a keystore does."""

    def __repr__(self) -> str:
        return f"encrypted({bytes(self)!r})"


def _registry() -> dict:
    registry = DeviceRegistry(seed=3)
    for device_id in ("dev-1", "dev-2"):
        registry.register_device(device_id, b"box-99")
    registry.claim(registry.device_connect("dev-1", 0), ClaimRequest("alice", "dev-1", b"box-99"))
    registry.blacklist("dev-2")
    return registry.to_json_obj()


def _state() -> dict:
    store, _ = make_pki()
    digest = hashlib.sha256(firmware_image(1)).digest()
    state = initial_state(digest, 1, store.public_key("tsa-root"), store.public_key("publisher"))
    return write_spec(state)


def _keystore(tmp_path) -> dict:
    store, _ = make_pki()
    path = tmp_path / "made.json"
    store.save(path, passphrase=PASSPHRASE)
    return json.loads(path.read_text())


_DEEP = "[" * 100_000
_R, _S, _K = "registry", "state", "keys"

# (kind, where, value, outcome): where is a dotted key path into the valid
# file ("" for the whole object), or _TEXT for the file's whole text
FILE_ERRORS = [
    # registry
    (_R, "", [], 'ValueError: missing or unsupported registry format tag'),
    (_R, _TEXT, "{", 'ValueError: malformed registry file: <file>: not valid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)'),
    (_R, _TEXT, _DEEP, 'ValueError: malformed registry file: <file>: not valid JSON: maximum recursion depth exceeded while decoding a JSON array from a unicode string'),
    (_R, "format", DROP, 'ValueError: missing or unsupported registry format tag'),
    (_R, "format", "fleetsec-registry-v2", 'ValueError: missing or unsupported registry format tag'),
    (_R, "extra", 1, 'ValueError: malformed registry file: registry.extra: unknown field'),
    (_R, "seed", DROP, 'ValueError: malformed registry file: registry.seed: missing required field'),
    (_R, "seed", "3", 'ValueError: malformed registry file: registry.seed: expected int'),
    (_R, "seed", 2.7, 'ValueError: malformed registry file: registry.seed: expected int'),
    (_R, "seed", True, 'ValueError: malformed registry file: registry.seed: expected int'),
    (_R, "seed", math.inf, 'ValueError: malformed registry file: registry.seed: expected int'),
    (_R, "seed", 4, "ValueError: device key for 'dev-1' does not match registry seed"),
    (_R, "next_session", DROP, 'ValueError: malformed registry file: registry.next_session: missing required field'),
    (_R, "next_session", "2", 'ValueError: malformed registry file: registry.next_session: expected int'),
    (_R, "devices", DROP, 'ValueError: malformed registry file: registry.devices: missing required field'),
    (_R, "devices", {}, 'ValueError: malformed registry file: registry.devices: expected list'),
    (_R, "devices", 5, 'ValueError: malformed registry file: registry.devices: expected list'),
    (_R, "devices.0", 1, 'ValueError: malformed registry file: registry.devices[0]: expected dict'),
    (_R, "devices.0.extra", 1, 'ValueError: malformed registry file: registry.devices[0].extra: unknown field'),
    (_R, "devices.0.device_id", DROP, 'ValueError: malformed registry file: registry.devices[0].device_id: missing required field'),
    (_R, "devices.0.device_id", 5, 'ValueError: malformed registry file: registry.devices[0].device_id: expected str'),
    (_R, "devices.1.device_id", "", 'ValueError: malformed registry file: registry.devices[1].device_id: must be non-empty'),
    (_R, "devices.1.device_id", "dev-1", "ValueError: malformed registry file: registry.devices[1].device_id: duplicate device id 'dev-1'"),
    (_R, "devices.0.claim_hash", DROP, 'ValueError: malformed registry file: registry.devices[0].claim_hash: missing required field'),
    (_R, "devices.0.claim_hash", 5, 'ValueError: malformed registry file: registry.devices[0].claim_hash: expected a base64url string'),
    (_R, "devices.0.claim_hash", "é", 'ValueError: malformed registry file: registry.devices[0].claim_hash: expected a base64url string'),
    (_R, "devices.0.claim_hash", "AAAA", 'ValueError: malformed registry file: registry.devices[0].claim_hash: must be 32 bytes'),
    (_R, "devices.0.owner", DROP, 'ValueError: malformed registry file: registry.devices[0].owner: missing required field'),
    (_R, "devices.0.owner", 5, 'ValueError: malformed registry file: registry.devices[0].owner: expected str'),
    (_R, "devices.0.owner", None, 'ValueError: malformed registry file: registry.devices[0].owner: must be set when status is Claimed'),
    (_R, "devices.1.owner", None, 'loads'),
    (_R, "devices.0.device_pub", DROP, 'ValueError: malformed registry file: registry.devices[0].device_pub: missing required field'),
    (_R, "devices.0.device_pub", 5, 'ValueError: malformed registry file: registry.devices[0].device_pub: expected dict'),
    (_R, "devices.0.device_pub", None, 'loads'),
    (_R, "devices.0.device_pub", {}, 'ValueError: malformed registry file: registry.devices[0].device_pub.key_id: missing required field'),
    (_R, "devices.0.device_pub.extra", 1, 'ValueError: malformed registry file: registry.devices[0].device_pub.extra: unknown field'),
    (_R, "devices.0.device_pub.key_id", 5, 'ValueError: malformed registry file: registry.devices[0].device_pub.key_id: expected str'),
    (_R, "devices.0.device_pub.key_id", "", 'ValueError: malformed registry file: registry.devices[0].device_pub.key_id: must be a non-empty string'),
    (_R, "devices.0.device_pub.key_id", "device:dev-1:g2", "ValueError: device key for 'dev-1' does not match registry seed"),
    (_R, "devices.0.device_pub.algorithm", "RSA", "ValueError: malformed registry file: registry.devices[0].device_pub.algorithm: 'RSA' is not supported"),
    (_R, "devices.0.device_pub.public_bytes", [1], 'ValueError: malformed registry file: registry.devices[0].device_pub.public_bytes: unknown field'),
    (_R, "devices.0.device_pub.public", 5, 'ValueError: malformed registry file: registry.devices[0].device_pub.public: expected a base64url string'),
    (_R, "devices.0.device_pub.public", "AAAA", 'ValueError: malformed registry file: registry.devices[0].device_pub.public: must be 32 bytes'),
    (_R, "devices.0.status", DROP, 'ValueError: malformed registry file: registry.devices[0].status: missing required field'),
    (_R, "devices.0.status", "Bogus", "ValueError: malformed registry file: registry.devices[0].status: expected one of ['Unprovisioned', 'Claimed', 'Blacklisted', 'Deprovisioned']"),
    (_R, "devices.0.status", 5, "ValueError: malformed registry file: registry.devices[0].status: expected one of ['Unprovisioned', 'Claimed', 'Blacklisted', 'Deprovisioned']"),
    (_R, "devices.0.needs_reprovision", DROP, 'ValueError: malformed registry file: registry.devices[0].needs_reprovision: missing required field'),
    (_R, "devices.0.needs_reprovision", "yes", 'ValueError: malformed registry file: registry.devices[0].needs_reprovision: expected bool'),
    (_R, "devices.0.generation", DROP, 'ValueError: malformed registry file: registry.devices[0].generation: missing required field'),
    (_R, "devices.0.generation", True, 'ValueError: malformed registry file: registry.devices[0].generation: expected int'),
    (_R, "devices.0.generation", 1.5, 'ValueError: malformed registry file: registry.devices[0].generation: expected int'),
    # device state
    (_S, "", [], 'ValueError: malformed device state file: state: expected dict'),
    (_S, _TEXT, "{", 'ValueError: malformed device state file: <file>: not valid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)'),
    (_S, _TEXT, _DEEP, 'ValueError: malformed device state file: <file>: not valid JSON: maximum recursion depth exceeded while decoding a JSON array from a unicode string'),
    (_S, "extra", 1, 'ValueError: malformed device state file: state.extra: unknown field'),
    (_S, "active_slot", DROP, 'ValueError: malformed device state file: state.active_slot: missing required field'),
    (_S, "active_slot", "C", "ValueError: malformed device state file: state.active_slot: expected one of ['A', 'B']"),
    (_S, "active_slot", 5, "ValueError: malformed device state file: state.active_slot: expected one of ['A', 'B']"),
    (_S, "slot_a", 5, 'ValueError: malformed device state file: state.slot_a: unknown field'),
    (_S, "slots", DROP, 'ValueError: malformed device state file: state.slots: missing required field'),
    (_S, "slots", [], 'ValueError: malformed device state file: state.slots: expected dict'),
    (_S, "slots.B", DROP, 'ValueError: malformed device state file: state.slots.B: missing required field'),
    (_S, "slots.C", {}, 'ValueError: malformed device state file: state.slots.C: unknown field'),
    (_S, "slots.A", 5, 'ValueError: malformed device state file: state.slots.A: expected dict'),
    (_S, "slots.A.extra", 1, 'ValueError: malformed device state file: state.slots.A.extra: unknown field'),
    (_S, "slots.A.image_digest", DROP, 'ValueError: malformed device state file: state.slots.A.image_digest: missing required field'),
    (_S, "slots.A.image_digest", 5, 'ValueError: malformed device state file: state.slots.A.image_digest: expected a base64url string'),
    (_S, "slots.A.image_digest", "AAAA", 'ValueError: malformed device state file: state.slots.A.image_digest: must be 32 bytes'),
    (_S, "slots.A.version", "x", 'ValueError: malformed device state file: state.slots.A.version: expected int'),
    (_S, "slots.A.version", True, 'ValueError: malformed device state file: state.slots.A.version: expected int'),
    (_S, "slots.A.gen_time", 1.5, 'ValueError: malformed device state file: state.slots.A.gen_time: expected int'),
    (_S, "slots.A.verified", DROP, 'ValueError: malformed device state file: state.slots.A.verified: missing required field'),
    (_S, "slots.A.verified", 1, 'ValueError: malformed device state file: state.slots.A.verified: expected bool'),
    (_S, "trust_anchor_tsa", DROP, 'ValueError: malformed device state file: state.trust_anchor_tsa: missing required field'),
    (_S, "trust_anchor_tsa", None, 'ValueError: malformed device state file: state.trust_anchor_tsa: expected dict'),
    (_S, "trust_anchor_tsa", 5, 'ValueError: malformed device state file: state.trust_anchor_tsa: expected dict'),
    (_S, "trust_anchor_tsa.public_bytes", [1], 'ValueError: malformed device state file: state.trust_anchor_tsa.public_bytes: unknown field'),
    (_S, "trust_anchor_tsa.public", 5, 'ValueError: malformed device state file: state.trust_anchor_tsa.public: expected a base64url string'),
    (_S, "trust_anchor_publisher.algorithm", "RSA", "ValueError: malformed device state file: state.trust_anchor_publisher.algorithm: 'RSA' is not supported"),
    (_S, "trust_anchor_publisher.key_id", "", 'ValueError: malformed device state file: state.trust_anchor_publisher.key_id: must be a non-empty string'),
    (_S, "mode", DROP, 'ValueError: malformed device state file: state.mode: missing required field'),
    (_S, "mode", "Bogus", "ValueError: malformed device state file: state.mode: expected one of ['Running', 'Updating', 'FailState']"),
    # keystore, loaded with its passphrase
    (_K, "", [], 'KeystoreFileError: missing or unsupported keystore format tag'),
    (_K, _TEXT, "{", 'KeystoreFileError: not a keystore file: <file>: not valid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)'),
    (_K, _TEXT, _DEEP, 'KeystoreFileError: not a keystore file: <file>: not valid JSON: maximum recursion depth exceeded while decoding a JSON array from a unicode string'),
    (_K, "format", DROP, 'KeystoreFileError: missing or unsupported keystore format tag'),
    (_K, "extra", 1, 'KeystoreFileError: not a keystore file: keystore.extra: unknown field'),
    (_K, "keys", DROP, 'loads'),
    (_K, "keys", 5, 'KeystoreFileError: not a keystore file: keystore.keys: expected list'),
    (_K, "keys", [5], 'KeystoreFileError: not a keystore file: keystore.keys[0]: expected dict'),
    (_K, "keys.0.extra", 1, 'KeystoreFileError: not a keystore file: keystore.keys[0].extra: unknown field'),
    (_K, "keys.0.key_id", DROP, 'KeystoreFileError: not a keystore file: keystore.keys[0].key_id: missing required field'),
    (_K, "keys.0.key_id", 5, 'KeystoreFileError: not a keystore file: keystore.keys[0].key_id: expected str'),
    (_K, "keys.0.key_id", "", 'KeystoreFileError: not a keystore file: keystore.keys[0].key_id: must be a non-empty string'),
    (_K, "keys.1.key_id", "publisher", "KeystoreFileError: not a keystore file: keystore.keys[1].key_id: duplicate key id 'publisher'"),
    (_K, "keys.0.algorithm", [], 'KeystoreFileError: not a keystore file: keystore.keys[0].algorithm: expected str'),
    (_K, "keys.0.algorithm", "RSA", "KeystoreFileError: not a keystore file: keystore.keys[0].algorithm: 'RSA' is not supported"),
    (_K, "keys.0.public_bytes", [1], 'KeystoreFileError: not a keystore file: keystore.keys[0].public_bytes: unknown field'),
    (_K, "keys.0.public", DROP, 'KeystoreFileError: not a keystore file: keystore.keys[0].public: missing required field'),
    (_K, "keys.0.public", 5, 'KeystoreFileError: not a keystore file: keystore.keys[0].public: expected a base64url string'),
    (_K, "keys.0.public", "AAAA", 'KeystoreFileError: not a keystore file: keystore.keys[0].public: must be 32 bytes'),
    (_K, "keys.0.private_enc", 5, 'KeystoreFileError: not a keystore file: keystore.keys[0].private_enc: expected str'),
    (_K, "keys.0.private_enc", "garbage", 'KeystoreFileError: wrong passphrase or corrupted keystore file'),
    (_K, "seed_enc", 5, 'KeystoreFileError: not a keystore file: keystore.seed_enc: expected str'),
    (_K, "seed_enc", "garbage", 'KeystoreFileError: wrong passphrase or corrupted keystore file'),
    (_K, "seed_enc", _Encrypted(b""), 'KeystoreFileError: not a keystore file: keystore.seed_enc: decrypts to 0 bytes, not 8'),
    (_K, "seed_enc", _Encrypted(bytes(9)), 'KeystoreFileError: not a keystore file: keystore.seed_enc: decrypts to 9 bytes, not 8'),
    (_K, "seed_enc", _Encrypted(bytes(8)), 'loads'),
    (_K, "keys.1.private_enc", _Encrypted(b"short"), 'KeystoreFileError: not a keystore file: keystore.keys[1].private_enc: decrypts to 5 bytes, not 32'),
    (_K, "keys.0.private_enc", _Encrypted(bytes(32)), "KeystoreFileError: private material for 'publisher' does not match public key"),
]

_LOAD = {
    _R: DeviceRegistry.load,
    _S: DeviceUpdateState.load,
    _K: lambda path: Keystore.load(path, passphrase=PASSPHRASE),
}


def _outcome(kind, where, value, tmp_path) -> str:
    valid = {_R: _registry, _S: _state, _K: lambda: _keystore(tmp_path)}[kind]()
    path = tmp_path / "file.json"
    if where is _TEXT:
        path.write_text(value)
    else:
        obj = value if where == "" else copy.deepcopy(valid)
        if isinstance(value, _Encrypted):
            value = Fernet(_fernet_key(PASSPHRASE)).encrypt(value).decode("ascii")
        if where:
            set_path(obj, [int(k) if k.isdigit() else k for k in where.split(".")], value)
        path.write_text(json.dumps(obj))
    try:
        _LOAD[kind](path)
    except Exception as exc:  # noqa: BLE001 - the class is part of the outcome
        return f"{type(exc).__name__}: {exc}".replace(str(path), "<file>")
    return "loads"


def _case_id(kind, where, value):
    shown = "<text>" if where is _TEXT else where or "<file>"
    shown_value = "<drop>" if value is DROP else "<deep>" if value is _DEEP else repr(value)
    return f"{kind}:{shown}={shown_value}"


@pytest.mark.parametrize(
    "kind, where, value, outcome", FILE_ERRORS, ids=[_case_id(*case[:3]) for case in FILE_ERRORS]
)
def test_every_file_error_is_pinned(kind, where, value, outcome, tmp_path):
    assert _outcome(kind, where, value, tmp_path) == outcome

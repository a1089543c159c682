"""Every malformed registry, device-state and keystore file, and what loading it says.

Each case edits one item of a valid file (or replaces the whole text) and
pins the outcome of the loader the CLI calls: the error's class and
message, with the file's path written as <file>, or "loads" where the file
is accepted. Generated edits then check the rule the pins follow: a file
loads, or its loader raises a ConfigError at a key path in the file.
"""

import copy
import functools
import hashlib
import json
import math
import tempfile
from pathlib import Path

import pytest
from cryptography.fernet import Fernet
from hypothesis import given, settings, strategies as st

from fleetsec.identity import ClaimRequest, DeviceRegistry
from fleetsec.keystore import Keystore, _fernet_key
from fleetsec.update_protocol import DeviceUpdateState, initial_state
from fleetsec.wire import ConfigError, write_spec

from helpers import DROP, firmware_image, key_paths, make_pki, set_path

PASSPHRASE = "pw"
_TEXT = object()  # the value replaces the file's whole text


class _Encrypted(bytes):
    """Plaintext that a case writes encrypted under PASSPHRASE, as a keystore does."""

    def __repr__(self) -> str:
        return f"encrypted({bytes(self)!r})"


_REGISTRY_SEED = 3


class _DeviceKey(dict):
    """The key the registry's seed derives for key_id, as a registry file holds it."""

    def __init__(self, key_id: str):
        super().__init__(write_spec(Keystore(_REGISTRY_SEED).generate_key(key_id)))

    def __repr__(self) -> str:
        return f"key({self['key_id']!r})"


def _registry() -> dict:
    # dev-1 Claimed, dev-2 Blacklisted before any claim, dev-3 Unprovisioned
    registry = DeviceRegistry(seed=_REGISTRY_SEED)
    for device_id in ("dev-1", "dev-2", "dev-3"):
        registry.register_device(device_id, b"box-99")
    registry.claim(registry.device_connect("dev-1", 0), ClaimRequest("alice", "dev-1", b"box-99"))
    registry.blacklist("dev-2")
    return registry.to_json_obj()


def _state() -> dict:
    store, _ = make_pki()
    digest = hashlib.sha256(firmware_image(1)).digest()
    state = initial_state(digest, 1, store.public_key("tsa-root"), store.public_key("publisher"))
    return write_spec(state)


def _keystore() -> dict:
    store, _ = make_pki()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "made.json"
        store.save(path, passphrase=PASSPHRASE)
        return json.loads(path.read_text())


_DEEP = "[" * 100_000
_NOT_UTF8 = b'{"format": "\xff"}'
_R, _S, _K = "registry", "state", "keys"

# (kind, where, value, outcome): where is a dotted key path into the valid
# file ("" for the whole object), or _TEXT for the file's whole text
FILE_ERRORS = [
    # registry
    (_R, "", [], 'ConfigError: <file>: expected dict'),
    (_R, _TEXT, "{", 'ConfigError: <file>: not valid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)'),
    (_R, _TEXT, _DEEP, 'ConfigError: <file>: not valid JSON: maximum recursion depth exceeded while decoding a JSON array from a unicode string'),
    (_R, _TEXT, _NOT_UTF8, "ConfigError: <file>: not valid JSON: 'utf-8' codec can't decode byte 0xff in position 12: invalid start byte"),
    (_R, "format", DROP, 'ConfigError: <file>.format: missing or unsupported registry format tag'),
    (_R, "format", "fleetsec-registry-v2", 'ConfigError: <file>.format: missing or unsupported registry format tag'),
    (_R, "extra", 1, 'ConfigError: <file>.extra: unknown field'),
    (_R, "seed", DROP, 'ConfigError: <file>.seed: missing required field'),
    (_R, "seed", "3", 'ConfigError: <file>.seed: expected int'),
    (_R, "seed", 2.7, 'ConfigError: <file>.seed: expected int'),
    (_R, "seed", True, 'ConfigError: <file>.seed: expected int'),
    (_R, "seed", math.inf, 'ConfigError: <file>.seed: expected int'),
    (_R, "seed", 4, 'ConfigError: <file>.devices[0].device_pub: does not match the registry seed'),
    (_R, "next_session", DROP, 'ConfigError: <file>.next_session: missing required field'),
    (_R, "next_session", "2", 'ConfigError: <file>.next_session: expected int'),
    (_R, "devices", DROP, 'ConfigError: <file>.devices: missing required field'),
    (_R, "devices", {}, 'ConfigError: <file>.devices: expected list'),
    (_R, "devices", 5, 'ConfigError: <file>.devices: expected list'),
    (_R, "devices.0", 1, 'ConfigError: <file>.devices[0]: expected dict'),
    (_R, "devices.0.extra", 1, 'ConfigError: <file>.devices[0].extra: unknown field'),
    (_R, "devices.0.device_id", DROP, 'ConfigError: <file>.devices[0].device_id: missing required field'),
    (_R, "devices.0.device_id", 5, 'ConfigError: <file>.devices[0].device_id: expected str'),
    (_R, "devices.1.device_id", "", 'ConfigError: <file>.devices[1].device_id: must be non-empty'),
    (_R, "devices.1.device_id", "dev-1", "ConfigError: <file>.devices[1].device_id: duplicate device id 'dev-1'"),
    (_R, "devices.0.claim_hash", DROP, 'ConfigError: <file>.devices[0].claim_hash: missing required field'),
    (_R, "devices.0.claim_hash", 5, 'ConfigError: <file>.devices[0].claim_hash: expected a base64url string'),
    (_R, "devices.0.claim_hash", "é", 'ConfigError: <file>.devices[0].claim_hash: expected a base64url string'),
    (_R, "devices.0.claim_hash", "AAAA", 'ConfigError: <file>.devices[0].claim_hash: must be 32 bytes'),
    (_R, "devices.0.owner", DROP, 'ConfigError: <file>.devices[0].owner: missing required field'),
    (_R, "devices.0.owner", 5, 'ConfigError: <file>.devices[0].owner: expected str'),
    (_R, "devices.0.owner", None, 'ConfigError: <file>.devices[0].owner: must be set when status is Claimed'),
    (_R, "devices.1.owner", None, 'loads'),
    (_R, "devices.0.device_pub", DROP, 'ConfigError: <file>.devices[0].device_pub: missing required field'),
    (_R, "devices.0.device_pub", 5, 'ConfigError: <file>.devices[0].device_pub: expected dict'),
    (_R, "devices.0.device_pub", None, 'loads'),
    (_R, "devices.0.device_pub", {}, 'ConfigError: <file>.devices[0].device_pub.key_id: missing required field'),
    (_R, "devices.0.device_pub.extra", 1, 'ConfigError: <file>.devices[0].device_pub.extra: unknown field'),
    (_R, "devices.0.device_pub.key_id", 5, 'ConfigError: <file>.devices[0].device_pub.key_id: expected str'),
    (_R, "devices.0.device_pub.key_id", "", 'ConfigError: <file>.devices[0].device_pub.key_id: must be a non-empty string'),
    (_R, "devices.0.device_pub.key_id", "device:dev-1:g2", "ConfigError: <file>.devices[0].device_pub: key id must be 'device:dev-1:g1'"),
    (_R, "devices.0.device_pub.algorithm", "RSA", "ConfigError: <file>.devices[0].device_pub.algorithm: 'RSA' is not supported"),
    (_R, "devices.0.device_pub.public_bytes", [1], 'ConfigError: <file>.devices[0].device_pub.public_bytes: unknown field'),
    (_R, "devices.0.device_pub.public", 5, 'ConfigError: <file>.devices[0].device_pub.public: expected a base64url string'),
    (_R, "devices.0.device_pub.public", "AAAA", 'ConfigError: <file>.devices[0].device_pub.public: must be 32 bytes'),
    # a device key is the one a claim issued to its record, which is Claimed or Blacklisted
    (_R, "devices.0.device_pub", _DeviceKey("device:dev-2:g1"), "ConfigError: <file>.devices[0].device_pub: key id must be 'device:dev-1:g1'"),
    (_R, "devices.1.device_pub", _DeviceKey("device:dev-1:g1"), "ConfigError: <file>.devices[1].device_pub: key id must be 'device:dev-2:g1'"),
    (_R, "devices.1.device_pub", _DeviceKey("device:dev-2:g1"), 'loads'),
    (_R, "devices.2.device_pub", _DeviceKey("device:dev-3:g1"), 'ConfigError: <file>.devices[2].device_pub: must be null when status is Unprovisioned'),
    (_R, "devices.0.status", DROP, 'ConfigError: <file>.devices[0].status: missing required field'),
    (_R, "devices.0.status", "Bogus", "ConfigError: <file>.devices[0].status: expected one of ['Unprovisioned', 'Claimed', 'Blacklisted', 'Deprovisioned']"),
    (_R, "devices.0.status", 5, "ConfigError: <file>.devices[0].status: expected one of ['Unprovisioned', 'Claimed', 'Blacklisted', 'Deprovisioned']"),
    (_R, "devices.0.needs_reprovision", DROP, 'ConfigError: <file>.devices[0].needs_reprovision: missing required field'),
    (_R, "devices.0.needs_reprovision", "yes", 'ConfigError: <file>.devices[0].needs_reprovision: expected bool'),
    (_R, "devices.0.generation", DROP, 'ConfigError: <file>.devices[0].generation: missing required field'),
    (_R, "devices.0.generation", True, 'ConfigError: <file>.devices[0].generation: expected int'),
    (_R, "devices.0.generation", 1.5, 'ConfigError: <file>.devices[0].generation: expected int'),
    # device state
    (_S, "", [], 'ConfigError: <file>: expected dict'),
    (_S, _TEXT, "{", 'ConfigError: <file>: not valid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)'),
    (_S, _TEXT, _DEEP, 'ConfigError: <file>: not valid JSON: maximum recursion depth exceeded while decoding a JSON array from a unicode string'),
    (_S, _TEXT, _NOT_UTF8, "ConfigError: <file>: not valid JSON: 'utf-8' codec can't decode byte 0xff in position 12: invalid start byte"),
    (_S, "extra", 1, 'ConfigError: <file>.extra: unknown field'),
    (_S, "active_slot", DROP, 'ConfigError: <file>.active_slot: missing required field'),
    (_S, "active_slot", "C", "ConfigError: <file>.active_slot: expected one of ['A', 'B']"),
    (_S, "active_slot", 5, "ConfigError: <file>.active_slot: expected one of ['A', 'B']"),
    (_S, "slot_a", 5, 'ConfigError: <file>.slot_a: unknown field'),
    (_S, "slots", DROP, 'ConfigError: <file>.slots: missing required field'),
    (_S, "slots", [], 'ConfigError: <file>.slots: expected dict'),
    (_S, "slots.B", DROP, 'ConfigError: <file>.slots.B: missing required field'),
    (_S, "slots.C", {}, 'ConfigError: <file>.slots.C: unknown field'),
    (_S, "slots.A", 5, 'ConfigError: <file>.slots.A: expected dict'),
    (_S, "slots.A.extra", 1, 'ConfigError: <file>.slots.A.extra: unknown field'),
    (_S, "slots.A.image_digest", DROP, 'ConfigError: <file>.slots.A.image_digest: missing required field'),
    (_S, "slots.A.image_digest", 5, 'ConfigError: <file>.slots.A.image_digest: expected a base64url string'),
    (_S, "slots.A.image_digest", "AAAA", 'ConfigError: <file>.slots.A.image_digest: must be 32 bytes'),
    (_S, "slots.A.version", "x", 'ConfigError: <file>.slots.A.version: expected int'),
    (_S, "slots.A.version", True, 'ConfigError: <file>.slots.A.version: expected int'),
    (_S, "slots.A.gen_time", 1.5, 'ConfigError: <file>.slots.A.gen_time: expected int'),
    (_S, "slots.A.verified", DROP, 'ConfigError: <file>.slots.A.verified: missing required field'),
    (_S, "slots.A.verified", 1, 'ConfigError: <file>.slots.A.verified: expected bool'),
    (_S, "trust_anchor_tsa", DROP, 'ConfigError: <file>.trust_anchor_tsa: missing required field'),
    (_S, "trust_anchor_tsa", None, 'ConfigError: <file>.trust_anchor_tsa: expected dict'),
    (_S, "trust_anchor_tsa", 5, 'ConfigError: <file>.trust_anchor_tsa: expected dict'),
    (_S, "trust_anchor_tsa.public_bytes", [1], 'ConfigError: <file>.trust_anchor_tsa.public_bytes: unknown field'),
    (_S, "trust_anchor_tsa.public", 5, 'ConfigError: <file>.trust_anchor_tsa.public: expected a base64url string'),
    (_S, "trust_anchor_publisher.algorithm", "RSA", "ConfigError: <file>.trust_anchor_publisher.algorithm: 'RSA' is not supported"),
    (_S, "trust_anchor_publisher.key_id", "", 'ConfigError: <file>.trust_anchor_publisher.key_id: must be a non-empty string'),
    (_S, "mode", DROP, 'ConfigError: <file>.mode: missing required field'),
    (_S, "mode", "Bogus", "ConfigError: <file>.mode: expected one of ['Running', 'Updating', 'FailState']"),
    # keystore, loaded with its passphrase
    (_K, "", [], 'ConfigError: <file>: expected dict'),
    (_K, _TEXT, "{", 'ConfigError: <file>: not valid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)'),
    (_K, _TEXT, _DEEP, 'ConfigError: <file>: not valid JSON: maximum recursion depth exceeded while decoding a JSON array from a unicode string'),
    (_K, _TEXT, _NOT_UTF8, "ConfigError: <file>: not valid JSON: 'utf-8' codec can't decode byte 0xff in position 12: invalid start byte"),
    (_K, "format", DROP, 'ConfigError: <file>.format: missing or unsupported keystore format tag'),
    (_K, "extra", 1, 'ConfigError: <file>.extra: unknown field'),
    (_K, "keys", DROP, 'loads'),
    (_K, "keys", 5, 'ConfigError: <file>.keys: expected list'),
    (_K, "keys", [5], 'ConfigError: <file>.keys[0]: expected dict'),
    (_K, "keys.0.extra", 1, 'ConfigError: <file>.keys[0].extra: unknown field'),
    (_K, "keys.0.key_id", DROP, 'ConfigError: <file>.keys[0].key_id: missing required field'),
    (_K, "keys.0.key_id", 5, 'ConfigError: <file>.keys[0].key_id: expected str'),
    (_K, "keys.0.key_id", "", 'ConfigError: <file>.keys[0].key_id: must be a non-empty string'),
    (_K, "keys.1.key_id", "publisher", "ConfigError: <file>.keys[1].key_id: duplicate key id 'publisher'"),
    (_K, "keys.0.algorithm", [], 'ConfigError: <file>.keys[0].algorithm: expected str'),
    (_K, "keys.0.algorithm", "RSA", "ConfigError: <file>.keys[0].algorithm: 'RSA' is not supported"),
    (_K, "keys.0.public_bytes", [1], 'ConfigError: <file>.keys[0].public_bytes: unknown field'),
    (_K, "keys.0.public", DROP, 'ConfigError: <file>.keys[0].public: missing required field'),
    (_K, "keys.0.public", 5, 'ConfigError: <file>.keys[0].public: expected a base64url string'),
    (_K, "keys.0.public", "AAAA", 'ConfigError: <file>.keys[0].public: must be 32 bytes'),
    (_K, "keys.0.private_enc", 5, 'ConfigError: <file>.keys[0].private_enc: expected str'),
    (_K, "keys.0.private_enc", "garbage", 'ConfigError: <file>.keys[0].private_enc: wrong passphrase or corrupted keystore file'),
    (_K, "seed_enc", 5, 'ConfigError: <file>.seed_enc: expected str'),
    (_K, "seed_enc", "garbage", 'ConfigError: <file>.seed_enc: wrong passphrase or corrupted keystore file'),
    (_K, "seed_enc", _Encrypted(b""), 'ConfigError: <file>.seed_enc: decrypts to 0 bytes, not 8'),
    (_K, "seed_enc", _Encrypted(bytes(9)), 'ConfigError: <file>.seed_enc: decrypts to 9 bytes, not 8'),
    (_K, "seed_enc", _Encrypted(bytes(8)), 'loads'),
    (_K, "keys.1.private_enc", _Encrypted(b"short"), 'ConfigError: <file>.keys[1].private_enc: decrypts to 5 bytes, not 32'),
    (_K, "keys.0.private_enc", _Encrypted(bytes(32)), 'ConfigError: <file>.keys[0].private_enc: does not match the public key'),
]

_LOAD = {
    _R: DeviceRegistry.load,
    _S: DeviceUpdateState.load,
    _K: lambda path: Keystore.load(path, passphrase=PASSPHRASE),
}


@functools.cache
def _valid(kind) -> dict:
    """The valid file of kind, built once; a case edits a copy."""
    return {_R: _registry, _S: _state, _K: _keystore}[kind]()


def _outcome(kind, where, value, tmp_path) -> str:
    valid = _valid(kind)
    path = tmp_path / "file.json"
    if where is _TEXT:
        path.write_bytes(value if isinstance(value, bytes) else value.encode())
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


# a value of each JSON type, the empty string, a negative int and one past u64
_POOL = (None, True, 0, 1.5, "x", [], {}, "", -1, 2**64, DROP)


def _in_other_record(obj, path) -> tuple:
    """The value at path in the file's next record (devices[i], keys[i], slots A and B), if any."""
    head, *rest = path
    if rest and isinstance(obj[head], list):
        rest[0] = (rest[0] + 1) % len(obj[head])
    elif rest and head == "slots":
        rest[0] = "B" if rest[0] == "A" else "A"
    else:
        return ()
    try:
        return (functools.reduce(lambda value, key: value[key], rest, obj[head]),)
    except (KeyError, IndexError, TypeError):  # the other record has no such key
        return ()


@pytest.mark.parametrize("kind", [_R, _S, _K])
@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=st.data())
def test_generated_edits_load_or_fail_at_a_path_in_the_file(kind, data, tmp_path_factory):
    """One key path set to a pooled value: the file loads, or a ConfigError names a path in it."""
    valid = _valid(kind)
    where = data.draw(st.sampled_from(key_paths(valid)), label="where")
    value = data.draw(st.sampled_from(_POOL + _in_other_record(valid, where)), label="value")
    obj = copy.deepcopy(valid)
    set_path(obj, where, value)
    path = tmp_path_factory.getbasetemp() / f"generated-{kind}.json"
    path.write_text(json.dumps(obj))
    root = str(path)
    try:
        _LOAD[kind](path)
    except ConfigError as exc:
        assert exc.path == root or exc.path.startswith((f"{root}.", f"{root}[")), exc

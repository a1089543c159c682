"""The bytes of every saved file, pinned by sha256.

Each case saves a fixed registry, device state or keystore and compares
the file's digest with the one below: a change to how a file is written
changes its bytes and fails here. Passphrase keystores cannot be pinned
this way, since Fernet puts a random IV and the time into each
ciphertext; their case pins the keys of the file, in order, and what
loading it gives back.
"""

import dataclasses
import hashlib
import json

import pytest

from fleetsec.identity import ClaimRequest, DeviceRegistry
from fleetsec.keystore import Keystore
from fleetsec.update_protocol import (
    DeviceMode,
    Slot,
    boot,
    build_manifest,
    initial_state,
    interrupt_update,
)

from helpers import firmware_image, make_pki

ODD_ID = 'dé,"v"'  # escaped by JSON text, and not ASCII


def _registry(path):
    registry = DeviceRegistry(seed=11)
    for device_id in ("claimed", "blacklisted", "deprovisioned", ODD_ID):
        registry.register_device(device_id, b"pin-" + device_id.encode("utf-8"))
        session = registry.device_connect(device_id, 3)
        registry.claim(session, ClaimRequest(f"owner of {device_id}", device_id, b"pin-" + device_id.encode("utf-8")))
    registry.blacklist("blacklisted")
    registry.deprovision("deprovisioned")
    registry.device_connect(ODD_ID, 9)  # moves next_session on
    registry.save(path)


def _states():
    store, tsa = make_pki()
    fw1, fw2 = firmware_image(1), firmware_image(2)
    initial = initial_state(
        hashlib.sha256(fw1).digest(), 1, store.public_key("tsa-root"), store.public_key("publisher"), gen_time=5
    )
    manifest = build_manifest(fw2, "fw-2", 2, 100, store.handle("publisher"), tsa, now=10)
    torn = interrupt_update(initial, manifest, fw2, 0.5)
    # slot A's image goes bad too, so the boot finds no verified slot
    failed, slot = boot(torn._with_slot(Slot.A, dataclasses.replace(torn.slot(Slot.A), verified=False)))
    assert slot is None and failed.mode is DeviceMode.FAIL_STATE
    return {"initial": initial, "torn": torn, "fail": failed}


def _state(name):
    def save(path):
        _states()[name].save(path)

    return save


def _public_keystore(path):
    store, _ = make_pki()
    store.generate_key(ODD_ID)
    store.save(path)


SAVED = {
    "registry": (_registry, "c80211daf2a5aa2882f6208a31b865bf429f10f64eec7eb3851db5cb2ffcd45e"),
    "state-initial": (_state("initial"), "6d6def6be3d6c1520b80c509b0379a5db43ee0b4a98df18e375ea8437ad3693b"),
    "state-torn": (_state("torn"), "9cbf40af2593118fc2bc0c2150ef8a98c5aa69bdda944a34b6c89e7c69e3842b"),
    "state-fail": (_state("fail"), "d0cdb13a144cd14373fb75294dadd9aec81eae212ba07384a1f478723e9b5a93"),
    "keystore-public": (_public_keystore, "89f0eaa5640f3f1486cd1c3af4644cc2faf37b6663a831abd785b287ed9599e0"),
}


@pytest.mark.parametrize("name", list(SAVED))
def test_saved_file_bytes_are_pinned(name, tmp_path):
    save, digest = SAVED[name]
    path = tmp_path / f"{name}.json"
    save(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_a_passphrase_keystore_keeps_its_keys_in_order_and_loads_them_back(tmp_path):
    store, _ = make_pki()
    store.generate_key(ODD_ID)
    path = tmp_path / "keys.json"
    store.save(path, passphrase="pw")
    obj = json.loads(path.read_text(encoding="utf-8"))
    assert list(obj) == ["format", "keys", "seed_enc"]
    assert [list(entry) for entry in obj["keys"]] == [["key_id", "algorithm", "public", "private_enc"]] * 3
    assert [entry["key_id"] for entry in obj["keys"]] == sorted([ODD_ID, "publisher", "tsa-root"])

    loaded = Keystore.load(path, passphrase="pw")
    assert loaded.key_ids() == store.key_ids()
    for key_id in store.key_ids():
        assert loaded.public_key(key_id) == store.public_key(key_id)
        assert loaded.sign(key_id, b"message") == store.sign(key_id, b"message")
    # the seed came back: a key made after loading is the key made before saving
    assert loaded.generate_key("later") == store.generate_key("later")

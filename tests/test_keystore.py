import json
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings

from fleetsec import keystore
from fleetsec.errors import FleetsecError
from fleetsec.keystore import (
    ALGORITHM_ED25519,
    DuplicateKeyError,
    Keystore,
    KeystoreFileError,
    PublicKeyInfo,
    UnknownKeyError,
    verify,
)
from fleetsec.wire import ConfigError, build, read_spec, write_spec

from helpers import edited, json_edits


def test_generate_returns_public_info():
    store = Keystore(1)
    info = store.generate_key("tsa-root")
    assert info.key_id == "tsa-root"
    assert info.algorithm == ALGORITHM_ED25519
    assert len(info.public_bytes) == 32


def test_empty_key_id_names_the_field():
    store = Keystore(1)
    with pytest.raises(ConfigError, match="^key_id: must be a non-empty string$"):
        store.generate_key("")
    assert store.key_ids() == []


def test_duplicate_key_id_rejected():
    store = Keystore(1)
    store.generate_key("a")
    with pytest.raises(DuplicateKeyError):
        store.generate_key("a")


def test_same_seed_same_keys():
    a = Keystore(99).generate_key("publisher")
    b = Keystore(99).generate_key("publisher")
    assert a.public_bytes == b.public_bytes


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_outside_u64_names_the_field(seed):
    # a wider seed would alias one inside the range: 2**64 derives the keys of 0
    with pytest.raises(ConfigError) as exc:
        Keystore(seed)
    assert str(exc.value) == f"seed: must be in [0, 2**64), got {seed}"


def test_different_seed_different_keys():
    a = Keystore(1).generate_key("publisher")
    b = Keystore(2).generate_key("publisher")
    assert a.public_bytes != b.public_bytes


def test_generation_order_does_not_matter():
    a = Keystore(7)
    a.generate_key("x")
    a.generate_key("y")
    b = Keystore(7)
    b.generate_key("y")
    b.generate_key("x")
    assert a.public_key("x") == b.public_key("x")
    assert a.public_key("y") == b.public_key("y")


def test_sign_verify_round_trips_many_messages():
    store = Keystore(5)
    pub = store.generate_key("k")
    rng = random.Random(0)
    for _ in range(100):
        msg = rng.randbytes(rng.randrange(0, 200))
        sig = store.sign("k", msg)
        assert verify(pub, msg, sig)


def test_signatures_are_deterministic():
    store = Keystore(5)
    store.generate_key("k")
    assert store.sign("k", b"hello") == store.sign("k", b"hello")


def test_flipped_message_bit_fails_verification():
    store = Keystore(5)
    pub = store.generate_key("k")
    sig = store.sign("k", b"hello")
    assert not verify(pub, b"hellp", sig)


def test_sign_with_unknown_key():
    with pytest.raises(UnknownKeyError):
        Keystore(1).sign("ghost", b"m")


class TestVerifyNeverRaises:
    def test_empty_signature(self):
        pub = Keystore(1).generate_key("k")
        assert verify(pub, b"m", b"") is False

    def test_garbage_signature(self):
        pub = Keystore(1).generate_key("k")
        assert verify(pub, b"m", b"\xff" * 64) is False

    def test_wrong_public_key(self):
        a = Keystore(1)
        siga = a.generate_key("k")
        sig = a.sign("k", b"m")
        other = Keystore(2).generate_key("k")
        assert verify(other, b"m", sig) is False
        assert verify(siga, b"m", sig) is True

    def test_truncated_signature(self):
        store = Keystore(1)
        pub = store.generate_key("k")
        sig = store.sign("k", b"m")
        assert verify(pub, b"m", sig[:20]) is False


def _flip(data: bytes, bit: int) -> bytes:
    out = bytearray(data)
    out[bit // 8] ^= 1 << bit % 8
    return bytes(out)


class TestVerifyMemo:
    @pytest.fixture(autouse=True)
    def empty_memo(self):
        keystore._verify_bytes.cache_clear()

    def test_one_flipped_bit_misses_a_cached_accept(self):
        store = Keystore(5)
        pub = store.generate_key("k")
        message = b"manifest body"
        sig = store.sign("k", message)
        assert verify(pub, message, sig) and verify(pub, message, sig)
        assert keystore._verify_bytes.cache_info().hits == 1
        for bit in range(len(pub.public_bytes) * 8):
            flipped = PublicKeyInfo(pub.key_id, pub.algorithm, _flip(pub.public_bytes, bit))
            assert verify(flipped, message, sig) is False
        for bit in range(len(message) * 8):
            assert verify(pub, _flip(message, bit), sig) is False
        for bit in range(len(sig) * 8):
            assert verify(pub, message, _flip(sig, bit)) is False
        assert verify(pub, message, sig) is True

    def test_cached_reject_under_the_wrong_key_leaves_the_right_key_valid(self):
        # both keys are named "k": the memo must key on key bytes, not names
        right_store = Keystore(1)
        right = right_store.generate_key("k")
        sig = right_store.sign("k", b"m")
        wrong = Keystore(2).generate_key("k")
        assert verify(wrong, b"m", sig) is False
        assert verify(wrong, b"m", sig) is False
        assert verify(right, b"m", sig) is True

    def test_memo_stays_bounded(self):
        pub = Keystore(1).generate_key("k")
        bound = keystore._verify_bytes.cache_info().maxsize
        assert bound == 4096
        for i in range(bound + 1):
            verify(pub, i.to_bytes(4, "big"), b"\x01" * 64)
        assert keystore._verify_bytes.cache_info().currsize <= bound

    @pytest.mark.parametrize("signature", [b"", b"\x00" * 20, "not bytes"])
    def test_malformed_signature_is_false_every_time(self, signature):
        pub = Keystore(1).generate_key("k")
        assert verify(pub, b"m", signature) is False
        assert verify(pub, b"m", signature) is False

    def test_bytes_like_arguments_still_verify(self):
        store = Keystore(1)
        pub = store.generate_key("k")
        sig = store.sign("k", b"m")
        assert verify(pub, bytearray(b"m"), memoryview(sig)) is True


def test_handle_binds_key_id():
    store = Keystore(3)
    store.generate_key("signer")
    handle = store.handle("signer")
    assert handle.key_id == "signer"
    assert verify(handle.public, b"x", handle.sign(b"x"))
    with pytest.raises(UnknownKeyError):
        store.handle("nope")


class TestStateFile:
    def test_round_trip_with_passphrase(self, tmp_path):
        store = Keystore(42)
        store.generate_key("a")
        store.generate_key("b")
        path = tmp_path / "ks.json"
        store.save(path, passphrase="pw")
        loaded = Keystore.load(path, passphrase="pw")
        assert loaded.key_ids() == ["a", "b"]
        assert loaded.public_key("a") == store.public_key("a")
        # private material survived: can still sign
        assert verify(store.public_key("a"), b"m", loaded.sign("a", b"m"))

    def test_save_without_passphrase_is_public_only(self, tmp_path):
        store = Keystore(42)
        store.generate_key("a")
        path = tmp_path / "ks.json"
        store.save(path)
        loaded = Keystore.load(path)
        assert loaded.public_key("a") == store.public_key("a")
        with pytest.raises((UnknownKeyError, KeystoreFileError)):
            loaded.sign("a", b"m")

    def test_file_never_contains_plaintext_private_material(self, tmp_path):
        # the seed and derived private scalars must not be recoverable from
        # the raw file text; with a passphrase they are Fernet-encrypted
        store = Keystore(0xDEAD)
        store.generate_key("a")
        path = tmp_path / "ks.json"
        store.save(path, passphrase="pw")
        text = path.read_text()
        obj = json.loads(text)
        assert obj["format"] == "fleetsec-keystore-v1"
        assert "57005" not in text.replace("fleetsec", "")  # 0xDEAD in decimal
        for key in obj["keys"]:
            priv = key.get("private_enc", "")
            assert priv.startswith("gAAAA")  # fernet token, not raw bytes

    def test_wrong_passphrase_rejected(self, tmp_path):
        store = Keystore(1)
        store.generate_key("a")
        path = tmp_path / "ks.json"
        store.save(path, passphrase="right")
        with pytest.raises(ConfigError, match=r"\.seed_enc: wrong passphrase or corrupted keystore file$"):
            Keystore.load(path, passphrase="wrong")

    def test_unknown_format_tag_rejected(self, tmp_path):
        path = tmp_path / "ks.json"
        path.write_text(json.dumps({"format": "something-else", "keys": []}))
        with pytest.raises(ConfigError, match=r"\.format: missing or unsupported keystore format tag$"):
            Keystore.load(path)


def test_public_key_info_json_round_trip():
    info = Keystore(9).generate_key("root")
    again = build(PublicKeyInfo, "key", **read_spec(PublicKeyInfo, write_spec(info), "key"))
    assert again == info


def _saved_keystore() -> dict:
    store = Keystore(5)
    store.generate_key("a")
    store.generate_key("b")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ks.json"
        store.save(path, passphrase="pw")
        return json.loads(path.read_text())


SAVED_KEYSTORE = _saved_keystore()


@settings(derandomize=True, max_examples=300, deadline=None)
@given(edits=json_edits(SAVED_KEYSTORE))
def test_edited_keystore_files_raise_only_value_errors(tmp_path_factory, edits):
    path = tmp_path_factory.getbasetemp() / "edited-keystore.json"
    path.write_text(json.dumps(edited(SAVED_KEYSTORE, edits)))
    try:
        Keystore.load(path, passphrase="pw")
    except FleetsecError:
        pass

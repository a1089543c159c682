import hashlib
import random

import pytest

from fleetsec.keystore import Keystore
from fleetsec.tsa import (
    IMPRINT_LEN,
    MismatchedImprintError,
    TimestampAuthority,
    TimestampToken,
    UntrustedSignerError,
    decode_token,
    verify_token,
)
from fleetsec.wire import ConfigError, DecodeError

DIGEST = hashlib.sha256(b"firmware image").digest()
OTHER = hashlib.sha256(b"something else").digest()


@pytest.fixture()
def tsa(pki):
    store, authority = pki
    return authority


@pytest.fixture()
def anchor(pki):
    store, _ = pki
    return store.public_key("tsa-root")


@pytest.mark.parametrize("now", [-1, 2**64])
def test_now_outside_u64_names_the_field(pki, now):
    store, _ = pki
    authority = TimestampAuthority(store, "tsa-root")
    with pytest.raises(ConfigError) as exc:
        authority.issue_token(DIGEST, now=now)
    assert str(exc.value) == f"now: must be in [0, 2**64), got {now}"
    assert authority.issue_token(DIGEST, now=1).serial == 1  # the refused token took no serial


def test_serial_past_u64_names_the_field(pki):
    store, _ = pki
    authority = TimestampAuthority(store, "tsa-root", start_serial=2**64 - 2)
    assert authority.issue_token(DIGEST, now=1).serial == 2**64 - 1
    with pytest.raises(ConfigError) as exc:
        authority.issue_token(DIGEST, now=2)
    assert str(exc.value) == "serial: must be in [0, 2**64), got 18446744073709551616"


@pytest.mark.parametrize("start", [-1, 2**64])
def test_start_serial_outside_u64_names_the_field(pki, start):
    store, _ = pki
    with pytest.raises(ConfigError) as exc:
        TimestampAuthority(store, "tsa-root", start_serial=start)
    assert str(exc.value) == f"serial: must be in [0, 2**64), got {start}"
    # the last serial a token can carry is still a valid start
    TimestampAuthority(store, "tsa-root", start_serial=2**64 - 1)


def test_serials_increase_without_gaps(pki):
    store, _ = pki
    authority = TimestampAuthority(store, "tsa-root")
    serials = [authority.issue_token(DIGEST, now=t).serial for t in range(1, 12)]
    assert serials == list(range(1, 12))


def test_issue_records_gen_time(tsa):
    assert tsa.issue_token(DIGEST, now=77).gen_time == 77


def test_round_trip_verifies(tsa, anchor):
    token = tsa.issue_token(DIGEST, now=5)
    verify_token(token, DIGEST, anchor)  # must not raise


def test_short_imprint_rejected(pki):
    store, _ = pki
    authority = TimestampAuthority(store, "tsa-root")
    with pytest.raises(ConfigError) as exc:
        authority.issue_token(DIGEST[:31], now=1)
    assert str(exc.value) == "imprint: must be 32 bytes"
    assert authority.issue_token(DIGEST, now=1).serial == 1  # the refused token took no serial


def test_mismatched_imprint(tsa, anchor):
    token = tsa.issue_token(DIGEST, now=5)
    with pytest.raises(MismatchedImprintError):
        verify_token(token, OTHER, anchor)


def test_token_resigned_by_non_anchor_key(tsa, anchor):
    # imposter TSA with the same key name but different key material
    imposter_store = Keystore(31337)
    imposter_store.generate_key("tsa-root")
    imposter = TimestampAuthority(imposter_store, "tsa-root")
    token = imposter.issue_token(DIGEST, now=5)
    with pytest.raises(UntrustedSignerError):
        verify_token(token, DIGEST, anchor)


def test_renamed_tsa_key_is_untrusted(tsa, anchor):
    # the key name rides outside the signed body; verification must still
    # catch a swap
    token = tsa.issue_token(DIGEST, now=5)
    renamed = TimestampToken(
        imprint=token.imprint,
        gen_time=token.gen_time,
        serial=token.serial,
        tsa_key="rogue-root",
        signature=token.signature,
    )
    with pytest.raises(UntrustedSignerError):
        verify_token(renamed, DIGEST, anchor)


def test_encode_decode_round_trip(tsa):
    token = tsa.issue_token(DIGEST, now=9)
    assert decode_token(token.encode()) == token


def test_decode_rejects_trailing_garbage(tsa):
    token = tsa.issue_token(DIGEST, now=9)
    with pytest.raises(DecodeError):
        decode_token(token.encode() + b"\x00")


def test_hex_dump_matches_encoding(tsa):
    token = tsa.issue_token(DIGEST, now=9)
    assert bytes.fromhex(token.hex_dump()) == token.encode()


def test_every_single_bit_mutation_fails_verification(pki):
    """1000 single-bit flips of the canonical encoding, none may verify."""
    store, _ = pki
    authority = TimestampAuthority(store, "tsa-root", start_serial=100)
    anchor = store.public_key("tsa-root")
    token = authority.issue_token(DIGEST, now=42)
    encoded = token.encode()
    rng = random.Random(2024)
    checked = 0
    for _ in range(1000):
        bit = rng.randrange(len(encoded) * 8)
        mutated = bytearray(encoded)
        mutated[bit // 8] ^= 1 << (bit % 8)
        try:
            bad = decode_token(bytes(mutated))
        except (DecodeError, ConfigError):
            checked += 1  # encoding-level rejection counts as failing
            continue
        with pytest.raises((UntrustedSignerError, MismatchedImprintError)):
            verify_token(bad, DIGEST, anchor)
        checked += 1
    assert checked == 1000


def test_token_field_validation():
    for fields, error in [
        ((b"short", 1, 1), "imprint: must be 32 bytes"),
        ((DIGEST, 1, 0), "serial: must be positive"),
        ((DIGEST, -1, 1), "gen_time: must be in [0, 2**64), got -1"),
        ((DIGEST, 2**64, 1), "gen_time: must be in [0, 2**64), got 18446744073709551616"),
        ((DIGEST, 1, -1), "serial: must be positive"),
        ((DIGEST, 1, 2**64), "serial: must be in [0, 2**64), got 18446744073709551616"),
    ]:
        with pytest.raises(ConfigError) as exc:
            TimestampToken(*fields, "k", b"sig")
        assert str(exc.value) == error
    earliest = TimestampToken(DIGEST, 0, 1, "k", b"sig")  # the least gen_time and serial
    assert decode_token(earliest.encode()) == earliest


def test_start_serial_offsets_the_sequence(pki):
    store, _ = pki
    authority = TimestampAuthority(store, "tsa-root", start_serial=500)
    assert authority.issue_token(DIGEST, now=1).serial == 501
    assert authority.issue_token(DIGEST, now=2).serial == 502

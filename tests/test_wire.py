"""The schemas: write_spec writes what read_spec reads back, and the binary
encoders write what their decoders read back, unchanged."""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fleetsec.errors import FleetsecError
from fleetsec.identity import ClaimRequest, DeviceRecord, DeviceRegistry, Status
from fleetsec.keystore import ALGORITHM_ED25519, PublicKeyInfo
from fleetsec.tsa import TimestampToken, decode_token
from fleetsec.update_protocol import (
    EMPTY_SLOT,
    DeviceMode,
    DeviceUpdateState,
    FirmwareManifest,
    Slot,
    SlotState,
    decode_manifest,
)
from fleetsec.wire import U64_MAX, ConfigError, build, read_spec, write_spec

# non-ASCII letters, and the commas and quotes that JSON text must escape
IDS = st.text(st.sampled_from('aZ9-_ éü€漢,"\'\\'), min_size=1, max_size=12) | st.text(min_size=1)
DIGESTS = st.binary(min_size=32, max_size=32)

PUBLIC_KEYS = st.builds(PublicKeyInfo, IDS, st.just(ALGORITHM_ED25519), DIGESTS)
SLOTS = st.just(EMPTY_SLOT) | st.builds(
    SlotState, DIGESTS, st.integers(-1, 2**64 - 1), st.integers(-1, 2**64 - 1), st.booleans()
)
# u64 fields at their edges as well as between them
U64S = st.sampled_from([0, 1, U64_MAX]) | st.integers(0, U64_MAX)
TOKENS = st.builds(
    TimestampToken,
    DIGESTS,
    gen_time=U64S,
    serial=st.sampled_from([1, U64_MAX]) | st.integers(1, U64_MAX),
    tsa_key=st.just("") | IDS,
    signature=st.binary(max_size=64),
)
MANIFESTS = st.builds(
    FirmwareManifest,
    firmware_id=st.just("") | IDS,
    version=U64S,
    digest=DIGESTS,
    expiry=U64S,
    token=TOKENS,
    publisher_sig=st.binary(max_size=64),
)

STATES = st.builds(
    DeviceUpdateState,
    st.sampled_from(Slot),
    SLOTS,
    SLOTS,
    PUBLIC_KEYS,
    PUBLIC_KEYS,
    st.sampled_from(DeviceMode),
)


@st.composite
def records(draw) -> DeviceRecord:
    status = draw(st.sampled_from(Status))
    owner = {
        Status.CLAIMED: IDS,
        Status.BLACKLISTED: st.none() | IDS,
    }.get(status, st.none())
    return DeviceRecord(
        device_id=draw(IDS),
        claim_hash=draw(DIGESTS),
        owner=draw(owner),
        device_pub=draw(st.none() | PUBLIC_KEYS),
        status=status,
        needs_reprovision=draw(st.booleans()),
        generation=draw(st.integers(0, 2**32)),
    )


def _round_trip(value):
    """value written, passed through JSON text, and read back."""
    spec = type(value)
    obj = json.loads(json.dumps(write_spec(value)))
    return build(spec, "value", **read_spec(spec, obj, "value"))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(value=PUBLIC_KEYS | SLOTS | records() | STATES)
def test_every_saved_type_reads_back_what_was_written(value):
    assert _round_trip(value) == value


@pytest.mark.parametrize("status", list(Status))
@pytest.mark.parametrize("owner", [None, 'ä,"b"'])
@pytest.mark.parametrize("device_pub", [None, PublicKeyInfo("dev:ü,\"1\":g1", ALGORITHM_ED25519, bytes(32))])
def test_every_status_reads_back_with_and_without_owner_and_key(status, owner, device_pub):
    try:
        rec = DeviceRecord('dév,"1"', bytes(32), owner, device_pub, status, False, 1)
    except ConfigError:
        # Claimed needs an owner; Unprovisioned and Deprovisioned have none
        assert (status is Status.CLAIMED) == (owner is None)
        return
    assert _round_trip(rec) == rec


def test_saved_keys_are_the_file_keys_in_field_order():
    key = PublicKeyInfo("root", ALGORITHM_ED25519, bytes(32))
    state = DeviceUpdateState(Slot.A, EMPTY_SLOT, EMPTY_SLOT, key, key, DeviceMode.RUNNING)
    obj = write_spec(state)
    assert list(obj) == ["active_slot", "slots", "trust_anchor_tsa", "trust_anchor_publisher", "mode"]
    assert list(obj["slots"]) == ["A", "B"]
    assert obj["slots"]["A"] == {
        "image_digest": "A" * 43 + "=",
        "version": -1,
        "gen_time": -1,
        "verified": False,
    }
    assert obj["trust_anchor_tsa"] == {"key_id": "root", "algorithm": "Ed25519", "public": "A" * 43 + "="}


_OPS = ("register", "claim", "blacklist", "deprovision")


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    ids=st.lists(IDS, min_size=1, max_size=4, unique=True),
    ops=st.lists(st.tuples(st.sampled_from(_OPS), st.integers(0, 3)), max_size=16),
    seed=st.integers(0, 2**64 - 1),
)
def test_generated_registries_save_back_to_themselves(ids, ops, seed):
    registry = DeviceRegistry(seed=seed)
    for op, i in ops:
        device_id = ids[i % len(ids)]
        try:
            if op == "register":
                registry.register_device(device_id, b"secret")
            elif op == "claim":
                session = registry.device_connect(device_id, 0)
                registry.claim(session, ClaimRequest("owner,\"é\"", device_id, b"secret"))
            else:
                getattr(registry, op)(device_id)
        except FleetsecError:
            pass
    saved = json.loads(json.dumps(registry.to_json_obj()))
    assert DeviceRegistry.from_json_obj(saved).to_json_obj() == registry.to_json_obj()


_FIRST_TOKEN = TimestampToken(bytes(32), 0, 1, "", b"")  # gen_time 0, serial 1
_LAST_TOKEN = TimestampToken(bytes(32), U64_MAX, U64_MAX, "", b"")


@settings(derandomize=True, max_examples=300, deadline=None)
@given(value=TOKENS | MANIFESTS)
@example(value=_FIRST_TOKEN)
@example(value=_LAST_TOKEN)
@example(value=FirmwareManifest("", 0, bytes(32), 0, _FIRST_TOKEN, b""))
@example(value=FirmwareManifest("", U64_MAX, bytes(32), U64_MAX, _LAST_TOKEN, b""))
def test_tokens_and_manifests_decode_to_what_was_encoded(value):
    decode = decode_token if isinstance(value, TimestampToken) else decode_manifest
    assert decode(value.encode()) == value

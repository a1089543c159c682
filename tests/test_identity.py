import base64
import hashlib
import inspect
import json

import pytest
from hypothesis import given, settings

from fleetsec.errors import FleetsecError
from fleetsec.identity import (
    AlreadyClaimedError,
    BlacklistedError,
    Channel,
    ClaimRequest,
    DeviceRegistry,
    DuplicateDeviceError,
    InvalidSessionError,
    LifecycleError,
    NotClaimableError,
    NotClaimedError,
    RendezvousSession,
    SecretMismatchError,
    Status,
    UnknownDeviceError,
    claim_hash,
)
from fleetsec.wire import ConfigError

from helpers import edited, json_edits, run_lifecycle_ops

SECRET = b"printed-on-the-box"


@pytest.fixture()
def registry():
    r = DeviceRegistry(seed=11)
    r.register_device("dev-1", SECRET)
    return r


def _claim(registry, device_id="dev-1", secret=SECRET, user="alice", clock=0,
           channel=Channel.PRE_PROVISIONED):
    session = registry.device_connect(device_id, clock=clock)
    return registry.claim(session, ClaimRequest(user, device_id, secret, channel))


def test_claim_hash_is_salted_by_device_id():
    assert claim_hash("dev-1", b"s") == hashlib.sha256(b"dev-1\x1fs").digest()
    assert claim_hash("dev-1", b"s") != claim_hash("dev-2", b"s")


def test_register_creates_unprovisioned_record(registry):
    rec = registry.record("dev-1")
    assert rec.status is Status.UNPROVISIONED
    assert rec.owner is None
    assert rec.device_pub is None
    assert rec.claim_hash == claim_hash("dev-1", SECRET)


def test_register_empty_device_id_is_refused_and_leaves_no_trace(registry):
    before = registry.to_json_obj()
    with pytest.raises(ValueError, match="^device_id: must be non-empty$"):
        registry.register_device("", SECRET)
    assert registry.to_json_obj() == before


def test_an_empty_claim_secret_names_the_field(registry):
    before = registry.to_json_obj()
    with pytest.raises(ConfigError, match="^secret: must be non-empty$"):
        registry.register_device("dev-2", b"")
    assert registry.to_json_obj() == before
    with pytest.raises(ConfigError, match="^secret: must be non-empty$"):
        ClaimRequest("alice", "dev-1", b"")


def test_register_twice_is_refused(registry):
    with pytest.raises(DuplicateDeviceError):
        registry.register_device("dev-1", b"other")


def test_unknown_device(registry):
    with pytest.raises(UnknownDeviceError):
        registry.record("dev-9")
    with pytest.raises(UnknownDeviceError):
        registry.device_connect("dev-9", clock=0)


def test_claim_links_owner_and_issues_device_key(registry):
    rec = _claim(registry)
    assert rec.status is Status.CLAIMED
    assert rec.owner == "alice"
    assert rec.device_pub is not None
    assert rec.device_pub.key_id == "device:dev-1:g1"


def test_every_channel_variant_can_claim(registry):
    for i, channel in enumerate(Channel):
        device = f"ch-{i}"
        registry.register_device(device, SECRET)
        rec = _claim(registry, device_id=device, channel=channel)
        assert rec.status is Status.CLAIMED


def test_wrong_secret_is_refused(registry):
    with pytest.raises(SecretMismatchError):
        _claim(registry, secret=b"guess")
    assert registry.record("dev-1").status is Status.UNPROVISIONED


def test_second_claim_with_right_secret_names_already_claimed(registry):
    _claim(registry)
    with pytest.raises(AlreadyClaimedError):
        _claim(registry, user="bob")
    assert registry.record("dev-1").owner == "alice"


def test_wrong_secret_against_claimed_device_stays_secret_mismatch(registry):
    # the secret gate comes before the status gate: a guesser cannot
    # probe whether a device is claimed
    _claim(registry)
    with pytest.raises(SecretMismatchError):
        _claim(registry, secret=b"guess", user="bob")


def test_claim_needs_a_live_session(registry):
    forged = RendezvousSession("rv-999999", "dev-1", established_at=0)
    with pytest.raises(InvalidSessionError):
        registry.claim(forged, ClaimRequest("alice", "dev-1", SECRET))


def test_session_is_bound_to_its_device(registry):
    registry.register_device("dev-2", SECRET)
    session = registry.device_connect("dev-2", clock=0)
    with pytest.raises(InvalidSessionError):
        registry.claim(session, ClaimRequest("alice", "dev-1", SECRET))


def test_session_ids_are_unique_and_encrypted():
    registry = DeviceRegistry(seed=1)
    registry.register_device("dev-1", SECRET)
    sessions = [registry.device_connect("dev-1", clock=t) for t in range(1000)]
    assert len({s.session_id for s in sessions}) == 1000
    assert all(s.encrypted for s in sessions)


@pytest.mark.parametrize("secret", [b"guess", SECRET], ids=["failed", "succeeded"])
def test_a_session_serves_one_claim(registry, secret):
    session = registry.device_connect("dev-1", clock=0)
    try:
        registry.claim(session, ClaimRequest("alice", "dev-1", secret))
    except SecretMismatchError:
        assert secret != SECRET
    # not even the right secret gets a second try on the same session
    with pytest.raises(InvalidSessionError):
        registry.claim(session, ClaimRequest("alice", "dev-1", SECRET))


def test_a_new_connect_supersedes_the_open_session(registry):
    first = registry.device_connect("dev-1", clock=0)
    second = registry.device_connect("dev-1", clock=1)
    with pytest.raises(InvalidSessionError):
        registry.claim(first, ClaimRequest("alice", "dev-1", SECRET))
    assert registry.claim(second, ClaimRequest("alice", "dev-1", SECRET)).owner == "alice"


def test_unclaimed_connects_leave_one_open_session(registry):
    sessions = [registry.device_connect("dev-1", clock=clock) for clock in range(1000)]
    assert registry._sessions == {"dev-1": sessions[-1]}


def test_claims_leave_no_open_sessions(registry):
    registry.register_device("dev-2", SECRET)
    for clock in range(50):
        session = registry.device_connect(f"dev-{1 + clock % 2}", clock=clock)
        with pytest.raises(SecretMismatchError):
            registry.claim(session, ClaimRequest("eve", session.device_id, b"guess"))
    _claim(registry)
    assert registry._sessions == {}
    registry.device_connect("dev-2", clock=99)
    registry.blacklist("dev-2")
    assert registry._sessions == {}


def test_blacklist_blocks_connect_and_claim(registry):
    registry.blacklist("dev-1")
    with pytest.raises(BlacklistedError):
        registry.device_connect("dev-1", clock=0)
    session = RendezvousSession("rv-000001", "dev-1", established_at=0)
    with pytest.raises(InvalidSessionError):
        # sessions died with the blacklist, so this is not even a live handle
        registry.claim(session, ClaimRequest("alice", "dev-1", SECRET))


def test_blacklist_invalidates_open_sessions(registry):
    session = registry.device_connect("dev-1", clock=0)
    registry.blacklist("dev-1")
    with pytest.raises(InvalidSessionError):
        registry.claim(session, ClaimRequest("alice", "dev-1", SECRET))


def test_blacklist_keeps_last_owner_for_audit(registry):
    _claim(registry)
    rec = registry.blacklist("dev-1")
    assert rec.status is Status.BLACKLISTED
    assert rec.owner == "alice"


def test_blacklist_is_sticky(registry):
    registry.blacklist("dev-1")
    with pytest.raises(DuplicateDeviceError):
        registry.register_device("dev-1", SECRET)
    with pytest.raises(NotClaimedError):
        registry.deprovision("dev-1")
    assert registry.record("dev-1").status is Status.BLACKLISTED


def test_deprovision_requires_claimed(registry):
    with pytest.raises(NotClaimedError):
        registry.deprovision("dev-1")


def test_deprovision_clears_owner_and_flags_reprovision(registry):
    _claim(registry)
    rec = registry.deprovision("dev-1")
    assert rec.status is Status.DEPROVISIONED
    assert rec.owner is None
    assert rec.device_pub is None
    assert rec.needs_reprovision


def test_deprovisioned_device_cannot_be_blacklisted(registry):
    _claim(registry)
    registry.deprovision("dev-1")
    with pytest.raises(LifecycleError):
        registry.blacklist("dev-1")


def test_deprovisioned_device_cannot_be_claimed_directly(registry):
    _claim(registry)
    registry.deprovision("dev-1")
    with pytest.raises(NotClaimableError):
        _claim(registry, user="bob")


def test_reregister_then_claim_rotates_the_device_key(registry):
    first = _claim(registry)
    registry.deprovision("dev-1")
    registry.register_device("dev-1", b"new-box-secret")
    second = _claim(registry, secret=b"new-box-secret", user="bob")
    assert second.owner == "bob"
    assert second.device_pub.key_id == "device:dev-1:g2"
    assert second.device_pub.public_bytes != first.device_pub.public_bytes


def test_claim_uses_constant_time_comparison():
    # structural check: the secret gate must go through hmac.compare_digest
    source = inspect.getsource(DeviceRegistry.claim)
    assert "compare_digest" in source
    assert "== rec.claim_hash" not in source


# --- clone detection --------------------------------------------------------


def test_single_source_is_not_flagged(registry):
    obs = [("dev-1", "home-net", t) for t in range(0, 50, 5)]
    assert registry.detect_credential_clone(obs) == []


def test_overlapping_sources_flag_the_device(registry):
    obs = [
        ("dev-1", "home-net", 0), ("dev-1", "home-net", 30),
        ("dev-1", "cafe-net", 20), ("dev-1", "cafe-net", 40),
    ]
    assert registry.detect_credential_clone(obs) == ["dev-1"]


def test_touching_interval_endpoints_count_as_overlap(registry):
    obs = [("dev-1", "a", 0), ("dev-1", "a", 10), ("dev-1", "b", 10)]
    assert registry.detect_credential_clone(obs) == ["dev-1"]


def test_disjoint_sources_look_like_a_move_not_a_clone(registry):
    obs = [
        ("dev-1", "home-net", 0), ("dev-1", "home-net", 10),
        ("dev-1", "cafe-net", 11), ("dev-1", "cafe-net", 20),
    ]
    assert registry.detect_credential_clone(obs) == []


def test_clone_detection_reports_sorted_device_ids(registry):
    obs = [
        ("dev-b", "x", 0), ("dev-b", "y", 0),
        ("dev-a", "x", 5), ("dev-a", "y", 5),
        ("dev-c", "x", 9),
    ]
    assert registry.detect_credential_clone(obs) == ["dev-a", "dev-b"]


# --- persistence -------------------------------------------------------------


def test_save_load_round_trip(registry, tmp_path):
    _claim(registry)
    registry.register_device("dev-2", b"other-secret")
    path = tmp_path / "registry.json"
    registry.save(path)
    loaded = DeviceRegistry.load(path)
    assert loaded.device_ids() == ["dev-1", "dev-2"]
    rec = loaded.record("dev-1")
    assert rec.status is Status.CLAIMED
    assert rec.owner == "alice"
    assert rec.device_pub == registry.record("dev-1").device_pub
    # the reloaded registry still works end to end
    claimed = loaded.claim(
        loaded.device_connect("dev-2", clock=5),
        ClaimRequest("bob", "dev-2", b"other-secret"),
    )
    assert claimed.status is Status.CLAIMED


def test_session_counter_survives_reload(registry, tmp_path):
    s1 = registry.device_connect("dev-1", clock=0)
    path = tmp_path / "registry.json"
    registry.save(path)
    loaded = DeviceRegistry.load(path)
    s2 = loaded.device_connect("dev-1", clock=1)
    assert s2.session_id != s1.session_id


def test_snapshot_never_contains_the_raw_secret(registry, tmp_path):
    _claim(registry)
    path = tmp_path / "registry.json"
    registry.save(path)
    text = path.read_text()
    for variant in (
        SECRET.decode(),
        SECRET.hex(),
        base64.b64encode(SECRET).decode(),
        base64.urlsafe_b64encode(SECRET).decode().rstrip("="),
    ):
        assert variant not in text
    # the one-way hash is what gets stored (base64url in JSON)
    assert base64.urlsafe_b64encode(claim_hash("dev-1", SECRET)).decode() in text


def test_tampered_snapshot_is_refused(registry, tmp_path):
    _claim(registry)
    path = tmp_path / "registry.json"
    registry.save(path)
    obj = json.loads(path.read_text())
    obj["seed"] = obj["seed"] + 1  # device keys no longer derivable
    path.write_text(json.dumps(obj))
    with pytest.raises(ConfigError, match=r"\.devices\[0\]\.device_pub: does not match the registry seed$"):
        DeviceRegistry.load(path)


def test_unknown_format_tag_is_refused(tmp_path):
    path = tmp_path / "registry.json"
    path.write_text('{"format": "something-else", "seed": 0, "next_session": 1, "devices": []}')
    with pytest.raises(ConfigError, match=r"\.format: missing or unsupported registry format tag$"):
        DeviceRegistry.load(path)


# --- closure over random op sequences ----------------------------------------


def test_random_op_sequences_respect_the_lifecycle():
    stats = run_lifecycle_ops(2000, seed=3, n_devices=40)
    assert stats.violations == []
    assert stats.ops == 2000
    assert stats.claims > 20
    assert stats.rejections > 100


def _saved_registry() -> dict:
    registry = DeviceRegistry(seed=3)
    for device_id in ("dev-1", "dev-2"):
        registry.register_device(device_id, SECRET)
    _claim(registry)
    registry.blacklist("dev-2")
    return json.loads(json.dumps(registry.to_json_obj()))


SAVED_REGISTRY = _saved_registry()


@settings(derandomize=True, max_examples=300, deadline=None)
@given(edits=json_edits(SAVED_REGISTRY))
def test_edited_registry_files_raise_only_value_errors(edits):
    """An edited file is refused with a FleetsecError, or it loads and saves back to itself."""
    try:
        registry = DeviceRegistry.from_json_obj(edited(SAVED_REGISTRY, edits))
    except FleetsecError:
        return
    saved = json.loads(json.dumps(registry.to_json_obj()))
    assert DeviceRegistry.from_json_obj(saved).to_json_obj() == saved

import base64
import collections
import dataclasses
import hashlib
import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fleetsec.errors import FleetsecError
from fleetsec.keystore import Keystore
from fleetsec.tsa import TimestampAuthority, TimestampToken, token_signed_body
from fleetsec.update_protocol import (
    DeviceMode,
    DeviceUpdateState,
    ExpiryInPastError,
    FirmwareManifest,
    NotInFailStateError,
    RejectReason,
    Slot,
    SlotState,
    Verdict,
    apply_update,
    boot,
    build_manifest,
    decode_manifest,
    device_verify,
    initial_state,
    interrupt_update,
    manifest_signed_body,
    recover_to_trusted,
)
from fleetsec.wire import ConfigError, build, read_spec, write_spec

from helpers import (
    edited,
    expected_reason,
    firmware_image,
    json_edits,
    make_pki,
    run_adversarial_traces,
)


@pytest.fixture()
def env(pki):
    """Factory device on v1 plus a valid v2 manifest, built at now=10."""
    store, tsa = pki
    fw1 = firmware_image(1)
    fw2 = firmware_image(2)
    state = initial_state(
        hashlib.sha256(fw1).digest(),
        1,
        store.public_key("tsa-root"),
        store.public_key("publisher"),
        gen_time=5,
    )
    manifest = build_manifest(fw2, "fw-2", 2, 100, store.handle("publisher"), tsa, now=10)
    return store, tsa, state, manifest, fw1, fw2


# --- the four verification vectors ---------------------------------------


def test_vector_accept(env):
    _, _, state, manifest, _, fw2 = env
    assert device_verify(state, manifest, fw2, now=50) == Verdict.accept()


def test_vector_rollback(env):
    store, tsa, _, manifest, fw1, fw2 = env
    # device already runs version 2; a version-1 manifest must be refused
    newer = initial_state(
        hashlib.sha256(fw2).digest(),
        2,
        store.public_key("tsa-root"),
        store.public_key("publisher"),
        gen_time=5,
    )
    old = build_manifest(fw1, "fw-1", 1, 100, store.handle("publisher"), tsa, now=10)
    verdict = device_verify(newer, old, fw1, now=50)
    assert verdict == Verdict.reject(RejectReason.ROLLBACK)
    assert str(verdict) == "Reject(Rollback)"


def test_vector_expired(env):
    _, _, state, manifest, _, fw2 = env
    assert device_verify(state, manifest, fw2, now=100) == Verdict.reject(
        RejectReason.EXPIRED
    )
    assert device_verify(state, manifest, fw2, now=101).reason is RejectReason.EXPIRED


def test_vector_digest_mismatch(env):
    _, _, state, manifest, _, fw2 = env
    tampered = bytearray(fw2)
    tampered[7] ^= 0x40
    before = dataclasses.replace(state)
    verdict = device_verify(state, manifest, bytes(tampered), now=50)
    assert verdict == Verdict.reject(RejectReason.DIGEST_MISMATCH)
    assert state == before


# --- check order ----------------------------------------------------------


def test_bad_signature_wins_over_everything(env):
    store, tsa, state, manifest, _, fw2 = env
    # wrong signer, stale version, tampered bytes, past expiry: the
    # signature check must still be the one that names the reason
    imposter = Keystore(404)
    imposter.generate_key("publisher")
    forged = build_manifest(fw2, "fw-0", 0, 20, imposter.handle("publisher"), tsa, now=10)
    verdict = device_verify(state, forged, fw2[:-1], now=999)
    assert verdict.reason is RejectReason.BAD_PUBLISHER_SIG
    assert expected_reason(state, forged, fw2[:-1], 999) is RejectReason.BAD_PUBLISHER_SIG


def test_untrusted_timestamp_beats_digest_and_freshness(env):
    store, _, state, _, _, fw2 = env
    rogue_store = Keystore(405)
    rogue_store.generate_key("tsa-root")
    rogue_tsa = TimestampAuthority(rogue_store, "tsa-root")
    manifest = build_manifest(fw2, "fw-0", 0, 20, store.handle("publisher"), rogue_tsa, now=10)
    verdict = device_verify(state, manifest, fw2[:-1], now=999)
    assert verdict.reason is RejectReason.UNTRUSTED_TIMESTAMP


def test_digest_beats_freshness_and_expiry(env):
    store, tsa, state, _, fw1, _ = env
    manifest = build_manifest(fw1, "fw-0", 0, 20, store.handle("publisher"), tsa, now=10)
    verdict = device_verify(state, manifest, firmware_image(9), now=999)
    assert verdict.reason is RejectReason.DIGEST_MISMATCH


def test_rollback_beats_expiry(env):
    store, tsa, state, _, fw1, _ = env
    manifest = build_manifest(fw1, "fw-1", 1, 20, store.handle("publisher"), tsa, now=10)
    verdict = device_verify(state, manifest, fw1, now=999)
    assert verdict.reason is RejectReason.ROLLBACK


def test_gen_time_alone_is_not_fresh_enough(env):
    # version bumps but the token is older than the installed one:
    # both halves of the freshness conjunction are required
    store, tsa, _, _, _, fw2 = env
    state = initial_state(
        hashlib.sha256(firmware_image(1)).digest(),
        1,
        store.public_key("tsa-root"),
        store.public_key("publisher"),
        gen_time=30,
    )
    manifest = build_manifest(fw2, "fw-2", 2, 100, store.handle("publisher"), tsa, now=10)
    assert manifest.token.gen_time == 10
    verdict = device_verify(state, manifest, fw2, now=50)
    assert verdict.reason is RejectReason.ROLLBACK


def test_verify_matches_independent_oracle_on_mixed_corpus(env):
    store, tsa, state, manifest, fw1, fw2 = env
    imposter = Keystore(406)
    imposter.generate_key("publisher")
    candidates = [
        (manifest, fw2, 50),
        (manifest, fw2, 100),
        (manifest, fw1, 50),
        (build_manifest(fw1, "fw-1", 1, 99, store.handle("publisher"), tsa, now=11), fw1, 50),
        (build_manifest(fw2, "fw-2", 2, 99, imposter.handle("publisher"), tsa, now=11), fw2, 50),
    ]
    for m, fw, now in candidates:
        want = expected_reason(state, m, fw, now)
        got = device_verify(state, m, fw, now)
        if want is None:
            assert got.accepted
        else:
            assert got.reason is want


# --- apply / interrupt / boot ---------------------------------------------


def test_accept_flips_active_slot(env):
    _, _, state, manifest, _, fw2 = env
    after, verdict = apply_update(state, manifest, fw2, now=50)
    assert verdict == Verdict.accept()
    assert after.active_slot is Slot.B
    assert after.active().version == 2
    assert after.active().gen_time == 10
    assert after.active().verified
    assert after.slot(Slot.A) == state.slot(Slot.A)
    assert after.mode is DeviceMode.RUNNING


def test_reject_leaves_state_deep_equal(env):
    _, _, state, manifest, _, fw2 = env
    after, verdict = apply_update(state, manifest, fw2[:-1], now=50)
    assert after is state
    assert verdict == Verdict.reject(RejectReason.DIGEST_MISMATCH)


def test_two_updates_ping_pong_slots(env):
    store, tsa, state, manifest, _, fw2 = env
    fw3 = firmware_image(3)
    m3 = build_manifest(fw3, "fw-3", 3, 200, store.handle("publisher"), tsa, now=60)
    s1, _ = apply_update(state, manifest, fw2, now=50)
    s2, _ = apply_update(s1, m3, fw3, now=70)
    assert s2.active_slot is Slot.A
    assert s2.active().version == 3
    assert s2.inactive().version == 2


def test_replay_of_accepted_manifest_is_rollback(env):
    _, _, state, manifest, _, fw2 = env
    s1, _ = apply_update(state, manifest, fw2, now=50)
    s2, verdict = apply_update(s1, manifest, fw2, now=55)
    assert s2 is s1
    assert verdict == Verdict.reject(RejectReason.ROLLBACK)


def test_interrupt_keeps_active_slot_and_marks_updating(env):
    _, _, state, manifest, _, fw2 = env
    for cut in (0.0, 0.25, 0.99):
        torn = interrupt_update(state, manifest, fw2, cut)
        assert torn.active_slot is state.active_slot
        assert torn.slot(Slot.A) == state.slot(Slot.A)
        assert torn.mode is DeviceMode.UPDATING
        assert not torn.inactive().verified


def test_interrupt_rejects_bad_cut_point(env):
    _, _, state, manifest, _, fw2 = env
    with pytest.raises(ValueError):
        interrupt_update(state, manifest, fw2, 1.0)
    with pytest.raises(ValueError):
        interrupt_update(state, manifest, fw2, -0.1)


def test_boot_after_interrupt_falls_back_to_old_slot(env):
    _, _, state, manifest, _, fw2 = env
    torn = interrupt_update(state, manifest, fw2, 0.5)
    booted_state, slot = boot(torn)
    assert slot is Slot.A
    assert booted_state.mode is DeviceMode.RUNNING
    assert booted_state.active().version == 1


def test_interrupt_then_full_apply_succeeds(env):
    _, _, state, manifest, _, fw2 = env
    torn = interrupt_update(state, manifest, fw2, 0.5)
    recovered, _ = boot(torn)
    after, verdict = apply_update(recovered, manifest, fw2, now=50)
    assert verdict.accepted
    assert after.active().version == 2


def test_boot_normal_state_boots_active(env):
    _, _, state, _, _, _ = env
    booted_state, slot = boot(state)
    assert slot is Slot.A
    assert booted_state == state


def test_boot_with_no_verified_slot_parks_in_fail_state(env):
    _, _, state, manifest, _, fw2 = env
    # tear the copy while also invalidating the active slot
    torn = interrupt_update(state, manifest, fw2, 0.5)
    bricked = dataclasses.replace(
        torn, slots=dataclasses.replace(torn.slots, a=dataclasses.replace(torn.slots.a, verified=False))
    )
    failed, slot = boot(bricked)
    assert slot is None
    assert failed.mode is DeviceMode.FAIL_STATE


def test_fail_state_refuses_updates(env):
    _, _, state, manifest, _, fw2 = env
    failed = dataclasses.replace(state, mode=DeviceMode.FAIL_STATE)
    after, verdict = apply_update(failed, manifest, fw2, now=50)
    assert after is failed
    assert verdict == Verdict.reject(RejectReason.FAIL_STATE)
    assert str(verdict) == "Reject(FailState)"


# --- recovery ---------------------------------------------------------------


def _failed_state(env):
    _, _, state, manifest, _, fw2 = env
    torn = interrupt_update(state, manifest, fw2, 0.5)
    bricked = dataclasses.replace(
        torn, slots=dataclasses.replace(torn.slots, a=dataclasses.replace(torn.slots.a, verified=False))
    )
    failed, _ = boot(bricked)
    return failed


def test_recover_installs_factory_image_in_slot_a(env):
    store, tsa, _, _, fw1, _ = env
    failed = _failed_state(env)
    factory = build_manifest(fw1, "factory", 1, 10_000, store.handle("publisher"), tsa, now=60)
    recovered, verdict = recover_to_trusted(failed, factory, fw1, now=70)
    assert verdict == Verdict.accept()
    assert recovered.mode is DeviceMode.RUNNING
    assert recovered.active_slot is Slot.A
    assert recovered.active().version == 1
    assert not recovered.slot(Slot.B).verified


def test_recover_waives_only_the_freshness_check(env):
    # manifest version equals the bricked device's last active version;
    # normal verification would call this a rollback
    store, tsa, _, _, fw1, _ = env
    failed = _failed_state(env)
    factory = build_manifest(fw1, "factory", 0, 10_000, store.handle("publisher"), tsa, now=1)
    recovered, verdict = recover_to_trusted(failed, factory, fw1, now=70)
    assert verdict.accepted
    assert recovered.mode is DeviceMode.RUNNING


def test_recover_refuses_bad_publisher_sig(env):
    _, tsa, _, _, fw1, _ = env
    failed = _failed_state(env)
    imposter = Keystore(407)
    imposter.generate_key("publisher")
    factory = build_manifest(fw1, "factory", 1, 10_000, imposter.handle("publisher"), tsa, now=60)
    after, verdict = recover_to_trusted(failed, factory, fw1, now=70)
    assert after is failed
    assert verdict == Verdict.reject(RejectReason.BAD_PUBLISHER_SIG)


def test_recover_refuses_expired_factory_manifest(env):
    store, tsa, _, _, fw1, _ = env
    failed = _failed_state(env)
    factory = build_manifest(fw1, "factory", 1, 80, store.handle("publisher"), tsa, now=60)
    after, verdict = recover_to_trusted(failed, factory, fw1, now=80)
    assert after is failed
    assert verdict == Verdict.reject(RejectReason.EXPIRED)


@pytest.mark.parametrize(
    "fault, reason",
    [("rogue_tsa", RejectReason.UNTRUSTED_TIMESTAMP), ("tampered", RejectReason.DIGEST_MISMATCH)],
)
def test_recover_names_the_same_first_failure_as_install(env, fault, reason):
    # each fault comes with an expired manifest; both paths name the earlier check
    store, tsa, state, _, fw1, _ = env
    failed = _failed_state(env)
    if fault == "rogue_tsa":
        rogue = Keystore(408)
        rogue.generate_key("tsa-root")
        tsa = TimestampAuthority(rogue, "tsa-root")
    factory = build_manifest(fw1, "factory", 2, 80, store.handle("publisher"), tsa, now=60)
    image = fw1[:-1] + bytes([fw1[-1] ^ 1]) if fault == "tampered" else fw1
    assert device_verify(state, factory, image, now=90) == Verdict.reject(reason)
    assert recover_to_trusted(failed, factory, image, now=90) == (failed, Verdict.reject(reason))


def test_recover_requires_fail_state(env):
    store, tsa, state, _, fw1, _ = env
    factory = build_manifest(fw1, "factory", 1, 10_000, store.handle("publisher"), tsa, now=60)
    with pytest.raises(NotInFailStateError):
        recover_to_trusted(state, factory, fw1, now=70)


# --- purity and monotonicity -------------------------------------------------


def test_device_verify_is_pure(env):
    _, _, state, manifest, _, fw2 = env
    snapshot = dataclasses.replace(state)
    for now in (50, 100, 0):
        device_verify(state, manifest, fw2, now)
    assert state == snapshot


def test_accepted_versions_and_gen_times_strictly_increase(env):
    store, tsa, state, _, _, _ = env
    versions = [state.active().version]
    gen_times = [state.active().gen_time]
    for v in range(2, 8):
        fw = firmware_image(v)
        m = build_manifest(
            fw, f"fw-{v}", v, 1000, store.handle("publisher"), tsa, now=10 * v
        )
        state, _ = apply_update(state, m, fw, now=10 * v + 1)
        versions.append(state.active().version)
        gen_times.append(state.active().gen_time)
    assert versions == sorted(set(versions))
    assert gen_times == sorted(set(gen_times))


# --- manifest construction and round trips ----------------------------------


def test_build_manifest_rejects_past_expiry(pki):
    store, tsa = pki
    with pytest.raises(ExpiryInPastError):
        build_manifest(b"fw", "fw-1", 1, 5, store.handle("publisher"), tsa, now=10)
    with pytest.raises(ExpiryInPastError):
        build_manifest(b"fw", "fw-1", 1, 10, store.handle("publisher"), tsa, now=10)


@pytest.mark.parametrize("version, expiry, message", [
    (2**64, 100, r"^version: must be at most 2\*\*64 - 1$"),
    (1, 2**64, r"^expiry: must be at most 2\*\*64 - 1$"),
])
def test_build_manifest_names_a_field_past_u64(pki, version, expiry, message):
    # the manifest's own checks refuse it, before the signed body is encoded
    store, tsa = pki
    with pytest.raises(ConfigError, match=message):
        build_manifest(b"fw", "fw-1", version, expiry, store.handle("publisher"), tsa, now=10)
    # the largest values still build
    manifest = build_manifest(b"fw", "fw-1", 2**64 - 1, 2**64 - 1, store.handle("publisher"), tsa, now=10)
    assert decode_manifest(manifest.encode()) == manifest


def test_build_manifest_is_deterministic_under_same_seed():
    built = []
    for _ in range(2):
        store, tsa = make_pki(seed=99)
        m = build_manifest(
            firmware_image(2), "fw-2", 2, 100, store.handle("publisher"), tsa, now=10
        )
        built.append(m.encode())
    assert built[0] == built[1]


def test_manifest_binary_round_trip(env):
    _, _, _, manifest, _, _ = env
    assert decode_manifest(manifest.encode()) == manifest


def test_manifest_json_round_trip(env):
    _, _, _, manifest, _, _ = env
    obj = json.loads(json.dumps(manifest.to_json_obj()))
    assert list(obj) == ["firmware_id", "version", "digest", "expiry", "token", "publisher_sig"]
    assert base64.urlsafe_b64decode(obj["digest"]) == manifest.digest
    assert base64.urlsafe_b64decode(obj["token"]) == manifest.token.encode()
    assert base64.urlsafe_b64decode(obj["publisher_sig"]) == manifest.publisher_sig


def _saved_state() -> dict:
    store, _ = make_pki()
    state = initial_state(hashlib.sha256(firmware_image(1)).digest(), 1,
                          store.public_key("tsa-root"), store.public_key("publisher"))
    return json.loads(json.dumps(write_spec(state)))


def _read_state(obj) -> DeviceUpdateState:
    return build(DeviceUpdateState, "state", **read_spec(DeviceUpdateState, obj, "state"))


SAVED_STATE = _saved_state()


@settings(derandomize=True, max_examples=300, deadline=None)
@given(edits=json_edits(SAVED_STATE))
def test_edited_state_files_raise_only_value_errors(edits):
    """An edited file is refused with a FleetsecError, or it loads and saves back to itself."""
    try:
        state = _read_state(edited(SAVED_STATE, edits))
    except FleetsecError:
        return
    assert _read_state(json.loads(json.dumps(write_spec(state)))) == state


def test_manifest_invariants_hold_for_honest_builds(env):
    _, _, _, manifest, _, _ = env
    assert manifest.token.imprint == manifest.digest
    assert manifest.expiry > manifest.token.gen_time


# --- randomized adversarial traces -------------------------------------------


def test_thousand_adversarial_traces_hold_the_safety_invariants():
    stats = run_adversarial_traces(1000, seed=7)
    assert stats.violations == []
    assert stats.traces == 1000
    # the corpus must actually exercise both outcomes and several reasons
    assert stats.accepts > 100
    assert set(stats.reject_reasons) >= {"BadPublisherSig", "Rollback", "DigestMismatch"}


# --- generated manifests against the oracle ----------------------------------

_STORE, _ = make_pki()
_IMPOSTER = Keystore(409)  # the genuine key names over other key material
_IMPOSTER.generate_key("publisher")
_IMPOSTER.generate_key("tsa-root")
_IMAGE = firmware_image(2)

_PUBLISHERS = ("genuine", "imposter")
_TSAS = ("genuine", "rogue", "renamed")  # renamed: genuine key, token names another
_STEPS = (-1, 0, 1)  # a drawn field relative to its reference


def _drawn_update(
    publisher, tsa, imprint_ok, tampered, version_step, gen_time_step, expiry_step, mode,
    version=5, gen_time=50, now=100,
):
    """A device whose active slot holds (version, gen_time), and a manifest re-signed as drawn.

    The candidate's version and token gen_time lie one step around the
    active slot's, and its expiry one step around now.
    """
    active_digest = hashlib.sha256(firmware_image(1)).digest()
    state = initial_state(
        active_digest, version, _STORE.public_key("tsa-root"), _STORE.public_key("publisher"), gen_time
    )
    state = dataclasses.replace(state, mode=mode)
    digest = hashlib.sha256(_IMAGE).digest()
    imprint = digest if imprint_ok else active_digest
    token_time = gen_time + gen_time_step
    token_signer = _IMPOSTER if tsa == "rogue" else _STORE
    token = TimestampToken(
        imprint, token_time, 1, "tsa-alt" if tsa == "renamed" else "tsa-root",
        token_signer.sign("tsa-root", token_signed_body(imprint, token_time, 1)),
    )
    body = manifest_signed_body("fw-2", version + version_step, digest, now + expiry_step, token)
    signer = _STORE if publisher == "genuine" else _IMPOSTER
    manifest = FirmwareManifest(
        "fw-2", version + version_step, digest, now + expiry_step, token, signer.sign("publisher", body)
    )
    image = _IMAGE[:-1] + bytes([_IMAGE[-1] ^ 1]) if tampered else _IMAGE
    return state, manifest, image, now


def _verdict_of(reason: RejectReason | None) -> Verdict:
    return Verdict.accept() if reason is None else Verdict.reject(reason)


def _check_install_and_recovery(state, manifest, image, now) -> Verdict:
    """Both paths agree with the oracle; a refusal changes nothing. Returns the install verdict."""
    after, verdict = apply_update(state, manifest, image, now)
    if state.mode is DeviceMode.FAIL_STATE:
        assert verdict == Verdict.reject(RejectReason.FAIL_STATE)
    else:
        assert verdict == _verdict_of(expected_reason(state, manifest, image, now))
    if verdict.accepted:
        assert after.active() == SlotState(manifest.digest, manifest.version, manifest.token.gen_time, True)
        assert after.inactive() == state.active()
    else:
        assert after is state

    failed = dataclasses.replace(state, mode=DeviceMode.FAIL_STATE)
    recovered, recovery = recover_to_trusted(failed, manifest, image, now)
    assert recovery == _verdict_of(expected_reason(failed, manifest, image, now, freshness=False))
    if recovery.accepted:
        assert recovered.active_slot is Slot.A and recovered.mode is DeviceMode.RUNNING
        assert recovered.active().image_digest == manifest.digest
    else:
        assert recovered is failed
    return verdict


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    publisher=st.sampled_from(_PUBLISHERS),
    tsa=st.sampled_from(_TSAS),
    imprint_ok=st.booleans(),
    tampered=st.booleans(),
    version_step=st.sampled_from(_STEPS),
    gen_time_step=st.sampled_from(_STEPS),
    expiry_step=st.sampled_from(_STEPS),
    mode=st.sampled_from([DeviceMode.RUNNING, DeviceMode.FAIL_STATE]),
    version=st.integers(1, 2**64 - 2),
    gen_time=st.integers(1, 2**64 - 2),
    now=st.integers(1, 2**64 - 2),
)
def test_generated_manifests_get_the_oracles_verdict(
    publisher, tsa, imprint_ok, tampered, version_step, gen_time_step, expiry_step, mode,
    version, gen_time, now,
):
    _check_install_and_recovery(*_drawn_update(
        publisher, tsa, imprint_ok, tampered, version_step, gen_time_step, expiry_step, mode,
        version, gen_time, now,
    ))


def test_every_combination_of_draws_meets_the_oracle_and_every_verdict_occurs():
    choices = (
        _PUBLISHERS, _TSAS, (True, False), (True, False), _STEPS, _STEPS, _STEPS,
        (DeviceMode.RUNNING, DeviceMode.FAIL_STATE),
    )
    seen = collections.Counter(
        str(_check_install_and_recovery(*_drawn_update(*drawn))) for drawn in itertools.product(*choices)
    )
    assert set(seen) == {"Accept", *(f"Reject({reason.value})" for reason in RejectReason)}
    assert seen["Accept"] == 1  # only the all-genuine, all-fresh running draw installs

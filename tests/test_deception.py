import dataclasses
import hashlib
import json
import random

import pytest

from fleetsec.deception import (
    TOKEN_LEN,
    Alert,
    CanaryToken,
    ImageTooSmallError,
    MtdSchedule,
    MtdSpec,
    PoolTooSmallError,
    PortCanaries,
    PortInUseError,
    RegionOutOfBoundsError,
    attach_feint_patch,
    check_access,
    make_schedule,
    mtd_rotate,
    plant_canary,
)
from fleetsec.fleet_sim.report import write_jsonl
from fleetsec.keystore import Keystore
from fleetsec.tsa import TimestampAuthority
from fleetsec.update_protocol import build_manifest, device_verify, initial_state
from fleetsec.wire import ConfigError

from helpers import firmware_image, make_pki

IMAGE = firmware_image(1, size=256)


# --- canary tokens -----------------------------------------------------------


def test_plant_appends_by_default():
    planted, token = plant_canary(IMAGE, random.Random(1))
    assert planted[: len(IMAGE)] == IMAGE
    assert len(planted) == len(IMAGE) + TOKEN_LEN
    assert token.placement == len(IMAGE)
    assert planted[token.placement :] == token.token_id


def test_planting_changes_the_digest():
    planted, _ = plant_canary(IMAGE, random.Random(1))
    assert hashlib.sha256(planted).digest() != hashlib.sha256(IMAGE).digest()


def test_different_seeds_give_different_tokens():
    _, t1 = plant_canary(IMAGE, random.Random(1))
    _, t2 = plant_canary(IMAGE, random.Random(2))
    assert t1.token_id != t2.token_id


def test_same_seed_is_reproducible():
    p1, t1 = plant_canary(IMAGE, random.Random(5))
    p2, t2 = plant_canary(IMAGE, random.Random(5))
    assert p1 == p2
    assert t1.token_id == t2.token_id


def test_tiny_image_is_refused():
    with pytest.raises(ImageTooSmallError):
        plant_canary(b"x" * (TOKEN_LEN - 1), random.Random(1))


def test_offset_mode_overwrites_in_place():
    planted, token = plant_canary(IMAGE, random.Random(1), offset=32)
    assert len(planted) == len(IMAGE)
    assert token.placement == 32
    assert planted[32 : 32 + TOKEN_LEN] == token.token_id
    assert planted[:32] == IMAGE[:32]
    assert planted[32 + TOKEN_LEN :] == IMAGE[32 + TOKEN_LEN :]


def test_offset_out_of_bounds():
    with pytest.raises(RegionOutOfBoundsError):
        plant_canary(IMAGE, random.Random(1), offset=len(IMAGE) - TOKEN_LEN + 1)
    with pytest.raises(RegionOutOfBoundsError):
        plant_canary(IMAGE, random.Random(1), offset=-1)
    # boundary case still fits
    _, token = plant_canary(IMAGE, random.Random(1), offset=len(IMAGE) - TOKEN_LEN)
    assert token.placement == len(IMAGE) - TOKEN_LEN


def test_read_overlapping_the_token_alerts():
    _, token = plant_canary(IMAGE, random.Random(1), offset=100)
    alert = check_access(token, (90, 20, 7, "attacker"), device_id="dev-1")
    assert alert == Alert(7, "dev-1", "canary_token", "attacker", "read [90,110) hit canary at 100")


def test_read_elsewhere_stays_silent():
    _, token = plant_canary(IMAGE, random.Random(1), offset=100)
    assert check_access(token, (0, 100, 7, "reader")) is None
    assert check_access(token, (100 + TOKEN_LEN, 50, 8, "reader")) is None


def test_one_byte_overlap_at_each_edge_alerts():
    _, token = plant_canary(IMAGE, random.Random(1), offset=100)
    assert check_access(token, (100 + TOKEN_LEN - 1, 1, 1, "a")) is not None
    assert check_access(token, (99, 2, 2, "b")) is not None


def test_two_reads_record_in_order():
    _, token = plant_canary(IMAGE, random.Random(1), offset=100)
    alerts = [check_access(token, (100, 4, 3, "first")), check_access(token, (100, 4, 9, "second"))]
    assert [(a.time, a.actor) for a in alerts] == [(3, "first"), (9, "second")]


def test_a_canary_token_is_frozen():
    _, token = plant_canary(IMAGE, random.Random(1), offset=100)
    with pytest.raises(dataclasses.FrozenInstanceError):
        token.placement = 0


def test_token_validation():
    with pytest.raises(ValueError):
        CanaryToken(b"short", 0)
    with pytest.raises(ValueError):
        CanaryToken(b"\x00" * TOKEN_LEN, -1)


def test_alert_jsonl_round_trip():
    alerts = [
        Alert(1, "dev-1", "canary_token", "eve", "detail one"),
        Alert(2, "dev-2", "canary_port", "mallory", "detail two"),
    ]

    class Sink:
        def __init__(self):
            self.lines = []

        def write(self, text):
            self.lines.append(text)

    sink = Sink()
    write_jsonl(alerts, sink)
    parsed = [json.loads(line) for line in sink.lines]
    assert parsed[0]["kind"] == "canary_token"
    assert parsed[1]["actor"] == "mallory"


# --- canary ports ------------------------------------------------------------


def test_canary_port_connection_alerts():
    ports = PortCanaries("dev-1", legitimate_ports=[80, 443])
    ports.open_canary_port(8022)
    alert = ports.record_connection(8022, source="attacker:scan", time=12)
    assert alert == Alert(12, "dev-1", "canary_port", "attacker:scan", "connection to canary port 8022")


def test_legitimate_port_connection_is_silent():
    ports = PortCanaries("dev-1", legitimate_ports=[80])
    ports.open_canary_port(8022)
    assert ports.record_connection(80, source="client", time=1) is None


def test_canary_cannot_shadow_a_real_port():
    ports = PortCanaries("dev-1", legitimate_ports=[80])
    with pytest.raises(PortInUseError):
        ports.open_canary_port(80)
    ports.open_canary_port(8022)
    with pytest.raises(PortInUseError):
        ports.open_canary_port(8022)
    assert ports.canary_ports() == [8022]


# --- moving target defense -----------------------------------------------------


def _schedule(n_devices=4, pool_size=8, interval=10, seed=1):
    return make_schedule(
        MtdSpec(interval, tuple(f"10.0.0.{i}" for i in range(pool_size))),
        [f"dev-{i}" for i in range(n_devices)],
        random.Random(seed),
    )


def test_make_schedule_assigns_each_device_a_unique_address():
    schedule = _schedule()
    assert sorted(schedule.assignment) == [f"dev-{i}" for i in range(4)]
    addresses = list(schedule.assignment.values())
    assert len(set(addresses)) == 4
    assert set(addresses) <= set(schedule.spec.address_pool)


def test_rotation_stays_injective():
    schedule = _schedule()
    rng = random.Random(7)
    for step in range(1, 50):
        schedule = mtd_rotate(schedule, now=step * 10, rng=rng)
        addresses = list(schedule.assignment.values())
        assert len(set(addresses)) == len(addresses)


def test_rotation_moves_every_device_when_pool_is_larger():
    schedule = _schedule(n_devices=4, pool_size=8)
    rng = random.Random(7)
    for step in range(1, 20):
        rotated = mtd_rotate(schedule, now=step * 10, rng=rng)
        assert all(
            rotated.assignment[d] != schedule.assignment[d] for d in schedule.assignment
        )
        schedule = rotated


def test_rotation_at_exact_capacity_is_allowed_but_injective():
    schedule = _schedule(n_devices=4, pool_size=4)
    rotated = mtd_rotate(schedule, now=10, rng=random.Random(3))
    addresses = list(rotated.assignment.values())
    assert sorted(addresses) == sorted(schedule.spec.address_pool)


def test_pool_smaller_than_fleet_is_refused():
    with pytest.raises(PoolTooSmallError):
        _schedule(n_devices=5, pool_size=4)


def test_off_grid_rotation_is_refused():
    schedule = _schedule(interval=10)
    with pytest.raises(ValueError):
        mtd_rotate(schedule, now=15, rng=random.Random(1))


def test_same_seed_rotations_are_identical():
    runs = []
    for _ in range(2):
        schedule = _schedule(seed=9)
        rng = random.Random(42)
        trace = []
        for step in range(1, 10):
            schedule = mtd_rotate(schedule, now=step * 10, rng=rng)
            trace.append(dict(schedule.assignment))
        runs.append(trace)
    assert runs[0] == runs[1]


def test_schedule_validation():
    with pytest.raises(ConfigError, match=r"^rotation_interval: must be positive$"):
        MtdSpec(0, ("a",))
    for pool in [(), ("a", "a", "b")]:  # a repeat could draw one address for two devices
        with pytest.raises(ConfigError, match=r"^address_pool: must be non-empty and unique$"):
            MtdSpec(10, pool)
    with pytest.raises(ValueError, match="injective"):
        MtdSchedule(MtdSpec(10, ("a", "b")), {"d1": "a", "d2": "a"})
    with pytest.raises(ValueError, match="from the pool"):
        MtdSchedule(MtdSpec(10, ("a",)), {"d1": "z"})


# --- feint patches -------------------------------------------------------------


def test_feint_patch_lists_decoy_regions():
    meta = {"image_size": 256, "notes": "v2"}
    out = attach_feint_patch(meta, [(0, 16, "fake crypto fix"), (64, 8, "fake auth fix")])
    assert out["feint_patches"] == [
        {"offset": 0, "length": 16, "note": "fake crypto fix"},
        {"offset": 64, "length": 8, "note": "fake auth fix"},
    ]
    assert meta == {"image_size": 256, "notes": "v2"}  # input untouched


def test_feint_patch_bounds_checked():
    with pytest.raises(RegionOutOfBoundsError):
        attach_feint_patch({"image_size": 64}, [(60, 8, "overruns")])
    with pytest.raises(RegionOutOfBoundsError):
        attach_feint_patch({"image_size": 64}, [(-1, 4, "negative")])
    with pytest.raises(RegionOutOfBoundsError):
        attach_feint_patch({"image_size": 64}, [(0, 0, "empty")])


def test_feint_patch_requires_image_size():
    with pytest.raises(ValueError):
        attach_feint_patch({"notes": "v2"}, [(0, 4, "x")])


def test_feint_patch_survives_json():
    out = attach_feint_patch({"image_size": 128}, [(8, 4, "decoy")])
    assert json.loads(json.dumps(out)) == out


def test_feint_metadata_never_changes_the_verdict(pki):
    # decoys live outside the signed body, so verification is blind to them
    store, tsa = pki
    fw = firmware_image(2)
    state = initial_state(
        hashlib.sha256(firmware_image(1)).digest(),
        1,
        store.public_key("tsa-root"),
        store.public_key("publisher"),
        gen_time=5,
    )
    manifest = build_manifest(fw, "fw-2", 2, 100, store.handle("publisher"), tsa, now=10)
    before = device_verify(state, manifest, fw, now=50)
    meta = attach_feint_patch(
        {"image_size": len(fw)}, [(0, 32, "pretend bootloader fix")]
    )
    obj = manifest.to_json_obj(debug=meta)
    assert obj["debug"]["feint_patches"][0]["note"] == "pretend bootloader fix"
    after = device_verify(state, manifest, fw, now=50)
    assert before == after
    assert after.accepted

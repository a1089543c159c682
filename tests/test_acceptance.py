"""End-to-end acceptance gate.

Each test covers one numbered criterion and reports a single PASS/FAIL
line through the terminal summary. Tolerances and runtime budgets are
asserted, not just printed.
"""

import dataclasses
import hashlib
import math
import random
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import helpers
from fleetsec.deception import make_schedule, mtd_rotate
from fleetsec.fleet_sim.report import REPORT_FILES
from fleetsec.fleet_sim.scenario import (
    load_scenario,
    parse_scenario,
    run_scenario,
    simulate_to_dir,
)
from fleetsec.fleet_sim.transport import (
    MissingFragmentError,
    ReassemblyError,
    fragment,
    reassemble,
)
from fleetsec.keystore import Keystore
from fleetsec.matrix_profile import ProfileConfig, compute_fast
from fleetsec.tsa import TimestampAuthority
from fleetsec.update_protocol import (
    RejectReason,
    Verdict,
    build_manifest,
    device_verify,
    initial_state,
)
from helpers import (
    compute_brute_force,
    firmware_image,
    run_adversarial_traces,
    run_lifecycle_ops,
    znorm_distance,
)

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


@contextmanager
def criterion(number: int, summary: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        helpers.CRITERION_LINES.append(f"criterion {number}: FAIL - {summary}")
        raise
    elapsed = time.perf_counter() - started
    helpers.CRITERION_LINES.append(
        f"criterion {number}: PASS - {summary} ({elapsed:.1f}s)"
    )


# --- 1: detector fidelity ------------------------------------------------------


def flood_scenario(seed: int) -> dict:
    at = 1100 + (seed * 37) % 700
    return {
        "seed": seed,
        "duration": 2000,
        "devices": [
            {
                "id": "dev-0",
                "secret": "s-0",
                "owner": "ops",
                "traffic": {"period": 40, "base": 50.0, "amplitude": 20.0, "noise": 1.0},
            }
        ],
        "detector": {"baseline_ticks": 1000, "window": 16},
        "attacks": [
            {
                "kind": "traffic_flood",
                "at": at,
                "device": "dev-0",
                "factor": 10,
                "buckets": 24,
            }
        ],
    }


def test_criterion_1_detector_fidelity():
    with criterion(1, "0 FP / 0 FN across 20 seeded flood scenarios, < 10 s"):
        window = 16
        started = time.perf_counter()
        for seed in range(1, 21):
            obj = flood_scenario(seed)
            at = obj["attacks"][0]["at"]
            end = at + 24
            report = run_scenario(parse_scenario(obj))
            inside = [
                a for a in report.anomalies
                if a.window_index < end and a.window_index + window > at
            ]
            outside = [a for a in report.anomalies if a not in inside]
            assert inside, f"seed {seed}: no anomaly inside flood [{at},{end})"
            assert not outside, f"seed {seed}: false positives at {[a.window_index for a in outside]}"
        elapsed = time.perf_counter() - started
        assert elapsed < 10, f"took {elapsed:.2f}s, budget 10s"


# --- 2: matrix profile oracle equivalence ----------------------------------------


def _corpus_series(rng: np.random.Generator, i: int) -> np.ndarray:
    n = int(rng.integers(50, 501))
    kind = i % 4
    if kind == 0:
        return rng.normal(0, 1, n)
    if kind == 1:
        return np.cumsum(rng.normal(0, 1, n))
    if kind == 2:
        t = np.arange(n)
        return 10 + 4 * np.sin(2 * np.pi * t / 25) + rng.normal(0, 0.5, n)
    series = rng.normal(0, 0.3, n)
    series[n // 2 :] += 5.0
    return series


def test_criterion_2_fast_matches_brute_force_and_affine_invariance():
    with criterion(2, "fast vs brute <= 1e-9 on 100 series + affine invariance, < 30 s"):
        rng = np.random.default_rng(42)
        started = time.perf_counter()
        scales = (2.5, 0.3, 7.0)
        offsets = (0.0, -7.0, 100.0)
        for i in range(100):
            series = _corpus_series(rng, i)
            m = (4, 8, 16)[i % 3]
            config = ProfileConfig(window_m=m)
            fast = compute_fast(series, config)
            brute = compute_brute_force(series, config)
            assert np.max(np.abs(fast.distances - brute.distances)) <= 1e-9
            transformed = scales[i % 3] * series + offsets[(i + 1) % 3]
            affine = compute_fast(transformed, config)
            finite = np.isfinite(fast.distances)
            assert np.array_equal(finite, np.isfinite(affine.distances))
            assert np.max(np.abs(fast.distances[finite] - affine.distances[finite])) <= 1e-9
        elapsed = time.perf_counter() - started
        assert elapsed < 30, f"took {elapsed:.2f}s, budget 30s"


def test_profile_routes_pick_the_same_neighbors():
    rng = np.random.default_rng(42)
    for i in range(100):
        series = _corpus_series(rng, i)
        config = ProfileConfig(window_m=(4, 8, 16)[i % 3])
        fast = compute_fast(series, config)
        brute = compute_brute_force(series, config)
        assert np.array_equal(fast.neighbor_index, brute.neighbor_index), i


# --- 3: correlation identity ------------------------------------------------------


def test_criterion_3_correlation_identity():
    with criterion(3, "znorm distance vs sqrt(2m(1-r)) <= 1e-9 on 1000 pairs"):
        rng = np.random.default_rng(7)
        for i in range(1000):
            m = (4, 8, 16, 32)[i % 4]
            a = rng.normal(0, 1 + (i % 5), m)
            b = rng.normal(0, 1, m) if i % 3 else a + rng.normal(0, 0.1, m)
            r = float(np.corrcoef(a, b)[0, 1])
            expected = math.sqrt(max(0.0, 2 * m * (1 - r)))
            assert abs(znorm_distance(a, b) - expected) <= 1e-9


# --- 4: update protocol safety -----------------------------------------------------


def test_criterion_4_adversarial_trace_safety():
    with criterion(4, "10,000 adversarial traces: no unverified boot, reasons in order, < 60 s"):
        started = time.perf_counter()
        stats = run_adversarial_traces(10_000, seed=0)
        elapsed = time.perf_counter() - started
        assert stats.traces == 10_000
        assert stats.violations == [], stats.violations[:5]
        assert stats.accepts > 1000
        assert len(stats.reject_reasons) >= 3
        assert elapsed < 60, f"took {elapsed:.2f}s, budget 60s"


# --- 5: the four verification vectors ----------------------------------------------


def test_criterion_5_verification_vectors():
    with criterion(5, "Accept / Rollback / Expired / DigestMismatch vectors"):
        store = Keystore(2024)
        store.generate_key("publisher")
        store.generate_key("tsa-root")
        tsa = TimestampAuthority(store, "tsa-root")
        fw1, fw2 = firmware_image(1), firmware_image(2)
        on_v1 = initial_state(
            hashlib.sha256(fw1).digest(), 1,
            store.public_key("tsa-root"), store.public_key("publisher"), gen_time=5,
        )
        on_v2 = initial_state(
            hashlib.sha256(fw2).digest(), 2,
            store.public_key("tsa-root"), store.public_key("publisher"), gen_time=5,
        )
        m2 = build_manifest(fw2, "fw-2", 2, 100, store.handle("publisher"), tsa, now=10)
        m1 = build_manifest(fw1, "fw-1", 1, 100, store.handle("publisher"), tsa, now=10)

        assert device_verify(on_v1, m2, fw2, now=50) == Verdict.accept()
        assert device_verify(on_v2, m1, fw1, now=50) == Verdict.reject(RejectReason.ROLLBACK)
        assert device_verify(on_v1, m2, fw2, now=100) == Verdict.reject(RejectReason.EXPIRED)
        tampered = bytearray(fw2)
        tampered[0] ^= 1
        before = dataclasses.replace(on_v1)
        assert device_verify(on_v1, m2, bytes(tampered), now=50) == Verdict.reject(
            RejectReason.DIGEST_MISMATCH
        )
        assert on_v1 == before


# --- 6: provisioning lifecycle closure -----------------------------------------------


def test_criterion_6_lifecycle_closure():
    with criterion(6, "10,000 random registry ops: legal transitions only, no secret leaks"):
        stats = run_lifecycle_ops(10_000, seed=0, n_devices=60)
        assert stats.ops == 10_000
        assert stats.violations == [], stats.violations[:5]
        assert stats.claims > 50


# --- 7: constrained transport ---------------------------------------------------------


def test_criterion_7_transport_round_trips_at_mtu_12():
    with criterion(7, "1,000 random payloads at mtu 12: round trip + every single drop caught"):
        rng = random.Random(2024)
        for i in range(1000):
            payload = rng.randbytes(rng.randrange(0, 2017))
            frames = fragment(payload, 12, message_id=i % 65536)
            assert reassemble(frames) == payload
            if len(frames) == 1:
                # dropping the only frame leaves nothing to reassemble; the
                # missing-fragment report needs at least one surviving frame
                with pytest.raises(ReassemblyError):
                    reassemble([])
                continue
            for drop in range(len(frames)):
                with pytest.raises(MissingFragmentError) as exc:
                    reassemble(frames[:drop] + frames[drop + 1 :])
                assert exc.value.missing == [drop]


# --- 8: simulator determinism ----------------------------------------------------------


def test_criterion_8_bundled_scenarios_are_deterministic(tmp_path):
    with criterion(8, "every bundled scenario: two runs, byte-identical report dirs"):
        paths = sorted(SCENARIO_DIR.glob("*.json"))
        assert len(paths) >= 5
        for path in paths:
            cfg = load_scenario(path)
            out_a = tmp_path / f"{path.stem}-a"
            out_b = tmp_path / f"{path.stem}-b"
            simulate_to_dir(cfg, out_a)
            simulate_to_dir(cfg, out_b)
            for name in REPORT_FILES:
                assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), (
                    f"{path.name}/{name} differs between runs"
                )


# --- 9: fleet scale ----------------------------------------------------------------------


def fleet_scenario() -> dict:
    return {
        "seed": 99,
        "duration": 240,
        "devices": [
            {
                "id": f"dev-{i:04d}",
                "secret": f"s-{i:04d}",
                "owner": f"user-{i % 40}",
                "traffic": {"period": 40, "base": 5.0, "amplitude": 2.0, "noise": 0.5},
            }
            for i in range(1000)
        ],
        "detector": {"baseline_ticks": 120, "window": 16},
        "updates": [
            {"at": 40, "version": 2, "expiry": 600, "firmware_id": "fleet-v2", "size": 1024}
        ],
    }


def test_criterion_9_thousand_device_fleet():
    with criterion(9, "1,000 devices: provision + update campaign + detector pass < 60 s"):
        obj = fleet_scenario()
        started = time.perf_counter()
        report = run_scenario(parse_scenario(obj))
        elapsed = time.perf_counter() - started
        assert elapsed < 60, f"took {elapsed:.2f}s, budget 60s"
        assert len(report.devices) == 1000
        for row in report.devices:
            assert row["status"] == "Claimed"
            assert row["active_version"] == 2
            assert row["mode"] == "Running"
        applied = [e for e in report.events if e.kind == "update_applied"]
        assert len(applied) == 1000


# --- 10: deception -----------------------------------------------------------------------


def test_criterion_10_deception_alerts_and_mtd():
    with criterion(10, "canary probe always attributable + 1,000 injective MTD rotations"):
        report = run_scenario(load_scenario(SCENARIO_DIR / "canary_probe.json"))
        assert report.alerts
        assert all(a.actor == "attacker:canary_probe:0" for a in report.alerts)

        rng = random.Random(11)
        schedule = make_schedule(
            5,
            [f"10.1.0.{i}" for i in range(12)],
            [f"dev-{i}" for i in range(8)],
            rng,
        )
        for step in range(1, 1001):
            schedule = mtd_rotate(schedule, now=step * 5, rng=rng)
            addresses = list(schedule.assignment.values())
            assert len(set(addresses)) == len(addresses)

import json
from pathlib import Path

import pytest

from fleetsec.fleet_sim.report import REPORT_FILES
from fleetsec.fleet_sim.scenario import (
    ConfigError,
    FleetSimulation,
    ScenarioConfig,
    UnknownAttackKindError,
    load_scenario,
    make_firmware,
    parse_scenario,
    rng_stream,
    run_scenario,
    simulate_to_dir,
)
from fleetsec.telemetry import Metric, bucketize, ingest_csv

from helpers import calibrate, detect

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def scenario(name):
    return load_scenario(SCENARIO_DIR / f"{name}.json")


def base_config(**overrides):
    obj = {
        "seed": 7,
        "duration": 60,
        "detector": None,
        "devices": [
            {"id": "dev-a", "secret": "s-a", "owner": "alice"},
            {"id": "dev-b", "secret": "s-b", "owner": "bob"},
        ],
    }
    obj.update(overrides)
    return obj


def events_of(report, kind):
    return [e for e in report.events if e.kind == kind]


def device_row(report, device_id):
    return next(d for d in report.devices if d["device_id"] == device_id)


# --- determinism and plumbing -------------------------------------------------


def test_empty_scenario_completes_immediately():
    report = run_scenario(parse_scenario({"seed": 1, "duration": 10, "devices": [],
                                          "detector": None}))
    assert report.events == []
    assert len(report.telemetry) == 0
    assert report.anomalies == []
    assert report.devices == []


def test_device_traffic_needs_no_scheduled_events(monkeypatch):
    scheduled = []
    monkeypatch.setattr(FleetSimulation, "schedule", lambda self, *args: scheduled.append(args))
    report = run_scenario(parse_scenario(base_config()))
    assert scheduled == []
    assert len(report.telemetry) > 0


def test_event_times_never_decrease():
    report = run_scenario(scenario("mixed_fleet"))
    times = [e.time for e in report.events]
    assert times == sorted(times)


def test_double_run_writes_identical_bytes(tmp_path):
    cfg = scenario("rollback_attack")
    dirs = [tmp_path / "run1", tmp_path / "run2"]
    for d in dirs:
        simulate_to_dir(cfg, d)
    for name in REPORT_FILES:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


def test_report_directory_has_the_five_files(tmp_path):
    simulate_to_dir(scenario("identity_theft"), tmp_path / "out")
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == sorted(REPORT_FILES)


def test_rng_streams_are_independent_and_deterministic():
    a1 = rng_stream(42, "device:a").random()
    b1 = rng_stream(42, "device:b").random()
    a2 = rng_stream(42, "device:a").random()
    assert a1 == a2
    assert a1 != b1
    assert rng_stream(43, "device:a").random() != a1


def test_make_firmware_is_deterministic_and_versioned():
    assert make_firmware(1, 256) == make_firmware(1, 256)
    assert make_firmware(1, 256) != make_firmware(2, 256)
    assert len(make_firmware(3, 100)) == 100
    assert make_firmware(3, 100) == make_firmware(3, 256)[:100]


# --- update campaigns over the link -------------------------------------------


def test_clean_link_full_duty_drops_nothing():
    obj = base_config(
        duration=100,
        updates=[{"at": 20, "version": 2, "expiry": 300, "firmware_id": "fw-2", "size": 512}],
    )
    report = run_scenario(parse_scenario(obj))
    assert events_of(report, "frames_dropped") == []
    applied = events_of(report, "update_applied")
    assert {e.detail["device"] for e in applied} == {"dev-a", "dev-b"}
    for row in report.devices:
        assert row["active_version"] == 2
        assert row["mode"] == "Running"


def test_off_grid_devices_finish_late_but_never_brick():
    report = run_scenario(scenario("mixed_fleet"))
    assert events_of(report, "update_interrupted")  # duty cycles bite
    for row in report.devices:
        assert row["mode"] == "Running"
        if row["status"] != "Blacklisted":
            assert row["active_version"] == 2


def test_blacklisted_device_is_skipped_not_updated():
    report = run_scenario(scenario("mixed_fleet"))
    skipped = events_of(report, "update_skipped")
    assert [e.detail["device"] for e in skipped] == ["edge-3"]
    assert all(e.detail["device"] != "edge-3" for e in events_of(report, "update_applied"))
    row = device_row(report, "edge-3")
    assert row["status"] == "Blacklisted"
    assert row["active_version"] == 1


# --- attack contracts ----------------------------------------------------------


def test_rollback_replay_is_rejected_and_version_stands():
    report = run_scenario(scenario("rollback_attack"))
    rejected = [
        e for e in events_of(report, "update_rejected")
        if e.actor.startswith("attacker:rollback_replay")
    ]
    assert len(rejected) == 1
    assert rejected[0].detail["reason"] == "Rollback"
    assert device_row(report, "cam-1")["active_version"] == 3


def test_tampered_firmware_is_rejected_with_digest_mismatch():
    report = run_scenario(scenario("rollback_attack"))
    rejected = [
        e for e in events_of(report, "update_rejected")
        if e.actor.startswith("attacker:tamper_firmware")
    ]
    assert len(rejected) == 1
    assert rejected[0].detail["reason"] == "DigestMismatch"
    assert device_row(report, "cam-2")["active_version"] == 3


def test_identity_theft_flags_exactly_the_victim():
    report = run_scenario(scenario("identity_theft"))
    flagged = events_of(report, "credential_clone_flagged")
    assert [e.detail["device"] for e in flagged] == ["lock-1"]
    assert device_row(report, "lock-1")["clone_flagged"] is True
    assert device_row(report, "lock-2")["clone_flagged"] is False


def test_dictionary_attack_never_claims_and_spikes_sessions():
    report = run_scenario(scenario("dictionary_attack"))
    row = device_row(report, "hub-1")
    assert row["owner"] == "alice"  # still the rightful owner
    rejected = events_of(report, "claim_rejected")
    assert rejected
    assert all(e.detail["reason"] == "SecretMismatch" for e in rejected)
    assert all(e.detail["mismatches"] == e.detail["attempts"] for e in rejected)
    # the failed claims leave a visible session-rate anomaly in the window
    attack_window = range(100, 100 + 20)
    assert report.anomalies
    for anomaly in report.anomalies:
        assert anomaly.metric == "sessions_in"
        assert anomaly.window_index < attack_window.stop
        assert anomaly.window_index + 8 > attack_window.start


def test_traffic_flood_anomalies_overlap_the_flood():
    report = run_scenario(scenario("baseline_flood"))
    assert report.anomalies
    window = 16
    start, end = 380, 380 + 24
    for anomaly in report.anomalies:
        assert anomaly.device_id == "sensor-a"
        assert anomaly.window_index < end
        assert anomaly.window_index + window > start


@pytest.mark.parametrize("at", [0, 7])
def test_traffic_flood_multiplies_exactly_its_ticks(at):
    def packets(attacks):
        config = parse_scenario(base_config(attacks=attacks))
        telemetry = run_scenario(config).telemetry
        return telemetry.bucket(range(len(config.devices)), Metric.PACKETS_IN, 1, 0, config.duration)

    clean = packets([])
    flooded = packets(
        [{"kind": "traffic_flood", "at": at, "device": "dev-a", "factor": 10, "buckets": 5}]
    )
    want = clean.copy()
    want[0, at : at + 5] *= 10
    assert clean[0, at] > 0
    assert flooded.tolist() == want.tolist()


def test_canary_probe_alerts_are_attributable():
    report = run_scenario(scenario("canary_probe"))
    assert report.alerts
    assert {a.actor for a in report.alerts} == {"attacker:canary_probe:0"}
    kinds = {a.kind for a in report.alerts}
    assert kinds == {"canary_token", "canary_port"}
    # planted canary never broke the update itself
    assert {e.detail["device"] for e in events_of(report, "update_applied")} == {"gw-1", "gw-2"}


def test_mtd_rotations_in_report_stay_injective():
    report = run_scenario(scenario("canary_probe"))
    rotations = events_of(report, "mtd_rotated")
    assert rotations
    for event in rotations:
        addresses = list(event.detail["assignment"].values())
        assert len(set(addresses)) == len(addresses)


def test_dictionary_attack_on_blacklisted_device_cannot_even_connect():
    obj = base_config(
        duration=80,
        admin=[{"at": 5, "action": "blacklist", "device": "dev-a"}],
        attacks=[{"kind": "dictionary_attack", "at": 20, "device": "dev-a", "duration": 10}],
    )
    report = run_scenario(parse_scenario(obj))
    refused = events_of(report, "connect_refused")
    assert refused
    assert refused[0].detail["reason"] == "Blacklisted"
    assert events_of(report, "claim_rejected") == []
    assert device_row(report, "dev-a")["status"] == "Blacklisted"


def test_rollback_attack_before_any_acceptance_is_a_noop():
    # campaign published at 10 but the slow link lands it at 40, so the
    # replay at 12 finds nothing accepted yet
    obj = base_config(
        duration=100,
        links={"latency": 30},
        updates=[{"at": 10, "version": 2, "expiry": 300, "firmware_id": "fw-2"}],
        attacks=[{"kind": "rollback_replay", "at": 12, "device": "dev-a"}],
    )
    report = run_scenario(parse_scenario(obj))
    assert events_of(report, "attack_noop")
    assert events_of(report, "update_rejected") == []
    assert device_row(report, "dev-a")["active_version"] == 2


def test_batched_detector_pass_matches_per_device_detection(tmp_path):
    # criterion-1 traffic on three devices, one of them flooded, two metrics
    traffic = {"period": 40, "base": 50.0, "amplitude": 20.0, "noise": 1.0}
    cfg = parse_scenario(
        {
            "seed": 3,
            "duration": 800,
            "devices": [
                {"id": f"dev-{k}", "secret": f"s-{k}", "owner": "ops", "traffic": traffic}
                for k in range(3)
            ],
            "detector": {"baseline_ticks": 400, "window": 16,
                         "metrics": ["packets_in", "packets_out"]},
            "attacks": [{"kind": "traffic_flood", "at": 600, "device": "dev-1",
                         "factor": 10, "buckets": 24}],
        }
    )
    report = simulate_to_dir(cfg, tmp_path)
    # the oracle reads the written telemetry back as events
    with open(tmp_path / "telemetry.csv", encoding="utf-8") as fh:
        events = ingest_csv(fh)
    config = cfg.detector.to_config()
    want = []
    for dev in ("dev-0", "dev-1", "dev-2"):
        for metric in cfg.detector.metrics:
            series = bucketize(events, dev, metric, 1, 0, cfg.duration)
            baseline = bucketize(events, dev, metric, 1, 0, cfg.detector.baseline_ticks)
            threshold = calibrate(baseline, config)
            want.extend(detect(series, threshold, config))
    assert any(a.device_id == "dev-1" for a in want)

    def key(a):
        return (a.device_id, a.metric, a.window_index, a.time)

    assert [key(a) for a in report.anomalies] == [key(a) for a in want]
    for got, exp in zip(report.anomalies, want):
        assert got.score == pytest.approx(exp.score, abs=1e-9)
        assert got.threshold == pytest.approx(exp.threshold, abs=1e-9)
    found = [e.detail for e in events_of(report, "anomalies_found")]
    assert [(p["device"], p["metric"]) for p in found] == sorted({key(a)[:2] for a in want})


# --- config validation -----------------------------------------------------------


def test_unknown_field_error_names_the_path():
    obj = base_config()
    obj["devices"][0]["firmware"] = 3
    with pytest.raises(ConfigError) as exc:
        parse_scenario(obj)
    assert "devices[0].firmware" in str(exc.value)


def test_unknown_attack_kind():
    obj = base_config(attacks=[{"kind": "ddos", "at": 1, "device": "dev-a"}])
    with pytest.raises(UnknownAttackKindError):
        parse_scenario(obj)


def test_attack_time_must_be_inside_the_run():
    obj = base_config(attacks=[{"kind": "traffic_flood", "at": 60, "device": "dev-a"}])
    with pytest.raises(ConfigError, match="at"):
        parse_scenario(obj)


def test_duplicate_device_ids_are_refused():
    obj = base_config()
    obj["devices"][1]["id"] = "dev-a"
    with pytest.raises(ConfigError, match="duplicate"):
        parse_scenario(obj)


def test_rollback_requires_a_prior_campaign():
    obj = base_config(attacks=[{"kind": "rollback_replay", "at": 10, "device": "dev-a"}])
    with pytest.raises(ConfigError, match="update campaign"):
        parse_scenario(obj)


def test_canary_probe_requires_some_canary():
    obj = base_config(attacks=[{"kind": "canary_probe", "at": 10, "device": "dev-a"}])
    with pytest.raises(ConfigError, match="canary"):
        parse_scenario(obj)


def test_mtd_pool_must_cover_the_fleet():
    obj = base_config(
        deception={"mtd": {"rotation_interval": 10, "address_pool": ["10.0.0.1"]}}
    )
    with pytest.raises(ConfigError, match="smaller than the device count"):
        parse_scenario(obj)


def test_detector_baseline_must_fit_the_window():
    obj = base_config(detector={"baseline_ticks": 10, "window": 16})
    with pytest.raises(ConfigError, match="too short"):
        parse_scenario(obj)


def test_update_size_bounded_by_fragment_cap():
    obj = base_config(
        links={"mtu": 12},
        updates=[{"at": 10, "version": 2, "expiry": 300, "size": 4096}],
    )
    with pytest.raises(ConfigError, match="fragments"):
        parse_scenario(obj)


def test_canary_port_cannot_shadow_legitimate_service():
    obj = base_config(deception={"canary_ports": [443]})
    obj["devices"][0]["legitimate_ports"] = [443]
    with pytest.raises(ConfigError, match="legitimate"):
        parse_scenario(obj)


# --- end-to-end safety across all bundled scenarios ------------------------------


def test_no_bundled_scenario_ends_in_fail_state_or_unverified_boot():
    for path in sorted(SCENARIO_DIR.glob("*.json")):
        report = run_scenario(load_scenario(path))
        for row in report.devices:
            assert row["mode"] != "FailState", path.name
        blacklisted = {
            e.detail["device"] for e in events_of(report, "device_blacklisted")
        }
        for event in events_of(report, "update_applied"):
            applied_at = event.time
            device = event.detail["device"]
            was_blacklisted_before = any(
                e.detail["device"] == device and e.time <= applied_at
                for e in events_of(report, "device_blacklisted")
            )
            assert not was_blacklisted_before, path.name

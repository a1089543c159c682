import copy
import json
import random
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from fleetsec.deception import MtdSpec
from fleetsec.errors import FleetsecError
from fleetsec.fleet_sim import scenario as scenario_module
from fleetsec.fleet_sim.report import REPORT_FILES
from fleetsec.fleet_sim.scenario import (
    HEARTBEAT_PERIOD,
    AttackSpec,
    ConfigError,
    DeceptionSpec,
    DetectorSpec,
    DeviceSpec,
    FleetSimulation,
    ScenarioConfig,
    TrafficSpec,
    UnknownAttackKindError,
    UpdateSpec,
    gauss,
    load_scenario,
    make_firmware,
    parse_scenario,
    rng_stream,
    run_scenario,
    simulate_to_dir,
    uniforms,
)
from fleetsec.fleet_sim.transport import LinkSpec, SimLink
from fleetsec.telemetry import Metric, bucketize, ingest_csv

from helpers import (
    DROP,
    FULL_SCENARIO,
    calibrate,
    detect_own_prefix,
    edited,
    fill_traffic_per_tick,
    json_edits,
    set_path,
)

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


def _fleet(duration: int, *devices: tuple[float, TrafficSpec]) -> ScenarioConfig:
    """Seed-3 config of one device per (duty_cycle, traffic), ids dev-a, dev-b, ..."""
    return ScenarioConfig(seed=3, duration=duration, detector=None, devices=tuple(
        DeviceSpec(f"dev-{chr(ord('a') + i)}", "s", duty_cycle=duty, traffic=traffic)
        for i, (duty, traffic) in enumerate(devices)
    ))


_FULL = (1.0, TrafficSpec())
_SHARED = TrafficSpec(period=9, base=4.0, amplitude=2.0, noise=1.5)


# (config, edge): edge(grid) holds on the oracle's duty grid, so each row
# reaches the case it is named for
@pytest.mark.parametrize(
    "config, edge",
    [
        # period 50 does not divide 60
        (_fleet(60, (1.0, TrafficSpec()), _FULL), lambda grid: grid.all()),
        (_fleet(97, (0.6, TrafficSpec(period=7, noise=2.5)), _FULL),
         lambda grid: set(grid[0, ::HEARTBEAT_PERIOD]) == {True, False}),
        (_fleet(45, (1.0, TrafficSpec(noise=0.0)), _FULL), lambda grid: grid.all()),
        (_fleet(30, (0.5, TrafficSpec(period=2, base=3.0, amplitude=5.0)), _FULL),
         lambda grid: set(grid[0, ::HEARTBEAT_PERIOD]) == {True, False}),
        (_fleet(40, (1.0, TrafficSpec(period=500, base=2.0, amplitude=4.0, noise=3.0)), _FULL),
         lambda grid: grid.all()),
        # a period past int64: the wave is indexed by tick mod its phase count
        (_fleet(40, (1.0, TrafficSpec(period=2**70, base=2.0, amplitude=4.0, noise=3.0)), _FULL),
         lambda grid: grid.all()),
        # a noisy device with an odd number of on-ticks draws half a Box-Muller pair last
        (_fleet(61, (1.0, TrafficSpec(noise=2.0)), (0.5, TrafficSpec(period=7, noise=1.0)), _FULL),
         lambda grid: [n % 2 for n in grid.sum(axis=1)] == [1, 1, 1]),
        (_fleet(30, (1e-9, TrafficSpec(noise=2.0)), _FULL), lambda grid: not grid[0].any()),
        # devices sharing one traffic shape share its wave; the last has a shape of its own
        (_fleet(50, (1.0, _SHARED), (0.7, _SHARED), (1.0, _SHARED), (1.0, TrafficSpec(period=9))),
         lambda grid: not grid[1].all()),
    ],
    ids=["default", "duty-cycle", "no-noise", "period-2", "period-past-duration", "period-2^70",
         "odd-on-ticks", "no-on-tick", "shared-shape"],
)
def test_traffic_fill_matches_per_tick_reference(config, edge):
    sim = FleetSimulation(config)
    grid, packets, sessions, observations = fill_traffic_per_tick(sim)
    assert edge(grid)
    assert np.array_equal(sim._on_grid, grid)
    sim._fill_traffic()
    assert np.array_equal(sim._packets, packets)
    assert np.array_equal(sim._sessions, sessions)
    assert sim.observations == observations


@pytest.mark.parametrize("seed", [0, 12345, 2**32, 2**64 - 1])
# numpy's log differs from math's in the last bit in about one value in 300,
# so the 20,000-draw case catches it in the bulk gauss
@pytest.mark.parametrize("n", [0, 1, 2, 7, 301, 20_000])
def test_bulk_draws_equal_random_random_bit_for_bit(seed, n):
    rng, ref = random.Random(seed), random.Random(seed)
    values = uniforms(rng, n)
    assert values.dtype == np.float64
    assert values.tobytes() == np.array([ref.random() for _ in range(n)], np.float64).tobytes()
    assert rng.getstate() == ref.getstate()

    rng, ref = random.Random(seed), random.Random(seed)
    assert gauss(rng, n, 0.7).tolist() == [ref.gauss(0, 0.7) for _ in range(n)]
    # n + n % 2 uniforms drawn; the pending value of an odd count is not kept
    assert rng.getstate()[1] == ref.getstate()[1]


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


def test_campaign_frames_that_decode_to_another_update_are_an_internal_error(monkeypatch):
    def fragment_flipping_last_byte(payload, mtu, message_id=0):
        frames = real_fragment(payload, mtu, message_id)
        frames[-1] = frames[-1][:-1] + bytes([frames[-1][-1] ^ 1])
        return frames

    real_fragment = scenario_module.fragment
    monkeypatch.setattr(scenario_module, "fragment", fragment_flipping_last_byte)
    config = parse_scenario(base_config(updates=[{"at": 5, "version": 2, "expiry": 100}]))
    with pytest.raises(AssertionError, match="campaign 0 frames") as info:
        run_scenario(config)
    assert info.traceback[-1].name == "_run_campaign"


def test_lossy_link_resends_only_the_frames_each_attempt_lost(monkeypatch):
    calls = []  # per delivery: device, campaign, attempt, frames sent and kept, event kinds
    real_deliver_update, real_deliver = FleetSimulation._deliver_update, SimLink.deliver

    def deliver_update(self, dev, campaign_index, attempt):
        calls.append({"key": (dev.id, campaign_index), "attempt": attempt})
        start = len(self.report.events)
        real_deliver_update(self, dev, campaign_index, attempt)
        calls[-1]["kinds"] = [e.kind for e in self.report.events[start:]]

    def deliver(self, frames):
        kept = real_deliver(self, frames)
        calls[-1].update(sent=list(frames), kept=kept)
        return kept

    monkeypatch.setattr(FleetSimulation, "_deliver_update", deliver_update)
    monkeypatch.setattr(SimLink, "deliver", deliver)
    sim = FleetSimulation(scenario("mixed_fleet"))
    report = sim.run()
    assert events_of(report, "frames_dropped")  # the link is lossy
    assert events_of(report, "update_interrupted")

    due = {}  # the frames each (device, campaign)'s next attempt must carry
    partial = 0
    for call in calls:
        if "sent" not in call:
            assert call["kinds"] == ["update_skipped"]
            continue
        every = sim.campaigns[call["key"][1]].frames
        if call["attempt"] == 1:
            assert call["key"] not in due
        assert call["sent"] == due.pop(call["key"], every)
        partial += len(call["sent"]) < len(every)
        if call["kinds"] == ["frames_dropped"]:
            due[call["key"]] = [f for f in call["sent"] if f not in call["kept"]]
        else:  # every frame is in: applied, rejected, or interrupted and sent whole again
            assert call["kept"] == call["sent"]
            assert call["kinds"][0] in ("update_applied", "update_rejected", "update_interrupted")
    assert partial  # some retry carried only what was lost
    assert not due and not sim.missing_fragments


def test_missing_fragment_buffer_is_empty_after_every_bundled_scenario():
    for path in sorted(SCENARIO_DIR.glob("*.json")):
        sim = FleetSimulation(load_scenario(path))
        sim.run()
        assert sim.missing_fragments == {}, path.name


@pytest.mark.parametrize(
    "edit, end",
    [
        (lambda obj: obj["admin"].append({"at": 40, "action": "blacklist", "device": "edge-2"}),
         (47, "update_skipped")),
        (lambda obj: obj.update(duration=40), (32, "update_abandoned")),
    ],
    ids=["blacklisted", "abandoned"],
)
def test_a_delivery_that_ends_after_a_loss_leaves_no_missing_fragments(edit, end):
    obj = json.loads((SCENARIO_DIR / "mixed_fleet.json").read_text())
    edit(obj)
    sim = FleetSimulation(parse_scenario(obj))
    report = sim.run()
    edge_2 = [(e.time, e.kind) for e in report.events if e.detail.get("device") == "edge-2"]
    assert (32, "frames_dropped") in edge_2  # a partial delivery, then the end
    assert edge_2[-1] == end
    assert sim.missing_fragments == {}


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
    config = cfg.detector
    want = []
    for dev in ("dev-0", "dev-1", "dev-2"):
        for metric in cfg.detector.metrics:
            series = bucketize(events, dev, metric, 1, 0, cfg.duration)
            baseline = bucketize(events, dev, metric, 1, 0, cfg.detector.baseline_ticks)
            threshold = calibrate(baseline, config)
            want.extend(detect_own_prefix(series, len(baseline.values), threshold, config))
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
    with pytest.raises(UnknownAttackKindError):
        AttackSpec("ddos", 1, "dev-a")


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


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: ScenarioConfig(seed=0, duration=5_000_001,
                                devices=(DeviceSpec("a", "s"), DeviceSpec("b", "s"))),
         "devices x duration passes the telemetry cap of 1e+07 rows"),
        # no devices still hold an array of every tick
        (lambda: ScenarioConfig(seed=0, duration=10**13),
         "devices x duration passes the telemetry cap of 1e+07 rows"),
        (lambda: DeviceSpec("a", "s", duty_cycle=2.0), "duty_cycle: must be in (0, 1]"),
        (lambda: LinkSpec(mtu=4), "mtu: must exceed the 4-byte fragment header"),
        (lambda: LinkSpec(mtu=65536), "mtu: must be at most 65535"),
        (lambda: UpdateSpec(at=5, version=1, expiry=5), "expiry: must be after the publish tick"),
        (lambda: MtdSpec(0, ("x",)), "rotation_interval: must be positive"),
        (lambda: MtdSpec(5, ("a", "a", "b")), "address_pool: must be non-empty and unique"),
        (lambda: AttackSpec("ddos", 5, "a"), "kind: unknown attack kind 'ddos'"),
        (lambda: AttackSpec("traffic_flood", 5, None), "device: missing required field"),
        (lambda: AttackSpec("rollback_replay", 5, "a", factor=3), "factor: unknown field"),
        (lambda: AttackSpec("traffic_flood", 5, "a", factor=1), "factor: must be at least 2"),
        (lambda: AttackSpec("identity_theft", 5, "a", duration=0), "duration: must be positive"),
        (lambda: AttackSpec("dictionary_attack", 5, "a", rate=(3, 2)),
         "rate: expected [lo, hi] with 1 <= lo <= hi"),
        (lambda: AttackSpec("dictionary_attack", 5, "a", rate=4),
         "rate: expected [lo, hi] with 1 <= lo <= hi"),
    ],
    ids=["telemetry-cap", "telemetry-cap-no-devices", "duty-cycle", "mtu", "mtu-max", "expiry",
         "rotation-interval", "address-pool", "attack-kind", "attack-device", "attack-param", "attack-factor",
         "attack-duration", "attack-rate", "attack-rate-type"],
)
def test_specs_built_in_python_are_checked_like_files(build, error):
    with pytest.raises(ConfigError) as exc:
        build()
    assert str(exc.value) == error


def test_attack_built_in_python_takes_its_kinds_defaults_and_runs():
    attacks = (
        AttackSpec("dictionary_attack", 5, "a"),
        AttackSpec("traffic_flood", 6, "a", buckets=2),
        AttackSpec("canary_probe", 7, "a"),
    )
    assert [(a.duration, a.rate, a.factor, a.buckets) for a in attacks] == [
        (20, (2, 6), None, None), (None, None, 10, 2), (None, None, None, None),
    ]
    config = ScenarioConfig(seed=0, duration=10, devices=(DeviceSpec("a", "s"),), attacks=attacks,
                            detector=None, deception=DeceptionSpec(canary_ports=(2323,)))
    events = {e.kind for e in run_scenario(config).events}
    assert {"dictionary_attack_started", "traffic_flood_started", "canary_probe"} <= events
    from_file = parse_scenario({"seed": 0, "duration": 10, "detector": None,
                                "devices": [{"id": "a", "secret": "s"}],
                                "attacks": [{"kind": "dictionary_attack", "at": 5, "device": "a"}]})
    assert from_file.attacks == attacks[:1]


def test_scenario_of_seed_and_duration_is_an_empty_fleet_that_runs():
    config = parse_scenario({"seed": 1, "duration": 10})
    assert config.devices == ()
    assert run_scenario(config).devices == []


def test_omitted_sections_take_their_defaults():
    config = parse_scenario(base_config())
    assert config.links == LinkSpec()
    assert config.updates == config.attacks == config.admin == ()
    assert config.deception == DeceptionSpec()


def test_absent_detector_is_the_default_and_null_is_none():
    obj = base_config(duration=80)  # half of 60 is too short a baseline for window 16
    del obj["detector"]
    assert parse_scenario(obj).detector == DetectorSpec(baseline_ticks=40)  # duration // 2
    assert parse_scenario(base_config(detector=None)).detector is None


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


# --- every scenario error, pinned by path and message -----------------------------

_D0, _T, _U, _A, _M = "devices[0]", "devices[0].traffic", "updates[0]", "attacks", "deception.mtd"
_METRICS = [m.value for m in Metric]

# (where, value, error): where is a dotted key path into FULL_SCENARIO, and
# error is what parse_scenario raises with source "scenario" after that name
# and a dot, or after the name alone where the error is about the whole file
SCENARIO_ERRORS = [
    ("seed", DROP, "seed: missing required field"),
    ("seed", "1", "seed: expected int"),
    ("seed", True, "seed: expected int"),
    ("seed", -1, "seed: must be in [0, 2**64), got -1"),
    ("seed", 2**64, "seed: must be in [0, 2**64), got 18446744073709551616"),
    ("duration", DROP, "duration: missing required field"),
    ("duration", 1.5, "duration: expected int"),
    ("duration", 0, "duration: must be positive"),
    ("colour", 1, "colour: unknown field"),
    ("devices", {}, "devices: expected list"),
    ("devices.0", 1, "devices[0]: expected dict"),
    ("devices.1.id", "dev-a", "devices[1].id: duplicate device id 'dev-a'"),
    ("links", [], "links: expected dict"),
    ("detector", [], "detector: expected dict"),
    ("updates", {}, "updates: expected list"),
    ("updates.0", "x", "updates[0]: expected dict"),
    ("deception", [], "deception: expected dict"),
    ("attacks", {}, "attacks: expected list"),
    ("attacks.0", 1, "attacks[0]: expected dict"),
    ("admin", {}, "admin: expected list"),
    ("admin.0", [], "admin[0]: expected dict"),
    ("duration", 5_000_001, ": devices x duration passes the telemetry cap of 1e+07 rows"),
    ("attacks.4.factor", 10**6, ": telemetry could reach 3.84e+08 rows, past the cap of 1e+07"),
    # devices[0]
    ("devices.0.firmware", 3, f"{_D0}.firmware: unknown field"),
    ("devices.0.id", DROP, f"{_D0}.id: missing required field"),
    ("devices.0.id", 5, f"{_D0}.id: expected str"),
    ("devices.0.id", "", f"{_D0}.id: must be non-empty"),
    ("devices.0.secret", DROP, f"{_D0}.secret: missing required field"),
    ("devices.0.secret", None, f"{_D0}.secret: expected str"),
    ("devices.0.secret", "", f"{_D0}.secret: must be non-empty"),
    ("devices.0.owner", 5, f"{_D0}.owner: expected str"),
    ("devices.0.firmware_version", "1", f"{_D0}.firmware_version: expected int"),
    ("devices.0.firmware_version", True, f"{_D0}.firmware_version: expected int"),
    ("devices.0.firmware_version", -1, f"{_D0}.firmware_version: must be non-negative"),
    ("devices.0.duty_cycle", "x", f"{_D0}.duty_cycle: expected float"),
    ("devices.0.duty_cycle", False, f"{_D0}.duty_cycle: expected float"),
    ("devices.0.duty_cycle", 0, f"{_D0}.duty_cycle: must be in (0, 1]"),
    ("devices.0.duty_cycle", 1.5, f"{_D0}.duty_cycle: must be in (0, 1]"),
    ("devices.0.legitimate_ports", {}, f"{_D0}.legitimate_ports: expected list"),
    ("devices.0.legitimate_ports", [0], f"{_D0}.legitimate_ports[0]: expected a port number"),
    ("devices.0.legitimate_ports", [443, True], f"{_D0}.legitimate_ports[1]: expected int"),
    ("devices.0.legitimate_ports", [443, 65536], f"{_D0}.legitimate_ports[1]: expected a port number"),
    ("devices.0.traffic", [], f"{_D0}.traffic: expected dict"),
    # devices[0].traffic
    ("devices.0.traffic.shape", "sine", f"{_T}.shape: unknown field"),
    ("devices.0.traffic.period", 1.5, f"{_T}.period: expected int"),
    ("devices.0.traffic.period", 1, f"{_T}.period: must be at least 2"),
    ("devices.0.traffic.base", "8", f"{_T}.base: expected float"),
    ("devices.0.traffic.base", -1.0, f"{_T}.base: must be finite and non-negative"),
    ("devices.0.traffic.base", float("inf"), f"{_T}.base: must be finite and non-negative"),
    ("devices.0.traffic.amplitude", None, f"{_T}.amplitude: expected float"),
    ("devices.0.traffic.amplitude", -3, f"{_T}.amplitude: must be finite and non-negative"),
    ("devices.0.traffic.noise", [], f"{_T}.noise: expected float"),
    ("devices.0.traffic.noise", float("nan"), f"{_T}.noise: must be finite and non-negative"),
    # links
    ("links.bandwidth", 9, "links.bandwidth: unknown field"),
    ("links.mtu", "64", "links.mtu: expected int"),
    ("links.mtu", 4, "links.mtu: must exceed the 4-byte fragment header"),
    ("links.mtu", 65536, "links.mtu: must be at most 65535"),
    # an mtu past a frame's size would let an image of terabytes under the fragment cap
    ("links.mtu", 2**40, "links.mtu: must be at most 65535"),
    ("links.latency", 0.5, "links.latency: expected int"),
    ("links.latency", -1, "links.latency: must be non-negative"),
    ("links.drop_rate", "x", "links.drop_rate: expected float"),
    ("links.drop_rate", 1, "links.drop_rate: must be in [0, 1)"),
    ("links.drop_rate", -0.1, "links.drop_rate: must be in [0, 1)"),
    # detector
    ("detector.mode", "x", "detector.mode: unknown field"),
    ("detector.window", 8.0, "detector.window: expected int"),
    ("detector.window", 1, "detector.window: must be at least 2"),
    ("detector.exclusion", 0, "detector.exclusion: must be a positive integer or null"),
    ("detector.exclusion", 1.5, "detector.exclusion: expected int"),
    ("detector.exclusion", True, "detector.exclusion: expected int"),
    ("detector.quantile", "x", "detector.quantile: expected float"),
    ("detector.quantile", 0, "detector.quantile: must be in (0, 1]"),
    ("detector.quantile", 1.01, "detector.quantile: must be in (0, 1]"),
    ("detector.margin", "2", "detector.margin: expected float"),
    ("detector.margin", 0.5, "detector.margin: must be finite and at least 1"),
    ("detector.margin", float("inf"), "detector.margin: must be finite and at least 1"),
    ("detector.margin", float("nan"), "detector.margin: must be finite and at least 1"),
    ("detector.interval", 1.0, "detector.interval: expected int"),
    ("detector.interval", 0, "detector.interval: must be positive"),
    ("detector.baseline_ticks", "x", "detector.baseline_ticks: expected int"),
    ("detector.baseline_ticks", 0, "detector.baseline_ticks: must be in (0, duration]"),
    ("detector.baseline_ticks", 201, "detector.baseline_ticks: must be in (0, duration]"),
    ("detector.baseline_ticks", 12,
     "detector.baseline_ticks: too short for the profile window and exclusion zone"),
    # window 8, exclusion 4: 13 to 16 points leave a window no neighbor outside its band
    ("detector.baseline_ticks", 13,
     "detector.baseline_ticks: too short for the profile window and exclusion zone"),
    ("detector.baseline_ticks", 16,
     "detector.baseline_ticks: too short for the profile window and exclusion zone"),
    ("detector.metrics", "packets_in", "detector.metrics: expected list"),
    ("detector.metrics", [], "detector.metrics: must name at least one metric"),
    ("detector.metrics", ["packets_in", "bogus"], f"detector.metrics[1]: expected one of {_METRICS}"),
    ("detector.metrics", [5], f"detector.metrics[0]: expected one of {_METRICS}"),
    # updates[0]
    ("updates.0.channel", "x", f"{_U}.channel: unknown field"),
    ("updates.0.at", DROP, f"{_U}.at: missing required field"),
    ("updates.0.at", "10", f"{_U}.at: expected int"),
    ("updates.0.at", 0, f"{_U}.at: must be within [1, duration)"),
    ("updates.0.at", 200, f"{_U}.at: must be within [1, duration)"),
    ("updates.0.version", DROP, f"{_U}.version: missing required field"),
    ("updates.0.version", 2.0, f"{_U}.version: expected int"),
    ("updates.0.version", 0, f"{_U}.version: must be at least 1"),
    ("updates.0.version", 2**64, f"{_U}.version: must be in [0, 2**64), got {2**64}"),
    ("updates.0.expiry", DROP, f"{_U}.expiry: missing required field"),
    ("updates.0.expiry", None, f"{_U}.expiry: expected int"),
    ("updates.0.expiry", 10, f"{_U}.expiry: must be after the publish tick"),
    ("updates.0.expiry", 2**64, f"{_U}.expiry: must be in [0, 2**64), got {2**64}"),
    ("updates.0.firmware_id", 2, f"{_U}.firmware_id: expected str"),
    ("updates.0.size", "512", f"{_U}.size: expected int"),
    ("updates.0.size", 15, f"{_U}.size: must be at least 16 bytes"),
    ("updates.0.size", 20_000, f"{_U}.size: firmware needs ~343 fragments at mtu 64, cap is 256"),
    # the manifest carries the id, so a long one needs frames too
    ("updates.0.firmware_id", "f" * 15_000,
     f"{_U}.size: firmware needs ~268 fragments at mtu 64, cap is 256"),
    ("updates.0.plant_canary", 1, f"{_U}.plant_canary: expected bool"),
    ("updates.0.retry_interval", 2.5, f"{_U}.retry_interval: expected int"),
    ("updates.0.retry_interval", 0, f"{_U}.retry_interval: must be positive"),
    ("updates.0.feint_regions", {}, f"{_U}.feint_regions: expected list"),
    ("updates.0.feint_regions", [[0, 16]], f"{_U}.feint_regions[0]: expected [offset, length, note]"),
    ("updates.0.feint_regions", [[0, 16, "n"], [0, 16, 5]],
     f"{_U}.feint_regions[1]: expected [offset, length, note]"),
    ("updates.0.feint_regions", [[True, 15, "n"]], f"{_U}.feint_regions[0]: expected [offset, length, note]"),
    ("updates.0.feint_regions", [[0, False, "n"]], f"{_U}.feint_regions[0]: expected [offset, length, note]"),
    ("updates.0.feint_regions", [[-1, 16, "n"]], f"{_U}.feint_regions[0]: region outside image bounds"),
    ("updates.0.feint_regions", [[0, 0, "n"]], f"{_U}.feint_regions[0]: region outside image bounds"),
    ("updates.0.feint_regions", [[500, 16, "n"]], f"{_U}.feint_regions[0]: region outside image bounds"),
    # attacks
    ("attacks.0.kind", DROP, f"{_A}[0].kind: missing required field"),
    ("attacks.0.kind", 5, f"{_A}[0].kind: expected str"),
    ("attacks.0.kind", "ddos", f"{_A}[0].kind: unknown attack kind 'ddos'"),
    ("attacks.0.factor", 10, f"{_A}[0].factor: unknown field"),
    ("attacks.2.rate", [2, 6], f"{_A}[2].rate: unknown field"),
    ("attacks.0.at", DROP, f"{_A}[0].at: missing required field"),
    ("attacks.0.at", 50.0, f"{_A}[0].at: expected int"),
    ("attacks.0.at", -1, f"{_A}[0].at: must be within [0, duration)"),
    ("attacks.4.at", 200, f"{_A}[4].at: must be within [0, duration)"),
    ("attacks.0.device", DROP, f"{_A}[0].device: missing required field"),
    ("attacks.0.device", 5, f"{_A}[0].device: expected str"),
    ("attacks.0.device", "ghost", f"{_A}[0].device: unknown device 'ghost'"),
    ("attacks.0.at", 10, f"{_A}[0]: rollback_replay needs an update campaign before it"),
    ("attacks.1.at", 5, f"{_A}[1]: tamper_firmware needs an update campaign before it"),
    ("updates.0.plant_canary", False, f"{_A}[5]: canary_probe needs a planted canary or canary ports"),
    ("attacks.2.duration", "30", f"{_A}[2].duration: expected int"),
    ("attacks.2.duration", 0, f"{_A}[2].duration: must be positive"),
    ("attacks.3.duration", 0, f"{_A}[3].duration: must be positive"),
    ("attacks.3.rate", "2-6", f"{_A}[3].rate: expected list"),
    ("attacks.3.rate", [2], f"{_A}[3].rate: expected [lo, hi] with 1 <= lo <= hi"),
    ("attacks.3.rate", [0, 2], f"{_A}[3].rate: expected [lo, hi] with 1 <= lo <= hi"),
    ("attacks.3.rate", [3, 2], f"{_A}[3].rate: expected [lo, hi] with 1 <= lo <= hi"),
    ("attacks.3.rate", [1.0, 2], f"{_A}[3].rate[0]: expected int"),
    ("attacks.4.factor", 10.0, f"{_A}[4].factor: expected int"),
    ("attacks.4.factor", 1, f"{_A}[4].factor: must be at least 2"),
    ("attacks.4.buckets", "20", f"{_A}[4].buckets: expected int"),
    ("attacks.4.buckets", 0, f"{_A}[4].buckets: must be positive"),
    # deception
    ("deception.decoys", 1, "deception.decoys: unknown field"),
    ("deception.canary_ports", 2323, "deception.canary_ports: expected list"),
    ("deception.canary_ports", [2323, "23"], "deception.canary_ports[1]: expected int"),
    ("deception.canary_ports", [2000, 2000], "deception.canary_ports[1]: port 2000 is listed twice"),
    ("deception.canary_ports", [*range(2000, 22000), 2000],
     "deception.canary_ports[20000]: port 2000 is listed twice"),
    ("deception.canary_ports", [443],
     "deception.canary_ports[0]: port 443 is a legitimate service on 'dev-a'"),
    ("deception.mtd", [], "deception.mtd: expected dict"),
    ("deception.mtd.jitter", 1, f"{_M}.jitter: unknown field"),
    ("deception.mtd.rotation_interval", DROP, f"{_M}.rotation_interval: missing required field"),
    ("deception.mtd.rotation_interval", "25", f"{_M}.rotation_interval: expected int"),
    ("deception.mtd.rotation_interval", 0, f"{_M}.rotation_interval: must be positive"),
    ("deception.mtd.address_pool", DROP, f"{_M}.address_pool: missing required field"),
    ("deception.mtd.address_pool", "10.0.0.1", f"{_M}.address_pool: expected list"),
    ("deception.mtd.address_pool", ["10.0.0.1", 2], f"{_M}.address_pool[1]: expected str"),
    ("deception.mtd.address_pool", [], f"{_M}.address_pool: must be non-empty and unique"),
    ("deception.mtd.address_pool", ["a", "a"], f"{_M}.address_pool: must be non-empty and unique"),
    ("deception.mtd.address_pool", ["a"], f"{_M}.address_pool: smaller than the device count"),
    # admin
    ("admin.0.reason", "x", "admin[0].reason: unknown field"),
    ("admin.0.at", DROP, "admin[0].at: missing required field"),
    ("admin.0.at", "180", "admin[0].at: expected int"),
    ("admin.0.at", -1, "admin[0].at: must be within [0, duration)"),
    ("admin.0.at", 200, "admin[0].at: must be within [0, duration)"),
    ("admin.0.action", DROP, "admin[0].action: missing required field"),
    ("admin.0.action", 5, "admin[0].action: expected str"),
    ("admin.0.action", "delete", "admin[0].action: unknown action 'delete'"),
    ("admin.0.device", DROP, "admin[0].device: missing required field"),
    ("admin.0.device", ["dev-b"], "admin[0].device: expected str"),
    ("admin.0.device", "ghost", "admin[0].device: unknown device 'ghost'"),
]


def _broken(where, value):
    obj = copy.deepcopy(FULL_SCENARIO)
    set_path(obj, [int(k) if k.isdigit() else k for k in where.split(".")], value)
    return obj


def test_full_scenario_is_valid_and_runs():
    report = run_scenario(parse_scenario(copy.deepcopy(FULL_SCENARIO)))
    assert {e.kind for e in report.events} >= {"update_applied", "canary_probe", "mtd_rotated"}


def test_non_object_scenario_is_refused():
    with pytest.raises(ConfigError, match="^scenario: expected dict$"):
        parse_scenario([FULL_SCENARIO])


def test_scenario_file_that_is_not_utf8_names_the_file(tmp_path):
    path = tmp_path / "sc.json"
    path.write_bytes(b'{"duration": "\xff"}')
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: not valid JSON: 'utf-8' codec"):
        load_scenario(path)


def _error_id(where, value) -> str:
    shown = "<drop>" if value is DROP else repr(value)
    return f"{where}={shown if len(shown) <= 40 else f'<{len(value)} chars>'}"


@pytest.mark.parametrize(
    "where, value, error", SCENARIO_ERRORS, ids=[_error_id(w, v) for w, v, _ in SCENARIO_ERRORS]
)
def test_every_scenario_error_names_its_path_and_reason(where, value, error):
    with pytest.raises(ConfigError) as exc:
        parse_scenario(_broken(where, value))
    assert str(exc.value) == "scenario" + ("" if error.startswith(":") else ".") + error


@settings(derandomize=True, max_examples=300, deadline=None)
@given(edits=json_edits(FULL_SCENARIO))
def test_edited_scenarios_raise_only_fleetsec_or_value_errors(edits):
    try:
        parse_scenario(edited(FULL_SCENARIO, edits))
    except FleetsecError:
        pass


@pytest.mark.parametrize(
    "where, default", [("devices.0.owner", "user-dev-a"), ("updates.0.firmware_id", "fw-v2")]
)
def test_null_owner_or_firmware_id_is_the_default(where, default):
    config = parse_scenario(_broken(where, None))
    assert config == parse_scenario(_broken(where, DROP))
    section, index, name = where.split(".")
    assert getattr(getattr(config, section)[int(index)], name) == default


def test_null_attack_device_is_an_absent_one():
    # write_spec leaves a canary probe's absent device out; a file may also write it as null
    assert parse_scenario(_broken("attacks.5.device", None)) == parse_scenario(FULL_SCENARIO)

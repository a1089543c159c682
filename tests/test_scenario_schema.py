"""The scenario schema, on generated scenarios.

Scenarios are built from the spec dataclasses. Written with write_spec
and passed through JSON text, each reads back as the same config. Each
rule that spans sections (ScenarioConfig.__post_init__) refuses a valid
scenario with exactly that rule broken, by its own path and message.
"""

import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fleetsec.detector import DetectorConfig
from fleetsec.fleet_sim.scenario import (
    ATTACK_KINDS,
    AdminAction,
    AttackSpec,
    DeceptionSpec,
    DetectorSpec,
    DeviceSpec,
    FeintRegion,
    LinkSpec,
    MtdSpec,
    ScenarioConfig,
    TrafficSpec,
    UpdateSpec,
    parse_scenario,
)
from fleetsec.fleet_sim.transport import MAX_FRAGMENTS
from fleetsec.telemetry import MAX_TELEMETRY_ROWS, Metric
from fleetsec.wire import ConfigError, write_spec

# non-ASCII letters, and the commas and quotes that JSON text must escape
NAMES = st.text(st.sampled_from('aZ9-_ éü€漢,"\'\\'), min_size=1, max_size=8)
FLOATS = st.floats(0, 20)  # traffic values: small enough to stay far below the row cap


def _maybe(strategy):
    return st.none() | strategy


TRAFFIC = st.builds(TrafficSpec, st.integers(2, 2**70), FLOATS, FLOATS, FLOATS)


@st.composite
def detectors(draw, duration: int, has_devices: bool) -> DetectorSpec | None:
    """None, or a detector whose baseline fits the run; None for baseline_ticks where half fits."""
    if duration < 2 or draw(st.booleans()):
        return None
    settings_ = DetectorConfig(
        window=draw(st.integers(2, 8)),
        exclusion=draw(_maybe(st.integers(1, 4))),
        quantile=draw(st.floats(0, 1, exclude_min=True)),
        margin=draw(st.floats(1, 10)),
        interval=draw(st.integers(1, 3)),
        metrics=tuple(draw(st.lists(st.sampled_from(Metric), min_size=1, max_size=3))),
    )
    least = settings_.profile_config.min_length * settings_.interval if has_devices else 1
    if least > duration:
        return None
    half_fits = duration // 2 >= least
    baseline = draw(st.integers(least, duration) | (st.none() if half_fits else st.nothing()))
    return DetectorSpec(**vars(settings_), baseline_ticks=baseline)


@st.composite
def updates(draw, duration: int, mtu: int) -> UpdateSpec:
    at = draw(st.integers(1, duration - 1))
    size = draw(st.integers(16, min(4096, (mtu - 4) * MAX_FRAGMENTS - 600)))
    regions = st.integers(0, size - 1).flatmap(
        lambda offset: st.builds(FeintRegion, st.just(offset), st.integers(1, size - offset), NAMES)
    )
    return UpdateSpec(
        at=at,
        version=draw(st.integers(1, 2**64 - 1)),
        expiry=draw(st.integers(at + 1, 2**64 - 1)),
        firmware_id=draw(_maybe(NAMES)),
        size=size,
        plant_canary=draw(st.booleans()),
        feint_regions=tuple(draw(st.lists(regions, max_size=2))),
        retry_interval=draw(st.integers(1, 50)),
    )


@st.composite
def attacks(draw, config: ScenarioConfig) -> AttackSpec | None:
    """An attack valid in config, of any kind that can be, with each param set or left out."""
    ids = [d.id for d in config.devices]
    kind = draw(st.sampled_from(ATTACK_KINDS))
    at = draw(st.integers(0, config.duration - 1))
    device = draw(st.sampled_from(ids)) if ids else None
    if kind == "canary_probe":
        device = draw(st.sampled_from([device, None]))
        planted = any(u.plant_canary and u.at <= at for u in config.updates)
        if not planted and not (config.deception.canary_ports and device is not None):
            return None
    elif device is None or (
        kind in ("rollback_replay", "tamper_firmware") and not any(u.at < at for u in config.updates)
    ):
        return None
    params = {
        "identity_theft": {"duration": st.integers(1, 50)},
        "dictionary_attack": {
            "duration": st.integers(1, 50),
            "rate": st.tuples(st.integers(1, 5), st.integers(0, 5)).map(lambda r: (r[0], r[0] + r[1])),
        },
        "traffic_flood": {"factor": st.integers(2, 20), "buckets": st.integers(1, 30)},
    }.get(kind, {})
    return AttackSpec(kind, at, device, **{name: draw(_maybe(value)) for name, value in params.items()})


@st.composite
def scenarios(draw, min_devices: int = 0) -> ScenarioConfig:
    """A valid scenario that sets any field of any section, or leaves it to its default."""
    duration = draw(st.integers(2, 300))
    ids = draw(st.lists(NAMES, min_size=min_devices, max_size=4, unique=True))
    devices = tuple(
        DeviceSpec(
            id=device_id,
            secret=draw(NAMES),
            owner=draw(_maybe(NAMES)),
            firmware_version=draw(st.integers(0, 2**64 - 1)),
            duty_cycle=draw(st.floats(0, 1, exclude_min=True)),
            legitimate_ports=tuple(draw(st.lists(st.integers(1, 1999), max_size=2))),
            traffic=draw(st.just(TrafficSpec()) | TRAFFIC),
        )
        for device_id in ids
    )
    links = LinkSpec(draw(st.integers(64, 2048)), draw(st.integers(0, 5)), draw(st.floats(0, 0.9)))
    mtd = st.builds(
        MtdSpec,
        st.integers(1, 100),
        st.lists(NAMES, min_size=max(len(ids), 1), max_size=5, unique=True).map(tuple),
    )
    config = ScenarioConfig(
        seed=draw(st.integers(0, 2**64 - 1)),
        duration=duration,
        devices=devices,
        links=links,
        detector=draw(detectors(duration, bool(devices))),
        updates=tuple(draw(st.lists(updates(duration, links.mtu), max_size=2))),
        deception=DeceptionSpec(
            tuple(draw(st.lists(st.integers(2000, 65535), max_size=2, unique=True))), draw(_maybe(mtd))
        ),
        admin=tuple(
            draw(st.lists(st.builds(
                AdminAction, st.integers(0, duration - 1), st.sampled_from(["blacklist", "deprovision"]),
                st.sampled_from(ids),
            ), max_size=2))
        ) if ids else (),
    )
    chosen = draw(st.lists(attacks(config), max_size=4))
    return replace(config, attacks=tuple(a for a in chosen if a is not None))


def _as_file(config: ScenarioConfig) -> dict:
    """The scenario file of config, as its JSON text reads."""
    return json.loads(json.dumps(write_spec(config)))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(config=scenarios())
def test_generated_scenarios_read_back_what_was_written(config):
    assert parse_scenario(_as_file(config)) == config


def test_the_detectors_baseline_is_half_the_run_unless_set():
    config = ScenarioConfig(seed=0, duration=80, devices=(DeviceSpec("a", "s"),), detector=DetectorSpec())
    assert config.detector.baseline_ticks == 40
    assert parse_scenario(_as_file(config)) == config
    assert parse_scenario({**_as_file(config), "detector": {}}) == config
    assert parse_scenario({**_as_file(config), "detector": {"baseline_ticks": None}}) == config


# --- one cross-section rule broken at a time -------------------------------------
#
# Each rule takes the file of a valid scenario with at least two devices,
# breaks its rule and nothing else, and returns the error parse_scenario
# must raise after "scenario".


def _ghost(obj) -> str:
    ids = {d["id"] for d in obj["devices"]}
    return next(f"ghost-{n}" for n in range(len(ids) + 1) if f"ghost-{n}" not in ids)


def _add_update(obj) -> int:
    """The index of an update in obj, added at tick 1 where it has none."""
    if not obj["updates"]:
        obj["updates"].append({"at": 1, "version": 1, "expiry": 2})
    return 0


def attack_names_an_unknown_device(obj):
    ghost = _ghost(obj)
    obj["attacks"].append({"kind": "identity_theft", "at": 0, "device": ghost})
    return f".attacks[{len(obj['attacks']) - 1}].device: unknown device {ghost!r}"


def update_past_the_run(obj):
    i = _add_update(obj)
    update = obj["updates"][i]
    update["at"] = obj["duration"]
    update["expiry"] = max(update["expiry"], update["at"] + 1)
    return f".updates[{i}].at: must be within [1, duration)"


def update_at_tick_0(obj):
    i = _add_update(obj)
    obj["updates"][i]["at"] = 0
    return f".updates[{i}].at: must be within [1, duration)"


def update_version_past_u64(obj):
    i = _add_update(obj)
    obj["updates"][i]["version"] = 2**64
    return f".updates[{i}].version: must be at most 2**64 - 1"


def update_expiry_past_u64(obj):
    i = _add_update(obj)
    obj["updates"][i]["expiry"] = 2**64
    return f".updates[{i}].expiry: must be at most 2**64 - 1"


def duplicate_device_id(obj):
    first = obj["devices"][0]["id"]
    obj["devices"][1]["id"] = first
    return f".devices[1].id: duplicate device id {first!r}"


def baseline_past_the_run(obj):
    obj["detector"] = {**(obj["detector"] or {}), "baseline_ticks": obj["duration"] + 1}
    return ".detector.baseline_ticks: must be in (0, duration]"


def baseline_too_short(obj):
    obj["detector"] = {**(obj["detector"] or {}), "baseline_ticks": 1}
    return ".detector.baseline_ticks: too short for the profile window and exclusion zone"


def canary_port_on_a_service(obj):
    device = obj["devices"][1]
    device["legitimate_ports"] = [*device["legitimate_ports"], 1]
    shadowed = next(d for d in obj["devices"] if 1 in d["legitimate_ports"])["id"]
    ports = obj["deception"]["canary_ports"]
    ports.append(1)
    return f".deception.canary_ports[{len(ports) - 1}]: port 1 is a legitimate service on {shadowed!r}"


def canary_port_listed_twice(obj):
    ports = obj["deception"]["canary_ports"]
    ports.extend([2000, 2000] if not ports else [ports[0]])
    return f".deception.canary_ports[{len(ports) - 1}]: port {ports[-1]} is listed twice"


def mtd_pool_short_of_the_fleet(obj):
    obj["deception"]["mtd"] = {"rotation_interval": 5, "address_pool": ["10.0.0.1"]}
    return ".deception.mtd.address_pool: smaller than the device count"


def attack_past_the_run(obj):
    device = obj["devices"][0]["id"]
    obj["attacks"].append({"kind": "identity_theft", "at": obj["duration"], "device": device})
    return f".attacks[{len(obj['attacks']) - 1}].at: must be within [0, duration)"


def replay_before_any_update(obj):
    device = obj["devices"][0]["id"]
    obj["attacks"].append({"kind": "rollback_replay", "at": 0, "device": device})  # updates start at 1
    return f".attacks[{len(obj['attacks']) - 1}]: rollback_replay needs an update campaign before it"


def tamper_before_any_update(obj):
    device = obj["devices"][0]["id"]
    obj["attacks"].append({"kind": "tamper_firmware", "at": 0, "device": device})
    return f".attacks[{len(obj['attacks']) - 1}]: tamper_firmware needs an update campaign before it"


def probe_without_a_canary(obj):
    obj["attacks"].append({"kind": "canary_probe", "at": 0})  # no device: the ports do not count
    return f".attacks[{len(obj['attacks']) - 1}]: canary_probe needs a planted canary or canary ports"


def admin_past_the_run(obj):
    device = obj["devices"][0]["id"]
    obj["admin"].append({"at": obj["duration"], "action": "blacklist", "device": device})
    return f".admin[{len(obj['admin']) - 1}].at: must be within [0, duration)"


def admin_on_an_unknown_device(obj):
    ghost = _ghost(obj)
    obj["admin"].append({"at": 0, "action": "deprovision", "device": ghost})
    return f".admin[{len(obj['admin']) - 1}].device: unknown device {ghost!r}"


def update_past_the_fragment_cap(obj):
    i = _add_update(obj)
    obj["links"]["mtu"] = 5  # one byte a frame
    update = obj["updates"][i]
    firmware_id = update.get("firmware_id") or f"fw-v{update['version']}"
    frames = update.get("size", 4096) + len(firmware_id.encode("utf-8")) + 16 + 512
    return f".updates[{i}].size: firmware needs ~{frames} fragments at mtu 5, cap is {MAX_FRAGMENTS}"


def fleet_past_the_row_cap(obj):
    obj["duration"] = MAX_TELEMETRY_ROWS // len(obj["devices"]) + 1
    return f": devices x duration passes the telemetry cap of {MAX_TELEMETRY_ROWS:.0e} rows"


RULES = [
    attack_names_an_unknown_device,
    update_past_the_run,
    update_at_tick_0,
    update_version_past_u64,
    update_expiry_past_u64,
    duplicate_device_id,
    baseline_past_the_run,
    baseline_too_short,
    canary_port_on_a_service,
    canary_port_listed_twice,
    mtd_pool_short_of_the_fleet,
    attack_past_the_run,
    replay_before_any_update,
    tamper_before_any_update,
    probe_without_a_canary,
    admin_past_the_run,
    admin_on_an_unknown_device,
    update_past_the_fragment_cap,
    fleet_past_the_row_cap,
]


@pytest.mark.parametrize("rule", RULES, ids=[rule.__name__ for rule in RULES])
@settings(derandomize=True, max_examples=25, deadline=None)
@given(config=scenarios(min_devices=2))
def test_a_scenario_with_one_rule_broken_fails_with_that_rules_error(rule, config):
    obj = _as_file(config)
    error = rule(obj)
    with pytest.raises(ConfigError) as exc:
        parse_scenario(obj)
    assert str(exc.value) == "scenario" + error

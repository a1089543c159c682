"""Declarative scenario configs and the deterministic fleet simulator.

The engine is a single-threaded event loop over a priority queue keyed
by (time, sequence number). Every random draw comes from a named stream
derived from the scenario seed, one stream per actor, so adding an actor
never perturbs another actor's draws. Running the same config twice
produces byte-identical reports.

A scenario wires together the whole toolkit: devices are registered and
claimed at t=0, generate periodic telemetry while on-grid, receive
update campaigns over a lossy fragmenting link, and suffer scripted
attacks. At the end of the run the detector is calibrated per device on
a clean prefix and swept over the full series, and credential-clone
detection runs over all observed sessions.

Telemetry is per-device, per-tick count arrays filled before the event
loop, so the queue holds deliveries, attacks, admin and MTD events only.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..deception import (
    CanaryToken,
    PortCanaries,
    attach_feint_patch,
    check_access,
    make_schedule,
    mtd_rotate,
    plant_canary,
)
from ..detector import DetectorConfig, reports_from_profile, threshold_from_distances
from ..errors import FleetsecError
from ..identity import BlacklistedError, ClaimRequest, DeviceRegistry, SecretMismatchError, Status
from ..keystore import Keystore
from ..matrix_profile import ProfileConfig, compute_many, default_exclusion
from ..telemetry import Direction, EventKind, Metric, TelemetryCounts, TelemetrySeries
from ..tsa import TimestampAuthority
from ..update_protocol import (
    DeviceMode,
    DeviceUpdateState,
    FirmwareManifest,
    RejectionRecord,
    apply_update,
    boot,
    build_manifest,
    decode_manifest,
    initial_state,
    interrupt_update,
)
from ..wire import Reader, lp
from .report import EventRow, ScenarioReport, write_report
from .transport import MAX_FRAGMENTS, SimLink, fragment, reassemble

_MASK64 = 2**64 - 1

HEARTBEAT_PERIOD = 20

ATTACK_KINDS = (
    "rollback_replay",
    "tamper_firmware",
    "identity_theft",
    "dictionary_attack",
    "traffic_flood",
    "canary_probe",
)


# Devices whose series the detector pass profiles together. Batching pays
# off within a few dozen series; larger blocks only hold more series and
# profiles alive at the run's memory peak.
_DETECTOR_BLOCK = 64

# The most rows a scenario's telemetry.csv may reach (about 0.5 GB). It
# keeps every count and running total far inside int64 and the file
# writable; _check_telemetry_rows holds scenarios to it.
MAX_TELEMETRY_ROWS = 10**7


class ConfigError(FleetsecError):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


class UnknownAttackKindError(ConfigError):
    pass


def rng_stream(seed: int, name: str) -> random.Random:
    """Independent RNG derived from (seed, name); order of creation is moot."""
    digest = hashlib.sha256(
        (seed & _MASK64).to_bytes(8, "big") + name.encode("utf-8")
    ).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def make_firmware(version: int, size: int) -> bytes:
    """Deterministic pseudo-firmware: a hash stream keyed by version."""
    label = b"fleetsec-firmware|" + str(version).encode("ascii")
    out = bytearray()
    counter = 0
    while len(out) < size:
        out += hashlib.sha256(label + counter.to_bytes(8, "big")).digest()
        counter += 1
    return bytes(out[:size])


# --- config model -----------------------------------------------------------


@dataclass(frozen=True)
class TrafficSpec:
    period: int = 50
    base: float = 8.0
    amplitude: float = 3.0
    noise: float = 0.8


@dataclass(frozen=True)
class DeviceSpec:
    id: str
    secret: str
    owner: str
    firmware_version: int = 1
    duty_cycle: float = 1.0
    legitimate_ports: tuple[int, ...] = ()
    traffic: TrafficSpec = TrafficSpec()


@dataclass(frozen=True)
class LinkSpec:
    mtu: int = 1024
    latency: int = 0
    drop_rate: float = 0.0


@dataclass(frozen=True)
class DetectorSpec:
    baseline_ticks: int
    window: int = 16
    exclusion: int | None = None
    quantile: float = 0.99
    margin: float = 2.0
    interval: int = 1
    metrics: tuple[Metric, ...] = (Metric.PACKETS_IN,)

    def to_config(self) -> DetectorConfig:
        return DetectorConfig(
            profile_config=ProfileConfig(window_m=self.window, exclusion=self.exclusion),
            quantile=self.quantile,
            margin=self.margin,
        )


@dataclass(frozen=True)
class UpdateSpec:
    at: int
    version: int
    expiry: int
    firmware_id: str
    size: int = 4096
    plant_canary: bool = False
    feint_regions: tuple[tuple[int, int, str], ...] = ()
    retry_interval: int = 20


@dataclass(frozen=True)
class AttackSpec:
    kind: str
    at: int
    device: str | None
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class MtdSpec:
    rotation_interval: int
    address_pool: tuple[str, ...]


@dataclass(frozen=True)
class DeceptionSpec:
    canary_ports: tuple[int, ...] = ()
    mtd: MtdSpec | None = None


@dataclass(frozen=True)
class AdminAction:
    at: int
    action: str
    device: str


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int
    duration: int
    devices: tuple[DeviceSpec, ...]
    link: LinkSpec = LinkSpec()
    detector: DetectorSpec | None = None
    updates: tuple[UpdateSpec, ...] = ()
    attacks: tuple[AttackSpec, ...] = ()
    deception: DeceptionSpec = DeceptionSpec()
    admin: tuple[AdminAction, ...] = ()


# --- config parsing ---------------------------------------------------------

_MISSING = object()


def _field(obj: dict, path: str, key: str, kind: type, default=_MISSING):
    if key not in obj:
        if default is _MISSING:
            raise ConfigError(f"{path}.{key}", "missing required field")
        return default
    value = obj[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise ConfigError(f"{path}.{key}", f"expected {kind.__name__}")
    return value


def _check_keys(obj: dict, path: str, allowed: set[str]) -> None:
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}", "unknown field")


def _parse_traffic(obj: dict, path: str) -> TrafficSpec:
    _check_keys(obj, path, {"period", "base", "amplitude", "noise"})
    spec = TrafficSpec(
        period=_field(obj, path, "period", int, 50),
        base=_field(obj, path, "base", float, 8.0),
        amplitude=_field(obj, path, "amplitude", float, 3.0),
        noise=_field(obj, path, "noise", float, 0.8),
    )
    if spec.period < 2:
        raise ConfigError(f"{path}.period", "must be at least 2")
    for name in ("base", "amplitude", "noise"):
        if not 0 <= getattr(spec, name) < math.inf:  # NaN fails too
            raise ConfigError(f"{path}.{name}", "must be finite and non-negative")
    return spec


def _parse_device(obj: dict, path: str) -> DeviceSpec:
    _check_keys(
        obj,
        path,
        {"id", "secret", "owner", "firmware_version", "duty_cycle", "legitimate_ports", "traffic"},
    )
    device_id = _field(obj, path, "id", str)
    if not device_id:
        raise ConfigError(f"{path}.id", "must be non-empty")
    secret = _field(obj, path, "secret", str)
    if not secret:
        raise ConfigError(f"{path}.secret", "must be non-empty")
    duty = _field(obj, path, "duty_cycle", float, 1.0)
    if not 0 < duty <= 1:
        raise ConfigError(f"{path}.duty_cycle", "must be in (0, 1]")
    version = _field(obj, path, "firmware_version", int, 1)
    if version < 0:
        raise ConfigError(f"{path}.firmware_version", "must be non-negative")
    ports = _field(obj, path, "legitimate_ports", list, [])
    for i, port in enumerate(ports):
        if not isinstance(port, int) or isinstance(port, bool) or not 1 <= port <= 65535:
            raise ConfigError(f"{path}.legitimate_ports[{i}]", "expected a port number")
    traffic = _parse_traffic(_field(obj, path, "traffic", dict, {}), f"{path}.traffic")
    return DeviceSpec(
        id=device_id,
        secret=secret,
        owner=_field(obj, path, "owner", str, f"user-{device_id}"),
        firmware_version=version,
        duty_cycle=duty,
        legitimate_ports=tuple(ports),
        traffic=traffic,
    )


def _parse_link(obj: dict, path: str) -> LinkSpec:
    _check_keys(obj, path, {"mtu", "latency", "drop_rate"})
    spec = LinkSpec(
        mtu=_field(obj, path, "mtu", int, 1024),
        latency=_field(obj, path, "latency", int, 0),
        drop_rate=_field(obj, path, "drop_rate", float, 0.0),
    )
    if spec.mtu <= 4:
        raise ConfigError(f"{path}.mtu", "must exceed the 4-byte fragment header")
    if spec.latency < 0:
        raise ConfigError(f"{path}.latency", "must be non-negative")
    if not 0 <= spec.drop_rate < 1:
        raise ConfigError(f"{path}.drop_rate", "must be in [0, 1)")
    return spec


def _parse_detector(obj: dict, path: str, duration: int) -> DetectorSpec:
    _check_keys(
        obj,
        path,
        {"window", "exclusion", "quantile", "margin", "interval", "baseline_ticks", "metrics"},
    )
    window = _field(obj, path, "window", int, 16)
    if window < 2:
        raise ConfigError(f"{path}.window", "must be at least 2")
    exclusion = obj.get("exclusion")
    if exclusion is not None and (
        not isinstance(exclusion, int) or isinstance(exclusion, bool) or exclusion < 1
    ):
        raise ConfigError(f"{path}.exclusion", "must be a positive integer or null")
    quantile = _field(obj, path, "quantile", float, 0.99)
    if not 0 < quantile <= 1:
        raise ConfigError(f"{path}.quantile", "must be in (0, 1]")
    margin = _field(obj, path, "margin", float, 2.0)
    if margin < 1:
        raise ConfigError(f"{path}.margin", "must be at least 1")
    interval = _field(obj, path, "interval", int, 1)
    if interval < 1:
        raise ConfigError(f"{path}.interval", "must be positive")
    baseline_ticks = _field(obj, path, "baseline_ticks", int, duration // 2)
    if not 0 < baseline_ticks <= duration:
        raise ConfigError(f"{path}.baseline_ticks", "must be in (0, duration]")
    raw_metrics = _field(obj, path, "metrics", list, ["packets_in"])
    metrics = []
    for i, name in enumerate(raw_metrics):
        try:
            metrics.append(Metric(name))
        except ValueError:
            raise ConfigError(f"{path}.metrics[{i}]", f"unknown metric {name!r}") from None
    if not metrics:
        raise ConfigError(f"{path}.metrics", "must name at least one metric")
    return DetectorSpec(
        baseline_ticks=baseline_ticks,
        window=window,
        exclusion=exclusion,
        quantile=quantile,
        margin=margin,
        interval=interval,
        metrics=tuple(metrics),
    )


def _parse_update(obj: dict, path: str, duration: int) -> UpdateSpec:
    _check_keys(
        obj,
        path,
        {"at", "version", "expiry", "firmware_id", "size", "plant_canary", "feint_regions", "retry_interval"},
    )
    at = _field(obj, path, "at", int)
    if not 1 <= at < duration:
        raise ConfigError(f"{path}.at", "must be within [1, duration)")
    version = _field(obj, path, "version", int)
    if version < 1:
        raise ConfigError(f"{path}.version", "must be at least 1")
    expiry = _field(obj, path, "expiry", int)
    if expiry <= at:
        raise ConfigError(f"{path}.expiry", "must be after the publish tick")
    size = _field(obj, path, "size", int, 4096)
    if size < 16:
        raise ConfigError(f"{path}.size", "must be at least 16 bytes")
    retry = _field(obj, path, "retry_interval", int, 20)
    if retry < 1:
        raise ConfigError(f"{path}.retry_interval", "must be positive")
    regions = []
    for i, region in enumerate(_field(obj, path, "feint_regions", list, [])):
        if (
            not isinstance(region, list)
            or len(region) != 3
            or not isinstance(region[0], int)
            or not isinstance(region[1], int)
            or not isinstance(region[2], str)
        ):
            raise ConfigError(f"{path}.feint_regions[{i}]", "expected [offset, length, note]")
        if region[0] < 0 or region[1] < 1 or region[0] + region[1] > size:
            raise ConfigError(f"{path}.feint_regions[{i}]", "region outside image bounds")
        regions.append((region[0], region[1], region[2]))
    return UpdateSpec(
        at=at,
        version=version,
        expiry=expiry,
        firmware_id=_field(obj, path, "firmware_id", str, f"fw-v{version}"),
        size=size,
        plant_canary=_field(obj, path, "plant_canary", bool, False),
        feint_regions=tuple(regions),
        retry_interval=retry,
    )


_ATTACK_PARAM_KEYS = {
    "rollback_replay": set(),
    "tamper_firmware": set(),
    "identity_theft": {"duration"},
    "dictionary_attack": {"duration", "rate"},
    "traffic_flood": {"factor", "buckets"},
    "canary_probe": set(),
}


def _parse_attack(obj: dict, path: str, duration: int, device_ids: set[str]) -> AttackSpec:
    kind = _field(obj, path, "kind", str)
    if kind not in ATTACK_KINDS:
        raise UnknownAttackKindError(f"{path}.kind", f"unknown attack kind {kind!r}")
    _check_keys(obj, path, {"kind", "at", "device"} | _ATTACK_PARAM_KEYS[kind])
    at = _field(obj, path, "at", int)
    if not 0 <= at < duration:
        raise ConfigError(f"{path}.at", "must be within [0, duration)")
    device = _field(obj, path, "device", str, None)
    if kind != "canary_probe" and device is None:
        raise ConfigError(f"{path}.device", "missing required field")
    if device is not None and device not in device_ids:
        raise ConfigError(f"{path}.device", f"unknown device {device!r}")
    params: dict = {}
    if kind == "identity_theft":
        params["duration"] = _field(obj, path, "duration", int, 30)
        if params["duration"] < 1:
            raise ConfigError(f"{path}.duration", "must be positive")
    elif kind == "dictionary_attack":
        params["duration"] = _field(obj, path, "duration", int, 20)
        if params["duration"] < 1:
            raise ConfigError(f"{path}.duration", "must be positive")
        rate = _field(obj, path, "rate", list, [2, 6])
        if (
            len(rate) != 2
            or not all(isinstance(r, int) and not isinstance(r, bool) for r in rate)
            or not 1 <= rate[0] <= rate[1]
        ):
            raise ConfigError(f"{path}.rate", "expected [lo, hi] with 1 <= lo <= hi")
        params["rate"] = (rate[0], rate[1])
    elif kind == "traffic_flood":
        params["factor"] = _field(obj, path, "factor", int, 10)
        if params["factor"] < 2:
            raise ConfigError(f"{path}.factor", "must be at least 2")
        params["buckets"] = _field(obj, path, "buckets", int, 20)
        if params["buckets"] < 1:
            raise ConfigError(f"{path}.buckets", "must be positive")
    return AttackSpec(kind=kind, at=at, device=device, params=params)


def _check_telemetry_rows(config: ScenarioConfig, source: str) -> None:
    """Reject a scenario whose telemetry.csv could pass MAX_TELEMETRY_ROWS rows.

    A device writes at most base + amplitude + 9 * noise + 1 packet rows a
    tick (random.gauss stays within 8.6 standard deviations), times the
    factors of the floods on that tick, and an open and a close row per
    heartbeat and per dictionary attempt. The + 1 counts every device
    tick, so the bound caps the simulator's (devices, ticks) arrays too.
    A factor or rate past the cap is rejected whatever its size, so it is
    clamped to just over the cap before it meets a float.
    """
    over = MAX_TELEMETRY_ROWS + 1
    if len(config.devices) * config.duration > MAX_TELEMETRY_ROWS:
        raise ConfigError(
            source, f"devices x duration passes the telemetry cap of {MAX_TELEMETRY_ROWS:.0e} rows"
        )
    interval = config.detector.interval if config.detector else 1
    floods: dict[str, list[AttackSpec]] = {}
    rows = 0.0
    for attack in config.attacks:
        if attack.kind == "traffic_flood":
            floods.setdefault(attack.device, []).append(attack)
        elif attack.kind == "dictionary_attack":
            rows += 2 * min(attack.params["rate"][1] * attack.params["duration"], over)
    for dev in config.devices:
        traffic = dev.traffic
        per_tick = np.full(config.duration, traffic.base + traffic.amplitude + 9 * traffic.noise + 1)
        for flood in floods.get(dev.id, []):
            end = flood.at + flood.params["buckets"] * interval
            per_tick[flood.at : end] *= min(flood.params["factor"], over)
        rows += per_tick.sum() + 2 * -(-config.duration // HEARTBEAT_PERIOD)
    if rows > MAX_TELEMETRY_ROWS:
        raise ConfigError(
            source, f"telemetry could reach {rows:.3g} rows, past the cap of {MAX_TELEMETRY_ROWS:.0e}"
        )


def _parse_deception(obj: dict, path: str, devices: tuple[DeviceSpec, ...]) -> DeceptionSpec:
    _check_keys(obj, path, {"canary_ports", "mtd"})
    ports = _field(obj, path, "canary_ports", list, [])
    for i, port in enumerate(ports):
        if not isinstance(port, int) or isinstance(port, bool) or not 1 <= port <= 65535:
            raise ConfigError(f"{path}.canary_ports[{i}]", "expected a port number")
        for device in devices:
            if port in device.legitimate_ports:
                raise ConfigError(
                    f"{path}.canary_ports[{i}]",
                    f"port {port} is a legitimate service on {device.id!r}",
                )
    mtd = None
    if obj.get("mtd") is not None:
        mobj = _field(obj, path, "mtd", dict)
        _check_keys(mobj, f"{path}.mtd", {"rotation_interval", "address_pool"})
        interval = _field(mobj, f"{path}.mtd", "rotation_interval", int)
        if interval < 1:
            raise ConfigError(f"{path}.mtd.rotation_interval", "must be positive")
        pool = _field(mobj, f"{path}.mtd", "address_pool", list)
        for i, address in enumerate(pool):
            if not isinstance(address, str):
                raise ConfigError(f"{path}.mtd.address_pool[{i}]", "expected an address string")
        if not pool or len(set(pool)) != len(pool):
            raise ConfigError(f"{path}.mtd.address_pool", "must be non-empty and unique")
        if len(pool) < len(devices):
            raise ConfigError(f"{path}.mtd.address_pool", "smaller than the device count")
        mtd = MtdSpec(rotation_interval=interval, address_pool=tuple(pool))
    return DeceptionSpec(canary_ports=tuple(ports), mtd=mtd)


def parse_scenario(obj: dict, source: str = "scenario") -> ScenarioConfig:
    if not isinstance(obj, dict):
        raise ConfigError(source, "top level must be an object")
    _check_keys(
        obj,
        source,
        {"seed", "duration", "devices", "links", "detector", "updates", "attacks", "deception", "admin"},
    )
    seed = _field(obj, source, "seed", int)
    duration = _field(obj, source, "duration", int)
    if duration < 1:
        raise ConfigError(f"{source}.duration", "must be positive")

    devices = []
    seen_ids: set[str] = set()
    for i, dev_obj in enumerate(_field(obj, source, "devices", list, [])):
        if not isinstance(dev_obj, dict):
            raise ConfigError(f"{source}.devices[{i}]", "expected an object")
        spec = _parse_device(dev_obj, f"{source}.devices[{i}]")
        if spec.id in seen_ids:
            raise ConfigError(f"{source}.devices[{i}].id", f"duplicate device id {spec.id!r}")
        seen_ids.add(spec.id)
        devices.append(spec)

    link = _parse_link(_field(obj, source, "links", dict, {}), f"{source}.links")

    detector = None
    if obj.get("detector", {}) is not None:
        detector = _parse_detector(
            _field(obj, source, "detector", dict, {}), f"{source}.detector", duration
        )

    updates = []
    for i, upd_obj in enumerate(_field(obj, source, "updates", list, [])):
        if not isinstance(upd_obj, dict):
            raise ConfigError(f"{source}.updates[{i}]", "expected an object")
        updates.append(_parse_update(upd_obj, f"{source}.updates[{i}]", duration))

    deception = _parse_deception(
        _field(obj, source, "deception", dict, {}), f"{source}.deception", tuple(devices)
    )

    attacks = []
    for i, atk_obj in enumerate(_field(obj, source, "attacks", list, [])):
        if not isinstance(atk_obj, dict):
            raise ConfigError(f"{source}.attacks[{i}]", "expected an object")
        path = f"{source}.attacks[{i}]"
        attack = _parse_attack(atk_obj, path, duration, seen_ids)
        if attack.kind in ("rollback_replay", "tamper_firmware"):
            if not any(u.at < attack.at for u in updates):
                raise ConfigError(path, f"{attack.kind} needs an update campaign before it")
        if attack.kind == "canary_probe":
            has_image = any(u.plant_canary and u.at <= attack.at for u in updates)
            has_port = bool(deception.canary_ports) and attack.device is not None
            if not (has_image or has_port):
                raise ConfigError(path, "canary_probe needs a planted canary or canary ports")
        attacks.append(attack)

    admin = []
    for i, adm_obj in enumerate(_field(obj, source, "admin", list, [])):
        if not isinstance(adm_obj, dict):
            raise ConfigError(f"{source}.admin[{i}]", "expected an object")
        path = f"{source}.admin[{i}]"
        _check_keys(adm_obj, path, {"at", "action", "device"})
        at = _field(adm_obj, path, "at", int)
        if not 0 <= at < duration:
            raise ConfigError(f"{path}.at", "must be within [0, duration)")
        action = _field(adm_obj, path, "action", str)
        if action not in ("blacklist", "deprovision"):
            raise ConfigError(f"{path}.action", f"unknown action {action!r}")
        device = _field(adm_obj, path, "device", str)
        if device not in seen_ids:
            raise ConfigError(f"{path}.device", f"unknown device {device!r}")
        admin.append(AdminAction(at=at, action=action, device=device))

    config = ScenarioConfig(
        seed=seed,
        duration=duration,
        devices=tuple(devices),
        link=link,
        detector=detector,
        updates=tuple(updates),
        attacks=tuple(attacks),
        deception=deception,
        admin=tuple(admin),
    )
    if detector is not None and devices:
        baseline_buckets = detector.baseline_ticks // detector.interval
        exclusion = detector.exclusion or default_exclusion(detector.window)
        if baseline_buckets < detector.window + exclusion + 1:
            raise ConfigError(
                f"{source}.detector.baseline_ticks",
                "too short for the profile window and exclusion zone",
            )
    for i, update in enumerate(updates):
        # manifest bytes plus framing never exceed this slack over the image
        payload_bound = update.size + 16 + 512
        frames_needed = -(-payload_bound // (link.mtu - 4))
        if frames_needed > MAX_FRAGMENTS:
            raise ConfigError(
                f"{source}.updates[{i}].size",
                f"firmware needs ~{frames_needed} fragments at mtu {link.mtu}, cap is {MAX_FRAGMENTS}",
            )
    _check_telemetry_rows(config, source)
    return config


def load_scenario(path: str | Path) -> ScenarioConfig:
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(str(path), f"not valid JSON: {exc}") from exc
    return parse_scenario(obj, source=str(path))


# --- engine -----------------------------------------------------------------


@dataclass
class _Campaign:
    spec: UpdateSpec
    manifest: FirmwareManifest
    firmware: bytes
    canary: CanaryToken | None
    debug_meta: dict


class FleetSimulation:
    """One scenario run. Build, call run(), keep the report."""

    def __init__(self, config: ScenarioConfig):
        self.cfg = config
        self.now = 0
        self._heap: list = []
        self._seq = 0
        self._mid = 0  # rolling fragment message id
        self._row = {d.id: row for row, d in enumerate(config.devices)}  # telemetry row

        # inbound packets and sessions per device and tick; a session opens
        # and closes in its tick, so one array is both of those columns
        shape = (len(config.devices), config.duration)
        self._packets = np.zeros(shape, np.int64)
        self._sessions = np.zeros(shape, np.int64)
        counts = TelemetryCounts.dense(tuple(self._row), np.arange(config.duration), {
            (EventKind.PACKET, Direction.INBOUND): self._packets,
            (EventKind.SESSION_OPEN, Direction.INBOUND): self._sessions,
            (EventKind.SESSION_CLOSE, Direction.INBOUND): self._sessions,
        })
        self.report = ScenarioReport(config, counts)
        seed = config.seed
        self.keystore = Keystore(seed)
        self.keystore.generate_key("publisher")
        self.keystore.generate_key("tsa-root")
        self.publisher = self.keystore.handle("publisher")
        self.tsa = TimestampAuthority(self.keystore, "tsa-root")
        self.registry = DeviceRegistry(seed)
        self.link = SimLink(
            config.link.mtu, config.link.latency, config.link.drop_rate, rng_stream(seed, "link")
        )
        self._interrupt_rng = rng_stream(seed, "interrupts")
        self._canary_rng = rng_stream(seed, "deception:canary")
        self._mtd_rng = rng_stream(seed, "deception:mtd")
        self._attack_rng = {
            i: rng_stream(seed, f"attack:{a.kind}:{i}") for i, a in enumerate(config.attacks)
        }

        # duty cycle decided up front so traffic draws stay in one stream
        self._on_grid: dict[str, list[bool]] = {}
        for dev in config.devices:
            if dev.duty_cycle >= 1.0:
                self._on_grid[dev.id] = [True] * config.duration
            else:
                duty_rng = rng_stream(seed, f"duty:{dev.id}")
                self._on_grid[dev.id] = [
                    duty_rng.random() < dev.duty_cycle for _ in range(config.duration)
                ]

        self.update_states: dict[str, DeviceUpdateState] = {}
        self.ports: dict[str, PortCanaries] = {}
        self.observations: list[tuple[str, str, int]] = []
        self.campaigns: list[_Campaign] = []
        self.last_accepted: dict[str, tuple[FirmwareManifest, bytes]] = {}
        self.mtd_schedule = None

    # - plumbing -

    def event(self, actor: str, kind: str, detail: dict) -> None:
        self.report.events.append(EventRow(self.now, actor, kind, detail))

    def schedule(self, time: int, handler, *args) -> None:
        if time >= self.cfg.duration:
            return
        heapq.heappush(self._heap, (time, self._seq, handler, args))
        self._seq += 1

    def _next_mid(self) -> int:
        mid = self._mid
        self._mid = (self._mid + 1) % 65536
        return mid

    # - run -

    def run(self) -> ScenarioReport:
        self._provision_all()
        self._fill_traffic()
        for index, update in enumerate(self.cfg.updates):
            self.schedule(update.at, self._run_campaign, index)
        for index, attack in enumerate(self.cfg.attacks):
            self.schedule(attack.at, self._start_attack, index)
        for action in self.cfg.admin:
            self.schedule(action.at, self._admin_action, action)
        if self.cfg.deception.mtd is not None and self.cfg.devices:
            self._init_mtd()

        while self._heap:
            time, _, handler, args = heapq.heappop(self._heap)
            self.now = time
            handler(*args)

        self.now = self.cfg.duration
        self._boot_stragglers()
        self._detector_pass()
        clone_flagged = self._clone_pass()
        self._final_device_states(clone_flagged)
        return self.report

    def _boot_stragglers(self) -> None:
        """Devices caught mid-update reboot into their last verified slot."""
        for dev in self.cfg.devices:
            state = self.update_states[dev.id]
            if state.mode is DeviceMode.UPDATING:
                booted, slot = boot(state)
                self.update_states[dev.id] = booted
                self.event(
                    "fleet",
                    "boot_fallback",
                    {
                        "device": dev.id,
                        "slot": None if slot is None else slot.value,
                        "version": booted.active().version,
                    },
                )

    # - setup phases -

    def _provision_all(self) -> None:
        for dev in self.cfg.devices:
            self.registry.register_device(dev.id, dev.secret.encode("utf-8"))
            self.event("registry", "device_registered", {"device": dev.id})
            session = self.registry.device_connect(dev.id, 0)
            self.registry.claim(
                session, ClaimRequest(user=dev.owner, device_id=dev.id, secret=dev.secret.encode("utf-8"))
            )
            self.event("registry", "device_claimed", {"device": dev.id, "owner": dev.owner})
            self.observations.append((dev.id, "home", 0))

            image = make_firmware(dev.firmware_version, 4096)
            self.update_states[dev.id] = initial_state(
                image_digest=hashlib.sha256(image).digest(),
                version=dev.firmware_version,
                trust_anchor_tsa=self.tsa.public_key,
                trust_anchor_publisher=self.publisher.public,
                gen_time=0,
            )

            table = PortCanaries(dev.id, dev.legitimate_ports)
            for port in self.cfg.deception.canary_ports:
                table.open_canary_port(port)
            self.ports[dev.id] = table
        if self.cfg.deception.canary_ports and self.cfg.devices:
            self.event(
                "deception",
                "canary_ports_opened",
                {"ports": list(self.cfg.deception.canary_ports)},
            )

    def _init_mtd(self) -> None:
        mtd = self.cfg.deception.mtd
        self.mtd_schedule = make_schedule(
            mtd.rotation_interval,
            mtd.address_pool,
            [d.id for d in self.cfg.devices],
            self._mtd_rng,
        )
        self.event(
            "deception", "mtd_assigned", {"assignment": dict(sorted(self.mtd_schedule.assignment.items()))}
        )
        for t in range(mtd.rotation_interval, self.cfg.duration, mtd.rotation_interval):
            self.schedule(t, self._rotate_mtd)

    # - device traffic -

    def _fill_traffic(self) -> None:
        for row, dev in enumerate(self.cfg.devices):
            rng = rng_stream(self.cfg.seed, f"device:{dev.id}")
            traffic = dev.traffic
            for t in np.flatnonzero(self._on_grid[dev.id]).tolist():
                count = traffic.base + traffic.amplitude * math.sin(
                    2 * math.pi * (t % traffic.period) / traffic.period
                )
                if traffic.noise > 0:
                    count += rng.gauss(0, traffic.noise)
                self._packets[row, t] = max(0, round(count))
                if t % HEARTBEAT_PERIOD == 0:
                    self._sessions[row, t] = 1
                    self.observations.append((dev.id, "home", t))

    # - update campaigns -

    def _run_campaign(self, index: int) -> None:
        spec = self.cfg.updates[index]
        firmware = make_firmware(spec.version, spec.size)
        canary = None
        if spec.plant_canary:
            firmware, canary = plant_canary(firmware, self._canary_rng)
        manifest = build_manifest(
            firmware,
            spec.firmware_id,
            spec.version,
            spec.expiry,
            self.publisher,
            self.tsa,
            now=self.now,
        )
        debug_meta = {"image_size": len(firmware)}
        if spec.feint_regions:
            debug_meta = attach_feint_patch(debug_meta, spec.feint_regions)
            self.event(
                "publisher",
                "feint_patches_attached",
                {"firmware_id": spec.firmware_id, "count": len(spec.feint_regions)},
            )
        self.campaigns.append(_Campaign(spec, manifest, firmware, canary, debug_meta))
        self.event(
            "publisher",
            "manifest_published",
            {
                "firmware_id": spec.firmware_id,
                "version": spec.version,
                "expiry": spec.expiry,
                "digest": manifest.digest.hex()[:16],
                "canary_planted": canary is not None,
            },
        )
        campaign_index = len(self.campaigns) - 1
        for dev in self.cfg.devices:
            self.schedule(
                self.now + self.link.latency, self._deliver_update, dev, campaign_index, 1
            )

    def _deliver_update(self, dev: DeviceSpec, campaign_index: int, attempt: int) -> None:
        t = self.now
        campaign = self.campaigns[campaign_index]
        spec = campaign.spec
        if self.registry.record(dev.id).status is Status.BLACKLISTED:
            self.event(
                "fleet",
                "update_skipped",
                {"device": dev.id, "firmware_id": spec.firmware_id, "reason": "Blacklisted"},
            )
            return

        payload = lp(campaign.manifest.encode()) + lp(campaign.firmware)
        frames = fragment(payload, self.link.mtu, self._next_mid())
        arrived = self.link.deliver(frames)
        if len(arrived) < len(frames):
            self.event(
                "link",
                "frames_dropped",
                {"device": dev.id, "missing": len(frames) - len(arrived), "attempt": attempt},
            )
            self._schedule_retry(dev, campaign_index, attempt, spec.retry_interval)
            return

        reader = Reader(reassemble(arrived))
        manifest = decode_manifest(reader.lp())
        firmware = reader.lp()
        reader.expect_end()

        if not self._on_grid[dev.id][t]:
            state = interrupt_update(
                self.update_states[dev.id], manifest, firmware, self._interrupt_rng.random()
            )
            self.update_states[dev.id] = state
            self.event(
                "fleet",
                "update_interrupted",
                {"device": dev.id, "firmware_id": spec.firmware_id, "attempt": attempt},
            )
            self._schedule_retry(dev, campaign_index, attempt, spec.retry_interval)
            return

        self._apply_manifest(dev.id, manifest, firmware, actor="fleet")

    def _schedule_retry(
        self, dev: DeviceSpec, campaign_index: int, attempt: int, retry_interval: int
    ) -> None:
        when = self.now + retry_interval
        if when < self.cfg.duration:
            self.schedule(when, self._deliver_update, dev, campaign_index, attempt + 1)
        else:
            self.event(
                "fleet",
                "update_abandoned",
                {"device": dev.id, "attempts": attempt},
            )

    def _apply_manifest(
        self, device_id: str, manifest: FirmwareManifest, firmware: bytes, actor: str
    ) -> None:
        rejections: list[RejectionRecord] = []
        state = self.update_states[device_id]
        new_state = apply_update(state, manifest, firmware, self.now, rejections)
        if rejections:
            record = rejections[0]
            self.event(
                actor,
                "update_rejected",
                {
                    "device": device_id,
                    "firmware_id": record.firmware_id,
                    "version": record.version,
                    "reason": record.reason,
                },
            )
            self.update_states[device_id] = new_state
            return
        self.last_accepted[device_id] = (manifest, firmware)
        booted_state, slot = boot(new_state)
        self.update_states[device_id] = booted_state
        self.event(
            actor,
            "update_applied",
            {
                "device": device_id,
                "firmware_id": manifest.firmware_id,
                "version": manifest.version,
                "slot": slot.value,
            },
        )

    # - attacks -

    def _start_attack(self, index: int) -> None:
        attack = self.cfg.attacks[index]
        handler = getattr(self, f"_attack_{attack.kind}")
        handler(index, attack)

    def _attack_rollback_replay(self, index: int, attack: AttackSpec) -> None:
        actor = f"attacker:rollback_replay:{index}"
        stored = self.last_accepted.get(attack.device)
        if stored is None:
            self.event(actor, "attack_noop", {"reason": "no accepted manifest to replay"})
            return
        manifest, firmware = stored
        self.event(
            actor,
            "replay_attempted",
            {"device": attack.device, "version": manifest.version},
        )
        self._apply_manifest(attack.device, manifest, firmware, actor=actor)

    def _attack_tamper_firmware(self, index: int, attack: AttackSpec) -> None:
        actor = f"attacker:tamper_firmware:{index}"
        campaign = self.campaigns[-1]
        rng = self._attack_rng[index]
        firmware = bytearray(campaign.firmware)
        position = rng.randrange(len(firmware))
        firmware[position] ^= 0xFF
        self.event(
            actor,
            "tamper_attempted",
            {"device": attack.device, "firmware_id": campaign.spec.firmware_id, "offset": position},
        )
        self._apply_manifest(attack.device, campaign.manifest, bytes(firmware), actor=actor)

    def _attack_identity_theft(self, index: int, attack: AttackSpec) -> None:
        actor = f"attacker:identity_theft:{index}"
        span = attack.params["duration"]
        end = min(attack.at + span, self.cfg.duration)
        for t in range(attack.at, end):
            self.observations.append((attack.device, "attacker-net", t))
        self.event(
            actor,
            "identity_theft_started",
            {"device": attack.device, "from": attack.at, "until": end},
        )

    def _attack_dictionary_attack(self, index: int, attack: AttackSpec) -> None:
        actor = f"attacker:dictionary_attack:{index}"
        self.event(
            actor,
            "dictionary_attack_started",
            {"device": attack.device, "duration": attack.params["duration"]},
        )
        self._dictionary_tick(index, attack, attack.params["duration"])

    def _dictionary_tick(self, index: int, attack: AttackSpec, remaining: int) -> None:
        if remaining <= 0:
            return
        t = self.now
        rng = self._attack_rng[index]
        lo, hi = attack.params["rate"]
        attempts = rng.randint(lo, hi)
        true_secret = self.cfg.devices[self._row[attack.device]].secret.encode("utf-8")
        actor = f"attacker:dictionary_attack:{index}"
        mismatches = 0
        for _ in range(attempts):
            guess = rng.randbytes(6)
            if guess == true_secret:  # the true secret is out of the dictionary
                guess += b"?"
            try:
                session = self.registry.device_connect(attack.device, t)
            except BlacklistedError:
                self.event(actor, "connect_refused", {"device": attack.device, "reason": "Blacklisted"})
                return
            try:
                self.registry.claim(
                    session,
                    ClaimRequest(user=f"mirai-{index}", device_id=attack.device, secret=guess),
                )
            except SecretMismatchError:
                mismatches += 1
            self._sessions[self._row[attack.device], t] += 1
        if attempts:
            self.event(
                actor,
                "claim_rejected",
                {"device": attack.device, "attempts": attempts, "mismatches": mismatches,
                 "reason": "SecretMismatch"},
            )
        self.schedule(t + 1, self._dictionary_tick, index, attack, remaining - 1)

    def _attack_traffic_flood(self, index: int, attack: AttackSpec) -> None:
        actor = f"attacker:traffic_flood:{index}"
        interval = self.cfg.detector.interval if self.cfg.detector else 1
        start = attack.at
        end = attack.at + attack.params["buckets"] * interval
        self._packets[self._row[attack.device], start:end] *= attack.params["factor"]
        self.event(
            actor,
            "traffic_flood_started",
            {"device": attack.device, "from": start, "until": end, "factor": attack.params["factor"]},
        )

    def _attack_canary_probe(self, index: int, attack: AttackSpec) -> None:
        actor = f"attacker:canary_probe:{index}"
        hits = 0
        for campaign in self.campaigns:
            if campaign.canary is None:
                continue
            alert = check_access(
                campaign.canary,
                (0, len(campaign.firmware), self.now, actor),
                device_id=attack.device or "",
            )
            if alert is not None:
                self.report.alerts.append(alert)
                hits += 1
        if attack.device is not None:
            table = self.ports[attack.device]
            for port in table.canary_ports():
                alert = table.record_connection(port, actor, self.now)
                if alert is not None:
                    self.report.alerts.append(alert)
                    hits += 1
        self.event(
            actor,
            "canary_probe",
            {"device": attack.device, "alerts": hits},
        )

    # - admin -

    def _admin_action(self, action: AdminAction) -> None:
        if action.action == "blacklist":
            self.registry.blacklist(action.device)
            self.event("admin", "device_blacklisted", {"device": action.device})
        else:
            self.registry.deprovision(action.device)
            self.event("admin", "device_deprovisioned", {"device": action.device})

    def _rotate_mtd(self) -> None:
        self.mtd_schedule = mtd_rotate(self.mtd_schedule, self.now, self._mtd_rng)
        self.event(
            "deception",
            "mtd_rotated",
            {"assignment": dict(sorted(self.mtd_schedule.assignment.items()))},
        )

    # - end-of-run analysis -

    def _detector_pass(self) -> None:
        det = self.cfg.detector
        if det is None or not self.cfg.devices:
            return
        config = det.to_config()
        baseline_buckets = det.baseline_ticks // det.interval
        devices = sorted(self._row)
        for first in range(0, len(devices), _DETECTOR_BLOCK):
            block = devices[first : first + _DETECTOR_BLOCK]
            rows = [self._row[dev] for dev in block]
            found: dict[tuple[str, Metric], list] = {}
            for metric in det.metrics:
                values = self.report.telemetry.bucket(rows, metric, det.interval, 0, self.cfg.duration)
                baselines = compute_many(values[:, :baseline_buckets], config.profile_config)
                profiles = compute_many(values, config.profile_config)
                for dev, row, base, profile in zip(block, values, baselines, profiles):
                    series = TelemetrySeries(dev, metric, det.interval, tuple(row.tolist()), 0)
                    threshold = threshold_from_distances(
                        base.distances, config.quantile, config.margin
                    )
                    found[dev, metric] = reports_from_profile(series, profile, threshold)
            for dev in block:
                for metric in det.metrics:
                    reports = found[dev, metric]
                    self.report.anomalies.extend(reports)
                    if reports:
                        self.event(
                            "detector",
                            "anomalies_found",
                            {"device": dev, "metric": metric.value, "count": len(reports)},
                        )

    def _clone_pass(self) -> list[str]:
        flagged = self.registry.detect_credential_clone(self.observations)
        for device_id in flagged:
            self.event("registry", "credential_clone_flagged", {"device": device_id})
        return flagged

    def _final_device_states(self, clone_flagged: list[str]) -> None:
        assignment = dict(self.mtd_schedule.assignment) if self.mtd_schedule else {}
        for device_id in sorted(d.id for d in self.cfg.devices):
            rec = self.registry.record(device_id)
            state = self.update_states[device_id]
            self.report.devices.append(
                {
                    "device_id": device_id,
                    "status": rec.status.value,
                    "owner": rec.owner,
                    "needs_reprovision": rec.needs_reprovision,
                    "clone_flagged": device_id in clone_flagged,
                    "mode": state.mode.value,
                    "active_slot": state.active_slot.value,
                    "active_version": state.active().version,
                    "active_gen_time": state.active().gen_time,
                    "address": assignment.get(device_id),
                }
            )


def run_scenario(config: ScenarioConfig) -> ScenarioReport:
    return FleetSimulation(config).run()


def simulate_to_dir(config: ScenarioConfig, out_dir: str | Path) -> ScenarioReport:
    report = run_scenario(config)
    write_report(report, out_dir)
    return report

"""Declarative scenario configs and the deterministic fleet simulator.

The engine is a single-threaded event loop over a priority queue keyed
by (time, sequence number). Every random draw comes from a named stream
derived from the scenario seed, one stream per actor, so adding an actor
never perturbs another actor's draws. Running the same config twice
produces byte-identical reports.

A scenario wires together the whole toolkit: devices are registered and
claimed at t=0, generate periodic telemetry while on-grid, receive
update campaigns over a lossy fragmenting link, and suffer scripted
attacks. At the end of the run the detector sets each device's threshold
on a clean prefix and sweeps the full series, and credential-clone
detection runs over all observed sessions.

Telemetry is per-device, per-tick count arrays filled before the event
loop, so the queue holds deliveries, attacks, admin and MTD events only.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import math
import random
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ..deception import (
    CanaryToken,
    PortCanaries,
    check_access,
    make_schedule,
    mtd_rotate,
    plant_canary,
)
from ..detector import DetectorConfig, detect_counts
from ..errors import FleetsecError
from ..identity import BlacklistedError, ClaimRequest, DeviceRegistry, SecretMismatchError, Status
from ..keystore import Keystore
from ..telemetry import MAX_TELEMETRY_ROWS, Direction, EventKind, TelemetryCounts
from ..tsa import TimestampAuthority
from ..update_protocol import (
    DeviceMode,
    DeviceUpdateState,
    FirmwareManifest,
    apply_update,
    boot,
    build_manifest,
    decode_manifest,
    initial_state,
    interrupt_update,
)
from ..wire import U64_MAX, ConfigError, Reader, build, check_u64, load_json, lp, read_spec
from .report import EventRow, ScenarioReport, write_report
from .transport import MAX_FRAGMENTS, SimLink, fragment, reassemble

HEARTBEAT_PERIOD = 20

# Each attack kind's params: name -> (default, least value). rate is a
# [lo, hi] pair, and the least value is lo's. Every name is an AttackSpec field.
_ATTACK_PARAMS = {
    "rollback_replay": {},
    "tamper_firmware": {},
    "identity_theft": {"duration": (30, 1)},
    "dictionary_attack": {"duration": (20, 1), "rate": ((2, 6), 1)},
    "traffic_flood": {"factor": (10, 2), "buckets": (20, 1)},
    "canary_probe": {},
}
ATTACK_KINDS = tuple(_ATTACK_PARAMS)


class UnknownAttackKindError(ConfigError):
    pass


def rng_stream(seed: int, name: str) -> random.Random:
    """Independent RNG derived from (seed, name); order of creation is moot."""
    digest = hashlib.sha256(
        seed.to_bytes(8, "big") + name.encode("utf-8")
    ).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def uniforms(rng: random.Random, n: int) -> np.ndarray:
    """The next n rng.random() values as one float64 array; rng is left where n calls leave it.

    random() joins two Mersenne Twister outputs a, b as
    ((a >> 5) * 2**26 + (b >> 6)) / 2**53, and getrandbits(64 * n) returns
    the same 2n outputs, the first in the lowest 32 bits.
    """
    words = np.frombuffer(rng.getrandbits(64 * n).to_bytes(8 * n, "little"), "<u4")
    return ((words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6)) / 9007199254740992.0


def gauss(rng: random.Random, n: int, sigma: float) -> np.ndarray:
    """n values of rng.gauss(0, sigma), bit for bit, starting from a fresh Box-Muller pair.

    The log, cos and sin are math's, as in random.gauss: numpy's log differs
    from math's in the last bit in about one value in 300, and numpy does not
    promise libm's cos and sin. rng's pending gauss value is neither used
    nor set, so for odd n the last pair's second value is dropped.
    """
    u = uniforms(rng, n + n % 2)
    x2pi = (u[0::2] * (2.0 * math.pi)).tolist()
    pairs = len(x2pi)
    g2rad = np.sqrt(-2.0 * np.fromiter(map(math.log, (1.0 - u[1::2]).tolist()), float, pairs))
    z = np.empty(len(u))
    z[0::2] = np.fromiter(map(math.cos, x2pi), float, pairs) * g2rad
    z[1::2] = np.fromiter(map(math.sin, x2pi), float, pairs) * g2rad
    return z[:n] * sigma


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
#
# Each spec is the schema of its JSON object, read by `read_spec` and
# written by `write_spec` (see `fleetsec.wire`), every field of it, so
# parse_scenario reads back what write_spec writes. Each spec checks its
# own fields in __post_init__ wherever it is built, from a file or in
# Python: a bad value is a ConfigError naming its field. ScenarioConfig
# checks the rules that span sections. A field whose default is None is
# written only when set, and null or absent takes it: an owner, firmware_id,
# attack device or param, and the detector's baseline_ticks, which
# ScenarioConfig sets to half the run. The detector's own default is
# DetectorSpec(), in a file and in Python; null (None) runs none.


def _check_ports(ports: tuple[int, ...], name: str) -> None:
    for i, port in enumerate(ports):
        if not 1 <= port <= 65535:
            raise ConfigError(f"{name}[{i}]", "expected a port number")


@dataclass(frozen=True)
class TrafficSpec:
    period: int = 50
    base: float = 8.0
    amplitude: float = 3.0
    noise: float = 0.8

    def __post_init__(self):
        if self.period < 2:
            raise ConfigError("period", "must be at least 2")
        for name in ("base", "amplitude", "noise"):
            if not 0 <= getattr(self, name) < math.inf:  # NaN fails too
                raise ConfigError(name, "must be finite and non-negative")


@dataclass(frozen=True)
class DeviceSpec:
    id: str
    secret: str
    owner: str | None = None  # user-<id>
    firmware_version: int = 1
    duty_cycle: float = 1.0
    legitimate_ports: tuple[int, ...] = ()
    traffic: TrafficSpec = TrafficSpec()

    def __post_init__(self):
        for name in ("id", "secret"):
            if not getattr(self, name):
                raise ConfigError(name, "must be non-empty")
        if not 0 < self.duty_cycle <= 1:
            raise ConfigError("duty_cycle", "must be in (0, 1]")
        if self.firmware_version < 0:
            raise ConfigError("firmware_version", "must be non-negative")
        _check_ports(self.legitimate_ports, "legitimate_ports")
        if self.owner is None:
            object.__setattr__(self, "owner", f"user-{self.id}")


@dataclass(frozen=True)
class LinkSpec:
    mtu: int = 1024
    latency: int = 0
    drop_rate: float = 0.0

    def __post_init__(self):
        if self.mtu <= 4:
            raise ConfigError("mtu", "must exceed the 4-byte fragment header")
        if self.latency < 0:
            raise ConfigError("latency", "must be non-negative")
        if not 0 <= self.drop_rate < 1:
            raise ConfigError("drop_rate", "must be in [0, 1)")


@dataclass(frozen=True)
class DetectorSpec(DetectorConfig):
    """The detector's settings, and the clean prefix that sets its thresholds."""

    baseline_ticks: int | None = None  # ScenarioConfig makes it duration // 2


class FeintRegion(NamedTuple):
    """A decoy patch over image bytes [offset, offset + length), and its note."""

    offset: int
    length: int
    note: str


@dataclass(frozen=True)
class UpdateSpec:
    at: int
    version: int
    expiry: int
    firmware_id: str | None = None  # fw-v<version>
    size: int = 4096
    plant_canary: bool = False
    feint_regions: tuple[FeintRegion, ...] = ()
    retry_interval: int = 20

    def __post_init__(self):
        if self.version < 1:
            raise ConfigError("version", "must be at least 1")
        if self.expiry <= self.at:
            raise ConfigError("expiry", "must be after the publish tick")
        for name in ("version", "expiry"):  # both travel as u64 in the manifest
            if getattr(self, name) > U64_MAX:
                raise ConfigError(name, "must be at most 2**64 - 1")
        if self.size < 16:
            raise ConfigError("size", "must be at least 16 bytes")
        if self.retry_interval < 1:
            raise ConfigError("retry_interval", "must be positive")
        for i, (offset, length, _) in enumerate(self.feint_regions):
            if offset < 0 or length < 1 or offset + length > self.size:
                raise ConfigError(f"feint_regions[{i}]", "region outside image bounds")
        if self.firmware_id is None:
            object.__setattr__(self, "firmware_id", f"fw-v{self.version}")


@dataclass(frozen=True)
class AttackSpec:
    kind: str
    at: int
    device: str | None = None  # required but for canary_probe
    # the params of its kind, None for the others; an absent one takes its default
    duration: int | None = None
    rate: tuple[int, ...] | None = None  # [lo, hi] attempts a tick
    factor: int | None = None
    buckets: int | None = None

    def __post_init__(self):
        if self.kind not in _ATTACK_PARAMS:
            raise UnknownAttackKindError("kind", f"unknown attack kind {self.kind!r}")
        table = _ATTACK_PARAMS[self.kind]
        if self.device is None and self.kind != "canary_probe":
            raise ConfigError("device", "missing required field")
        for name in ("duration", "rate", "factor", "buckets"):
            value = getattr(self, name)
            if name not in table:
                if value is not None:
                    raise ConfigError(name, "unknown field")
                continue
            default, least = table[name]
            value = default if value is None else value
            if name == "rate":
                if (
                    not isinstance(value, list | tuple)
                    or len(value) != 2
                    or not all(isinstance(r, int) and not isinstance(r, bool) for r in value)
                    or not least <= value[0] <= value[1]
                ):
                    raise ConfigError("rate", "expected [lo, hi] with 1 <= lo <= hi")
                value = tuple(value)
            elif value < least:
                raise ConfigError(name, "must be positive" if least == 1 else f"must be at least {least}")
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class MtdSpec:
    rotation_interval: int
    address_pool: tuple[str, ...]

    def __post_init__(self):
        if self.rotation_interval < 1:
            raise ConfigError("rotation_interval", "must be positive")
        if not self.address_pool or len(set(self.address_pool)) != len(self.address_pool):
            raise ConfigError("address_pool", "must be non-empty and unique")


@dataclass(frozen=True)
class DeceptionSpec:
    canary_ports: tuple[int, ...] = ()
    mtd: MtdSpec | None = None

    def __post_init__(self):
        _check_ports(self.canary_ports, "canary_ports")
        for i, port in enumerate(self.canary_ports):
            if port in self.canary_ports[:i]:
                raise ConfigError(f"canary_ports[{i}]", f"port {port} is listed twice")


@dataclass(frozen=True)
class AdminAction:
    at: int
    action: str
    device: str

    def __post_init__(self):
        if self.action not in ("blacklist", "deprovision"):
            raise ConfigError("action", f"unknown action {self.action!r}")


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int
    duration: int
    devices: tuple[DeviceSpec, ...] = ()
    links: LinkSpec = LinkSpec()
    detector: DetectorSpec | None = DetectorSpec()  # None runs no detector
    updates: tuple[UpdateSpec, ...] = ()
    attacks: tuple[AttackSpec, ...] = ()
    deception: DeceptionSpec = DeceptionSpec()
    admin: tuple[AdminAction, ...] = ()

    def __post_init__(self):
        # the rules that span sections; each spec has checked its own fields
        duration, detector = self.duration, self.detector
        check_u64("seed", self.seed)
        if duration < 1:
            raise ConfigError("duration", "must be positive")
        if detector is not None and detector.baseline_ticks is None:
            detector = replace(detector, baseline_ticks=duration // 2)
            object.__setattr__(self, "detector", detector)
        ids: set[str] = set()
        for i, device in enumerate(self.devices):
            if device.id in ids:
                raise ConfigError(f"devices[{i}].id", f"duplicate device id {device.id!r}")
            ids.add(device.id)
        if detector is not None and not 0 < detector.baseline_ticks <= duration:
            raise ConfigError("detector.baseline_ticks", "must be in (0, duration]")
        for i, update in enumerate(self.updates):
            if not 1 <= update.at < duration:
                raise ConfigError(f"updates[{i}].at", "must be within [1, duration)")
        for i, port in enumerate(self.deception.canary_ports):
            for device in self.devices:
                if port in device.legitimate_ports:
                    raise ConfigError(
                        f"deception.canary_ports[{i}]",
                        f"port {port} is a legitimate service on {device.id!r}",
                    )
        mtd = self.deception.mtd
        if mtd is not None and len(mtd.address_pool) < len(self.devices):
            raise ConfigError("deception.mtd.address_pool", "smaller than the device count")
        for i, attack in enumerate(self.attacks):
            path = f"attacks[{i}]"
            if not 0 <= attack.at < duration:
                raise ConfigError(f"{path}.at", "must be within [0, duration)")
            if attack.device is not None and attack.device not in ids:
                raise ConfigError(f"{path}.device", f"unknown device {attack.device!r}")
            if attack.kind in ("rollback_replay", "tamper_firmware"):
                if not any(u.at < attack.at for u in self.updates):
                    raise ConfigError(path, f"{attack.kind} needs an update campaign before it")
            if attack.kind == "canary_probe":
                has_image = any(u.plant_canary and u.at <= attack.at for u in self.updates)
                has_port = bool(self.deception.canary_ports) and attack.device is not None
                if not (has_image or has_port):
                    raise ConfigError(path, "canary_probe needs a planted canary or canary ports")
        for i, action in enumerate(self.admin):
            if not 0 <= action.at < duration:
                raise ConfigError(f"admin[{i}].at", "must be within [0, duration)")
            if action.device not in ids:
                raise ConfigError(f"admin[{i}].device", f"unknown device {action.device!r}")
        # the registry holds the lifecycle rules: replay the admin actions in run
        # order (tick, then index) on the devices they name, claimed at tick 0
        registry = DeviceRegistry()
        for device_id in {action.device for action in self.admin}:
            registry.register_device(device_id, b"-")
            registry.claim(registry.device_connect(device_id, 0), ClaimRequest("-", device_id, b"-"))
        for i in sorted(range(len(self.admin)), key=lambda i: self.admin[i].at):
            try:
                getattr(registry, self.admin[i].action)(self.admin[i].device)
            except FleetsecError as exc:
                raise ConfigError(f"admin[{i}]", str(exc)) from None
        if detector is not None and self.devices:
            if detector.baseline_ticks // detector.interval < detector.profile_config.min_length:
                raise ConfigError(
                    "detector.baseline_ticks", "too short for the profile window and exclusion zone"
                )
        mtu = self.links.mtu
        for i, update in enumerate(self.updates):
            # manifest bytes plus framing never exceed this slack over the image and id
            payload_bound = update.size + len(update.firmware_id.encode("utf-8")) + 16 + 512
            frames_needed = -(-payload_bound // (mtu - 4))
            if frames_needed > MAX_FRAGMENTS:
                raise ConfigError(
                    f"updates[{i}].size",
                    f"firmware needs ~{frames_needed} fragments at mtu {mtu}, cap is {MAX_FRAGMENTS}",
                )
        _check_telemetry_rows(self)


def _check_telemetry_rows(config: ScenarioConfig) -> None:
    """Reject a scenario whose telemetry.csv could pass MAX_TELEMETRY_ROWS rows.

    A device writes at most base + amplitude + 9 * noise + 1 packet rows a
    tick (random.gauss stays within 8.6 standard deviations), times the
    factors of the floods on that tick, and an open and a close row per
    heartbeat and per dictionary attempt. The + 1 counts every device
    tick, so the bound caps the simulator's (devices, ticks) arrays too.
    A run without devices counts one row a tick, as the simulator still
    holds an array of its ticks. A factor or rate past the cap is rejected
    whatever its size, so it is clamped to just over the cap before it
    meets a float.
    """
    over = MAX_TELEMETRY_ROWS + 1
    if max(len(config.devices), 1) * config.duration > MAX_TELEMETRY_ROWS:
        raise ConfigError(
            "", f"devices x duration passes the telemetry cap of {MAX_TELEMETRY_ROWS:.0e} rows"
        )
    interval = config.detector.interval if config.detector else 1
    floods: dict[str, list[AttackSpec]] = {}
    rows = 0.0
    for attack in config.attacks:
        if attack.kind == "traffic_flood":
            floods.setdefault(attack.device, []).append(attack)
        elif attack.kind == "dictionary_attack":
            rows += 2 * min(attack.rate[1] * attack.duration, over)
    for dev in config.devices:
        traffic = dev.traffic
        per_tick = np.full(config.duration, traffic.base + traffic.amplitude + 9 * traffic.noise + 1)
        for flood in floods.get(dev.id, []):
            end = flood.at + flood.buckets * interval
            per_tick[flood.at : end] *= min(flood.factor, over)
        rows += per_tick.sum() + 2 * -(-config.duration // HEARTBEAT_PERIOD)
    if rows > MAX_TELEMETRY_ROWS:
        raise ConfigError(
            "", f"telemetry could reach {rows:.3g} rows, past the cap of {MAX_TELEMETRY_ROWS:.0e}"
        )


# --- config parsing ---------------------------------------------------------


def parse_scenario(obj: dict, source: str = "scenario") -> ScenarioConfig:
    """The scenario in obj; an absent detector is the default detector, and null is none."""
    return build(ScenarioConfig, source, **read_spec(ScenarioConfig, obj, source))


def load_scenario(path: str | Path) -> ScenarioConfig:
    return parse_scenario(load_json(path), source=str(path))


# --- engine -----------------------------------------------------------------


@dataclass
class _Campaign:
    spec: UpdateSpec
    manifest: FirmwareManifest
    firmware: bytes
    canary: CanaryToken | None
    frames: list[bytes]  # what the link carries: the encoded manifest, then the image


class FleetSimulation:
    """One scenario run. Build, call run(), keep the report."""

    def __init__(self, config: ScenarioConfig):
        self.cfg = config
        self.now = 0
        self._heap: list = []
        self._seq = 0
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
        self.report = ScenarioReport(counts)
        seed = config.seed
        self.keystore = Keystore(seed)
        self.keystore.generate_key("publisher")
        self.keystore.generate_key("tsa-root")
        self.publisher = self.keystore.handle("publisher")
        self.tsa = TimestampAuthority(self.keystore, "tsa-root")
        self.registry = DeviceRegistry(seed)
        self.link = SimLink(
            config.links.mtu, config.links.latency, config.links.drop_rate, rng_stream(seed, "link")
        )
        self._interrupt_rng = rng_stream(seed, "interrupts")
        self._canary_rng = rng_stream(seed, "deception:canary")
        self._mtd_rng = rng_stream(seed, "deception:mtd")
        self._attack_rng = {
            i: rng_stream(seed, f"attack:{a.kind}:{i}") for i, a in enumerate(config.attacks)
        }

        # duty cycle decided up front so traffic draws stay in one stream
        self._on_grid = np.ones(shape, bool)  # whether each device row is on-grid at each tick
        for row, dev in enumerate(config.devices):
            if dev.duty_cycle < 1.0:
                duty_rng = rng_stream(seed, f"duty:{dev.id}")
                self._on_grid[row] = uniforms(duty_rng, config.duration) < dev.duty_cycle

        self.update_states: dict[str, DeviceUpdateState] = {}
        self.ports: dict[str, PortCanaries] = {}
        self.observations: list[tuple[str, str, int]] = []
        self.campaigns: list[_Campaign] = []
        self.last_accepted: dict[str, tuple[FirmwareManifest, bytes]] = {}
        # frames still missing after a lossy delivery, by (device, campaign); the
        # next attempt sends only these, and any other outcome drops the entry
        self.missing_fragments: dict[tuple[str, int], list[bytes]] = {}
        self.mtd_schedule = None

    # - plumbing -

    def event(self, actor: str, kind: str, detail: dict) -> None:
        self.report.events.append(EventRow(self.now, actor, kind, detail))

    def schedule(self, time: int, handler, *args) -> None:
        if time >= self.cfg.duration:
            return
        heapq.heappush(self._heap, (time, self._seq, handler, args))
        self._seq += 1

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
        versions = {dev.firmware_version for dev in self.cfg.devices}
        factory_digests = {v: hashlib.sha256(make_firmware(v, 4096)).digest() for v in versions}
        for dev in self.cfg.devices:
            self.registry.register_device(dev.id, dev.secret.encode("utf-8"))
            self.event("registry", "device_registered", {"device": dev.id})
            session = self.registry.device_connect(dev.id, 0)
            self.registry.claim(
                session, ClaimRequest(user=dev.owner, device_id=dev.id, secret=dev.secret.encode("utf-8"))
            )
            self.event("registry", "device_claimed", {"device": dev.id, "owner": dev.owner})
            self.observations.append((dev.id, "home", 0))

            self.update_states[dev.id] = initial_state(
                image_digest=factory_digests[dev.firmware_version],
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
        duration, on = self.cfg.duration, self._on_grid
        waves: dict[TrafficSpec, np.ndarray] = {}  # each shape's value at every tick
        for row, dev in enumerate(self.cfg.devices):
            traffic = dev.traffic
            if traffic not in waves:
                period = traffic.period
                phases = [
                    traffic.base + traffic.amplitude * math.sin(2 * math.pi * p / period)
                    for p in range(min(period, duration))
                ]
                waves[traffic] = np.array(phases)[np.arange(duration) % len(phases)]
            counts = waves[traffic][on[row]]
            if traffic.noise > 0:  # one draw per on tick, in tick order
                rng = rng_stream(self.cfg.seed, f"device:{dev.id}")
                counts += gauss(rng, len(counts), traffic.noise)
            self._packets[row, on[row]] = np.maximum(0.0, np.rint(counts))  # half to even, as round
        beats = on[:, ::HEARTBEAT_PERIOD]
        self._sessions[:, ::HEARTBEAT_PERIOD] = beats
        rows, beat = np.nonzero(beats)
        ids = [dev.id for dev in self.cfg.devices]
        self.observations.extend(
            (ids[r], "home", b * HEARTBEAT_PERIOD) for r, b in zip(rows.tolist(), beat.tolist())
        )

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
        if spec.feint_regions:
            self.event(
                "publisher",
                "feint_patches_attached",
                {"firmware_id": spec.firmware_id, "count": len(spec.feint_regions)},
            )
        campaign_index = len(self.campaigns)
        frames = fragment(lp(manifest.encode()) + lp(firmware), self.link.mtu, campaign_index % 65536)
        # the link only drops frames, so every complete delivery decodes to these
        reader = Reader(reassemble(frames))
        decoded = (decode_manifest(reader.lp()), reader.lp())
        reader.expect_end()
        if decoded != (manifest, firmware):
            raise AssertionError(f"campaign {campaign_index} frames do not decode to its update")
        self.campaigns.append(_Campaign(spec, manifest, firmware, canary, frames))
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
        for dev in self.cfg.devices:
            self.schedule(
                self.now + self.link.latency, self._deliver_update, dev, campaign_index, 1
            )

    def _deliver_update(self, dev: DeviceSpec, campaign_index: int, attempt: int) -> None:
        t = self.now
        campaign = self.campaigns[campaign_index]
        spec = campaign.spec
        missing = self.missing_fragments.pop((dev.id, campaign_index), None)
        if self.registry.record(dev.id).status is Status.BLACKLISTED:
            self.event(
                "fleet",
                "update_skipped",
                {"device": dev.id, "firmware_id": spec.firmware_id, "reason": "Blacklisted"},
            )
            return

        frames = campaign.frames if missing is None else missing
        arrived = self.link.deliver(frames)
        if len(arrived) < len(frames):
            got = set(arrived)  # each frame's header names its fragment, so no two are equal
            self.missing_fragments[dev.id, campaign_index] = [f for f in frames if f not in got]
            self.event(
                "link",
                "frames_dropped",
                {"device": dev.id, "missing": len(frames) - len(arrived), "attempt": attempt},
            )
            self._schedule_retry(dev, campaign_index, attempt, spec.retry_interval)
            return

        if not self._on_grid[self._row[dev.id], t]:  # the install is lost; the retry sends every frame
            state = interrupt_update(
                self.update_states[dev.id],
                campaign.manifest,
                campaign.firmware,
                self._interrupt_rng.random(),
            )
            self.update_states[dev.id] = state
            self.event(
                "fleet",
                "update_interrupted",
                {"device": dev.id, "firmware_id": spec.firmware_id, "attempt": attempt},
            )
            self._schedule_retry(dev, campaign_index, attempt, spec.retry_interval)
            return

        self._apply_manifest(dev.id, campaign.manifest, campaign.firmware, actor="fleet")

    def _schedule_retry(
        self, dev: DeviceSpec, campaign_index: int, attempt: int, retry_interval: int
    ) -> None:
        when = self.now + retry_interval
        if when < self.cfg.duration:
            self.schedule(when, self._deliver_update, dev, campaign_index, attempt + 1)
        else:
            self.missing_fragments.pop((dev.id, campaign_index), None)
            self.event(
                "fleet",
                "update_abandoned",
                {"device": dev.id, "attempts": attempt},
            )

    def _apply_manifest(
        self, device_id: str, manifest: FirmwareManifest, firmware: bytes, actor: str
    ) -> None:
        new_state, verdict = apply_update(self.update_states[device_id], manifest, firmware, self.now)
        if not verdict.accepted:
            self.event(
                actor,
                "update_rejected",
                {
                    "device": device_id,
                    "firmware_id": manifest.firmware_id,
                    "version": manifest.version,
                    "reason": verdict.reason.value,
                },
            )
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
        end = min(attack.at + attack.duration, self.cfg.duration)
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
            {"device": attack.device, "duration": attack.duration},
        )
        self._dictionary_tick(index, attack, attack.duration)

    def _dictionary_tick(self, index: int, attack: AttackSpec, remaining: int) -> None:
        if remaining <= 0:
            return
        t = self.now
        rng = self._attack_rng[index]
        lo, hi = attack.rate
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
        end = attack.at + attack.buckets * interval
        self._packets[self._row[attack.device], start:end] *= attack.factor
        self.event(
            actor,
            "traffic_flood_started",
            {"device": attack.device, "from": start, "until": end, "factor": attack.factor},
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
        if det is None:
            return
        rows = [self._row[dev] for dev in sorted(self._row)]
        reports = detect_counts(det, self.report.telemetry, rows, (0, self.cfg.duration), det.baseline_ticks)
        self.report.anomalies.extend(reports)
        for (dev, metric), found in itertools.groupby(reports, lambda r: (r.device_id, r.metric)):
            self.event(
                "detector",
                "anomalies_found",
                {"device": dev, "metric": metric, "count": sum(1 for _ in found)},
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

"""Builders shared across protocol tests.

A tiny two-key PKI, deterministic firmware images, an independent
re-derivation of the device verification order, a randomized
adversarial trace runner for the update state machine, and a per-event
telemetry reference: one `ConnectionEvent` per CSV row, bucketed one
event at a time, against which the library's columnar counts are
checked; a per-series detector (`calibrate`, `detect`), against which
the library's batched `detect_counts` is checked; a per-tick traffic
fill, against which the simulator's per-device fill is checked; and a
flooded-fleet scenario with a runner that feeds a simulate run's
telemetry to `fleetsec detect`; a scenario that sets every field; and
the JSON and sequence edits the fuzz tests apply to valid inputs.
"""

from __future__ import annotations

import bisect
import copy
import csv
import functools
import hashlib
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, TextIO

import numpy as np
from hypothesis import strategies as st
from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PublicKey

from fleetsec.cli import main
from fleetsec.detector import AnomalyReport, DetectorConfig, threshold_from_distances
from fleetsec.fleet_sim.scenario import HEARTBEAT_PERIOD, FleetSimulation, rng_stream
from fleetsec.keystore import Keystore, PublicKeyInfo
from fleetsec.matrix_profile import compute_brute_force, compute_fast, znorm_distance
from fleetsec.telemetry import (
    CSV_HEADER,
    Direction,
    EmptyRangeError,
    EventKind,
    Metric,
    NegativeIntervalError,
    ParseError,
    TelemetrySeries,
    UnknownEnumError,
)
from fleetsec.tsa import TimestampAuthority
from fleetsec.update_protocol import (
    DeviceMode,
    DeviceUpdateState,
    FirmwareManifest,
    RejectReason,
    RejectionRecord,
    apply_update,
    boot,
    build_manifest,
    initial_state,
    interrupt_update,
)
from fleetsec.wire import lp, u64


def make_pki(seed: int = 2024) -> tuple[Keystore, TimestampAuthority]:
    store = Keystore(seed)
    store.generate_key("publisher")
    store.generate_key("tsa-root")
    return store, TimestampAuthority(store, "tsa-root")


def firmware_image(version: int, size: int = 192) -> bytes:
    """Deterministic pseudo-firmware, distinct per version."""
    out = bytearray()
    counter = 0
    while len(out) < size:
        out.extend(hashlib.sha256(b"image|%d|%d" % (version, counter)).digest())
        counter += 1
    return bytes(out[:size])


@functools.lru_cache(maxsize=None)
def _signature_valid(pub: PublicKeyInfo, message: bytes, signature: bytes) -> bool:
    """One Ed25519 verify, memoized here apart from the library's verify memo."""
    try:
        Ed25519PublicKey.from_public_bytes(pub.public_bytes).verify(signature, message)
    except (InvalidSignature, ValueError):
        return False
    return True


def expected_reason(
    state: DeviceUpdateState, manifest: FirmwareManifest, firmware: bytes, now: int
) -> RejectReason | None:
    """First failing verification check, re-derived independently.

    Deliberately a second, dumber implementation, down to re-encoding the
    signed bodies from wire primitives and verifying signatures with
    `cryptography` directly, past the library's verify memo, so the
    production path has something to disagree with.
    """
    token = manifest.token
    body = (
        lp(manifest.firmware_id.encode("utf-8"))
        + u64(manifest.version)
        + lp(manifest.digest)
        + u64(manifest.expiry)
        + lp(token.encode())
    )
    if not _signature_valid(state.trust_anchor_publisher, body, manifest.publisher_sig):
        return RejectReason.BAD_PUBLISHER_SIG
    anchor = state.trust_anchor_tsa
    token_body = lp(token.imprint) + u64(token.gen_time) + u64(token.serial)
    if (
        token.tsa_key != anchor.key_id
        or not _signature_valid(anchor, token_body, token.signature)
        or token.imprint != manifest.digest
    ):
        return RejectReason.UNTRUSTED_TIMESTAMP
    if hashlib.sha256(firmware).digest() != manifest.digest:
        return RejectReason.DIGEST_MISMATCH
    active = state.active()
    if manifest.version <= active.version or manifest.token.gen_time <= active.gen_time:
        return RejectReason.ROLLBACK
    if now >= manifest.expiry:
        return RejectReason.EXPIRED
    return None


@dataclass
class TraceStats:
    traces: int = 0
    ops: int = 0
    accepts: int = 0
    boots: int = 0
    reject_reasons: dict = field(default_factory=dict)
    violations: list = field(default_factory=list)


def run_adversarial_traces(
    n_traces: int, seed: int = 0, ops_per_trace: int = 9
) -> TraceStats:
    """Random apply/interrupt/boot sequences against prebuilt manifests.

    The adversary holds no legitimate private keys: it can replay old
    manifests, corrupt firmware bytes, sign with its own keys, interrupt
    writes, and reboot. Violations collected (never asserted here):

    * a boot lands on a digest that never passed verification,
    * a rejection reason differs from the independent re-derivation,
    * a rejected apply changes state,
    * an accepted apply fails to advance version and gen_time.
    """
    store, tsa = make_pki(77)
    publisher = store.handle("publisher")
    anchor_tsa = store.public_key("tsa-root")
    anchor_pub = store.public_key("publisher")

    # Imposter PKI with the same key names but different key material.
    imposter = Keystore(666)
    imposter.generate_key("publisher")
    imposter.generate_key("tsa-root")
    imposter_tsa = TimestampAuthority(imposter, "tsa-root")

    firmwares = {v: firmware_image(v) for v in range(1, 10)}
    manifests = {
        v: build_manifest(
            firmwares[v], f"fw-{v}", v, 10 * v + 400, publisher, tsa, now=10 * v
        )
        for v in range(2, 10)
    }
    factory_digest = hashlib.sha256(firmwares[1]).digest()

    forgeries = []
    for v in (3, 5, 11):
        fake_fw = firmware_image(1000 + v)
        forgeries.append(
            (
                build_manifest(
                    fake_fw, f"fw-{v}", v, 10_000, imposter.handle("publisher"),
                    imposter_tsa, now=40,
                ),
                fake_fw,
            )
        )

    rng = random.Random(seed)
    stats = TraceStats()
    versions = sorted(manifests)

    for _ in range(n_traces):
        state = initial_state(factory_digest, 1, anchor_tsa, anchor_pub, gen_time=5)
        accepted_digests = {factory_digest}
        now = 20

        for _ in range(ops_per_trace):
            now += rng.randrange(0, 40)
            op = rng.choice(
                ("legit", "replay", "replay", "tamper", "forge", "interrupt", "reboot")
            )
            stats.ops += 1

            if op == "reboot":
                state, booted = boot(state)
                stats.boots += 1
                if booted is None:
                    stats.violations.append(("failstate_reached", now))
                else:
                    slot = state.slot(booted)
                    if not slot.verified or slot.image_digest not in accepted_digests:
                        stats.violations.append(("booted_unverified", now))
                continue

            if op == "interrupt":
                v = rng.choice(versions)
                state = interrupt_update(state, manifests[v], firmwares[v], rng.random())
                continue

            if op == "legit":
                candidates = [v for v in versions if v > state.active().version]
                v = rng.choice(candidates) if candidates else rng.choice(versions)
                manifest, firmware = manifests[v], firmwares[v]
            elif op == "replay":
                v = rng.choice(versions)
                manifest, firmware = manifests[v], firmwares[v]
            elif op == "tamper":
                v = rng.choice(versions)
                manifest = manifests[v]
                corrupt = bytearray(firmwares[v])
                corrupt[rng.randrange(len(corrupt))] ^= 1 + rng.randrange(255)
                firmware = bytes(corrupt)
            else:  # forge
                manifest, firmware = rng.choice(forgeries)

            want = expected_reason(state, manifest, firmware, now)
            before = state
            records: list[RejectionRecord] = []
            state = apply_update(state, manifest, firmware, now, events=records)

            if want is None:
                if records or state is before:
                    stats.violations.append(("accept_mismatch", op, now))
                    continue
                stats.accepts += 1
                accepted_digests.add(manifest.digest)
                if (
                    state.active().version <= before.active().version
                    or state.active().gen_time <= before.active().gen_time
                ):
                    stats.violations.append(("no_monotonic_advance", op, now))
                if state.mode is not DeviceMode.RUNNING:
                    stats.violations.append(("accept_not_running", op, now))
            else:
                got = records[0].reason if records else None
                if got != want.value:
                    stats.violations.append(("reason_mismatch", op, got, want.value, now))
                if state != before:
                    stats.violations.append(("reject_changed_state", op, now))
                stats.reject_reasons[want.value] = stats.reject_reasons.get(want.value, 0) + 1
        stats.traces += 1

    return stats


@dataclass
class LifecycleStats:
    ops: int = 0
    claims: int = 0
    rejections: int = 0
    violations: list = field(default_factory=list)


def run_lifecycle_ops(n_ops: int, seed: int = 0, n_devices: int = 12) -> LifecycleStats:
    """Random registry op sequences checked against a transition model.

    The model tracks only (status, owner) per device. Legal transitions:
    Unprovisioned -> Claimed (claim), Claimed -> Blacklisted | Deprovisioned,
    Unprovisioned -> Blacklisted, Deprovisioned -> Unprovisioned
    (re-register). Blacklisted is terminal. Owner is set exactly while
    Claimed; never two owners at once.
    """
    from fleetsec.identity import (
        Channel,
        ClaimRequest,
        DeviceRegistry,
        FleetsecError,
        Status,
    )

    rng = random.Random(seed)
    registry = DeviceRegistry(seed=seed)
    stats = LifecycleStats()
    device_ids = [f"dev-{i:02d}" for i in range(n_devices)]
    secrets = {d: b"secret-" + d.encode() for d in device_ids}
    model: dict[str, tuple] = {}  # device -> (status, owner)

    allowed = {
        (Status.UNPROVISIONED, Status.CLAIMED),
        (Status.UNPROVISIONED, Status.BLACKLISTED),
        (Status.CLAIMED, Status.BLACKLISTED),
        (Status.CLAIMED, Status.DEPROVISIONED),
        (Status.DEPROVISIONED, Status.UNPROVISIONED),
    }

    # blacklist is terminal, so keep it rare or the pool dies early
    op_mix = ("register", "register", "claim", "claim", "claim", "claim_bad",
              "deprovision", "deprovision", "blacklist")

    for step in range(n_ops):
        device = rng.choice(device_ids)
        op = rng.choice(op_mix)
        before = model.get(device)
        try:
            if op == "register":
                registry.register_device(device, secrets[device])
                outcome = (Status.UNPROVISIONED, None)
            elif op in ("claim", "claim_bad"):
                session = registry.device_connect(device, clock=step)
                secret = secrets[device] if op == "claim" else b"wrong-guess"
                user = f"user-{rng.randrange(5)}"
                rec = registry.claim(
                    session,
                    ClaimRequest(user, device, secret, rng.choice(list(Channel))),
                )
                outcome = (rec.status, rec.owner)
                stats.claims += 1
            elif op == "blacklist":
                rec = registry.blacklist(device)
                outcome = (Status.BLACKLISTED, before[1] if before else None)
            else:
                registry.deprovision(device)
                outcome = (Status.DEPROVISIONED, None)
        except FleetsecError:
            stats.rejections += 1
            # refused op must not have changed the record
            rec = registry._records.get(device)
            now_state = None if rec is None else (rec.status, rec.owner)
            want = before
            if before is not None and before[0] is Status.BLACKLISTED:
                want = (Status.BLACKLISTED, before[1])
            if now_state != want:
                stats.violations.append(("refused_op_changed_state", op, device, step))
            stats.ops += 1
            continue
        except ValueError:
            stats.rejections += 1
            stats.ops += 1
            continue

        if before is not None:
            if before[0] is Status.BLACKLISTED and outcome[0] is not Status.BLACKLISTED:
                stats.violations.append(("blacklist_not_sticky", op, device, step))
            elif before[0] is not outcome[0] and (before[0], outcome[0]) not in allowed:
                stats.violations.append(
                    ("illegal_transition", before[0].value, outcome[0].value, op, device)
                )
        rec = registry._records[device]
        if rec.status is Status.CLAIMED and rec.owner is None:
            stats.violations.append(("claimed_without_owner", device, step))
        if rec.status in (Status.UNPROVISIONED, Status.DEPROVISIONED) and rec.owner is not None:
            stats.violations.append(("owner_outside_claimed", device, step))
        model[device] = (rec.status, rec.owner)
        stats.ops += 1

    # secrets must not appear in the serialized form in any common encoding
    import base64
    import json as _json

    text = _json.dumps(registry.to_json_obj())
    for secret in secrets.values():
        for variant in (
            secret.decode(),
            secret.hex(),
            base64.b64encode(secret).decode(),
            base64.urlsafe_b64encode(secret).decode().rstrip("="),
        ):
            if variant in text:
                stats.violations.append(("secret_leaked", variant[:12]))
    return stats


# acceptance criterion verdicts and detector scorecard rows, collected for
# the end-of-run summary
CRITERION_LINES: list[str] = []
SCORECARD_LINES: list[str] = []


# --- per-event telemetry reference --------------------------------------------

# (kind, direction) selector for each counting metric.
_COUNTING = {
    Metric.PACKETS_IN: (EventKind.PACKET, Direction.INBOUND),
    Metric.PACKETS_OUT: (EventKind.PACKET, Direction.OUTBOUND),
    Metric.SESSIONS_IN: (EventKind.SESSION_OPEN, Direction.INBOUND),
    Metric.SESSIONS_OUT: (EventKind.SESSION_OPEN, Direction.OUTBOUND),
}


@dataclass(frozen=True)
class ConnectionEvent:
    """One observed network event attributed to a device."""

    device_id: str
    time: int
    direction: Direction
    kind: EventKind
    size: int = 0

    def __post_init__(self):
        if self.time < 0:
            raise ValueError(f"event time must be non-negative, got {self.time}")
        if self.size < 0:
            raise ValueError(f"event size must be non-negative, got {self.size}")
        if self.kind is not EventKind.PACKET and self.size != 0:
            raise ValueError("size must be 0 for session events")


def bucketize_events(
    events: Iterable[ConnectionEvent],
    device_id: str,
    metric: Metric | str,
    interval: int,
    start: int,
    end: int,
) -> TelemetrySeries:
    """Reduce events to one value per bucket over [start, end), one event at a time.

    Events need not be sorted. Counting metrics sum matching events per
    bucket; open_connections reports the open-session count at each bucket
    start boundary. Events outside the range are ignored, except that
    opens/closes at or before a boundary feed the open count.
    """
    metric = Metric(metric)
    if interval <= 0:
        raise NegativeIntervalError(f"interval must be > 0, got {interval}")
    if start >= end:
        raise EmptyRangeError(f"empty range [{start}, {end})")

    n_buckets = (end - start + interval - 1) // interval
    mine = [e for e in events if e.device_id == device_id]

    if metric is Metric.OPEN_CONNECTIONS:
        deltas = sorted(
            (e.time, 1 if e.kind is EventKind.SESSION_OPEN else -1)
            for e in mine
            if e.kind in (EventKind.SESSION_OPEN, EventKind.SESSION_CLOSE)
        )
        times = [t for t, _ in deltas]
        running = 0
        prefix = []
        for _, d in deltas:
            running += d
            prefix.append(running)
        values = []
        for k in range(n_buckets):
            boundary = start + k * interval
            idx = bisect.bisect_right(times, boundary)
            values.append(float(prefix[idx - 1]) if idx else 0.0)
        return TelemetrySeries(device_id, metric, interval, tuple(values), start)

    kind, direction = _COUNTING[metric]
    counts = [0.0] * n_buckets
    for e in mine:
        if e.kind is kind and e.direction is direction and start <= e.time < end:
            counts[(e.time - start) // interval] += 1.0
    return TelemetrySeries(device_id, metric, interval, tuple(counts), start)


def ingest_events(stream: TextIO) -> list[ConnectionEvent]:
    """Parse a `time,device_id,direction,kind,size` CSV into events.

    Rows are preserved in file order. Data rows are numbered from 1 for
    error reporting; `size` may be empty or absent on session rows.
    """
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError(0, "missing header") from None
    if [h.strip() for h in header] != CSV_HEADER:
        raise ParseError(0, f"bad header {header!r}, expected {CSV_HEADER!r}")

    events = []
    for row_no, row in enumerate(reader, start=1):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) not in (4, 5):
            raise ParseError(row_no, f"expected 4 or 5 columns, got {len(row)}")
        time_s, device_id, direction_s, kind_s = (c.strip() for c in row[:4])
        size_s = row[4].strip() if len(row) == 5 else ""

        try:
            direction = Direction(direction_s)
        except ValueError:
            raise UnknownEnumError(row_no, f"unknown direction {direction_s!r}") from None
        try:
            kind = EventKind(kind_s)
        except ValueError:
            raise UnknownEnumError(row_no, f"unknown kind {kind_s!r}") from None

        try:
            time = int(time_s)
            size = int(size_s) if size_s else 0
            event = ConnectionEvent(device_id, time, direction, kind, size)
        except ValueError as exc:
            raise ParseError(row_no, str(exc)) from None
        events.append(event)
    return events


def events_to_csv(events: Iterable[ConnectionEvent], stream: TextIO) -> None:
    """Write events in the ingest_csv format, one row per event."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for e in events:
        writer.writerow([e.time, e.device_id, e.direction.value, e.kind.value, e.size])


def calibrate(baseline: TelemetrySeries, config: DetectorConfig) -> float:
    """Threshold from an attack-free baseline series.

    Assumes the baseline captures the device's recurring behavior; with a
    margin above 1 the baseline itself never exceeds its own threshold at
    the calibration quantile.
    """
    profile = compute_fast(baseline.values, config.profile_config)
    return threshold_from_distances(profile.distances, config.quantile, config.margin)


def detect(
    series: TelemetrySeries, baseline: TelemetrySeries, threshold: float, config: DetectorConfig
) -> list[AnomalyReport]:
    """Reports for every window of one series whose distance to its nearest window
    of a separate baseline recording exceeds threshold; both share one interval.

    A separate recording has no trivial matches, so every pair is a candidate.
    The scores are an all-pairs `znorm_distance` join, nothing shared with the
    profile kernel.
    """
    m = config.window
    base = [baseline.values[j : j + m] for j in range(len(baseline.values) - m + 1)]
    scores = [
        min(znorm_distance(series.values[i : i + m], b) for b in base)
        for i in range(len(series.values) - m + 1)
    ]
    return _reports_above(series, scores, threshold)


def detect_own_prefix(
    series: TelemetrySeries, n_ref: int, threshold: float, config: DetectorConfig
) -> list[AnomalyReport]:
    """Reports for every window of one series whose distance to its nearest window
    of the series' own first n_ref points exceeds threshold, trivial matches
    skipped, by the all-pairs `compute_brute_force`."""
    profile = compute_brute_force(series.values, config.profile_config, n_ref)
    return _reports_above(series, profile.distances, threshold)


def _reports_above(series: TelemetrySeries, scores, threshold: float) -> list[AnomalyReport]:
    return [
        AnomalyReport(
            device_id=series.device_id,
            metric=series.metric.value,
            window_index=i,
            time=series.start_time + i * series.interval,
            score=float(score),
            threshold=float(threshold),
        )
        for i, score in enumerate(scores)
        if score > threshold
    ]


# --- per-tick traffic fill reference --------------------------------------------


def fill_traffic_per_tick(sim: FleetSimulation) -> tuple[np.ndarray, np.ndarray, np.ndarray, list]:
    """The duty grid, packets, sessions and heartbeat observations of sim's device
    traffic, computed one tick at a time in tick order; sim is not changed."""
    grid = np.zeros(sim._packets.shape, bool)
    packets, sessions = np.zeros_like(sim._packets), np.zeros_like(sim._sessions)
    observations = []
    for row, dev in enumerate(sim.cfg.devices):
        duty_rng = rng_stream(sim.cfg.seed, f"duty:{dev.id}")
        rng = rng_stream(sim.cfg.seed, f"device:{dev.id}")
        traffic = dev.traffic
        for t in range(sim.cfg.duration):
            # random() < 1.0 always holds, so a full-duty device is on at every tick
            if not duty_rng.random() < dev.duty_cycle:
                continue
            grid[row, t] = True
            count = traffic.base + traffic.amplitude * math.sin(
                2 * math.pi * (t % traffic.period) / traffic.period
            )
            if traffic.noise > 0:
                count += rng.gauss(0, traffic.noise)
            packets[row, t] = max(0, round(count))
            if t % HEARTBEAT_PERIOD == 0:
                sessions[row, t] = 1
                observations.append((dev.id, "home", t))
    return grid, packets, sessions, observations


def flooded_fleet(devices: int, duration: int, seed: int = 5) -> dict:
    """Criterion-1 traffic on `devices` devices; the last one is flooded at 3/4 of the run."""
    traffic = {"period": 40, "base": 50.0, "amplitude": 20.0, "noise": 1.0}
    ids = [f"dev-{k:02d}" for k in range(devices)]
    return {
        "seed": seed,
        "duration": duration,
        "devices": [
            {"id": dev, "secret": f"s-{dev}", "owner": "ops", "traffic": traffic} for dev in ids
        ],
        "detector": {"baseline_ticks": duration // 2, "window": 16},
        "attacks": [{"kind": "traffic_flood", "at": duration * 3 // 4, "device": ids[-1],
                     "factor": 10, "buckets": 24}],
    }


def detect_on_run(run_dir: Path, detector, out: Path) -> int:
    """`fleetsec detect` on a simulate run's telemetry.csv, with its rows
    before `detector.baseline_ticks` as the baseline; returns the exit code.

    `detector` is the run's `DetectorSpec`; its settings become the flags.
    """
    (metric,) = detector.metrics  # detect profiles one metric
    header, *rows = (run_dir / "telemetry.csv").read_text(encoding="utf-8").splitlines(True)
    baseline = out.parent / f"{out.stem}-baseline.csv"
    early = [row for row in rows if int(row.split(",", 1)[0]) < detector.baseline_ticks]
    baseline.write_text(header + "".join(early), encoding="utf-8")
    flags = ["--metric", metric.value, "--window", str(detector.window),
             "--quantile", repr(detector.quantile), "--margin", repr(detector.margin),
             "--interval", str(detector.interval)]
    if detector.exclusion is not None:
        flags += ["--exclusion", str(detector.exclusion)]
    return main(["detect", "--baseline", str(baseline), "--input", str(run_dir / "telemetry.csv"),
                 *flags, "--out", str(out)])


# --- scenario and JSON edits -----------------------------------------------------

# A scenario that sets every field of every section; each SCENARIO_ERRORS case
# in test_fleet_sim.py breaks exactly one thing in a copy of it.
FULL_SCENARIO = {
    "seed": 5,
    "duration": 200,
    "devices": [
        {"id": "dev-a", "secret": "s-a", "owner": "alice", "firmware_version": 1,
         "duty_cycle": 1.0, "legitimate_ports": [443],
         "traffic": {"period": 50, "base": 8.0, "amplitude": 3.0, "noise": 0.8}},
        {"id": "dev-b", "secret": "s-b"},
    ],
    "links": {"mtu": 64, "latency": 1, "drop_rate": 0.1},
    "detector": {"window": 8, "exclusion": 4, "quantile": 0.99, "margin": 2.0, "interval": 1,
                 "baseline_ticks": 100, "metrics": ["packets_in"]},
    "updates": [
        {"at": 10, "version": 2, "expiry": 500, "firmware_id": "fw-2", "size": 512,
         "plant_canary": True, "feint_regions": [[0, 16, "decoy"]], "retry_interval": 20},
    ],
    "attacks": [
        {"kind": "rollback_replay", "at": 50, "device": "dev-a"},
        {"kind": "tamper_firmware", "at": 51, "device": "dev-b"},
        {"kind": "identity_theft", "at": 60, "device": "dev-a", "duration": 30},
        {"kind": "dictionary_attack", "at": 70, "device": "dev-b", "duration": 20, "rate": [2, 6]},
        {"kind": "traffic_flood", "at": 120, "device": "dev-a", "factor": 10, "buckets": 20},
        {"kind": "canary_probe", "at": 150},
    ],
    "deception": {"canary_ports": [2323],
                  "mtd": {"rotation_interval": 25, "address_pool": ["10.0.0.1", "10.0.0.2"]}},
    "admin": [{"at": 180, "action": "blacklist", "device": "dev-b"}],
}

DROP = object()  # set_path deletes the item instead of setting it

# any value json.loads can return, NaN and the infinities included
json_scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def key_paths(obj, prefix=()) -> list[tuple]:
    """The path of every item inside a JSON value, parents before children."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    paths = []
    for key, value in items:
        paths.append(prefix + (key,))
        paths.extend(key_paths(value, prefix + (key,)))
    return paths


def json_edits(obj, paths=None):
    """Lists of one to three (path, value) edits of obj; a value is mostly a scalar, or DROP.

    paths, if given, are the paths that may be edited (default: every key path).
    """
    values = json_scalars | json_values | st.just(DROP)
    paths = key_paths(obj) if paths is None else paths
    return st.lists(st.tuples(st.sampled_from(paths), values), min_size=1, max_size=3)


def edited(obj, edits):
    """A copy of obj with edits applied; an edit whose path an earlier one removed is skipped."""
    obj = copy.deepcopy(obj)
    for path, value in edits:
        try:
            set_path(obj, path, value)
        except (KeyError, IndexError, TypeError):
            pass
    return obj


def set_path(obj, path, value) -> None:
    """Set the item at path (keys and list indices) inside obj to value, or delete it for DROP."""
    *parents, last = path
    for key in parents:
        obj = obj[key]
    if value is DROP:
        del obj[last]
    else:
        obj[last] = value


# --- sequence edits -------------------------------------------------------------

# characters that matter to the CSV reader and to the row parser
CSV_CHARS = st.sampled_from(list(',\n\r" -+.0123456789aeinx\x00é'))


def seq_edits(size: int, items):
    """One to three (position, op, item) edits of a sequence of length size."""
    return st.lists(
        st.tuples(st.integers(0, size), st.sampled_from("sidc"), items), min_size=1, max_size=3
    )


def apply_edits(seq, edits) -> list:
    """seq with each edit applied: set, insert or delete one item, or cut the rest off."""
    out = list(seq)
    for position, op, item in edits:
        position = min(position, len(out))
        if op == "s" and position < len(out):
            out[position] = item
        elif op == "i":
            out.insert(position, item)
        elif op == "d":
            del out[position : position + 1]
        elif op == "c":
            del out[position:]
    return out

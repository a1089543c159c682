"""Builders shared across protocol tests.

A tiny two-key PKI, deterministic firmware images, an independent
re-derivation of the device verification order, a randomized
adversarial trace runner for the update state machine, and a per-event
telemetry reference: one `ConnectionEvent` per CSV row, bucketed one
event at a time, against which the library's columnar counts are
checked.
"""

from __future__ import annotations

import bisect
import csv
import hashlib
import random
from dataclasses import dataclass, field
from typing import Iterable, TextIO

from fleetsec.keystore import Keystore, verify
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
from fleetsec.tsa import (
    MismatchedImprintError,
    TimestampAuthority,
    UntrustedSignerError,
    verify_token,
)
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


def expected_reason(
    state: DeviceUpdateState, manifest: FirmwareManifest, firmware: bytes, now: int
) -> RejectReason | None:
    """First failing verification check, re-derived independently.

    Deliberately a second, dumber implementation, down to re-encoding the
    signed body from wire primitives, so the production path has
    something to disagree with.
    """
    body = (
        lp(manifest.firmware_id.encode("utf-8"))
        + u64(manifest.version)
        + lp(manifest.digest)
        + u64(manifest.expiry)
        + lp(manifest.token.encode())
    )
    if not verify(state.trust_anchor_publisher, body, manifest.publisher_sig):
        return RejectReason.BAD_PUBLISHER_SIG
    try:
        verify_token(manifest.token, manifest.digest, state.trust_anchor_tsa)
    except (UntrustedSignerError, MismatchedImprintError):
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


# acceptance criterion verdicts, collected for the end-of-run summary
CRITERION_LINES: list[str] = []


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

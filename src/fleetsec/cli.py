"""Command-line front end for CI pipelines and scripts.

Exit codes are stable: 0 success, 1 a security check said no (rejected
manifest, failed token verification, refused claim, anomalies found),
2 usage or configuration errors. Pipelines gate on 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from .detector import DetectorConfig, calibrate, detect_fleet, write_reports_jsonl
from .errors import FleetsecError
from .fleet_sim import ConfigError, load_scenario, simulate_to_dir
from .identity import (
    AlreadyClaimedError,
    BlacklistedError,
    Channel,
    ClaimRequest,
    DeviceRegistry,
    InvalidSessionError,
    NotClaimableError,
    NotClaimedError,
    SecretMismatchError,
)
from .keystore import Keystore
from .matrix_profile import ProfileConfig, compute_brute_force, compute_fast, top_discords
from .telemetry import Metric, TelemetryCounts, bucketize, ingest_csv
from .tsa import (
    MismatchedImprintError,
    TimestampAuthority,
    UntrustedSignerError,
    decode_token,
    verify_token,
)
from .update_protocol import (
    DeviceUpdateState,
    RecoveryRefusedError,
    build_manifest,
    decode_manifest,
    device_verify,
)

_SECURITY_NEGATIVE = (
    UntrustedSignerError,
    MismatchedImprintError,
    SecretMismatchError,
    BlacklistedError,
    AlreadyClaimedError,
    NotClaimedError,
    NotClaimableError,
    InvalidSessionError,
    RecoveryRefusedError,
)


def _load_telemetry(path: str) -> TelemetryCounts:
    with open(path, encoding="utf-8", newline="") as fh:
        return ingest_csv(fh)


def _series_for(path, telemetry, device_id, metric, interval, start=None, end=None):
    if device_id not in telemetry.device_ids:
        raise ValueError(f"{path}: no telemetry for device {device_id!r}")
    start = int(telemetry.ticks[0]) if start is None else start
    end = int(telemetry.ticks[-1]) + 1 if end is None else end
    return bucketize(telemetry, device_id, metric, interval, start, end)


def _profile_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--input", required=True, help="telemetry CSV file")
    sub.add_argument("--device", required=True)
    sub.add_argument("--metric", default="packets_in")
    sub.add_argument("--window", type=int, required=True)
    sub.add_argument("--interval", type=int, default=1)
    sub.add_argument("--start", type=int, default=None, help="range start (default: first event)")
    sub.add_argument("--end", type=int, default=None, help="range end, exclusive (default: last event + 1)")
    sub.add_argument("--exclusion", type=int, default=None)


def _cmd_mp_compute(args) -> int:
    telemetry = _load_telemetry(args.input)
    series = _series_for(
        args.input, telemetry, args.device, Metric(args.metric), args.interval, args.start, args.end
    )
    config = ProfileConfig(window_m=args.window, exclusion=args.exclusion)
    compute = compute_brute_force if args.brute else compute_fast
    profile = compute(series.values, config)
    lines = ["index,distance,neighbor"]
    for i in range(len(profile)):
        lines.append(f"{i},{float(profile.distances[i])!r},{int(profile.neighbor_index[i])}")
    text = "\n".join(lines) + "\n"
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_mp_discords(args) -> int:
    telemetry = _load_telemetry(args.input)
    series = _series_for(
        args.input, telemetry, args.device, Metric(args.metric), args.interval, args.start, args.end
    )
    config = ProfileConfig(window_m=args.window, exclusion=args.exclusion)
    profile = compute_fast(series.values, config)
    print(json.dumps(top_discords(profile, args.k, config.exclusion)))
    return 0


def _cmd_detect(args) -> int:
    config = DetectorConfig(
        profile_config=ProfileConfig(window_m=args.window, exclusion=args.exclusion),
        quantile=args.quantile,
        margin=args.margin,
    )
    metric = Metric(args.metric)
    baseline = _load_telemetry(args.baseline)
    telemetry = _load_telemetry(args.input)
    devices = sorted(telemetry.device_ids)
    series_by_device = {}
    thresholds = {}
    for device_id in devices:
        baseline_series = _series_for(args.baseline, baseline, device_id, metric, args.interval)
        thresholds[device_id] = calibrate(baseline_series, config)
        series_by_device[device_id] = _series_for(
            args.input, telemetry, device_id, metric, args.interval
        )
    reports = detect_fleet(series_by_device, thresholds, config)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        write_reports_jsonl(reports, fh)
    print(f"{len(reports)} anomalies across {len(devices)} devices -> {args.out}")
    return 1 if reports else 0


def _cmd_keys_init(args) -> int:
    store = Keystore(args.seed)
    for key_id in args.ids.split(","):
        store.generate_key(key_id.strip())
    store.save(args.keys, passphrase=args.passphrase)
    print(f"keystore with {len(store.key_ids())} keys -> {args.keys}")
    return 0


def _cmd_manifest_build(args) -> int:
    firmware = Path(args.firmware).read_bytes()
    store = Keystore.load(args.keys, passphrase=args.passphrase)
    tsa = TimestampAuthority(store, args.tsa_key, start_serial=args.serial)
    firmware_id = args.firmware_id or Path(args.firmware).stem
    manifest = build_manifest(
        firmware,
        firmware_id,
        args.version,
        args.expiry,
        store.handle(args.publisher_key),
        tsa,
        now=args.now,
    )
    Path(args.out).write_bytes(manifest.encode())
    if args.json:
        obj = manifest.to_json_obj(debug={"image_size": len(firmware)})
        Path(args.json).write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")
    print(f"manifest {firmware_id} v{args.version} -> {args.out}")
    return 0


def _cmd_manifest_verify(args) -> int:
    manifest = decode_manifest(Path(args.manifest).read_bytes())
    firmware = Path(args.firmware).read_bytes()
    state = DeviceUpdateState.load(args.state)
    verdict = device_verify(state, manifest, firmware, args.now)
    print(str(verdict))
    return 0 if verdict.accepted else 1


def _imprint_from_args(args) -> bytes:
    if args.imprint:
        return bytes.fromhex(args.imprint)
    return hashlib.sha256(Path(args.file).read_bytes()).digest()


def _cmd_tsa_issue(args) -> int:
    store = Keystore.load(args.keys, passphrase=args.passphrase)
    tsa = TimestampAuthority(store, args.key_id, start_serial=args.serial)
    token = tsa.issue_token(_imprint_from_args(args), args.now)
    Path(args.out).write_bytes(token.encode())
    print(token.hex_dump())
    return 0


def _cmd_tsa_verify(args) -> int:
    store = Keystore.load(args.keys, passphrase=args.passphrase)
    token = decode_token(Path(args.token).read_bytes())
    verify_token(token, _imprint_from_args(args), store.public_key(args.key_id))
    print(f"ok: serial {token.serial}, gen_time {token.gen_time}")
    return 0


def _load_registry(args) -> DeviceRegistry:
    return DeviceRegistry.load(args.registry)


def _cmd_identity_register(args) -> int:
    path = Path(args.registry)
    registry = DeviceRegistry.load(path) if path.exists() else DeviceRegistry(args.seed)
    record = registry.register_device(args.device, args.secret.encode("utf-8"))
    registry.save(path)
    print(f"{record.device_id}: {record.status.value}")
    return 0


def _cmd_identity_claim(args) -> int:
    registry = _load_registry(args)
    session = registry.device_connect(args.device, args.now)
    record = registry.claim(
        session,
        ClaimRequest(
            user=args.user,
            device_id=args.device,
            secret=args.secret.encode("utf-8"),
            channel=Channel(args.channel),
        ),
    )
    registry.save(args.registry)
    print(f"{record.device_id}: {record.status.value} by {record.owner}")
    return 0


def _cmd_identity_blacklist(args) -> int:
    registry = _load_registry(args)
    record = registry.blacklist(args.device)
    registry.save(args.registry)
    print(f"{record.device_id}: {record.status.value}")
    return 0


def _cmd_identity_deprovision(args) -> int:
    registry = _load_registry(args)
    record = registry.deprovision(args.device)
    registry.save(args.registry)
    print(f"{record.device_id}: {record.status.value}")
    return 0


def _cmd_simulate(args) -> int:
    config = load_scenario(args.scenario)
    report = simulate_to_dir(config, args.out)
    print(
        f"{len(report.events)} events, {len(report.anomalies)} anomalies, "
        f"{len(report.alerts)} alerts -> {args.out}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fleetsec", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    mp = commands.add_parser("mp", help="matrix profile computations")
    mp_sub = mp.add_subparsers(dest="mp_command", required=True)
    compute = mp_sub.add_parser("compute", help="profile as CSV (index, distance, neighbor)")
    _profile_args(compute)
    group = compute.add_mutually_exclusive_group()
    group.add_argument("--fast", action="store_true", default=True)
    group.add_argument("--brute", action="store_true")
    compute.add_argument("--output", default=None, help="write CSV here instead of stdout")
    compute.set_defaults(func=_cmd_mp_compute)
    discords = mp_sub.add_parser("discords", help="top discord indices as JSON")
    _profile_args(discords)
    discords.add_argument("--k", type=int, required=True)
    discords.set_defaults(func=_cmd_mp_discords)

    detect_p = commands.add_parser("detect", help="calibrate on a baseline, flag anomalies")
    detect_p.add_argument("--baseline", required=True)
    detect_p.add_argument("--input", required=True)
    detect_p.add_argument("--metric", default="packets_in")
    detect_p.add_argument("--window", type=int, default=16)
    detect_p.add_argument("--exclusion", type=int, default=None)
    detect_p.add_argument("--interval", type=int, default=1)
    detect_p.add_argument("--quantile", type=float, default=0.99)
    detect_p.add_argument("--margin", type=float, default=2.0)
    detect_p.add_argument("--out", default="anomalies.jsonl")
    detect_p.set_defaults(func=_cmd_detect)

    keys = commands.add_parser("keys", help="keystore utilities")
    keys_sub = keys.add_subparsers(dest="keys_command", required=True)
    init = keys_sub.add_parser("init", help="create a keystore file")
    init.add_argument("--keys", required=True)
    init.add_argument("--ids", default="publisher,tsa-root", help="comma-separated key ids")
    init.add_argument("--seed", type=int, default=0)
    init.add_argument("--passphrase", default=None)
    init.set_defaults(func=_cmd_keys_init)

    manifest = commands.add_parser("manifest", help="build and verify firmware manifests")
    man_sub = manifest.add_subparsers(dest="manifest_command", required=True)
    build = man_sub.add_parser("build")
    build.add_argument("--firmware", required=True)
    build.add_argument("--firmware-id", default=None)
    build.add_argument("--version", type=int, required=True)
    build.add_argument("--expiry", type=int, required=True)
    build.add_argument("--now", type=int, default=0)
    build.add_argument("--keys", required=True)
    build.add_argument("--passphrase", default=None)
    build.add_argument("--publisher-key", default="publisher")
    build.add_argument("--tsa-key", default="tsa-root")
    build.add_argument("--serial", type=int, default=0, help="TSA serial before this issue")
    build.add_argument("--out", required=True)
    build.add_argument("--json", default=None, help="also write a debug JSON rendering")
    build.set_defaults(func=_cmd_manifest_build)
    verify_p = man_sub.add_parser("verify")
    verify_p.add_argument("--manifest", required=True)
    verify_p.add_argument("--firmware", required=True)
    verify_p.add_argument("--state", required=True, help="device update state JSON")
    verify_p.add_argument("--now", type=int, required=True)
    verify_p.set_defaults(func=_cmd_manifest_verify)

    tsa = commands.add_parser("tsa", help="issue and verify timestamp tokens")
    tsa_sub = tsa.add_subparsers(dest="tsa_command", required=True)
    issue = tsa_sub.add_parser("issue")
    issue.add_argument("--keys", required=True)
    issue.add_argument("--passphrase", default=None)
    issue.add_argument("--key-id", default="tsa-root")
    imprint_src = issue.add_mutually_exclusive_group(required=True)
    imprint_src.add_argument("--imprint", default=None, help="32-byte digest as hex")
    imprint_src.add_argument("--file", default=None, help="hash this file instead")
    issue.add_argument("--now", type=int, required=True)
    issue.add_argument("--serial", type=int, default=0, help="serial before this issue")
    issue.add_argument("--out", required=True)
    issue.set_defaults(func=_cmd_tsa_issue)
    tverify = tsa_sub.add_parser("verify")
    tverify.add_argument("--token", required=True)
    tverify.add_argument("--keys", required=True)
    tverify.add_argument("--passphrase", default=None)
    tverify.add_argument("--key-id", default="tsa-root")
    timprint = tverify.add_mutually_exclusive_group(required=True)
    timprint.add_argument("--imprint", default=None)
    timprint.add_argument("--file", default=None)
    tverify.set_defaults(func=_cmd_tsa_verify)

    identity = commands.add_parser("identity", help="device registry operations")
    id_sub = identity.add_subparsers(dest="identity_command", required=True)
    register = id_sub.add_parser("register")
    register.add_argument("--registry", required=True)
    register.add_argument("--device", required=True)
    register.add_argument("--secret", required=True)
    register.add_argument("--seed", type=int, default=0, help="seed when creating a new registry")
    register.set_defaults(func=_cmd_identity_register)
    claim = id_sub.add_parser("claim")
    claim.add_argument("--registry", required=True)
    claim.add_argument("--device", required=True)
    claim.add_argument("--user", required=True)
    claim.add_argument("--secret", required=True)
    claim.add_argument("--channel", default="PreProvisioned")
    claim.add_argument("--now", type=int, default=0)
    claim.set_defaults(func=_cmd_identity_claim)
    blacklist = id_sub.add_parser("blacklist")
    blacklist.add_argument("--registry", required=True)
    blacklist.add_argument("--device", required=True)
    blacklist.set_defaults(func=_cmd_identity_blacklist)
    deprovision = id_sub.add_parser("deprovision")
    deprovision.add_argument("--registry", required=True)
    deprovision.add_argument("--device", required=True)
    deprovision.set_defaults(func=_cmd_identity_deprovision)

    simulate = commands.add_parser("simulate", help="run a scenario to a report directory")
    simulate.add_argument("--scenario", required=True)
    simulate.add_argument("--out", required=True)
    simulate.set_defaults(func=_cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles usage errors and --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _SECURITY_NEGATIVE as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 1
    except (FleetsecError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

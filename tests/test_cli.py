import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fleetsec.cli import main
from fleetsec.fleet_sim import scenario as scenario_module
from fleetsec.keystore import Keystore
from fleetsec.matrix_profile import ProfileConfig
from fleetsec.telemetry import Direction, EventKind, Metric
from fleetsec.tsa import TimestampAuthority
from fleetsec.update_protocol import build_manifest, initial_state

from helpers import (
    CSV_CHARS,
    FULL_SCENARIO,
    ConnectionEvent,
    apply_edits,
    bucketize_events,
    compute_brute_force,
    detect_on_run,
    edited,
    events_to_csv,
    firmware_image,
    flooded_fleet,
    ingest_events,
    json_edits,
    key_paths,
    seq_edits,
)

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
PASSPHRASE = "hunter2"


def write_telemetry(path: Path, device_id: str, counts: list[int]) -> None:
    events = []
    for t, count in enumerate(counts):
        for _ in range(count):
            events.append(ConnectionEvent(device_id, t, Direction.INBOUND, EventKind.PACKET, 64))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        events_to_csv(events, fh)


def sine_counts(n: int, *, period=40, base=50, amplitude=20) -> list[int]:
    return [
        max(0, round(base + amplitude * math.sin(2 * math.pi * (t % period) / period)))
        for t in range(n)
    ]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Keystore, firmware, device state, and manifests shared by the tests."""
    root = tmp_path_factory.mktemp("cli")
    assert main(["keys", "init", "--keys", str(root / "keys.json"),
                 "--seed", "7", "--passphrase", PASSPHRASE]) == 0

    fw1 = firmware_image(1)
    fw2 = firmware_image(2)
    (root / "fw1.bin").write_bytes(fw1)
    (root / "fw2.bin").write_bytes(fw2)

    # device state built against the same seeded keystore the CLI wrote
    store = Keystore(7)
    store.generate_key("publisher")
    store.generate_key("tsa-root")
    import hashlib
    state = initial_state(
        hashlib.sha256(fw1).digest(), 1,
        store.public_key("tsa-root"), store.public_key("publisher"), gen_time=5,
    )
    state.save(root / "state.json")

    assert main(["manifest", "build", "--firmware", str(root / "fw2.bin"),
                 "--firmware-id", "fw-2", "--version", "2", "--expiry", "100",
                 "--now", "10", "--keys", str(root / "keys.json"),
                 "--passphrase", PASSPHRASE, "--out", str(root / "m2.bin"),
                 "--json", str(root / "m2.json")]) == 0
    assert main(["manifest", "build", "--firmware", str(root / "fw1.bin"),
                 "--firmware-id", "fw-1", "--version", "1", "--expiry", "100",
                 "--now", "10", "--keys", str(root / "keys.json"),
                 "--passphrase", PASSPHRASE, "--out", str(root / "m1.bin")]) == 0
    return root


# --- usage ---------------------------------------------------------------------


def test_no_arguments_is_a_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_unknown_flag_is_a_usage_error(capsys):
    assert main(["simulate", "--scenario", "x.json", "--frobnicate"]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "fleetsec" in capsys.readouterr().out


# --- manifest verify golden outputs ----------------------------------------------


def test_verify_accept(workdir, capsys):
    code = main(["manifest", "verify", "--manifest", str(workdir / "m2.bin"),
                 "--firmware", str(workdir / "fw2.bin"),
                 "--state", str(workdir / "state.json"), "--now", "50"])
    assert code == 0
    assert capsys.readouterr().out == "Accept\n"


def test_verify_rollback(workdir, capsys):
    code = main(["manifest", "verify", "--manifest", str(workdir / "m1.bin"),
                 "--firmware", str(workdir / "fw1.bin"),
                 "--state", str(workdir / "state.json"), "--now", "50"])
    assert code == 1
    assert capsys.readouterr().out == "Reject(Rollback)\n"


def test_verify_expired(workdir, capsys):
    code = main(["manifest", "verify", "--manifest", str(workdir / "m2.bin"),
                 "--firmware", str(workdir / "fw2.bin"),
                 "--state", str(workdir / "state.json"), "--now", "100"])
    assert code == 1
    assert capsys.readouterr().out == "Reject(Expired)\n"


def test_verify_digest_mismatch(workdir, capsys):
    code = main(["manifest", "verify", "--manifest", str(workdir / "m2.bin"),
                 "--firmware", str(workdir / "fw1.bin"),
                 "--state", str(workdir / "state.json"), "--now", "50"])
    assert code == 1
    assert capsys.readouterr().out == "Reject(DigestMismatch)\n"


def test_build_with_past_expiry_is_a_config_error(workdir, capsys):
    code = main(["manifest", "build", "--firmware", str(workdir / "fw2.bin"),
                 "--version", "3", "--expiry", "5", "--now", "10",
                 "--keys", str(workdir / "keys.json"), "--passphrase", PASSPHRASE,
                 "--out", str(workdir / "bad.bin")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_manifest_json_rendering_written(workdir):
    obj = json.loads((workdir / "m2.json").read_text())
    assert obj["firmware_id"] == "fw-2"
    assert obj["version"] == 2
    assert obj["debug"]["image_size"] == 192


# --- tsa -------------------------------------------------------------------------


def test_tsa_issue_and_verify(workdir, capsys):
    token_path = workdir / "token.bin"
    code = main(["tsa", "issue", "--keys", str(workdir / "keys.json"),
                 "--passphrase", PASSPHRASE, "--file", str(workdir / "fw1.bin"),
                 "--now", "33", "--out", str(token_path)])
    assert code == 0
    hex_dump = capsys.readouterr().out.strip()
    assert bytes.fromhex(hex_dump) == token_path.read_bytes()

    code = main(["tsa", "verify", "--token", str(token_path),
                 "--keys", str(workdir / "keys.json"), "--passphrase", PASSPHRASE,
                 "--file", str(workdir / "fw1.bin")])
    assert code == 0
    assert capsys.readouterr().out == "ok: serial 1, gen_time 33\n"


def test_tsa_verify_wrong_imprint_is_refused(workdir, capsys):
    token_path = workdir / "token.bin"
    code = main(["tsa", "verify", "--token", str(token_path),
                 "--keys", str(workdir / "keys.json"), "--passphrase", PASSPHRASE,
                 "--file", str(workdir / "fw2.bin")])
    assert code == 1
    assert capsys.readouterr().err.startswith("refused:")


def test_tsa_issue_rejects_malformed_imprint(workdir, capsys):
    code = main(["tsa", "issue", "--keys", str(workdir / "keys.json"),
                 "--passphrase", PASSPHRASE, "--imprint", "abcd",
                 "--now", "1", "--out", str(workdir / "t2.bin")])
    assert code == 2
    assert capsys.readouterr().err == "error: imprint: must be 32 bytes\n"
    assert not (workdir / "t2.bin").exists()


@pytest.mark.parametrize(
    "command, error",
    [
        (["tsa", "issue", "--file", "fw1.bin", "--now", "-1"], "now: must be in [0, 2**64), got -1"),
        (["tsa", "issue", "--file", "fw1.bin", "--now", "1", "--serial", str(2**64 - 1)],
         "serial: must be in [0, 2**64), got 18446744073709551616"),
        (["manifest", "build", "--firmware", "fw2.bin", "--version", "3", "--expiry", "100",
          "--now", "-10"], "now: must be in [0, 2**64), got -10"),
        (["tsa", "issue", "--file", "fw1.bin", "--now", "1", "--serial", "-5"],
         "serial: must be in [0, 2**64), got -5"),
        (["tsa", "issue", "--file", "fw1.bin", "--now", "1", "--serial", str(2**64)],
         "serial: must be in [0, 2**64), got 18446744073709551616"),
        (["manifest", "build", "--firmware", "fw2.bin", "--version", "3", "--expiry", "100",
          "--now", "10", "--serial", "-1"], "serial: must be in [0, 2**64), got -1"),
    ],
    ids=["tsa-now", "tsa-serial", "manifest-now", "tsa-start-serial-negative",
         "tsa-start-serial-past-u64", "manifest-start-serial-negative"],
)
def test_u64_flag_out_of_range_names_its_field(workdir, capsys, command, error):
    out = workdir / "out-of-range.bin"
    argv = [str(workdir / a) if a.endswith(".bin") else a for a in command]
    assert main(argv + ["--keys", str(workdir / "keys.json"), "--passphrase", PASSPHRASE,
                        "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {error}\n"
    assert not out.exists()


# --- keys ------------------------------------------------------------------------


def test_public_only_keystore_cannot_build_manifests(tmp_path, capsys):
    keys = tmp_path / "pub.json"
    assert main(["keys", "init", "--keys", str(keys), "--seed", "3"]) == 0
    fw = tmp_path / "fw.bin"
    fw.write_bytes(firmware_image(1))
    code = main(["manifest", "build", "--firmware", str(fw), "--version", "1",
                 "--expiry", "10", "--keys", str(keys), "--out", str(tmp_path / "m.bin")])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    capsys.readouterr()


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_keys_init_seed_outside_u64_is_a_config_error(tmp_path, capsys, seed):
    keys = tmp_path / "keys.json"
    assert main(["keys", "init", "--keys", str(keys), "--seed", seed]) == 2
    assert capsys.readouterr().err == f"error: seed: must be in [0, 2**64), got {seed}\n"
    assert not keys.exists()


def test_an_empty_key_id_is_a_config_error(tmp_path, capsys):
    keys = tmp_path / "keys.json"
    assert main(["keys", "init", "--keys", str(keys), "--ids", "a,,b"]) == 2
    assert capsys.readouterr().err == "error: key_id: must be a non-empty string\n"
    assert not keys.exists()


# --- identity ----------------------------------------------------------------------


def test_identity_lifecycle_round_trip(tmp_path, capsys):
    reg = str(tmp_path / "registry.json")
    assert main(["identity", "register", "--registry", reg,
                 "--device", "dev-1", "--secret", "box-99", "--seed", "5"]) == 0
    assert capsys.readouterr().out == "dev-1: Unprovisioned\n"

    assert main(["identity", "claim", "--registry", reg, "--device", "dev-1",
                 "--user", "alice", "--secret", "box-99"]) == 0
    assert capsys.readouterr().out == "dev-1: Claimed by alice\n"

    assert main(["identity", "deprovision", "--registry", reg, "--device", "dev-1"]) == 0
    assert capsys.readouterr().out == "dev-1: Deprovisioned\n"

    # re-register and claim by a new owner
    assert main(["identity", "register", "--registry", reg,
                 "--device", "dev-1", "--secret", "box-100"]) == 0
    assert main(["identity", "claim", "--registry", reg, "--device", "dev-1",
                 "--user", "bob", "--secret", "box-100"]) == 0
    capsys.readouterr()


def test_identity_seed_outside_u64_is_a_config_error(tmp_path, capsys):
    reg = tmp_path / "registry.json"
    assert main(["identity", "register", "--registry", str(reg), "--device", "dev-1",
                 "--secret", "box-99", "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: seed: must be in [0, 2**64), got -1\n"
    assert not reg.exists()


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_identity_registry_seed_outside_u64_names_the_file(tmp_path, capsys, seed):
    reg = tmp_path / "registry.json"
    assert main(["identity", "register", "--registry", str(reg), "--device", "dev-1",
                 "--secret", "box-99"]) == 0
    reg.write_text(json.dumps({**json.loads(reg.read_text()), "seed": seed}))
    capsys.readouterr()
    assert main(["identity", "blacklist", "--registry", str(reg), "--device", "dev-1"]) == 2
    assert capsys.readouterr().err == f"error: {reg}.seed: must be in [0, 2**64), got {seed}\n"


def test_identity_wrong_secret_refused(tmp_path, capsys):
    reg = str(tmp_path / "registry.json")
    main(["identity", "register", "--registry", reg, "--device", "dev-1",
          "--secret", "box-99"])
    code = main(["identity", "claim", "--registry", reg, "--device", "dev-1",
                 "--user", "eve", "--secret", "wrong"])
    assert code == 1
    assert capsys.readouterr().err.startswith("refused:")
    # the failed claim must not have changed the stored registry
    assert main(["identity", "claim", "--registry", reg, "--device", "dev-1",
                 "--user", "alice", "--secret", "box-99"]) == 0
    capsys.readouterr()


def test_identity_blacklist_refuses_claims(tmp_path, capsys):
    reg = str(tmp_path / "registry.json")
    main(["identity", "register", "--registry", reg, "--device", "dev-1",
          "--secret", "box-99"])
    assert main(["identity", "blacklist", "--registry", reg, "--device", "dev-1"]) == 0
    code = main(["identity", "claim", "--registry", reg, "--device", "dev-1",
                 "--user", "eve", "--secret", "box-99"])
    assert code == 1
    assert capsys.readouterr().err.startswith("refused:")


def test_identity_deprovision_unclaimed_is_refused(tmp_path, capsys):
    reg = str(tmp_path / "registry.json")
    main(["identity", "register", "--registry", reg, "--device", "dev-1",
          "--secret", "box-99"])
    assert main(["identity", "deprovision", "--registry", reg, "--device", "dev-1"]) == 1
    assert capsys.readouterr().err.startswith("refused:")


def test_identity_missing_registry_file(tmp_path, capsys):
    code = main(["identity", "claim", "--registry", str(tmp_path / "nope.json"),
                 "--device", "d", "--user", "u", "--secret", "s"])
    assert code == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "edit",
    [
        lambda obj: obj.pop("seed"),
        lambda obj: obj.update(devices=[1]),
        lambda obj: obj.update(seed=math.inf),
        lambda obj: obj.update(seed=2.7),
        lambda obj: obj.update(next_session="2"),
        lambda obj: obj["devices"][0].update(generation=True),
        lambda obj: obj["devices"][0].update(device_id=5),
        lambda obj: obj["devices"][0].update(owner=5),
        lambda obj: obj["devices"][0].update(needs_reprovision="yes"),
        lambda obj: obj["devices"][0].update(device_id="dev-2"),
        lambda obj: obj["devices"][0].update(device_id=""),
    ],
    ids=["no-seed", "non-object-device", "infinite-seed", "fractional-seed",
         "string-next-session", "bool-generation", "int-device-id", "int-owner",
         "string-needs-reprovision", "duplicate-device-id", "empty-device-id"],
)
def test_identity_malformed_registry_is_a_format_error(tmp_path, capsys, edit):
    reg = tmp_path / "registry.json"
    for device in ("dev-1", "dev-2"):
        assert main(["identity", "register", "--registry", str(reg), "--device", device,
                     "--secret", "box-99"]) == 0
    assert main(["identity", "claim", "--registry", str(reg), "--device", "dev-1",
                 "--user", "alice", "--secret", "box-99"]) == 0
    obj = json.loads(reg.read_text())
    edit(obj)
    reg.write_text(json.dumps(obj))
    capsys.readouterr()
    code = main(["identity", "blacklist", "--registry", str(reg), "--device", "dev-2"])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {reg}.")  # names the file and the bad item


def test_verify_malformed_state_is_a_format_error(workdir, tmp_path, capsys):
    obj = json.loads((workdir / "state.json").read_text())
    del obj["slots"]
    bad = tmp_path / "state.json"
    bad.write_text(json.dumps(obj))
    code = main(["manifest", "verify", "--manifest", str(workdir / "m2.bin"),
                 "--firmware", str(workdir / "fw2.bin"), "--state", str(bad), "--now", "50"])
    assert code == 2
    assert capsys.readouterr().err == f"error: {bad}.slots: missing required field\n"


_DEEP = None  # a file of 100,000 nested "[" instead of an edited one


@pytest.mark.parametrize(
    "kind, edit",
    [
        ("keys", lambda obj: obj.update(keys=5)),
        ("keys", lambda obj: obj.update(keys=[5])),
        ("keys", lambda obj: obj["keys"][0].update(private_enc=5)),
        ("keys", lambda obj: obj.update(seed_enc=5)),
        ("keys", lambda obj: obj["keys"][0].update(algorithm=[])),
        ("keys", lambda obj: obj["keys"][0].update(key_id=5)),
        ("keys", lambda obj: obj["keys"][0].update(key_id="tsa-root")),
        ("state", lambda obj: obj["slots"]["A"].update(version="x")),
        ("state", lambda obj: obj["trust_anchor_tsa"].update(public=5)),
        ("registry", lambda obj: obj["devices"][0].update(claim_hash=5)),
        ("keys", _DEEP),
        ("state", _DEEP),
        ("registry", _DEEP),
        ("scenario", _DEEP),
    ],
    ids=[
        "keys-not-a-list", "key-entry-not-an-object", "private-enc-not-a-string",
        "seed-enc-not-a-string", "algorithm-not-a-string", "key-id-not-a-string",
        "duplicate-key-id",
        "slot-version-not-an-int", "tsa-public-not-a-string",
        "claim-hash-not-a-string", "deep-keys", "deep-state", "deep-registry", "deep-scenario",
    ],
)
def test_malformed_input_file_exits_two(workdir, tmp_path, capsys, kind, edit):
    bad = tmp_path / "bad.json"
    if edit is _DEEP:
        bad.write_text("[" * 100_000)
    else:
        source = {"keys": workdir / "keys.json", "state": workdir / "state.json",
                  "registry": tmp_path / "registry.json"}[kind]
        if kind == "registry":
            assert main(["identity", "register", "--registry", str(source),
                         "--device", "dev-1", "--secret", "box-99"]) == 0
        obj = json.loads(source.read_text())
        edit(obj)
        bad.write_text(json.dumps(obj))
    argv = {
        "keys": ["tsa", "issue", "--keys", str(bad), "--passphrase", PASSPHRASE,
                 "--imprint", "00" * 32, "--now", "1", "--out", str(tmp_path / "t.bin")],
        "state": ["manifest", "verify", "--manifest", str(workdir / "m2.bin"),
                  "--firmware", str(workdir / "fw2.bin"), "--state", str(bad), "--now", "50"],
        "registry": ["identity", "blacklist", "--registry", str(bad), "--device", "dev-1"],
        "scenario": ["simulate", "--scenario", str(bad), "--out", str(tmp_path / "out")],
    }[kind]
    capsys.readouterr()
    assert main(argv) == 2  # an exception escaping main fails the test too
    assert capsys.readouterr().err.startswith("error:")


# --- detect and mp -----------------------------------------------------------------


@pytest.fixture(scope="module")
def telemetry_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("telemetry")
    baseline = sine_counts(240)
    write_telemetry(root / "baseline.csv", "dev-1", baseline)
    clean = sine_counts(240)
    write_telemetry(root / "clean.csv", "dev-1", clean)
    burst = sine_counts(240)
    for t in range(120, 132):
        burst[t] *= 10
    write_telemetry(root / "burst.csv", "dev-1", burst)
    return root


def test_detect_exits_one_on_anomalies(telemetry_files, tmp_path, capsys):
    out = str(tmp_path / "anomalies.jsonl")
    code = main(["detect", "--baseline", str(telemetry_files / "baseline.csv"),
                 "--input", str(telemetry_files / "burst.csv"), "--out", out])
    assert code == 1
    rows = [json.loads(line) for line in Path(out).read_text().splitlines()]
    assert rows
    assert all(row["device_id"] == "dev-1" for row in rows)
    # every flagged window overlaps the [120, 132) burst
    assert all(
        row["window_index"] < 132 and row["window_index"] + 16 > 120 for row in rows
    )
    capsys.readouterr()


def test_detect_exits_zero_on_clean_input(telemetry_files, tmp_path, capsys):
    out = str(tmp_path / "anomalies.jsonl")
    code = main(["detect", "--baseline", str(telemetry_files / "baseline.csv"),
                 "--input", str(telemetry_files / "clean.csv"), "--out", out])
    assert code == 0
    assert Path(out).read_text() == ""
    capsys.readouterr()


def test_detect_requires_baseline_for_every_device(telemetry_files, tmp_path, capsys):
    other = tmp_path / "other.csv"
    write_telemetry(other, "dev-9", sine_counts(240))
    code = main(["detect", "--baseline", str(telemetry_files / "baseline.csv"),
                 "--input", str(other), "--out", str(tmp_path / "a.jsonl")])
    assert code == 2
    assert "dev-9" in capsys.readouterr().err


@pytest.mark.parametrize("devices,duration", [(3, 800), (20, 240)])
def test_detect_on_a_simulate_run_writes_its_anomalies(devices, duration, tmp_path, capsys):
    scenario = tmp_path / "fleet.json"
    scenario.write_text(json.dumps(flooded_fleet(devices, duration)), encoding="utf-8")
    assert main(["simulate", "--scenario", str(scenario), "--out", str(tmp_path / "run")]) == 0
    config = scenario_module.load_scenario(scenario)
    assert detect_on_run(tmp_path / "run", config.detector, tmp_path / "detect.jsonl") == 1
    simulated = (tmp_path / "run" / "anomalies.jsonl").read_bytes()
    assert simulated
    assert (tmp_path / "detect.jsonl").read_bytes() == simulated
    capsys.readouterr()


def test_a_short_last_bucket_is_not_scored(tmp_path, capsys):
    # 800 = 114 x 7 + 2 and 400 = 57 x 7 + 1: both spans end in a partial
    # bucket, which once scored as an anomaly on every device
    obj = flooded_fleet(3, 800)
    obj["attacks"] = []
    obj["detector"]["interval"] = 7
    scenario = tmp_path / "fleet.json"
    scenario.write_text(json.dumps(obj), encoding="utf-8")
    assert main(["simulate", "--scenario", str(scenario), "--out", str(tmp_path / "run")]) == 0
    assert (tmp_path / "run" / "anomalies.jsonl").read_text() == ""
    config = scenario_module.load_scenario(scenario)
    assert detect_on_run(tmp_path / "run", config.detector, tmp_path / "detect.jsonl") == 0
    capsys.readouterr()


def test_detect_on_a_header_only_input_finds_nothing(telemetry_files, tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("time,device_id,direction,kind,size\n")
    out = tmp_path / "a.jsonl"
    code = main(["detect", "--baseline", str(telemetry_files / "baseline.csv"),
                 "--input", str(empty), "--out", str(out)])
    assert code == 0
    assert out.read_text() == ""
    assert "0 anomalies across 0 devices" in capsys.readouterr().out


def test_detect_nan_margin_is_an_error(telemetry_files, tmp_path, capsys):
    # an infinite margin would silence the detector just as NaN does
    for margin in ("nan", "inf"):
        code = main(["detect", "--baseline", str(telemetry_files / "baseline.csv"),
                     "--input", str(telemetry_files / "burst.csv"), "--margin", margin,
                     "--out", str(tmp_path / "a.jsonl")])
        assert code == 2, margin
        assert "margin" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value, error",
    [
        ("--interval", "0", "interval: must be positive"),
        ("--quantile", "0", "quantile: must be in (0, 1]"),
        ("--margin", "inf", "margin: must be finite and at least 1"),
        ("--window", "1", "window: must be at least 2"),
        ("--exclusion", "0", "exclusion: must be a positive integer or null"),
    ],
)
def test_detect_setting_error_names_its_field_before_any_file_is_read(tmp_path, capsys, flag, value, error):
    missing = str(tmp_path / "missing.csv")
    code = main(["detect", "--baseline", missing, "--input", missing, flag, value,
                 "--out", str(tmp_path / "a.jsonl")])
    assert code == 2
    assert capsys.readouterr().err == f"error: {error}\n"
    assert not (tmp_path / "a.jsonl").exists()


def test_detect_span_shorter_than_one_interval_is_an_error(telemetry_files, tmp_path, capsys):
    # 240 ticks of input hold no whole 500-tick bucket
    code = main(["detect", "--baseline", str(telemetry_files / "baseline.csv"),
                 "--input", str(telemetry_files / "burst.csv"), "--interval", "500",
                 "--out", str(tmp_path / "a.jsonl")])
    assert code == 2
    assert "empty range" in capsys.readouterr().err


def test_detect_input_shorter_than_one_window_is_an_error(telemetry_files, tmp_path, capsys):
    # the baseline holds every neighbor; the input holds no whole window
    short = tmp_path / "short.csv"
    write_telemetry(short, "dev-1", sine_counts(5))
    out = tmp_path / "a.jsonl"
    code = main(["detect", "--baseline", str(telemetry_files / "baseline.csv"),
                 "--input", str(short), "--window", "8", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == "error: need at least 8 points for window 8, got 5\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["mp", "detect"])
def test_field_past_the_csv_limit_is_a_parse_error(tmp_path, capsys, command):
    # csv refuses fields over 131,072 characters
    big = str(tmp_path / "big.csv")
    row = f"1,{'d' * 200_000},inbound,packet,64\n"
    Path(big).write_text("time,device_id,direction,kind,size\n" + row)
    args = {
        "mp": ["mp", "compute", "--input", big, "--device", "dev-1", "--window", "16"],
        "detect": ["detect", "--baseline", big, "--input", big, "--out", str(tmp_path / "a.jsonl")],
    }
    assert main(args[command]) == 2
    assert "row 1: field larger than field limit" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["detect", "mp compute", "mp discords", "mp compute --end"])
def test_ticks_too_far_apart_to_bucket_are_an_error(tmp_path, capsys, command):
    # two rows 10**13 ticks apart span 10**13 buckets, past the row cap
    far = str(tmp_path / "far.csv")
    Path(far).write_text("time,device_id,direction,kind,size\n"
                         "0,dev-1,inbound,packet,64\n10000000000000,dev-1,inbound,packet,64\n")
    near = str(tmp_path / "near.csv")
    Path(near).write_text("time,device_id,direction,kind,size\n0,dev-1,inbound,packet,64\n")
    mp = ["--device", "dev-1", "--window", "16"]
    args = {
        "detect": ["detect", "--baseline", far, "--input", far, "--out", str(tmp_path / "a.jsonl")],
        "mp compute": ["mp", "compute", "--input", far, *mp],
        "mp discords": ["mp", "discords", "--input", far, *mp, "--k", "3"],
        "mp compute --end": ["mp", "compute", "--input", near, *mp, "--start", "0",
                             "--end", "10000000000000"],
    }
    assert main(args[command]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: range [0, 1000000000000")
    assert "buckets for 1 rows, past the cap of 1e+07" in captured.err
    assert captured.out == ""


def brute_force_csv(path: Path, device_id: str, window: int) -> str:
    """What `mp compute` prints for a device's packets_in, by the all-pairs oracle
    on the per-event reference series."""
    with open(path, encoding="utf-8", newline="") as fh:
        events = ingest_events(fh)
    times = [e.time for e in events]
    series = bucketize_events(events, device_id, Metric.PACKETS_IN, 1, min(times), max(times) + 1)
    profile = compute_brute_force(series.values, ProfileConfig(window))
    rows = [f"{i},{float(d)!r},{int(j)}"
            for i, (d, j) in enumerate(zip(profile.distances, profile.neighbor_index))]
    return "\n".join(["index,distance,neighbor", *rows]) + "\n"


def test_mp_compute_fast_and_brute_agree_exactly(telemetry_files, tmp_path, capsys):
    path = telemetry_files / "baseline.csv"
    fast_out = tmp_path / "fast.csv"
    assert main(["mp", "compute", "--input", str(path), "--device", "dev-1", "--window", "16",
                 "--output", str(fast_out)]) == 0
    assert fast_out.read_bytes() == brute_force_csv(path, "dev-1", 16).encode()
    header, first = fast_out.read_text().splitlines()[:2]
    assert header == "index,distance,neighbor"
    index, distance, neighbor = first.split(",")
    assert index == "0"
    float(distance)
    int(neighbor)
    capsys.readouterr()


def test_mp_compute_fast_and_brute_pick_the_same_neighbors(tmp_path, capsys):
    # low packet counts repeat windows exactly, so nearest neighbors tie
    rng = random.Random(3)
    write_telemetry(tmp_path / "low.csv", "dev-1", [rng.choice((0, 0, 1, 1, 2, 3)) for _ in range(240)])
    out = tmp_path / "fast.csv"
    assert main(["mp", "compute", "--input", str(tmp_path / "low.csv"), "--device", "dev-1",
                 "--window", "8", "--output", str(out)]) == 0
    rows = {
        route: [line.split(",") for line in text.splitlines()[1:]]
        for route, text in (("fast", out.read_text()),
                            ("brute", brute_force_csv(tmp_path / "low.csv", "dev-1", 8)))
    }
    assert [r[2] for r in rows["fast"]] == [r[2] for r in rows["brute"]]
    for fast, brute in zip(rows["fast"], rows["brute"]):
        assert abs(float(fast[1]) - float(brute[1])) <= 1e-9
    capsys.readouterr()


def test_mp_compute_has_no_brute_flag(telemetry_files, capsys):
    assert main(["mp", "compute", "--input", str(telemetry_files / "baseline.csv"),
                 "--device", "dev-1", "--window", "16", "--brute"]) == 2
    assert "unrecognized arguments: --brute" in capsys.readouterr().err


def test_mp_discords_prints_json_indices(telemetry_files, capsys):
    code = main(["mp", "discords", "--input", str(telemetry_files / "baseline.csv"),
                 "--device", "dev-1", "--window", "16", "--k", "3"])
    assert code == 0
    indices = json.loads(capsys.readouterr().out)
    assert len(indices) == 3
    assert all(isinstance(i, int) for i in indices)


def test_mp_compute_unknown_metric_is_config_error(telemetry_files, capsys):
    code = main(["mp", "compute", "--input", str(telemetry_files / "baseline.csv"),
                 "--device", "dev-1", "--window", "16", "--metric", "nonsense"])
    assert code == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", [["compute"], ["discords", "--k", "3"]])
def test_mp_absent_device_is_an_error(telemetry_files, capsys, command):
    code = main(["mp", *command, "--input", str(telemetry_files / "baseline.csv"),
                 "--device", "dev-l", "--window", "16"])
    assert code == 2
    captured = capsys.readouterr()
    assert "no telemetry for device 'dev-l'" in captured.err
    assert captured.out == ""


# --- simulate ------------------------------------------------------------------------


def test_simulate_twice_is_byte_identical(tmp_path, capsys):
    scenario = str(SCENARIO_DIR / "identity_theft.json")
    for name in ("a", "b"):
        assert main(["simulate", "--scenario", scenario,
                     "--out", str(tmp_path / name)]) == 0
    capsys.readouterr()
    a_files = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert a_files == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in a_files:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_simulate_does_not_import_numpy_random(tmp_path):
    # importing numpy.random adds about 2 MB to the peak RSS of this run
    code = (
        "import sys; from fleetsec.cli import main; "
        f"code = main(['simulate', '--scenario', {str(SCENARIO_DIR / 'mixed_fleet.json')!r}, "
        f"'--out', {str(tmp_path / 'out')!r}]); "
        "print(code, 'numpy.random' in sys.modules)"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                            timeout=120, check=True)
    assert result.stdout.splitlines()[-1] == "0 False"


def test_simulate_bad_scenario_is_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"seed": 1}')
    code = main(["simulate", "--scenario", str(bad), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "keys, value",
    [
        (("detector", "exclusion"), True),
        (("deception", "mtd", "address_pool"), [[1], [2], [3]]),
        (("detector", "margin"), 10**400),  # an int past every float
    ],
)
def test_simulate_mistyped_field_is_config_error(tmp_path, capsys, keys, value):
    obj = json.loads((SCENARIO_DIR / "canary_probe.json").read_text())
    obj["detector"] = {"window": 16}
    target = obj
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    code = main(["simulate", "--scenario", str(bad), "--out", str(tmp_path / "out")])
    assert code == 2
    assert ".".join(keys) in capsys.readouterr().err


def test_simulate_nan_margin_is_config_error(tmp_path, capsys):
    # an infinite margin would silence the detector just as NaN does
    for margin in (math.nan, math.inf):
        obj = json.loads((SCENARIO_DIR / "baseline_flood.json").read_text())
        obj["detector"]["margin"] = margin
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))  # written as NaN or Infinity, which json reads back
        code = main(["simulate", "--scenario", str(bad), "--out", str(tmp_path / "out")])
        assert code == 2, margin
        assert "detector.margin" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit",
    [
        lambda obj: obj["attacks"][0].update(factor=10**21),
        lambda obj: obj["attacks"][0].update(factor=2**62),
        lambda obj: obj["devices"][0]["traffic"].update(base=1e20),
        lambda obj: obj["devices"][0]["traffic"].update(base=float("inf")),
        lambda obj: obj["devices"][0]["traffic"].update(base=1.7e308, amplitude=1.7e308, noise=1.7e308),
        lambda obj: obj["attacks"].extend([obj["attacks"][0]] * 60),
        lambda obj: obj["attacks"].append(
            {"kind": "dictionary_attack", "at": 0, "device": "sensor-a", "rate": [1, 10**30]}
        ),
        lambda obj: obj.update(devices=[], attacks=[], duration=10**13),  # still an array of ticks
    ],
    ids=["factor-1e21", "factor-2^62", "base-1e20", "base-Infinity", "largest-floats",
         "overlapping-floods", "dictionary-rate", "no-devices-1e13-ticks"],
)
def test_simulate_unbounded_traffic_is_config_error(tmp_path, capsys, edit):
    obj = json.loads((SCENARIO_DIR / "baseline_flood.json").read_text())
    edit(obj)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))  # writes the infinity as Infinity
    code = main(["simulate", "--scenario", str(bad), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_simulate_at_the_telemetry_row_cap(tmp_path, capsys, monkeypatch):
    # one device: at most (8 + 3 + 9 * 0.8 + 1) rows a tick, times the flood
    # on ticks 10-14, plus an open and a close row per heartbeat
    monkeypatch.setattr(scenario_module, "MAX_TELEMETRY_ROWS", 2000)

    def simulate(name, **fields):
        obj = {"seed": 7, "duration": 60, "detector": None, **fields}
        obj["devices"] = [{"id": "dev-a", "secret": "s-a"}]
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(obj))
        return main(["simulate", "--scenario", str(path), "--out", str(tmp_path / name)])

    def flood(factor):
        return [{"kind": "traffic_flood", "at": 10, "device": "dev-a", "factor": factor, "buckets": 5}]

    assert simulate("edge", attacks=flood(9)) == 0  # bound 19.2 * (55 + 45) + 6
    with open(tmp_path / "edge" / "telemetry.csv") as fh:
        assert 0 < sum(1 for _ in fh) - 1 <= 2000
    assert simulate("past", attacks=flood(10)) == 2  # bound 2022
    assert "telemetry could reach" in capsys.readouterr().err
    assert simulate("long", duration=2001) == 2
    assert "devices x duration" in capsys.readouterr().err


def test_simulate_missing_file_is_an_error(tmp_path, capsys):
    code = main(["simulate", "--scenario", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    capsys.readouterr()


# --- every subcommand on edited input ------------------------------------------------

# Scenario edits that keep each run small: never the duration, a traffic
# object, or an attack's factor, rate or duration.
_SMALL_RUN_PATHS = [
    path for path in key_paths(FULL_SCENARIO)
    if path[0] != "duration" and "traffic" not in path
    and not (path[0] == "attacks" and path[2:] in (("factor",), ("rate",), ("duration",)))
]


def _edited_json(obj, paths=None):
    return json_edits(obj, paths).map(lambda edits: json.dumps(edited(obj, edits)))


@pytest.fixture(scope="module")
def edited_inputs(workdir, tmp_path_factory):
    """command -> (strategy of edited input texts, argv that reads the text from "bad")."""
    root = tmp_path_factory.mktemp("edited")
    bad, registry, token = str(root / "bad"), str(root / "registry.json"), str(root / "token.bin")
    for device in ("dev-1", "dev-2"):
        assert main(["identity", "register", "--registry", registry, "--device", device,
                     "--secret", "box-99"]) == 0
    assert main(["identity", "claim", "--registry", registry, "--device", "dev-1",
                 "--user", "alice", "--secret", "box-99"]) == 0
    keys, fw1 = str(workdir / "keys.json"), str(workdir / "fw1.bin")
    assert main(["tsa", "issue", "--keys", keys, "--passphrase", PASSPHRASE, "--file", fw1,
                 "--now", "33", "--out", token]) == 0
    counts = sine_counts(40, period=10, base=3, amplitude=2)
    write_telemetry(root / "baseline.csv", "dev-1", counts)
    write_telemetry(root / "input.csv", "dev-1", counts)
    csv = (root / "input.csv").read_text(encoding="utf-8")
    return {
        "bad": bad,
        "simulate": (_edited_json(FULL_SCENARIO, _SMALL_RUN_PATHS),
                     ["simulate", "--scenario", bad, "--out", str(root / "out")]),
        "identity claim": (_edited_json(json.loads(Path(registry).read_text())),
                           ["identity", "claim", "--registry", bad, "--device", "dev-2",
                            "--user", "bob", "--secret", "box-99"]),
        "manifest verify": (_edited_json(json.loads((workdir / "state.json").read_text())),
                            ["manifest", "verify", "--manifest", str(workdir / "m2.bin"),
                             "--firmware", str(workdir / "fw2.bin"), "--state", bad, "--now", "50"]),
        "tsa verify": (_edited_json(json.loads(Path(keys).read_text())),
                       ["tsa", "verify", "--token", token, "--keys", bad,
                        "--passphrase", PASSPHRASE, "--file", fw1]),
        "detect": (seq_edits(len(csv), CSV_CHARS).map(lambda edits: "".join(apply_edits(csv, edits))),
                   ["detect", "--baseline", str(root / "baseline.csv"), "--input", bad,
                    "--window", "4", "--out", str(root / "anomalies.jsonl")]),
    }


@pytest.mark.parametrize("command", ["simulate", "identity claim", "manifest verify", "tsa verify",
                                     "detect"])
@settings(derandomize=True, max_examples=50, deadline=None)
@given(data=st.data())
def test_every_subcommand_on_edited_input_exits_0_1_or_2(edited_inputs, command, data):
    texts, argv = edited_inputs[command]
    Path(edited_inputs["bad"]).write_text(data.draw(texts), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)  # an exception escaping main fails the test too
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()

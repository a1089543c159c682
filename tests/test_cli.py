import json
import math
import random
from pathlib import Path

import pytest

from fleetsec.cli import main
from fleetsec.fleet_sim import scenario as scenario_module
from fleetsec.keystore import Keystore
from fleetsec.telemetry import Direction, EventKind
from fleetsec.tsa import TimestampAuthority
from fleetsec.update_protocol import build_manifest, initial_state

from helpers import ConnectionEvent, events_to_csv, firmware_image

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
    capsys.readouterr()


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
    ],
    ids=["no-seed", "non-object-device"],
)
def test_identity_malformed_registry_is_a_format_error(tmp_path, capsys, edit):
    reg = tmp_path / "registry.json"
    assert main(["identity", "register", "--registry", str(reg), "--device", "dev-1",
                 "--secret", "box-99"]) == 0
    obj = json.loads(reg.read_text())
    edit(obj)
    reg.write_text(json.dumps(obj))
    code = main(["identity", "blacklist", "--registry", str(reg), "--device", "dev-1"])
    assert code == 2
    assert "malformed registry" in capsys.readouterr().err


def test_verify_malformed_state_is_a_format_error(workdir, tmp_path, capsys):
    obj = json.loads((workdir / "state.json").read_text())
    del obj["slots"]
    bad = tmp_path / "state.json"
    bad.write_text(json.dumps(obj))
    code = main(["manifest", "verify", "--manifest", str(workdir / "m2.bin"),
                 "--firmware", str(workdir / "fw2.bin"), "--state", str(bad), "--now", "50"])
    assert code == 2
    assert "malformed device state" in capsys.readouterr().err


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


def test_mp_compute_fast_and_brute_agree_exactly(telemetry_files, tmp_path, capsys):
    args = ["mp", "compute", "--input", str(telemetry_files / "baseline.csv"),
            "--device", "dev-1", "--window", "16"]
    fast_out = tmp_path / "fast.csv"
    brute_out = tmp_path / "brute.csv"
    assert main(args + ["--output", str(fast_out)]) == 0
    assert main(args + ["--brute", "--output", str(brute_out)]) == 0
    assert fast_out.read_bytes() == brute_out.read_bytes()
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
    args = ["mp", "compute", "--input", str(tmp_path / "low.csv"), "--device", "dev-1", "--window", "8"]
    rows = {}
    for route, flag in (("fast", []), ("brute", ["--brute"])):
        out = tmp_path / f"{route}.csv"
        assert main(args + flag + ["--output", str(out)]) == 0
        rows[route] = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [r[2] for r in rows["fast"]] == [r[2] for r in rows["brute"]]
    for fast, brute in zip(rows["fast"], rows["brute"]):
        assert abs(float(fast[1]) - float(brute[1])) <= 1e-9
    capsys.readouterr()


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
    ],
    ids=["factor-1e21", "factor-2^62", "base-1e20", "base-Infinity", "largest-floats",
         "overlapping-floods", "dictionary-rate"],
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

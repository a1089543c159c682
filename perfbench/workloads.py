"""The benchmark's three workloads: inputs from a seed, output checks, run records.

Every input comes from the workload seed alone. `make_plan` draws the
small plan of a run (a scenario for `fleetsec simulate`, or the traffic
and flood positions of the CSVs for `fleetsec detect`); `write_inputs`
writes the files the CLI reads; `cli_args` is the command line of one
timed call. After a call, `check_outputs` reads the files it wrote and
returns named pass/fail checks, and `run_record` reduces the same files
to counts and digests that must repeat exactly at one seed.

Why these three (see README.md for the full table):

* fleet-1k: the criterion-9 fleet, many short series (1000 x 240), so the
  profile runs at fleet shape and the device ticks are the second layer.
* attack-storm: detector off; update delivery at mtu 12, the identity
  writes and deception carry the run.
* detect-long: few long series (3 x 10,000) through `fleetsec detect`,
  so the profile runs at long shape and CSV ingest is the other layer.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("fleet-1k", "attack-storm", "detect-long")

# Report files `fleetsec simulate` writes; detect writes only its --out file.
SIMULATE_FILES = ("events.jsonl", "telemetry.csv", "anomalies.jsonl", "alerts.jsonl", "devices.json")
DETECT_FILE = "anomalies.jsonl"

# Criterion 1's traffic (period 40, base 50, amplitude 20, noise 1.0) scaled
# by 0.4 to ~20 packets per tick. The noise scales too: at noise 1.0 on this
# amplitude the detector flags no flood at all (see README.md).
DETECT_TRAFFIC = {"period": 40, "base": 20.0, "amplitude": 8.0, "noise": 0.4}
DETECT_WINDOW = 16
FLOOD_FACTOR = 10
FLOOD_TICKS = 24


@dataclass(frozen=True)
class Plan:
    workload: str
    seed: int
    device_ticks: int
    scenario: dict | None = None  # simulate workloads
    detect: dict | None = None  # detect-long: devices, lengths, floods


# --- plans --------------------------------------------------------------------


def make_plan(workload: str, seed: int) -> Plan:
    if workload == "fleet-1k":
        return fleet_plan(seed)
    if workload == "attack-storm":
        return storm_plan(seed)
    if workload == "detect-long":
        return detect_plan(seed)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def fleet_plan(seed: int, devices: int = 1000, duration: int = 240) -> Plan:
    """Criterion 9: a clean fleet, one 1 KB campaign, detector on."""
    scenario = {
        "seed": seed,
        "duration": duration,
        "devices": [
            {
                "id": f"dev-{i:04d}",
                "secret": f"s-{i:04d}",
                "owner": f"user-{i % 40}",
                "traffic": {"period": 40, "base": 5.0, "amplitude": 2.0, "noise": 0.5},
            }
            for i in range(devices)
        ],
        "detector": {"baseline_ticks": duration // 2, "window": 16},
        "updates": [
            {"at": 40, "version": 2, "expiry": 600, "firmware_id": "fleet-v2", "size": 1024}
        ],
    }
    return Plan("fleet-1k", seed, devices * duration, scenario=scenario)


def storm_plan(seed: int, devices: int = 800, duration: int = 300) -> Plan:
    """Updates over an mtu-12 link under every attack kind except floods."""
    rng = random.Random(seed)
    ids = [f"node-{i:04d}" for i in range(devices)]
    specs = [
        {
            "id": dev,
            "secret": f"pin-{rng.getrandbits(32):08x}",
            "owner": f"owner-{i % 50}",
            "duty_cycle": 0.7 if i % 3 == 2 else 1.0,
            "traffic": {"period": 30, "base": 1.0, "amplitude": 0.5, "noise": 0.3},
        }
        for i, dev in enumerate(ids)
    ]
    updates = []
    for k, version in enumerate(range(2, 8)):
        update = {
            "at": 20 + 40 * k,
            "version": version,
            "expiry": 10 * duration,
            "firmware_id": f"storm-fw-{version}",
            "size": 1024,
            "retry_interval": 10,
        }
        if version == 4:
            update["plant_canary"] = True
            update["feint_regions"] = [[64, 32, "decoy bootloader patch"], [512, 16, "decoy crypto fix"]]
        updates.append(update)
    canary_at = updates[2]["at"]

    order = rng.sample(ids, devices)
    blacklisted, deprovisioned = order[:10], order[10:15]
    full_duty = [d for d in order[15:] if int(d[5:]) % 3 != 2]
    # Thieves show up while the home heartbeats (every 20 on-grid ticks)
    # still run, so their sightings overlap and the clone pass can see them.
    thefts = full_duty[:10]
    attacks = []
    for dev in thefts:
        attacks.append({"kind": "identity_theft", "at": rng.randrange(30, duration - 100), "device": dev, "duration": 30})
    for dev in rng.sample(ids, 20):
        attacks.append({"kind": "dictionary_attack", "at": rng.randrange(0, duration - 20), "device": dev, "duration": 20, "rate": [2, 6]})
    for dev in rng.sample(ids, 20):
        attacks.append({"kind": "rollback_replay", "at": rng.randrange(updates[0]["at"] + 5, duration), "device": dev})
    for dev in rng.sample(ids, 20):
        attacks.append({"kind": "tamper_firmware", "at": rng.randrange(updates[0]["at"] + 1, duration), "device": dev})
    for dev in rng.sample(ids, 10):
        attacks.append({"kind": "canary_probe", "at": rng.randrange(canary_at + 1, duration), "device": dev})
    admin = [{"at": rng.randrange(10, duration - 10), "action": "blacklist", "device": d} for d in blacklisted]
    admin += [{"at": rng.randrange(10, duration - 10), "action": "deprovision", "device": d} for d in deprovisioned]

    scenario = {
        "seed": seed,
        "duration": duration,
        "devices": specs,
        "links": {"mtu": 12, "latency": 1, "drop_rate": 0.002},
        "detector": None,
        "updates": updates,
        "attacks": attacks,
        "deception": {
            "canary_ports": [2323, 7547],
            "mtd": {
                "rotation_interval": 5,
                "address_pool": [f"10.{k // 250}.{k % 250}.1" for k in range(devices + 200)],
            },
        },
        "admin": admin,
    }
    return Plan("attack-storm", seed, devices * duration, scenario=scenario)


def detect_plan(seed: int, devices: int = 3, baseline: int = 3000, length: int = 10_000) -> Plan:
    """Clean baseline CSV plus an input CSV with one x10 flood per device."""
    rng = random.Random(seed)
    floods = {
        f"meter-{d}": rng.randrange(4 * DETECT_WINDOW, length - FLOOD_TICKS - 4 * DETECT_WINDOW)
        for d in range(devices)
    }
    detect = {"devices": sorted(floods), "baseline": baseline, "length": length, "floods": floods}
    return Plan("detect-long", seed, devices * (baseline + length), detect=detect)


# --- inputs -------------------------------------------------------------------


def _detect_counts(seed: int, stream: int, n: int) -> np.ndarray:
    t = np.arange(n)
    shape = DETECT_TRAFFIC
    wave = shape["base"] + shape["amplitude"] * np.sin(2 * np.pi * (t % shape["period"]) / shape["period"])
    noise = np.random.default_rng([seed % 2**64, stream]).standard_normal(n) * shape["noise"]
    return np.maximum(0, np.rint(wave + noise)).astype(np.int64)


def _write_packets_csv(path: Path, devices: list[str], counts: list[np.ndarray]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("time,device_id,direction,kind,size\n")
        for t in range(len(counts[0])):
            fh.write("".join(f"{t},{dev},inbound,packet,64\n" * int(c[t]) for dev, c in zip(devices, counts)))


def write_inputs(plan: Plan, in_dir: Path) -> None:
    in_dir.mkdir(parents=True, exist_ok=True)
    if plan.scenario is not None:
        (in_dir / "scenario.json").write_text(json.dumps(plan.scenario), encoding="utf-8")
        return
    det = plan.detect
    devices = det["devices"]
    base = [_detect_counts(plan.seed, 2 * k, det["baseline"]) for k in range(len(devices))]
    live = [_detect_counts(plan.seed, 2 * k + 1, det["length"]) for k in range(len(devices))]
    for dev, counts in zip(devices, live):
        at = det["floods"][dev]
        counts[at : at + FLOOD_TICKS] *= FLOOD_FACTOR
    _write_packets_csv(in_dir / "baseline.csv", devices, base)
    _write_packets_csv(in_dir / "input.csv", devices, live)


def cli_args(plan: Plan, in_dir: Path, out_dir: Path) -> list[str]:
    if plan.scenario is not None:
        return ["simulate", "--scenario", str(in_dir / "scenario.json"), "--out", str(out_dir)]
    return [
        "detect",
        "--baseline", str(in_dir / "baseline.csv"),
        "--input", str(in_dir / "input.csv"),
        "--window", str(DETECT_WINDOW),
        "--out", str(out_dir / DETECT_FILE),
    ]


def output_files(plan: Plan) -> tuple[str, ...]:
    return SIMULATE_FILES if plan.scenario is not None else (DETECT_FILE,)


# --- reading outputs ----------------------------------------------------------


def _jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _count_lines(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def verdicts_from_events(events: list[dict]) -> Counter:
    """Update verdicts by reason, Accept included, as the event log shows them."""
    verdicts = Counter()
    for e in events:
        if e["kind"] == "update_applied":
            verdicts["Accept"] += 1
        elif e["kind"] == "update_rejected":
            verdicts[e["detail"]["reason"]] += 1
    return verdicts


def run_record(plan: Plan, exit_code: int, out_dir: Path) -> dict:
    """Counts and report digests that repeat exactly for one seed.

    Frames sent and sessions created are not in the report files; the
    traced run adds them from its counters.
    """
    record = {
        "exit_code": exit_code,
        "sha256": {name: _sha256(out_dir / name) for name in output_files(plan)},
        "anomalies": _count_lines(out_dir / DETECT_FILE),
    }
    if plan.scenario is None:
        return record
    events = _jsonl(out_dir / "events.jsonl")
    record.update(
        events_by_kind=dict(sorted(Counter(e["kind"] for e in events).items())),
        verdicts=dict(sorted(verdicts_from_events(events).items())),
        alerts=_count_lines(out_dir / "alerts.jsonl"),
        telemetry_rows=_count_lines(out_dir / "telemetry.csv") - 1,
        frames_dropped=sum(e["detail"]["missing"] for e in events if e["kind"] == "frames_dropped"),
    )
    return record


# --- checks -------------------------------------------------------------------


def check_outputs(plan: Plan, exit_code: int, out_dir: Path) -> list[tuple[str, bool]]:
    """Named checks over one call's output files; True means passed."""
    if plan.workload == "fleet-1k":
        return _check_fleet(plan, exit_code, out_dir)
    if plan.workload == "attack-storm":
        return _check_storm(plan, exit_code, out_dir)
    return _check_detect(plan, exit_code, out_dir)


def _check_fleet(plan: Plan, exit_code: int, out_dir: Path) -> list[tuple[str, bool]]:
    devices = json.loads((out_dir / "devices.json").read_text(encoding="utf-8"))["devices"]
    events = _jsonl(out_dir / "events.jsonl")
    n = len(plan.scenario["devices"])
    return [
        ("exit code 0", exit_code == 0),
        (
            "every device Claimed, Running, on version 2",
            len(devices) == n
            and all(
                d["status"] == "Claimed" and d["mode"] == "Running" and d["active_version"] == 2
                for d in devices
            ),
        ),
        ("one update_applied per device", sum(e["kind"] == "update_applied" for e in events) == n),
        ("no anomalies on an attack-free fleet", _count_lines(out_dir / "anomalies.jsonl") == 0),
    ]


def _check_storm(plan: Plan, exit_code: int, out_dir: Path) -> list[tuple[str, bool]]:
    sc = plan.scenario
    devices = {
        d["device_id"]: d
        for d in json.loads((out_dir / "devices.json").read_text(encoding="utf-8"))["devices"]
    }
    events = _jsonl(out_dir / "events.jsonl")
    alerts = _jsonl(out_dir / "alerts.jsonl")
    by_actor: dict[str, list[dict]] = {}
    for e in events:
        by_actor.setdefault(e["actor"], []).append(e)

    def actors(kind: str) -> list[str]:
        return [f"attacker:{kind}:{i}" for i, a in enumerate(sc["attacks"]) if a["kind"] == kind]

    def replay_ok(actor: str) -> bool:
        kinds = [(e["kind"], e["detail"].get("reason")) for e in by_actor.get(actor, [])]
        return [k for k, _ in kinds] == ["attack_noop"] or kinds == [
            ("replay_attempted", None),
            ("update_rejected", "Rollback"),
        ]

    def tamper_ok(actor: str) -> bool:
        kinds = [(e["kind"], e["detail"].get("reason")) for e in by_actor.get(actor, [])]
        return kinds == [("tamper_attempted", None), ("update_rejected", "DigestMismatch")]

    thefts = {a["device"] for a in sc["attacks"] if a["kind"] == "identity_theft"}
    flagged = {d for d, row in devices.items() if row["clone_flagged"]}

    deprovisioned = {a["device"] for a in sc["admin"] if a["action"] == "deprovision"}
    owners = {d["id"]: None if d["id"] in deprovisioned else d["owner"] for d in sc["devices"]}
    dictionary_targets = {a["device"] for a in sc["attacks"] if a["kind"] == "dictionary_attack"}

    blacklisted_at: dict[str, int] = {}
    late_updates = 0
    for position, e in enumerate(events):
        device = e["detail"].get("device")
        if e["kind"] == "device_blacklisted":
            blacklisted_at[device] = position
        elif e["kind"] == "update_applied" and device in blacklisted_at:
            late_updates += 1

    probes = actors("canary_probe")
    probe_events = {a: [e for e in by_actor.get(a, []) if e["kind"] == "canary_probe"] for a in probes}
    alerts_by_actor = Counter(a["actor"] for a in alerts)

    # A device's active slot must hold an image that was published and
    # verified: the factory image (version 1, gen_time 0) or a campaign's.
    published = {(1, 0)} | {(u["version"], u["at"]) for u in sc["updates"]}

    assignments = [e["detail"]["assignment"] for e in events if e["kind"] in ("mtd_assigned", "mtd_rotated")]
    final_addresses = [row["address"] for row in devices.values()]
    pool = set(sc["deception"]["mtd"]["address_pool"])

    return [
        ("exit code 0", exit_code == 0),
        ("every device reported", set(devices) == set(owners)),
        ("each replay is rejected with Rollback or is a no-op", all(map(replay_ok, actors("rollback_replay")))),
        ("each tamper is rejected with DigestMismatch", all(map(tamper_ok, actors("tamper_firmware")))),
        ("exactly the identity-theft targets are clone-flagged", flagged == thefts),
        (
            "no dictionary attack changes an owner",
            all(devices[d]["owner"] == owners[d] for d in dictionary_targets)
            and all(e["kind"] != "device_claimed" or e["time"] == 0 for e in events),
        ),
        ("blacklisted devices get no update after the blacklist", late_updates == 0),
        (
            "every canary alert names its probing actor",
            set(alerts_by_actor) <= set(probes)
            and all(
                len(probe_events[a]) == 1
                and probe_events[a][0]["detail"]["alerts"] == alerts_by_actor[a] > 0
                for a in probes
            ),
        ),
        (
            "every device ends Running with a verified active slot",
            all(
                row["mode"] == "Running" and (row["active_version"], row["active_gen_time"]) in published
                for row in devices.values()
            ),
        ),
        (
            "the MTD assignment is injective",
            bool(assignments)
            and all(len(set(a.values())) == len(a) == len(devices) for a in assignments)
            and len(set(final_addresses)) == len(devices)
            and set(final_addresses) <= pool,
        ),
    ]


def _check_detect(plan: Plan, exit_code: int, out_dir: Path) -> list[tuple[str, bool]]:
    det = plan.detect
    anomalies = _jsonl(out_dir / DETECT_FILE)

    def in_flood(a: dict) -> bool:
        at = det["floods"].get(a["device_id"])
        return at is not None and a["time"] < at + FLOOD_TICKS and a["time"] + DETECT_WINDOW > at

    flagged = {a["device_id"] for a in anomalies if in_flood(a)}
    return [
        ("exit code 1 (anomalies found)", exit_code == 1),
        (
            "every anomaly's score exceeds its threshold",
            all(math.isfinite(a["score"]) and a["score"] > a["threshold"] for a in anomalies),
        ),
        ("each flood is flagged", flagged == set(det["devices"])),
        ("nothing is flagged outside a flood", all(map(in_flood, anomalies))),
    ]

"""Pinned report digests: the simulator's and `fleetsec detect`'s output.

Each file under golden/ holds, for one config, the sha256 of every report
file but anomalies.jsonl and of telemetry.csv's data rows sorted, so a
change of row order alone shows as a changed file digest over an
unchanged row multiset. anomalies.jsonl is pinned by its records:
device, metric, window and time must match exactly, and score and
threshold to a relative 1e-9, so a float's last bits may move without a
re-pin and a re-pin shows which windows moved.
Each golden/detect-*.json holds the records of the anomalies.jsonl that
`fleetsec detect` writes for a simulate run's telemetry.csv, calibrated
on its rows before the run's baseline_ticks.
After a deliberate report change, regenerate the pins with

    PYTHONPATH=src python tests/test_golden.py

and say in CHANGES.md which digests moved and why.
"""

import hashlib
import json
from pathlib import Path

import pytest

from fleetsec.fleet_sim.report import REPORT_FILES, TELEMETRY_FILE
from fleetsec.fleet_sim.scenario import load_scenario, parse_scenario, simulate_to_dir
from helpers import detect_on_run, flooded_fleet
from test_acceptance import fleet_scenario, flood_scenario

TESTS_DIR = Path(__file__).resolve().parent
GOLDEN_DIR = TESTS_DIR / "golden"
SCENARIO_DIR = TESTS_DIR.parent / "scenarios"
ANOMALIES = "anomalies.jsonl"  # pinned by its records, not its bytes
SCORES = ("score", "threshold")  # the record fields compared to a relative 1e-9

CONFIGS = {
    **{p.stem: (lambda p=p: load_scenario(p)) for p in sorted(SCENARIO_DIR.glob("*.json"))},
    "criterion1_seed1": lambda: parse_scenario(flood_scenario(1)),
    "criterion9": lambda: parse_scenario(fleet_scenario()),
}

# one long series; 20 short ones, which compute_many profiles 5 to a tile
DETECT_CONFIGS = {
    "criterion1_seed1": lambda: parse_scenario(flood_scenario(1)),
    "flooded_fleet": lambda: parse_scenario(flooded_fleet(20, 240)),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _records(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def digests(out_dir: Path) -> dict:
    files = {name: _sha256((out_dir / name).read_bytes()) for name in REPORT_FILES if name != ANOMALIES}
    header, *rows = (out_dir / TELEMETRY_FILE).read_bytes().splitlines(keepends=True)
    sorted_rows = _sha256(header + b"".join(sorted(rows)))
    return {"files": files, ANOMALIES: _records(out_dir / ANOMALIES), "telemetry_sorted_rows": sorted_rows}


def detect_digests(config, tmp: Path) -> dict:
    simulate_to_dir(config, tmp / "run")
    detect_on_run(tmp / "run", config.detector, tmp / ANOMALIES)
    return {ANOMALIES: _records(tmp / ANOMALIES)}


def assert_matches_pin(got: dict, pin: dict) -> None:
    """Equal to the pin, but each anomaly's score and threshold need only agree to a relative 1e-9."""
    got, pin = dict(got), dict(pin)
    got_records, pin_records = got.pop(ANOMALIES), pin.pop(ANOMALIES)
    assert got == pin
    assert [{k: v for k, v in r.items() if k not in SCORES} for r in got_records] == [
        {k: v for k, v in r.items() if k not in SCORES} for r in pin_records
    ]
    for g, p in zip(got_records, pin_records):
        for key in SCORES:
            assert g[key] == pytest.approx(p[key], rel=1e-9, abs=0), (key, g)


def pin_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.json"


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_report_digests_match_the_pins(name, tmp_path):
    simulate_to_dir(CONFIGS[name](), tmp_path)
    assert_matches_pin(digests(tmp_path), json.loads(pin_path(name).read_text(encoding="utf-8")))


@pytest.mark.parametrize("name", sorted(DETECT_CONFIGS))
def test_detect_digests_match_the_pins(name, tmp_path, capsys):
    got = detect_digests(DETECT_CONFIGS[name](), tmp_path)
    capsys.readouterr()
    assert_matches_pin(got, json.loads(pin_path(f"detect-{name}").read_text(encoding="utf-8")))


if __name__ == "__main__":
    import tempfile

    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, build in sorted(CONFIGS.items()):
        with tempfile.TemporaryDirectory() as tmp:
            simulate_to_dir(build(), tmp)
            text = json.dumps(digests(Path(tmp)), indent=2, sort_keys=True) + "\n"
        pin_path(name).write_text(text, encoding="utf-8")
        print(f"pinned {name}")
    for name, build in sorted(DETECT_CONFIGS.items()):
        with tempfile.TemporaryDirectory() as tmp:
            text = json.dumps(detect_digests(build(), Path(tmp)), indent=2, sort_keys=True) + "\n"
        pin_path(f"detect-{name}").write_text(text, encoding="utf-8")
        print(f"pinned detect-{name}")

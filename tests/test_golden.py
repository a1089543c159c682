"""Pinned report digests: the simulator's and `fleetsec detect`'s output, byte for byte.

Each file under golden/ holds, for one config, the sha256 of every report
file and of telemetry.csv's data rows sorted, so a change of row order
alone shows as a changed file digest over an unchanged row multiset.
Each golden/detect-*.json holds the sha256 of the anomalies.jsonl that
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


def digests(out_dir: Path) -> dict:
    files = {name: _sha256((out_dir / name).read_bytes()) for name in REPORT_FILES}
    header, *rows = (out_dir / TELEMETRY_FILE).read_bytes().splitlines(keepends=True)
    sorted_rows = _sha256(header + b"".join(sorted(rows)))
    return {"files": files, "telemetry_sorted_rows": sorted_rows}


def detect_digests(config, tmp: Path) -> dict:
    simulate_to_dir(config, tmp / "run")
    detect_on_run(tmp / "run", config.detector, tmp / "anomalies.jsonl")
    return {"anomalies.jsonl": _sha256((tmp / "anomalies.jsonl").read_bytes())}


def pin_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.json"


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_report_digests_match_the_pins(name, tmp_path):
    simulate_to_dir(CONFIGS[name](), tmp_path)
    assert digests(tmp_path) == json.loads(pin_path(name).read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(DETECT_CONFIGS))
def test_detect_digests_match_the_pins(name, tmp_path, capsys):
    got = detect_digests(DETECT_CONFIGS[name](), tmp_path)
    capsys.readouterr()
    assert got == json.loads(pin_path(f"detect-{name}").read_text(encoding="utf-8"))


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

"""Scenario report bundle and its on-disk form.

A report directory holds five files: events.jsonl (the event log),
telemetry.csv (raw connection events in the telemetry module's format),
anomalies.jsonl (detector output), alerts.jsonl (deception alerts), and
devices.json (final per-device state). Writers iterate deterministic
structures only, so the same report always serializes to the same bytes.
telemetry.csv rows run by tick, then device in config order, with a
device's packet rows before its session open/close pairs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from ..deception import Alert, write_alerts_jsonl
from ..detector import AnomalyReport, write_reports_jsonl
from ..telemetry import TelemetryCounts

if TYPE_CHECKING:
    from .scenario import ScenarioConfig

EVENTS_FILE = "events.jsonl"
TELEMETRY_FILE = "telemetry.csv"
ANOMALIES_FILE = "anomalies.jsonl"
ALERTS_FILE = "alerts.jsonl"
DEVICES_FILE = "devices.json"

REPORT_FILES = (EVENTS_FILE, TELEMETRY_FILE, ANOMALIES_FILE, ALERTS_FILE, DEVICES_FILE)


@dataclass(frozen=True)
class EventRow:
    time: int
    actor: str
    kind: str
    detail: dict

    def to_json(self) -> str:
        return json.dumps(
            {"time": self.time, "actor": self.actor, "kind": self.kind, "detail": self.detail}
        )


@dataclass
class ScenarioReport:
    config: "ScenarioConfig"
    telemetry: TelemetryCounts
    events: list[EventRow] = field(default_factory=list)
    anomalies: list[AnomalyReport] = field(default_factory=list)
    alerts: list[Alert] = field(default_factory=list)
    devices: list[dict] = field(default_factory=list)


def write_report(report: ScenarioReport, out_dir: str | Path) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / EVENTS_FILE, "w", encoding="utf-8", newline="") as fh:
        for row in report.events:
            fh.write(row.to_json() + "\n")
    with open(out / TELEMETRY_FILE, "w", encoding="utf-8", newline="") as fh:
        report.telemetry.to_csv(fh)
    with open(out / ANOMALIES_FILE, "w", encoding="utf-8", newline="") as fh:
        write_reports_jsonl(report.anomalies, fh)
    with open(out / ALERTS_FILE, "w", encoding="utf-8", newline="") as fh:
        write_alerts_jsonl(report.alerts, fh)
    with open(out / DEVICES_FILE, "w", encoding="utf-8", newline="") as fh:
        json.dump({"devices": report.devices}, fh, indent=2)
        fh.write("\n")
    return out

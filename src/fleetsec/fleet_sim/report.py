"""Scenario report bundle and its on-disk form.

A report directory holds five files: events.jsonl (the event log),
telemetry.csv (the run's `TelemetryCounts`, one row per event, in the
format `ingest_csv` reads), anomalies.jsonl (detector output),
alerts.jsonl (deception alerts), and devices.json (final per-device
state). Writers iterate deterministic structures only, so the same report
always serializes to the same bytes. telemetry.csv rows run by tick, then
device in config order, then column: a device's packets, then its
session opens, then its session closes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable

from ..deception import Alert
from ..detector import AnomalyReport
from ..telemetry import TelemetryCounts
from ..wire import save_json

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


@dataclass
class ScenarioReport:
    telemetry: TelemetryCounts
    events: list[EventRow] = field(default_factory=list)
    anomalies: list[AnomalyReport] = field(default_factory=list)
    alerts: list[Alert] = field(default_factory=list)
    devices: list[dict] = field(default_factory=list)


def write_jsonl(records: Iterable, stream: IO[str]) -> None:
    """One JSON object a line: each record's fields, in declaration order."""
    for record in records:
        stream.write(json.dumps(vars(record)) + "\n")


def write_report(report: ScenarioReport, out_dir: str | Path) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, records in (
        (EVENTS_FILE, report.events),
        (ANOMALIES_FILE, report.anomalies),
        (ALERTS_FILE, report.alerts),
    ):
        with open(out / name, "w", encoding="utf-8", newline="") as fh:
            write_jsonl(records, fh)
    with open(out / TELEMETRY_FILE, "w", encoding="utf-8", newline="") as fh:
        report.telemetry.to_csv(fh)
    save_json(out / DEVICES_FILE, {"devices": report.devices})
    return out

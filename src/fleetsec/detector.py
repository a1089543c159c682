"""Per-device anomaly detection on telemetry series.

A device's profile distances on an attack-free baseline calibrate a
threshold (quantile of the empirical distribution times a safety margin);
any window of later telemetry whose profile distance exceeds it is
reported. Calibrating per device keeps a heterogeneous fleet comparable:
every device gets its own score scale.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import IO, Iterable, Mapping

import numpy as np

from .errors import FleetsecError
from .matrix_profile import MatrixProfile, ProfileConfig, compute_fast
from .telemetry import TelemetrySeries

DEFAULT_QUANTILE = 0.99
DEFAULT_MARGIN = 2.0


class MissingThresholdError(FleetsecError):
    """A device has a series but no calibrated threshold."""

    def __init__(self, device_id: str):
        super().__init__(f"no threshold for device {device_id!r}")
        self.device_id = device_id


@dataclass(frozen=True)
class DetectorConfig:
    profile_config: ProfileConfig
    quantile: float = DEFAULT_QUANTILE
    margin: float = DEFAULT_MARGIN

    def __post_init__(self):
        if not 0.0 < self.quantile <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {self.quantile}")
        if self.margin < 1.0:
            raise ValueError(f"margin must be >= 1, got {self.margin}")


@dataclass(frozen=True)
class AnomalyReport:
    """One flagged window; carries the threshold it was judged against."""

    device_id: str
    metric: str
    window_index: int
    time: int
    score: float
    threshold: float

    def to_json(self) -> str:
        return json.dumps(
            {
                "device_id": self.device_id,
                "metric": self.metric,
                "window_index": self.window_index,
                "time": self.time,
                "score": self.score,
                "threshold": self.threshold,
            }
        )


def threshold_from_distances(distances, quantile: float, margin: float) -> float:
    """margin times the linearly interpolated quantile of the distances."""
    return float(margin * np.quantile(np.asarray(distances, dtype=np.float64), quantile))


def calibrate(baseline: TelemetrySeries, config: DetectorConfig) -> float:
    """Threshold from an attack-free baseline series.

    Assumes the baseline captures the device's recurring behavior; with a
    margin above 1 the baseline itself never exceeds its own threshold at
    the calibration quantile.
    """
    profile = compute_fast(baseline.values, config.profile_config)
    return threshold_from_distances(profile.distances, config.quantile, config.margin)


def detect(
    series: TelemetrySeries, threshold: float, config: DetectorConfig
) -> list[AnomalyReport]:
    """Reports for every window whose profile distance exceeds threshold."""
    profile = compute_fast(series.values, config.profile_config)
    return reports_from_profile(series, profile, threshold)


def reports_from_profile(
    series: TelemetrySeries, profile: MatrixProfile, threshold: float
) -> list[AnomalyReport]:
    """Turn an already computed profile into sorted anomaly reports."""
    return [
        AnomalyReport(
            device_id=series.device_id,
            metric=series.metric.value,
            window_index=i,
            time=series.start_time + i * series.interval,
            score=float(profile.distances[i]),
            threshold=float(threshold),
        )
        for i in np.flatnonzero(profile.distances > threshold).tolist()
    ]


def detect_fleet(
    series_by_device: Mapping[str, TelemetrySeries],
    thresholds: Mapping[str, float],
    config: DetectorConfig,
) -> list[AnomalyReport]:
    """Concatenated per-device detection, ordered by (device_id, window)."""
    reports = []
    for device_id in sorted(series_by_device):
        if device_id not in thresholds:
            raise MissingThresholdError(device_id)
        reports.extend(detect(series_by_device[device_id], thresholds[device_id], config))
    return reports


def write_reports_jsonl(reports: Iterable[AnomalyReport], stream: IO[str]) -> None:
    for report in reports:
        stream.write(report.to_json() + "\n")

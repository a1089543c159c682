"""Per-device anomaly detection on telemetry series.

A device's profile distances on an attack-free baseline (its self-join)
set its threshold: a quantile of the empirical distribution times a
safety margin. Each window of the telemetry is then scored against the
baseline's windows only (an AB-join), and any window whose distance
exceeds the threshold is reported. Scored against the clean baseline, a
repeated attack cannot match its own earlier copy. Both come from one
profile per device of a series scored against its first points, the
baseline: the telemetry itself when the baseline is its own prefix, as
in the simulator, where a window skips its own copy as a trivial match;
or, for a separate recording, the baseline, a gap of `exclusion` zeros
and the telemetry, where no pair is a trivial match. Calibrating per
device keeps a heterogeneous fleet comparable: every device gets its own
score scale. `detect_counts` is the one detection pass, used by the
fleet simulator and by `fleetsec detect`, and `DetectorConfig` is the
one home of its settings: a scenario's detector keys and `fleetsec
detect`'s flags are its fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .matrix_profile import InsufficientLengthError, ProfileConfig, compute_many
from .telemetry import Metric, TelemetryCounts
from .wire import ConfigError

# Devices whose series one pass profiles together. Batching pays off
# within a few dozen series; larger blocks only hold more series and
# profiles alive at the run's memory peak.
_DETECTOR_BLOCK = 64


@dataclass(frozen=True)
class DetectorConfig:
    """The detector's settings: profile window and exclusion, threshold
    quantile and margin, bucket interval, and the metrics profiled.

    A bad value is a ConfigError naming its field; ProfileConfig checks
    window and exclusion.
    """

    window: int = 16
    exclusion: int | None = None  # half the window
    quantile: float = 0.99
    margin: float = 2.0
    interval: int = 1
    metrics: tuple[Metric, ...] = (Metric.PACKETS_IN,)

    def __post_init__(self):
        self.profile_config  # ProfileConfig checks window and exclusion
        if not 0 < self.quantile <= 1:
            raise ConfigError("quantile", "must be in (0, 1]")
        if not 1 <= self.margin < math.inf:  # NaN fails it too
            raise ConfigError("margin", "must be finite and at least 1")
        if self.interval < 1:
            raise ConfigError("interval", "must be positive")
        if not self.metrics:
            raise ConfigError("metrics", "must name at least one metric")

    @property
    def profile_config(self) -> ProfileConfig:
        return ProfileConfig(self.window, self.exclusion)


@dataclass(frozen=True)
class AnomalyReport:
    """One flagged window; carries the threshold it was judged against."""

    device_id: str
    metric: str
    window_index: int
    time: int
    score: float
    threshold: float


def threshold_from_distances(distances, quantile: float, margin: float) -> float | np.ndarray:
    """margin times the linearly interpolated quantile of the distances.

    A float for one row of distances; for a (rows, n) stack, the array of
    each row's threshold, equal to the row-by-row calls.
    """
    thresholds = margin * np.quantile(np.asarray(distances, dtype=np.float64), quantile, axis=-1)
    return float(thresholds) if thresholds.ndim == 0 else thresholds


def detect_counts(
    config: DetectorConfig,
    telemetry: TelemetryCounts,
    rows: Sequence[int],
    span: tuple[int, int],
    baseline: int | tuple[TelemetryCounts, Sequence[int], tuple[int, int]],
) -> list[AnomalyReport]:
    """Reports for every window whose profile distance exceeds its device's threshold.

    Device k is telemetry row rows[k], bucketed at `config.interval` over
    its span, [start, end), cut to whole intervals from start, so no
    short last bucket is scored. `baseline` is either an end tick, which
    makes the telemetry's own buckets before it the baseline, or a
    separate recording `(counts, baseline_rows, baseline_span)`, where
    device k is row baseline_rows[k], bucketed the same way. Its baseline
    series sets the threshold for its telemetry series, metric by
    metric, and is what its telemetry windows are scored against.
    Reports are ordered by device as `rows` orders them, then metric as
    `config.metrics` does, then window.
    """
    interval, profile_config, m = config.interval, config.profile_config, config.window
    span = _whole_buckets(span, interval)
    if isinstance(baseline, tuple):
        base_counts, base_rows, base_span = baseline
        base_span = _whole_buckets(base_span, interval)
        n_ref = (base_span[1] - base_span[0]) // interval
        lead = n_ref + profile_config.exclusion  # where the telemetry starts in the profiled series
    else:
        n_ref, lead = (baseline - span[0]) // interval, 0
    reports = []
    for first in range(0, len(rows), _DETECTOR_BLOCK):
        block = slice(first, first + _DETECTOR_BLOCK)
        scored = []
        for metric in config.metrics:
            values = telemetry.bucket(rows[block], metric, interval, *span)
            if values.shape[1] < m:
                raise InsufficientLengthError(
                    f"need at least {m} points for window {m}, got {values.shape[1]}"
                )
            if lead:  # the baseline, a gap of zeros, then the telemetry
                base = base_counts.bucket(base_rows[block], metric, interval, *base_span)
                values = np.hstack([base, np.zeros((len(base), lead - n_ref)), values])
            profiles = compute_many(values, profile_config, n_ref)
            calibration = np.stack([p.distances[: n_ref - m + 1] for p in profiles])
            thresholds = threshold_from_distances(calibration, config.quantile, config.margin)
            scored.append((metric.value, thresholds.tolist(), [p.distances[lead:] for p in profiles]))
        for k, row in enumerate(rows[block]):
            device_id = telemetry.device_ids[row]
            for metric, thresholds, scores in scored:
                distances, threshold = scores[k], thresholds[k]
                reports.extend(
                    AnomalyReport(
                        device_id, metric, i, span[0] + i * interval, float(distances[i]), threshold
                    )
                    for i in np.flatnonzero(distances > threshold).tolist()
                )
    return reports


def _whole_buckets(span: tuple[int, int], interval: int) -> tuple[int, int]:
    """span cut to whole intervals from its start; `bucket` rejects an empty one."""
    start, end = span
    if end > start:
        end -= (end - start) % interval
    return start, end


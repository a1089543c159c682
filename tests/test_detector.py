import io
import json
import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from fleetsec import detector
from fleetsec.detector import (
    AnomalyReport,
    DetectorConfig,
    detect_counts,
    threshold_from_distances,
)
from fleetsec.fleet_sim.report import write_jsonl
from fleetsec.matrix_profile import compute_brute_force, znorm_distance
from fleetsec.telemetry import Direction, EventKind, Metric, TelemetryCounts, TelemetrySeries

from helpers import calibrate, detect

PACKETS = {Metric.PACKETS_IN: (EventKind.PACKET, Direction.INBOUND),
           Metric.PACKETS_OUT: (EventKind.PACKET, Direction.OUTBOUND)}


def periodic(n, period=8):
    return [float(i % period) for i in range(n)]


def walk(rng, n):
    """Random-walk packet counts."""
    return np.round(10_000 + 100 * rng.normal(size=n).cumsum())


def counts_of(series, ids, start=0, interval=1):
    """Counts where device ids[k] sends series[k][i] packets at tick start + i * interval,
    and the span that covers them. `series` may map metrics to such lists."""
    by_metric = series if isinstance(series, dict) else {Metric.PACKETS_IN: series}
    columns = {PACKETS[m]: np.array(v, dtype=np.int64) for m, v in by_metric.items()}
    n = next(iter(columns.values())).shape[1]
    ticks = start + interval * np.arange(n)
    return TelemetryCounts.dense(tuple(ids), ticks, columns), (start, start + n * interval)


def run(baselines, inputs, config=None, *, start=0, interval=1, baseline_start=0):
    """detect_counts for device "d{k}", calibrated on baselines[k], over inputs[k]."""
    ids = [f"d{k}" for k in range(len(inputs))]
    baseline, baseline_span = counts_of(baselines, ids, baseline_start, interval)
    telemetry, span = counts_of(inputs, ids, start, interval)
    rows = list(range(len(ids)))
    return detect_counts(
        replace(config or CFG, interval=interval),
        telemetry, rows, span, baseline, rows, baseline_span,
    )


CFG = DetectorConfig(window=4, exclusion=2, quantile=0.99, margin=2.0)
# twice the 99th percentile lies above every distance of a short random
# walk; its median flags about half the windows of another walk
LOW = DetectorConfig(window=4, exclusion=2, quantile=0.5, margin=1.0)


class TestThresholdRule:
    def test_max_quantile_times_margin(self):
        assert threshold_from_distances([0, 0, 0, 1], 1.0, 2.0) == 2.0

    def test_interpolated_quantile_matches_independent_sort(self, rng_np):
        distances = list(rng_np.uniform(0, 5, size=47))
        got = threshold_from_distances(distances, 0.9, 1.5)
        # linear interpolation between order statistics, done by hand
        xs = sorted(distances)
        pos = 0.9 * (len(xs) - 1)
        lo, frac = int(math.floor(pos)), pos - math.floor(pos)
        want = 1.5 * (xs[lo] + frac * (xs[lo + 1] - xs[lo]))
        assert got == pytest.approx(want, abs=1e-12)

    def test_exactly_periodic_baseline_calibrates_to_zero(self):
        burst = periodic(64)
        burst[40] = 50.0
        reports = run([periodic(64)], [burst])
        assert reports
        assert {r.threshold for r in reports} == {0.0}

    def test_random_walk_baseline(self, rng_np):
        # the median keeps the threshold below the largest distance, so
        # reports show it: margin times the baseline profile's quantile
        values = walk(rng_np, 80)
        config = replace(CFG, quantile=0.5, margin=2.0)
        reports = run([values], [values], config)
        profile = compute_brute_force(values, CFG.profile_config)
        want = 2.0 * float(np.quantile(profile.distances, 0.5))
        assert reports
        for r in reports:
            assert r.threshold == pytest.approx(want)
        flagged = np.flatnonzero(profile.distances > want).tolist()
        assert [r.window_index for r in reports] == flagged


class TestDetect:
    def test_clean_series_with_own_calibration_is_quiet(self):
        assert run([periodic(96)], [periodic(96)]) == []

    def test_burst_is_flagged_near_the_burst_only(self):
        burst_at = 66  # sawtooth value 2 there, scaled to 50
        values = periodic(128)
        values[burst_at] = 50.0
        reports = run([periodic(128)], [values])
        assert reports, "burst went undetected"
        m = CFG.profile_config.window_m
        for r in reports:
            assert r.window_index <= burst_at < r.window_index + 2 * m

    def test_infinite_threshold_silences_everything(self, rng_np):
        # an infinite margin is refused; the largest finite one overflows
        # the threshold to infinity, above every distance
        config = replace(CFG, quantile=0.99, margin=sys.float_info.max)
        with np.errstate(over="ignore"):
            reports = run([walk(rng_np, 60)], [walk(rng_np, 60)], config)
        assert reports == []

    def test_report_fields(self):
        values = periodic(40)
        values[20] = 99.0
        reports = run([periodic(40)], [values], start=600, interval=3)
        assert reports
        r = reports[0]
        assert r.time == 600 + r.window_index * 3
        assert r.score > r.threshold == 0.0
        assert r.device_id == "d0"
        assert r.metric == "packets_in"

    def test_reports_sorted_and_strictly_above_threshold(self, rng_np):
        reports = run([walk(rng_np, 100)], [walk(rng_np, 100)], LOW)
        assert reports
        idx = [r.window_index for r in reports]
        assert idx == sorted(idx)
        assert all(r.score > r.threshold for r in reports)

    def test_twin_bursts_do_not_hide_each_other(self):
        # scored against each other, equal bursts a period apart match
        # exactly; scored against the clean baseline, both stand out
        values = periodic(160)
        values[60] = values[124] = 50.0
        flagged = {r.window_index for r in run([periodic(96)], [values])}
        m = CFG.profile_config.window_m
        for burst in (60, 124):
            assert any(i <= burst < i + m for i in flagged)

    def test_trivial_match_band_is_set_by_ticks(self, rng_np):
        # the telemetry starts k buckets into the baseline's own recording:
        # each window's copy in the baseline falls in the band, so the scores
        # are the baseline self-join's from window k on
        values = walk(rng_np, 80)
        k, interval = 7, 3
        reports = run([values], [values[k:]], LOW, start=k * interval, interval=interval)
        profile = compute_brute_force(values, LOW.profile_config)
        threshold = float(np.quantile(profile.distances, 0.5))
        flagged = [i - k for i in np.flatnonzero(profile.distances > threshold).tolist() if i >= k]
        assert reports
        assert [r.window_index for r in reports] == flagged
        for r in reports:
            assert r.score == pytest.approx(profile.distances[r.window_index + k], abs=1e-9)
            assert r.time == (k + r.window_index) * interval

    def test_a_baseline_recorded_after_the_telemetry_is_out_of_the_band(self, rng_np):
        # the baseline starts 10 ticks after the telemetry ends: no pair is a
        # trivial match, so each score is the minimum over every baseline window
        baseline, values = walk(rng_np, 80), walk(rng_np, 60)
        reports = run([baseline], [values], LOW, baseline_start=70)
        m = LOW.window
        scores = [
            min(znorm_distance(values[i : i + m], baseline[j : j + m]) for j in range(len(baseline) - m + 1))
            for i in range(len(values) - m + 1)
        ]
        threshold = calibrate(TelemetrySeries("d0", Metric.PACKETS_IN, 1, tuple(baseline), 70), LOW)
        assert reports
        assert [r.window_index for r in reports] == [i for i, d in enumerate(scores) if d > threshold]
        for r in reports:
            assert r.score == pytest.approx(scores[r.window_index], abs=1e-9)

    def test_monotone_in_threshold(self, rng_np):
        baseline, series = walk(rng_np, 90), walk(rng_np, 90)
        low = {r.window_index for r in run([baseline], [series], LOW)}
        high_margin = replace(LOW, quantile=0.5, margin=1.5)
        high = {r.window_index for r in run([baseline], [series], high_margin)}
        assert high
        assert high < low


class TestDetectFleet:
    def test_empty_fleet(self):
        telemetry, span = counts_of([periodic(64)], ["a"])
        assert detect_counts(CFG, telemetry, [], span, telemetry, [], span) == []

    def test_only_the_bursting_device_reports(self):
        noisy = periodic(96)
        noisy[50] = 70.0
        reports = run([periodic(96)] * 2, [periodic(96), noisy])
        assert reports
        assert {r.device_id for r in reports} == {"d1"}

    def test_matches_independent_per_device_calls(self, rng_np, monkeypatch):
        # devices sit in different rows of the two sides; two metrics
        metrics = [Metric.PACKETS_OUT, Metric.PACKETS_IN]
        names = ["c", "a", "b"]
        base = {m: [walk(rng_np, 70) for _ in names] for m in metrics}
        data = {m: [walk(rng_np, 90) for _ in names] for m in metrics}
        flipped = names[::-1]
        baseline, baseline_span = counts_of(base, names)
        telemetry, span = counts_of({m: v[::-1] for m, v in data.items()}, flipped, start=5)
        order = sorted(names)
        got = {}
        for block in (1, 2, 64):  # devices profiled together
            monkeypatch.setattr(detector, "_DETECTOR_BLOCK", block)
            got[block] = detect_counts(
                replace(LOW, metrics=tuple(metrics)),
                telemetry, [flipped.index(d) for d in order], span,
                baseline, [names.index(d) for d in order], baseline_span,
            )
        want = []
        for name in order:
            for metric in metrics:
                k = names.index(name)
                baseline_series = TelemetrySeries(name, metric, 1, tuple(base[metric][k]), 0)
                series = TelemetrySeries(name, metric, 1, tuple(data[metric][k]), 5)
                want.extend(detect(series, baseline_series, calibrate(baseline_series, LOW), LOW))
        pairs = {(d, m.value) for d in names for m in metrics}
        assert {(r.device_id, r.metric) for r in want} == pairs
        assert got == {1: want, 2: want, 64: want}


def test_jsonl_export_key_order():
    report = AnomalyReport("dev", "packets_in", 3, 30, 2.5, 1.0)
    out = io.StringIO()
    write_jsonl([report], out)
    line = out.getvalue().strip()
    assert json.loads(line) == {
        "device_id": "dev",
        "metric": "packets_in",
        "window_index": 3,
        "time": 30,
        "score": 2.5,
        "threshold": 1.0,
    }
    assert list(json.loads(line)) == [
        "device_id", "metric", "window_index", "time", "score", "threshold",
    ]


def test_config_validation():
    # each refusal names its field, as a scenario path and a detect flag do
    for fields in ({"quantile": 0.0}, {"margin": 0.5}, {"margin": math.nan}, {"margin": math.inf},
                   {"interval": 0}, {"metrics": ()}, {"window": 1}, {"exclusion": 0}):
        (name,) = fields
        with pytest.raises(ValueError, match=f"^{name}: "):
            DetectorConfig(**{"window": 4, **fields})

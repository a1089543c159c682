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
from fleetsec.matrix_profile import InsufficientLengthError
from fleetsec.telemetry import Direction, EventKind, Metric, TelemetryCounts, TelemetrySeries

from helpers import calibrate, compute_brute_force, detect

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
    """detect_counts for device "d{k}", calibrated on a separate recording of
    baselines[k], over inputs[k]."""
    ids = [f"d{k}" for k in range(len(inputs))]
    baseline, baseline_span = counts_of(baselines, ids, baseline_start, interval)
    telemetry, span = counts_of(inputs, ids, start, interval)
    rows = list(range(len(ids)))
    return detect_counts(
        replace(config or CFG, interval=interval),
        telemetry, rows, span, (baseline, rows, baseline_span),
    )


def run_own_prefix(inputs, baseline_end, config=None, *, start=0, interval=1):
    """detect_counts for device "d{k}" over inputs[k], calibrated on its own ticks
    before baseline_end."""
    ids = [f"d{k}" for k in range(len(inputs))]
    telemetry, span = counts_of(inputs, ids, start, interval)
    config = replace(config or CFG, interval=interval)
    return detect_counts(config, telemetry, list(range(len(ids))), span, baseline_end)


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

    @pytest.mark.parametrize("shape", [(64, 105), (3, 2985)])
    @pytest.mark.parametrize("quantile", [0.5, 0.9, 0.99, 1.0])
    def test_a_stack_gives_each_rows_threshold(self, rng_np, shape, quantile):
        # fleet-shaped and long-shaped baselines; rounding makes ties
        stack = np.round(rng_np.uniform(0, 5, size=shape), 2)
        got = threshold_from_distances(stack, quantile, 1.5)
        assert got.shape == shape[:1]
        rows = [threshold_from_distances(row, quantile, 1.5) for row in stack]
        assert all(type(t) is float for t in rows)
        assert got.tolist() == rows

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
        reports = run_own_prefix([values], 80, config)
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
        # the baseline is the telemetry's own buckets before tick 171, which
        # cuts to 50 whole buckets of 3 from tick 21: each window's own copy
        # in them falls in the band, so the first 47 scores are their self-join
        values = walk(rng_np, 80)
        start, interval, n_ref = 21, 3, 50
        reports = run_own_prefix([values], start + n_ref * interval + 2, LOW, start=start, interval=interval)
        profile = compute_brute_force(values, LOW.profile_config, n_ref)
        prefix = compute_brute_force(values[:n_ref], LOW.profile_config)
        assert profile.distances[: len(prefix)].tolist() == prefix.distances.tolist()
        threshold = float(np.quantile(prefix.distances, 0.5))
        assert reports
        assert [r.window_index for r in reports] == np.flatnonzero(profile.distances > threshold).tolist()
        for r in reports:
            assert r.score == pytest.approx(profile.distances[r.window_index], abs=1e-9)
            assert r.time == start + r.window_index * interval
            assert r.threshold == pytest.approx(threshold)

    def test_a_baseline_recorded_after_the_telemetry_is_out_of_the_band(self, rng_np):
        # the baseline starts 10 ticks after the telemetry ends: each score is
        # the minimum over every baseline window
        baseline, values = walk(rng_np, 80), walk(rng_np, 60)
        reports = run([baseline], [values], LOW, baseline_start=70)
        baseline_series = TelemetrySeries("d0", Metric.PACKETS_IN, 1, tuple(baseline), 70)
        series = TelemetrySeries("d0", Metric.PACKETS_IN, 1, tuple(values), 0)
        want = detect(series, baseline_series, calibrate(baseline_series, LOW), LOW)
        assert reports
        assert [r.window_index for r in reports] == [r.window_index for r in want]
        for r, w in zip(reports, want):
            assert r.score == pytest.approx(w.score, abs=1e-9)

    def test_a_separate_baseline_twins_the_first_windows_across_the_band(self, rng_np):
        # the telemetry opens with the baseline's last 6 points, so its first
        # 3 windows have exact twins that start 6 points before them, within
        # the exclusion had the telemetry followed the baseline directly; as a
        # separate recording, no pair is a trivial match
        config = DetectorConfig(window=4, exclusion=6, quantile=0.01, margin=1.0)
        baseline = walk(rng_np, 80)
        values = np.concatenate([baseline[-6:], walk(rng_np, 50)])
        reports = run([baseline], [values], config)
        baseline_series = TelemetrySeries("d0", Metric.PACKETS_IN, 1, tuple(baseline), 0)
        series = TelemetrySeries("d0", Metric.PACKETS_IN, 1, tuple(values), 0)
        want = detect(series, baseline_series, calibrate(baseline_series, config), config)
        assert reports and min(r.window_index for r in reports) >= 3
        assert [r.window_index for r in reports] == [r.window_index for r in want]
        for r, w in zip(reports, want):
            assert r.score == pytest.approx(w.score, abs=1e-9)

    def test_telemetry_shorter_than_a_window_is_refused(self):
        message = "need at least 4 points for window 4, got 3"
        with pytest.raises(InsufficientLengthError, match=message):
            run([periodic(40)], [periodic(3)])
        with pytest.raises(InsufficientLengthError, match=message):
            run_own_prefix([periodic(3)], 3)

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
        assert detect_counts(CFG, telemetry, [], span, (telemetry, [], span)) == []
        assert detect_counts(CFG, telemetry, [], span, span[1]) == []

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
                (baseline, [names.index(d) for d in order], baseline_span),
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
        assert got[1] == got[2] == got[64]
        assert [r.window_index for r in got[1]] == [r.window_index for r in want]
        for r, w in zip(got[1], want):
            assert (r.device_id, r.metric, r.time) == (w.device_id, w.metric, w.time)
            assert r.score == pytest.approx(w.score, abs=1e-9)
            assert r.threshold == pytest.approx(w.threshold, abs=1e-9)


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

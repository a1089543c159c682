"""Distance profiles on device telemetry, and the detector built on them.

A device that does the same thing every day produces telemetry whose
windows all have close twins somewhere else in the series. A window with
no twin is the interesting one. This script builds a periodic packet
count series, injects a flood, and walks from the raw profile to a
calibrated anomaly report.

Run:  python3 demos/01_profile_anomalies.py
"""

import numpy as np

from fleetsec import (
    DetectorConfig,
    ProfileConfig,
    TelemetryCounts,
    compute_fast,
    detect_counts,
    top_discords,
)
from fleetsec.telemetry import Direction, EventKind

rng = np.random.default_rng(7)

# A day of sensor traffic at one bucket per tick: a clean 40-tick cycle,
# then a 10x flood for 24 ticks starting at t=500.
n, period = 720, 40
t = np.arange(n)
counts = np.rint(50 + 20 * np.sin(2 * np.pi * t / period) + rng.normal(0, 1, n))
counts[500:524] *= 10

config = ProfileConfig(window_m=16)
profile = compute_fast(counts, config)

print(f"{len(profile)} windows of length {config.window_m}")
print(f"median distance {np.median(profile.distances):.3f}, "
      f"max {profile.distances.max():.3f} at window {profile.distances.argmax()}")

# The three most separated discords all sit on the flood boundary.
discords = top_discords(profile, k=3, exclusion=config.exclusion)
print(f"top discords: {discords} (flood occupies [500, 524))")

# Detector flow: calibrate a threshold on the attack-free prefix, then
# score every window of the full series against the prefix's windows
# and flag those above it. Scores are profile distances, so the
# threshold transfers between runs of the same device. detect_counts is
# the pass `fleetsec simulate` and `fleetsec detect` both run, and
# DetectorConfig holds the settings of both; the window is set here and
# the rest keep their defaults. It reads one device's counts (row 0);
# the baseline given as tick 400 is the series' own ticks [0, 400), so
# each window skips its own copy there as a trivial match. (`fleetsec
# detect` passes a separate baseline recording instead.)
packets = {(EventKind.PACKET, Direction.INBOUND): counts.astype(np.int64)[np.newaxis]}
telemetry = TelemetryCounts.dense(("sensor-a",), t, packets)
reports = detect_counts(DetectorConfig(window=config.window_m), telemetry, [0], (0, n), 400)
threshold = reports[0].threshold

print(f"threshold {threshold:.3f}, {len(reports)} anomalous windows")
first, last = reports[0], reports[-1]
print(f"first flagged window {first.window_index} (t={first.time}), score {first.score:.2f}")
print(f"last flagged window {last.window_index} (t={last.time})")
assert all(r.window_index < 524 and r.window_index + 16 > 500 for r in reports)
print("every flagged window overlaps the injected flood")

# Shape matters, amplitude does not: z-normalization makes the profile
# blind to a pure rescale, which is why only the flood edges score high.
scaled = compute_fast(3.0 * counts + 250.0, config)
print(f"profile drift under 3x + 250 rescale: "
      f"{np.max(np.abs(profile.distances - scaled.distances)):.2e}")

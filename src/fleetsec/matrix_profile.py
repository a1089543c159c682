"""Z-normalized sliding-window distance profiles for anomaly detection.

For a series of length n and window length m, the profile holds, for each
of the n - m + 1 subsequences, the minimum z-normalized Euclidean distance
to any other subsequence outside a trivial-match exclusion zone, plus the
index of that nearest neighbor. Recurring behavior yields low distances;
a window with no similar counterpart anywhere (a discord) yields a high
one, which is what flags an intrusion in otherwise periodic telemetry.

Given `n_ref`, every window is compared with the windows of the series'
own first n_ref points only, and its neighbor index names one of them:
an AB-join (Yeh et al., ICDM 2016) of the series against that prefix.
Scored against a clean prefix, a repeated anomaly cannot be its own
twin. Window i and prefix window j are a trivial match when |i - j| <=
exclusion, so the prefix's own rows are its self-join. A separate
recording is joined by placing it after the prefix and a gap of
`exclusion` points: each of its windows then starts more than the
exclusion after every prefix window, so no pair is a trivial match.
Without `n_ref` the whole series is its own prefix: the self-join.

`compute_many` computes the profile as a tiled matrix multiply over a
stack of equal-length series (STOMP written as a GEMM; Zhu et al., ICDM
2016). The kernel z-normalizes every window and scales it by 1/sqrt(m),
so the dot product of two windows is their Pearson correlation r, and
the distance follows from d = sqrt(2m(1 - r)). Every window's mean and
scale are taken once per call, window by window (`_window_stats`), and
the normalized windows are built from them tile by tile. Each tile of
correlations covers several whole series when they are short, or a block
of rows of one series when it is long. `compute_fast` is the kernel on a
single series. The tests hold it to an all-pairs oracle that evaluates
every window pair directly: distances to 1e-9, and the same neighbor
indices.

Degenerate (near-constant) windows cannot be z-normalized, so the
distance rule is fixed here: two constant windows are identical (distance
0), a constant against a non-constant window is maximally distant
(sqrt(2m)). Flat telemetry is therefore self-similar, while flat-to-active
transitions stand out.

The nearest neighbor is the smallest admissible index whose distance is
within `NEIGHBOR_TIE_TOL` of the row minimum, so float residue between
equally near candidates cannot pick different twins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FleetsecError
from .wire import ConfigError

# A window whose population standard deviation is below this is constant.
CONSTANT_STD = 1e-12

# Window pairs whose correlation is within this of exactly 1 count as exact
# matches and get distance 0. Without the snap, the correlation identity
# leaves float residue on exactly recurring windows, which would turn the
# zero threshold of a perfectly periodic baseline into a tiny positive one.
# Residues stay below ~1e-12 even when a large burst sits between the
# recurrences, while genuinely different integer-quantized windows sit at
# 1e-5 or more, so this splits the two regimes with orders of margin.
EXACT_MATCH_EPS = 1e-10

# Candidates whose distances differ by less than this tie for nearest
# neighbor, and the smallest index wins. Residue between equally near
# candidates peaks just above the snap, where sqrt(2m(1 - r)) magnifies
# the correlation's rounding to ~1e-11; distinct candidates sit orders of
# magnitude further apart.
NEIGHBOR_TIE_TOL = 1e-9

# Bytes of correlations per kernel tile. A few MB keeps peak memory flat
# at any fleet size or series length, and tiles that stay in cache ran
# faster than 32 MB ones on long series.
_TILE_BYTES = 2 << 20


class InsufficientLengthError(FleetsecError):
    """A series, or its reference prefix, shorter than `ProfileConfig.min_length`,
    or telemetry shorter than one window."""


@dataclass(frozen=True)
class ProfileConfig:
    """Window length and exclusion radius.

    `exclusion` defaults to half the window length; matches with
    |i - j| <= exclusion are considered trivial self-matches and skipped.
    A bad value is a ConfigError naming the detector setting, `window` or
    `exclusion`.
    """

    window_m: int
    exclusion: int | None = None

    def __post_init__(self):
        if self.window_m < 2:
            raise ConfigError("window", "must be at least 2")
        if self.exclusion is None:
            object.__setattr__(self, "exclusion", max(1, self.window_m // 2))
        elif self.exclusion < 1:
            raise ConfigError("exclusion", "must be a positive integer or null")

    @property
    def min_length(self) -> int:
        """The fewest points that give every window an admissible neighbor.

        A window's exclusion zone covers up to 2 * exclusion + 1 windows,
        so a reference prefix needs 2 * exclusion + 2 windows for
        every window to keep one outside it, wherever the zone falls.
        """
        return self.window_m + 2 * self.exclusion + 1


@dataclass(frozen=True)
class MatrixProfile:
    """Per-window minimum distance and nearest-neighbor index."""

    distances: np.ndarray
    neighbor_index: np.ndarray

    def __len__(self) -> int:
        return len(self.distances)


def _window_counts(n: int, n_ref: int | None, config: ProfileConfig) -> tuple[int, int]:
    """Windows of the series and of its reference prefix (the whole series when n_ref is None)."""
    m = config.window_m
    if n_ref is None:
        n_ref = n
    elif n_ref > n:
        raise ValueError(f"a prefix of {n_ref} points does not fit a series of {n}")
    if n_ref < config.min_length:
        raise InsufficientLengthError(
            f"need at least {config.min_length} points "
            f"for window {m} and exclusion {config.exclusion}, got {n_ref}"
        )
    return n - m + 1, n_ref - m + 1


def _window_stats(values: np.ndarray, m: int):
    """Mean, scale and constant flag of every window of every row, each (rows, w).

    The scale is the population standard deviation times sqrt(m), or
    sqrt(m) alone for a constant window, so (window - mean) / scale is the
    window z-normalized and scaled by 1/sqrt(m). The sums run window by
    window, as m shifted adds along the series: the mean first, then the
    squared deviations from it. Differencing cumulative sums would be
    cheaper, but it cancels catastrophically once the running totals have
    passed through a large burst, and exact recurrences after the burst
    would then no longer profile to 0.
    """
    w = values.shape[-1] - m + 1
    total = values[:, :w].copy()
    for k in range(1, m):
        total += values[:, k : k + w]
    mu = total / m
    squares = np.zeros_like(mu)
    for k in range(m):
        deviation = values[:, k : k + w] - mu
        squares += deviation * deviation
    sigma = np.sqrt(squares / m)
    const = sigma < CONSTANT_STD
    return mu, np.where(const, 1.0, sigma) * math.sqrt(m), const


def _band(r0: int, n_rows: int, w_ref: int, exclusion: int) -> np.ndarray:
    """The trivial matches of a block of rows starting at window r0.

    They are flat indices into the block's (rows, w_ref) correlations, one
    array rather than a (row, column) pair, to halve what a call keeps.
    Empty when the block starts more than the exclusion past the last
    reference window.
    """
    lo, hi = max(0, r0 - exclusion), min(w_ref, r0 + n_rows + exclusion)
    rows, columns = np.nonzero(np.abs((r0 + np.arange(n_rows))[:, None] - np.arange(lo, hi)) <= exclusion)
    return rows * w_ref + columns + lo


def _nearest(corr: np.ndarray, const_rows: np.ndarray, const_ref: np.ndarray, band,
             config: ProfileConfig):
    """Distances and neighbors of a block of rows from their correlations.

    `corr` is (series, rows, w_ref), the correlations of the block's rows
    with every reference window, and is overwritten. `const_rows` marks
    the block's constant rows and `const_ref` the constant reference
    windows. `band` holds the block's trivial matches, as `_band` gives them.
    """
    m = config.window_m
    # A constant row correlates 1 with constant windows and 0 with the
    # rest: the snap and the identity below then give 0 and sqrt(2m).
    ks, rs = np.nonzero(const_rows)
    corr[ks, rs] = const_ref[ks]
    corr.reshape(len(corr), -1)[:, band] = -np.inf

    best = np.take_along_axis(corr, corr.argmax(axis=-1)[..., None], axis=-1)[..., 0]
    exact = best >= 1.0 - EXACT_MATCH_EPS
    d = np.sqrt(np.maximum(0.0, 2.0 * m * (1.0 - best)))
    d[exact] = 0.0
    # the first j with d_j <= d + NEIGHBOR_TIE_TOL, as a floor on r_j
    floor = np.minimum(best, 1.0 - (d + NEIGHBOR_TIE_TOL) ** 2 / (2.0 * m))
    floor[exact] = 1.0 - EXACT_MATCH_EPS
    return d, np.argmax(corr >= floor[..., None], axis=-1)


def compute_many(values_2d, config: ProfileConfig, n_ref: int | None = None) -> list[MatrixProfile]:
    """Profiles of D equal-length series stacked as a (D, n) array.

    Each series is scored against the windows of its own first `n_ref`
    points, or of all of it when n_ref is None. Every window's mean and
    scale are taken once per call (`_window_stats`); the z-normalized
    windows are built per tile from them, so memory stays bounded. One
    matrix multiply per tile gives the correlations of a block of windows
    with every reference window; the exclusion band, scattered from
    indices kept per block start, is masked, and the row maximum is the
    nearest neighbor. Tiles hold whole series when the reference is
    short and blocks of rows of one series when it is long.
    """
    values = np.asarray(values_2d, dtype=np.float64)
    if values.ndim != 2:
        raise ValueError(f"expected a (series, time) array, got shape {values.shape}")
    n_series, n = values.shape
    w, w_ref = _window_counts(n, n_ref, config)
    m = config.window_m
    rows = min(w, max(1, _TILE_BYTES // (8 * w_ref)))
    per_tile = max(1, _TILE_BYTES // (8 * w_ref * rows))
    buf = np.empty(min(per_tile, n_series) * rows * w_ref)
    mu, scale, const = _window_stats(values, m)
    bands = {r0: _band(r0, min(rows, w - r0), w_ref, config.exclusion) for r0 in range(0, w, rows)}
    distances = np.empty((n_series, w))
    neighbors = np.empty((n_series, w), dtype=np.int64)
    for a in range(0, n_series, per_tile):
        tile = slice(a, a + per_tile)
        windows = np.lib.stride_tricks.sliding_window_view(values[tile], m, axis=-1)
        z = windows - mu[tile, :, None]
        z /= scale[tile, :, None]
        z[const[tile]] = 0.0  # a constant window correlates 0 with everything
        zt = np.ascontiguousarray(z[:, :w_ref].transpose(0, 2, 1))  # a strided view misses BLAS
        for r0 in range(0, w, rows):
            block = z[:, r0 : r0 + rows]
            corr = buf[: block.shape[0] * block.shape[1] * w_ref].reshape(*block.shape[:2], w_ref)
            np.matmul(block, zt, out=corr)
            d, j = _nearest(corr, const[tile, r0 : r0 + rows], const[tile, :w_ref], bands[r0], config)
            distances[tile, r0 : r0 + rows] = d
            neighbors[tile, r0 : r0 + rows] = j
    return [MatrixProfile(distances[k], neighbors[k]) for k in range(n_series)]


def compute_fast(values, config: ProfileConfig, n_ref: int | None = None) -> MatrixProfile:
    """Profile of one series, against its first `n_ref` points if given, by the `compute_many` kernel."""
    return compute_many(np.asarray(values, dtype=np.float64)[np.newaxis], config, n_ref)[0]


def top_discords(profile: MatrixProfile, k: int, exclusion: int) -> list[int]:
    """Indices of the k largest profile distances, greedily separated.

    Selection runs in descending distance order (ties to the smaller
    index); a candidate within `exclusion` of an already selected index is
    skipped. Fewer than k indices are returned when the profile cannot
    supply that many separated discords.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    order = sorted(range(len(profile)), key=lambda i: (-profile.distances[i], i))
    selected: list[int] = []
    for i in order:
        if all(abs(i - s) > exclusion for s in selected):
            selected.append(i)
            if len(selected) == k:
                break
    return selected

import math
import statistics

import numpy as np
import pytest

from fleetsec import matrix_profile
from fleetsec.matrix_profile import (
    InsufficientLengthError,
    MatrixProfile,
    ProfileConfig,
    compute_fast,
    compute_many,
    top_discords,
)

from helpers import LengthMismatchError, compute_brute_force, znorm_distance


def naive_profile(values, m, exclusion):
    """Nested-loop reference, nothing shared with the library internals.

    Z-normalizes each pair by hand with statistics.pstdev and keeps the
    minimum. Windows with no admissible partner get (inf, 0).
    """
    values = [float(v) for v in values]
    n_windows = len(values) - m + 1
    dist, nbr = [], []
    for i in range(n_windows):
        best, best_j = math.inf, 0
        for j in range(n_windows):
            if abs(i - j) <= exclusion:
                continue
            d = naive_znorm(values[i : i + m], values[j : j + m])
            if d < best - 1e-15:
                best, best_j = d, j
        dist.append(best)
        nbr.append(best_j)
    return dist, nbr


def naive_znorm(a, b, eps=1e-12):
    sa, sb = statistics.pstdev(a), statistics.pstdev(b)
    if sa < eps and sb < eps:
        return 0.0
    if sa < eps or sb < eps:
        return math.sqrt(2 * len(a))
    ma, mb = statistics.fmean(a), statistics.fmean(b)
    za = [(x - ma) / sa for x in a]
    zb = [(x - mb) / sb for x in b]
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(za, zb)))


class TestZnormDistance:
    def test_identical_windows(self):
        assert znorm_distance([1, 5, 2], [1, 5, 2]) == 0.0

    def test_offset_and_scale_removed(self):
        assert znorm_distance([1, 2, 3], [2, 4, 6]) == pytest.approx(0.0, abs=1e-12)

    def test_constant_versus_active_is_maximal(self):
        assert znorm_distance([0, 0, 0], [1, 2, 3]) == pytest.approx(math.sqrt(6))

    def test_both_constant_is_zero(self):
        assert znorm_distance([7, 7, 7, 7], [-2, -2, -2, -2]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            znorm_distance([1, 2], [1, 2, 3])

    def test_correlation_identity_on_random_pairs(self, rng_np):
        # d == sqrt(2m(1-r)) with r from an independent correlation routine
        m = 8
        for _ in range(1000):
            a = rng_np.normal(size=m)
            b = rng_np.normal(size=m)
            r = float(np.corrcoef(a, b)[0, 1])
            want = math.sqrt(max(0.0, 2 * m * (1 - r)))
            assert znorm_distance(a, b) == pytest.approx(want, abs=1e-9)


class TestBruteForce:
    def test_exactly_periodic_series_is_all_zero(self):
        p = compute_brute_force([0, 1, 0, 1, 0, 1, 0, 1], ProfileConfig(2, 1))
        assert np.allclose(p.distances, 0.0, atol=1e-12)

    def test_spike_is_the_discord(self):
        # spike amid varied context changes window shape, not just scale
        values = [0, 1, 2, 0, 1, 2, 0, 50, 2, 0, 1, 2, 0, 1, 2]
        p = compute_brute_force(values, ProfileConfig(3, 1))
        peak = int(np.argmax(p.distances))
        assert peak <= 7 < peak + 3

    def test_pure_rescale_of_a_window_is_not_a_discord(self):
        # [0,0,10] z-normalizes to the same shape as [0,0,1]: a spike that
        # only rescales an isolated bump is invisible by design
        values = [0, 0, 1, 0, 0, 10, 0, 0, 1, 0, 0]
        p = compute_brute_force(values, ProfileConfig(3, 1))
        assert np.allclose(p.distances, 0.0, atol=1e-12)

    def test_matches_naive_reference(self, rng_np):
        for _ in range(15):
            n = int(rng_np.integers(12, 40))
            values = rng_np.normal(size=n).cumsum()
            cfg = ProfileConfig(4, 2)
            got = compute_brute_force(values, cfg)
            want_d, want_n = naive_profile(values, 4, 2)
            assert np.allclose(got.distances, want_d, atol=1e-9)
            assert got.neighbor_index.tolist() == want_n

    def test_too_short_series_rejected(self):
        with pytest.raises(InsufficientLengthError):
            compute_brute_force([1.0, 2.0, 3.0], ProfileConfig(3, 1))

    def test_profile_length(self):
        p = compute_brute_force(list(range(20)), ProfileConfig(4, 2))
        assert len(p) == 17


class TestFastPath:
    def test_equals_brute_force_on_random_corpus(self, rng_np):
        for m in (4, 8, 16):
            for _ in range(8):
                n = int(rng_np.integers(m * 3 + 2, 200))
                values = rng_np.normal(size=n).cumsum()
                cfg = ProfileConfig(m)
                fast = compute_fast(values, cfg)
                brute = compute_brute_force(values, cfg)
                assert np.allclose(fast.distances, brute.distances, atol=1e-9)

    def test_periodic_input_all_zero(self):
        p = compute_fast([0, 1, 0, 1, 0, 1, 0, 1], ProfileConfig(2, 1))
        assert np.allclose(p.distances, 0.0, atol=1e-9)

    def test_handles_constant_regions(self, rng_np):
        # long flat stretch in the middle exercises the std-epsilon rule
        values = np.concatenate(
            [rng_np.normal(size=30), np.full(25, 3.0), rng_np.normal(size=30)]
        )
        cfg = ProfileConfig(8)
        fast = compute_fast(values, cfg)
        brute = compute_brute_force(values, cfg)
        assert np.allclose(fast.distances, brute.distances, atol=1e-9)

    def test_neighbor_distances_are_real(self, rng_np):
        values = rng_np.normal(size=120).cumsum()
        cfg = ProfileConfig(8)
        p = compute_fast(values, cfg)
        for i in range(len(p)):
            if not math.isfinite(p.distances[i]):
                continue
            j = int(p.neighbor_index[i])
            d = znorm_distance(values[i : i + 8], values[j : j + 8])
            assert d == pytest.approx(float(p.distances[i]), abs=1e-9)
            assert abs(i - j) > cfg.exclusion


def mixed_batch(rng, n):
    """Equal-length series that between them reach every kernel branch."""
    t = np.arange(n)
    flat_middle = rng.normal(size=n)
    flat_middle[n // 3 : 2 * n // 3] = 4.0
    return np.stack(
        [
            np.full(n, 2.0),
            flat_middle,
            np.tile([0.0, 3.0, 1.0, 5.0, 2.0], n // 5 + 1)[:n],  # the snap fires
            rng.poisson(0.7, n).astype(float),  # low counts: many exact ties
            rng.normal(size=n).cumsum(),
            10 + 4 * np.sin(2 * np.pi * t / 25) + rng.normal(0, 0.5, n),
            rng.poisson(20, n).astype(float),
        ]
    )


class TestComputeMany:
    # n = 60 and m = 8 give 53 windows: 70,000 bytes are tiles of 3 whole
    # series over 7, and 4,300 bytes tiles of 10 rows of one series
    @pytest.mark.parametrize("tile_bytes", [70_000, 4_300, None])
    def test_equals_brute_force_per_series(self, rng_np, monkeypatch, tile_bytes):
        if tile_bytes is not None:
            monkeypatch.setattr(matrix_profile, "_TILE_BYTES", tile_bytes)
        batch = mixed_batch(rng_np, 60)
        cfg = ProfileConfig(8)
        many = compute_many(batch, cfg)
        assert len(many) == len(batch)
        assert np.all(many[0].distances == 0.0) and np.all(many[2].distances == 0.0)
        for values, got in zip(batch, many):
            want = compute_brute_force(values, cfg)
            assert np.allclose(got.distances, want.distances, atol=1e-9)
            assert got.neighbor_index.tolist() == want.neighbor_index.tolist()

    # 150 points give 143 windows: the default tile holds the whole series,
    # and 4,300 bytes tiles of 3 rows of it
    @pytest.mark.parametrize("tile_bytes", [None, 4_300])
    def test_exact_recurrences_across_a_large_burst_profile_to_zero(self, rng_np, monkeypatch,
                                                                    tile_bytes):
        # every window recurs exactly, the clean ones on both sides of a
        # x10^6 burst; running sums through the burst would lose the clean
        # windows' statistics, and no clean window would match its twin
        if tile_bytes is not None:
            monkeypatch.setattr(matrix_profile, "_TILE_BYTES", tile_bytes)
        base = np.tile(rng_np.normal(size=5), 6)
        values = np.concatenate([base, base * 1e6, base, base * 1e6, base])
        cfg = ProfileConfig(8)
        for profile in (compute_many(values[np.newaxis], cfg)[0], compute_brute_force(values, cfg)):
            assert profile.distances.tolist() == [0.0] * 143

    def test_rejects_bad_shapes(self):
        cfg = ProfileConfig(4)
        with pytest.raises(ValueError):
            compute_many(np.zeros(20), cfg)
        with pytest.raises(ValueError):
            compute_many(np.zeros((2, 3, 20)), cfg)
        with pytest.raises(InsufficientLengthError):
            compute_many(np.zeros((2, 6)), cfg)

    # n = 60 and m = 8 give 53 windows against 10 (n_ref = min_length), 40
    # or 53 (n_ref = n) reference windows. The 70,000- and 60,000-byte tiles
    # hold 2 to 7 whole series of the 7; the 4,300- and 2,240-byte tiles
    # hold 5 to 53 rows of one series, and at n_ref = 47 their 13 and 7 rows
    # divide neither 53 nor 40.
    @pytest.mark.parametrize("tile_bytes", [70_000, 60_000, 4_300, 2_240, None])
    @pytest.mark.parametrize("n_ref", [17, 47, 60])
    def test_ab_join_equals_brute_force_per_series(self, rng_np, monkeypatch, tile_bytes, n_ref):
        if tile_bytes is not None:
            monkeypatch.setattr(matrix_profile, "_TILE_BYTES", tile_bytes)
        batch = mixed_batch(rng_np, 60)
        cfg = ProfileConfig(8)
        assert cfg.min_length == 17
        many = compute_many(batch, cfg, n_ref)
        assert len(many) == len(batch)
        for values, got in zip(batch, many):
            want = compute_brute_force(values, cfg, n_ref)
            assert len(got) == 53
            # the prefix's own rows are its self-join
            prefix = compute_brute_force(values[:n_ref], cfg)
            assert np.allclose(got.distances[: len(prefix)], prefix.distances, atol=1e-9)
            assert got.neighbor_index[: len(prefix)].tolist() == prefix.neighbor_index.tolist()
            assert np.allclose(got.distances, want.distances, atol=1e-9)
            assert got.neighbor_index.tolist() == want.neighbor_index.tolist()
            for i, j in enumerate(got.neighbor_index.tolist()):
                assert j <= n_ref - 8 and abs(i - j) > cfg.exclusion
                d = znorm_distance(values[i : i + 8], values[j : j + 8])
                assert d == pytest.approx(float(got.distances[i]), abs=1e-9)

    def test_self_join_is_the_ab_join_with_itself(self, rng_np):
        batch = mixed_batch(rng_np, 90)
        cfg = ProfileConfig(8)
        for own, ab in zip(compute_many(batch, cfg), compute_many(batch, cfg, 90)):
            assert own.distances.tobytes() == ab.distances.tobytes()
            assert own.neighbor_index.tolist() == ab.neighbor_index.tolist()

    def test_ab_join_rejects_bad_references(self):
        cfg = ProfileConfig(4, 2)
        values = np.arange(20.0) % 3
        for compute in (compute_brute_force, compute_fast):
            with pytest.raises(ValueError, match="a prefix of 21 points does not fit a series of 20"):
                compute(values, cfg, 21)
            with pytest.raises(InsufficientLengthError, match=f"need at least {cfg.min_length} points"):
                compute(values, cfg, cfg.min_length - 1)
            # a prefix of min_length points holds every neighbor
            assert np.all(np.isfinite(compute(values, cfg, cfg.min_length).distances))


class TestMinLength:
    CONFIGS = [ProfileConfig(2, 1), ProfileConfig(4, 2), ProfileConfig(8), ProfileConfig(16)]

    @pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: f"m{c.window_m}-e{c.exclusion}")
    def test_is_window_plus_twice_the_exclusion_plus_one(self, cfg):
        assert cfg.min_length == cfg.window_m + 2 * cfg.exclusion + 1

    @pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: f"m{c.window_m}-e{c.exclusion}")
    def test_the_old_minimum_is_refused(self, rng_np, cfg):
        # window + exclusion + 1 points left windows 1..exclusion with no
        # admissible neighbor: distance inf, and a NaN threshold downstream
        values = rng_np.normal(size=cfg.window_m + cfg.exclusion + 1)
        for compute in (compute_brute_force, compute_fast):
            with pytest.raises(InsufficientLengthError, match=f"need at least {cfg.min_length} points"):
                compute(values, cfg)
            with pytest.raises(InsufficientLengthError):
                compute(np.concatenate([values, rng_np.normal(size=100)]), cfg, len(values))

    @pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: f"m{c.window_m}-e{c.exclusion}")
    @pytest.mark.parametrize("after", [0, 1, 5, 40])
    def test_every_window_has_a_neighbor_outside_the_band(self, rng_np, cfg, after):
        # a min_length prefix, then `after` more points scored against it
        values = rng_np.normal(size=cfg.min_length + after).cumsum()
        w_ref = cfg.min_length - cfg.window_m + 1
        for compute in (compute_brute_force, compute_fast):
            for n_ref in {None, cfg.min_length} if after == 0 else {cfg.min_length}:
                p = compute(values, cfg, n_ref)
                assert np.all(np.isfinite(p.distances))
                j = p.neighbor_index
                assert np.all(j < w_ref)
                assert np.all(np.abs(np.arange(len(p)) - j) > cfg.exclusion)


def test_affine_invariance(rng_np):
    values = rng_np.normal(size=150).cumsum()
    cfg = ProfileConfig(8)
    base = compute_fast(values, cfg)
    shifted = compute_fast(2.5 * values - 40.0, cfg)
    assert np.allclose(base.distances, shifted.distances, atol=1e-9)


def test_distance_bound(rng_np):
    values = rng_np.normal(size=200)
    p = compute_fast(values, ProfileConfig(16))
    finite = p.distances[np.isfinite(p.distances)]
    assert np.all(finite >= 0)
    assert np.all(finite <= 2 * math.sqrt(16) + 1e-9)


class TestTopDiscords:
    def test_spike_series_top_one(self):
        values = [0, 1, 2, 0, 1, 2, 0, 50, 2, 0, 1, 2, 0, 1, 2]
        p = compute_brute_force(values, ProfileConfig(3, 1))
        (idx,) = top_discords(p, 1, 1)
        assert idx == int(np.argmax(p.distances))

    def test_all_zero_profile_tie_breaks_to_smallest_indices(self):
        p = MatrixProfile(np.zeros(6), np.zeros(6, dtype=int))
        assert top_discords(p, 2, 1) == [0, 2]

    def test_k_beyond_supply_returns_fewer(self):
        p = MatrixProfile(np.zeros(4), np.zeros(4, dtype=int))
        got = top_discords(p, 10, 2)
        assert got == [0, 3]

    def test_selected_indices_respect_separation(self, rng_np):
        values = rng_np.normal(size=100).cumsum()
        p = compute_fast(values, ProfileConfig(6))
        picks = top_discords(p, 5, 4)
        for a in picks:
            assert sum(1 for b in picks if abs(a - b) <= 4) == 1

    def test_k_must_be_positive(self):
        p = MatrixProfile(np.zeros(4), np.zeros(4, dtype=int))
        with pytest.raises(ValueError):
            top_discords(p, 0, 1)


def test_default_exclusion_rule():
    assert ProfileConfig(2).exclusion == 1
    assert ProfileConfig(16).exclusion == 8
    assert ProfileConfig(10).exclusion == 5


def test_config_validation():
    with pytest.raises(ValueError):
        ProfileConfig(1)
    with pytest.raises(ValueError):
        ProfileConfig(4, 0)

"""Tests for the statistical decision layer.

Binomial tails are cross-checked against scipy (an independent
implementation route); frozen expected values were computed with scipy
before the module under test existed.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from spaq.errors import EmptySamplesError, InsufficientDataError
from spaq.smc import (
    DOES_NOT_HOLD,
    HOLDS,
    INSUFFICIENT_DATA,
    LOWER,
    TWO_SIDED,
    UPPER,
    SmcConfig,
    binom_tail_lower,
    binom_tail_upper,
    exact_binomial_test,
    min_samples,
    quantile_confidence_bound,
    quantile_confidence_interval,
    sprt_test,
)


class TestBinomialTails:
    @pytest.mark.parametrize("n", [1, 7, 59, 230])
    @pytest.mark.parametrize("p", [0.05, 0.33, 0.5, 0.95])
    def test_matches_scipy(self, n, p):
        for k in range(0, n + 1):
            assert binom_tail_upper(n, k, p) == pytest.approx(binom.sf(k - 1, n, p), abs=1e-12)
            assert binom_tail_lower(n, k, p) == pytest.approx(binom.cdf(k, n, p), abs=1e-12)

    def test_edges(self):
        assert binom_tail_upper(10, 0, 0.3) == 1.0
        assert binom_tail_upper(10, 11, 0.3) == 0.0
        assert binom_tail_lower(10, 10, 0.3) == 1.0
        assert binom_tail_lower(10, -1, 0.3) == 0.0


class TestMinSamples:
    def test_frozen_lower(self):
        # ceil(ln(0.05) / ln(0.95)) = ceil(58.404) = 59
        assert min_samples(0.05, 0.95, LOWER) == 59

    def test_frozen_upper_mirror(self):
        assert min_samples(0.95, 0.95, UPPER) == 59

    def test_frozen_two_sided(self):
        # 0.5^n + 0.5^n <= 0.05  =>  n >= log2(40) = 5.32  =>  6
        assert min_samples(0.5, 0.95, TWO_SIDED) == 6

    @given(
        F=st.floats(0.01, 0.99),
        C=st.floats(0.51, 0.999),
        side=st.sampled_from([LOWER, UPPER, TWO_SIDED]),
    )
    @settings(max_examples=200, deadline=None)
    @example(F=0.1, C=0.9, side=UPPER)  # coverage exactly C at n = 1
    def test_is_minimal(self, F, C, side):
        n = min_samples(F, C, side)

        def feasible(m):
            if side == LOWER:
                return 1.0 - (1.0 - F) ** m >= C
            if side == UPPER:
                return 1.0 - F**m >= C
            return 1.0 - F**m - (1.0 - F) ** m >= C

        assert feasible(n)
        if n > 1:
            assert not feasible(n - 1)

    def test_monotone_in_confidence(self):
        ns = [min_samples(0.1, c, LOWER) for c in (0.6, 0.8, 0.9, 0.95, 0.99)]
        assert ns == sorted(ns)


class TestExactBinomialTest:
    def test_frozen_example(self):
        # 59 samples, 5 true, F=0.05, C=0.95: P(Bin(59,0.05) >= 5) = 0.17187 > 0.05
        samples = [True] * 5 + [False] * 54
        res = exact_binomial_test(samples, SmcConfig(F=0.05, C=0.95, side=UPPER))
        assert res.verdict == DOES_NOT_HOLD
        assert res.p_value == pytest.approx(0.17186707355810707, abs=1e-12)
        assert res.n_used == 59

    def test_holds_on_strong_evidence(self):
        samples = [True] * 30 + [False] * 29
        res = exact_binomial_test(samples, SmcConfig(F=0.05, C=0.95))
        assert res.verdict == HOLDS
        assert res.p_value <= 0.05

    def test_insufficient_when_no_outcome_rejects(self):
        # F^n > 1-C: even all-true cannot reject H0
        res = exact_binomial_test([True, True], SmcConfig(F=0.5, C=0.95))
        assert res.verdict == INSUFFICIENT_DATA
        res = exact_binomial_test([], SmcConfig(F=0.5, C=0.95))
        assert res.verdict == INSUFFICIENT_DATA
        assert res.n_used == 0

    def test_lower_side_mirror(self):
        samples = [False] * 59
        res = exact_binomial_test(samples, SmcConfig(F=0.95, C=0.95, side=LOWER))
        assert res.verdict == HOLDS
        # p-value = P(Bin(59, 0.95) <= 0) = 0.05^59
        assert res.p_value == pytest.approx(0.05**59, rel=1e-9)

    def test_two_sided_rejected(self):
        with pytest.raises(ValueError):
            exact_binomial_test([True], SmcConfig(F=0.5, C=0.9, side=TWO_SIDED))

    def test_type_one_error_small(self):
        # quick sanity version of the large acceptance check
        rng = np.random.default_rng(7)
        cfg = SmcConfig(F=0.3, C=0.95)
        rejects = 0
        trials = 1000
        for k in rng.binomial(80, 0.3, size=trials):
            samples = [True] * int(k) + [False] * (80 - int(k))
            if exact_binomial_test(samples, cfg).verdict == HOLDS:
                rejects += 1
        assert rejects / trials <= 0.05 + 0.02


class TestSprt:
    def test_config_requires_delta(self):
        with pytest.raises(ValueError):
            sprt_test([True], SmcConfig(F=0.5, C=0.9))

    def test_indifference_region_exhausts(self):
        cfg = SmcConfig(F=0.5, C=0.95, delta=0.1)
        samples = [True, False] * 50
        res = sprt_test(samples, cfg)
        assert res.verdict == INSUFFICIENT_DATA
        assert res.n_used == 100
        assert len(res.llr) == 100

    def test_accepts_h1_early(self):
        cfg = SmcConfig(F=0.5, C=0.95, delta=0.2)
        res = sprt_test([True] * 100, cfg)
        assert res.verdict == HOLDS
        assert res.n_used < 20

    def test_accepts_h0_early(self):
        cfg = SmcConfig(F=0.5, C=0.95, delta=0.2)
        res = sprt_test([False] * 100, cfg)
        assert res.verdict == DOES_NOT_HOLD
        assert res.n_used < 20

    def test_delta_bounds_validated(self):
        with pytest.raises(ValueError):
            sprt_test([True], SmcConfig(F=0.05, C=0.9, delta=0.1))

    def test_boundaries_match_wald(self):
        cfg = SmcConfig(F=0.5, C=0.9, delta=0.1)
        res = sprt_test([True] * 200, cfg)
        # crossing step count: n * log(0.6/0.4) >= log(0.9/0.1)
        expected = math.ceil(math.log(9.0) / math.log(1.5))
        assert res.n_used == expected


class TestQuantileBound:
    def test_frozen_rank_at_design_point(self):
        # n = 59, F = 0.05, C = 0.95: rank 1, coverage 1 - 0.95^59 = 0.95151
        xs = list(np.random.default_rng(0).normal(size=59))
        res = quantile_confidence_bound(xs, 0.05, 0.95, LOWER)
        assert res.rank == 1
        assert res.bound == min(xs)
        assert res.coverage == pytest.approx(0.9515054747505769, abs=1e-12)

    def test_upper_mirror(self):
        xs = list(np.random.default_rng(1).normal(size=59))
        res = quantile_confidence_bound(xs, 0.95, 0.95, UPPER)
        assert res.rank == 59
        assert res.bound == max(xs)

    @pytest.mark.parametrize("side, F, C, rank", [(LOWER, 0.5, 0.75, 1), (UPPER, 0.2, 0.96, 2)])
    def test_a_coverage_equal_to_C_is_enough(self, side, F, C, rank):
        # n=2: P(Bin(2, 0.5) >= 1) = 1 - 0.25 and P(Bin(2, 0.2) <= 1) =
        # 1 - 0.04 come out exactly C
        res = quantile_confidence_bound([3.0, 1.0], F, C, side)
        assert (res.rank, res.coverage) == (rank, C)

    def test_insufficient_below_min_samples(self):
        xs = [1.0] * 58
        res = quantile_confidence_bound(xs, 0.05, 0.95, LOWER)
        assert res.verdict == INSUFFICIENT_DATA
        assert res.bound is None

    def test_empty_raises(self):
        with pytest.raises(EmptySamplesError):
            quantile_confidence_bound([], 0.5, 0.9, LOWER)

    def test_rank_coverage_against_scipy(self):
        rng = np.random.default_rng(2)
        for n, F, C in [(59, 0.05, 0.95), (200, 0.1, 0.9), (500, 0.5, 0.99)]:
            xs = list(rng.normal(size=n))
            res = quantile_confidence_bound(xs, F, C, LOWER)
            r = res.rank
            assert binom.sf(r - 1, n, F) >= C
            if r < n:
                assert binom.sf(r, n, F) < C  # next rank would break coverage

    @given(st.integers(59, 300), st.floats(0.02, 0.2))
    @settings(max_examples=50, deadline=None)
    def test_bound_is_an_order_statistic(self, n, F):
        xs = list(np.random.default_rng(n).normal(size=n))
        res = quantile_confidence_bound(xs, F, 0.95, LOWER)
        if res.bound is not None:
            assert res.bound == sorted(xs)[res.rank - 1]
            assert res.coverage >= 0.95


class TestQuantileInterval:
    def test_frozen_ranks_median(self):
        # n=100, F=0.5, C=0.95 -> ranks (40, 60) by the min-width rule
        xs = list(range(100))
        res = quantile_confidence_interval([float(x) for x in xs], 0.5, 0.95)
        assert res.ranks == (40, 60)
        assert res.interval == (39.0, 59.0)
        assert res.coverage >= 0.95

    def test_interval_brackets_true_quantile_often(self):
        rng = np.random.default_rng(3)
        hits = 0
        trials = 400
        for _ in range(trials):
            xs = list(rng.exponential(size=80))
            res = quantile_confidence_interval(xs, 0.5, 0.9)
            lo, hi = res.interval
            true_q = math.log(2.0)
            hits += lo <= true_q <= hi
        assert hits / trials >= 0.9 - 0.04

    def test_a_coverage_equal_to_C_is_enough(self):
        # n=7, F=0.7: P(4 <= Bin <= 5) comes out exactly 0.5445468, and no
        # pair of width 1 covers that much
        res = quantile_confidence_interval([float(x) for x in range(7)], 0.7, 0.5445468)
        assert (res.ranks, res.coverage) == ((4, 6), 0.5445468)

    def test_insufficient_raises(self):
        with pytest.raises(InsufficientDataError):
            quantile_confidence_interval([1.0, 2.0], 0.5, 0.95)

    def test_empty_raises(self):
        with pytest.raises(EmptySamplesError):
            quantile_confidence_interval([], 0.5, 0.9)

    def test_brute_force_agreement(self):
        # exhaustive search oracle on small n
        for n, F, C in [(20, 0.5, 0.9), (30, 0.25, 0.8), (40, 0.8, 0.9)]:
            xs = [float(i) for i in range(n)]
            cdf = [binom.cdf(k, n, F) for k in range(n + 1)]
            best = None
            for r in range(1, n + 1):
                for s in range(r + 1, n + 1):
                    cov = cdf[s - 1] - cdf[r - 1]
                    if cov >= C:
                        key = (s - r, abs((r + s - 1) / 2 - n * F), r, s)
                        if best is None or key < best:
                            best = key
                        break
            res = quantile_confidence_interval(xs, F, C)
            assert res.ranks == (best[2], best[3])


class TestSmcConfig:
    @pytest.mark.parametrize("kw", [
        dict(F=0.0, C=0.9),
        dict(F=1.0, C=0.9),
        dict(F=0.5, C=0.5),
        dict(F=0.5, C=1.0),
        dict(F=0.5, C=0.9, delta=0.0),
        dict(F=0.5, C=0.9, side="sideways"),
    ])
    def test_rejects_bad_ranges(self, kw):
        with pytest.raises(ValueError):
            SmcConfig(**kw)

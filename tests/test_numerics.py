"""Tests for the scalar Gaussian functions and the bivariate rectangle oracle.

Expected values come from independent routes: adaptive quadrature of the
density (scipy.integrate), closed forms for quadrant probabilities, and
bisection performed inside the test rather than by the code under test.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from heritcc import numerics
from heritcc.numerics import (
    BivariateCovariance,
    bvn_orthants,
    bvn_rect,
    rng_create,
    std_normal_cdf,
    std_normal_pdf,
    std_normal_quantile,
)

INF = math.inf


class TestPdf:
    def test_at_zero_closed_form(self):
        assert std_normal_pdf(0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-15)

    def test_reference_point(self):
        # direct high-precision evaluation of exp(-x^2/2)/sqrt(2*pi)
        assert std_normal_pdf(1.2816) == pytest.approx(0.17550, abs=1e-4)

    @given(st.floats(min_value=-30, max_value=30))
    def test_even_function(self, x):
        assert std_normal_pdf(x) == std_normal_pdf(-x)


class TestCdf:
    def test_at_zero(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_monotone_to_one(self):
        xs = np.linspace(-8, 8, 200)
        vals = [std_normal_cdf(x) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert vals[-1] <= 1.0
        assert std_normal_cdf(40.0) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("x", [-3.7, -1.0, 0.3, 1.2815515655, 2.5, 5.0])
    def test_against_quadrature_oracle(self, x):
        # integrate whichever piece is smaller so the absolute estimate is tight
        if x <= 0.0:
            oracle, err = integrate.quad(std_normal_pdf, -13.0, x, epsabs=1e-15, limit=200)
        else:
            tail, err = integrate.quad(std_normal_pdf, x, 13.0, epsabs=1e-15, limit=200)
            oracle = 1.0 - tail
        assert err < 1e-11  # reported estimate; actual accuracy is far better
        assert std_normal_cdf(x) == pytest.approx(oracle, abs=1e-12)

    def test_known_decile(self):
        assert std_normal_cdf(1.2815516) == pytest.approx(0.9, abs=1e-7)

    @given(st.floats(min_value=-35, max_value=35))
    def test_symmetry_identity(self, x):
        assert std_normal_cdf(x) + std_normal_cdf(-x) == pytest.approx(1.0, abs=1e-14)


def _quantile_by_bisection(p: float) -> float:
    lo, hi = -40.0, 40.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if std_normal_cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestQuantile:
    def test_median(self):
        assert std_normal_quantile(0.5) == 0.0

    @pytest.mark.parametrize("p,expected", [(0.9, 1.2815516), (0.99, 2.3263479)])
    def test_against_bisection_oracle(self, p, expected):
        oracle = _quantile_by_bisection(p)
        assert oracle == pytest.approx(expected, abs=1e-6)
        assert std_normal_quantile(p) == pytest.approx(oracle, abs=1e-9)

    def test_nan_is_a_domain_error(self):
        # NormalDist.inv_cdf returns nan for nan instead of raising
        with pytest.raises(ValueError, match="must lie in"):
            std_normal_quantile(math.nan)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.5])
    def test_domain_errors(self, p):
        with pytest.raises(ValueError):
            std_normal_quantile(p)

    @given(st.floats(min_value=-6, max_value=6))
    def test_roundtrip_on_core_range(self, x):
        # Rounding the cdf value to a double already loses up to
        # ulp(1)/pdf(x) of x, which crosses 1e-8 just below |x| = 6; the
        # achievable bound is the max of the two.
        info_bound = 2.3e-16 / std_normal_pdf(x)
        tol = max(1e-8, info_bound)
        assert std_normal_quantile(std_normal_cdf(x)) == pytest.approx(x, abs=tol)

    @given(st.floats(min_value=1e-12, max_value=1 - 1e-12))
    @settings(max_examples=60)
    def test_residual_bound(self, p):
        x = std_normal_quantile(p)
        assert abs(std_normal_cdf(x) - p) <= 1e-10


def _identity_cov() -> BivariateCovariance:
    return BivariateCovariance(1.0, 1.0, 0.0)


class TestBvnRect:
    def test_independence_factorizes(self):
        k = 0.1
        t = std_normal_quantile(1 - k)
        p = bvn_rect(t, INF, t, INF, _identity_cov())
        assert p == pytest.approx(k * k, abs=1e-12)

    @pytest.mark.parametrize("rho", [-0.9, -0.5, 0.0, 0.3, 0.5, 0.9, 0.99])
    def test_positive_quadrant_closed_form(self, rho):
        cov = BivariateCovariance(1.0, 1.0, rho)
        expected = 0.25 + math.asin(rho) / (2 * math.pi)
        assert bvn_rect(0.0, INF, 0.0, INF, cov) == pytest.approx(expected, abs=1e-8)

    def test_four_rectangle_partition(self):
        t = std_normal_quantile(0.9)
        cov = BivariateCovariance(1.3, 0.8, 0.4)
        total = (
            bvn_rect(t, INF, t, INF, cov)
            + bvn_rect(-INF, t, t, INF, cov)
            + bvn_rect(t, INF, -INF, t, cov)
            + bvn_rect(-INF, t, -INF, t, cov)
        )
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_against_dblquad_oracle(self):
        rng = np.random.default_rng(1234)
        for _ in range(6):
            v11 = rng.uniform(0.5, 1.8)
            v22 = rng.uniform(0.5, 1.8)
            v12 = rng.uniform(-0.9, 0.9) * math.sqrt(v11 * v22)
            cov = BivariateCovariance(v11, v22, v12)
            a1, b1 = sorted(rng.uniform(-2.5, 2.5, size=2))
            a2, b2 = sorted(rng.uniform(-2.5, 2.5, size=2))
            det = v11 * v22 - v12 * v12

            def dens(y, x):
                q = (v22 * x * x - 2 * v12 * x * y + v11 * y * y) / det
                return math.exp(-0.5 * q) / (2 * math.pi * math.sqrt(det))

            oracle, err = integrate.dblquad(
                dens, a1, b1, lambda _: a2, lambda _: b2, epsabs=1e-13
            )
            assert err < 1e-8  # dblquad error estimates are conservative
            assert bvn_rect(a1, b1, a2, b2, cov) == pytest.approx(oracle, abs=1e-10)

    @given(
        st.floats(min_value=0.3, max_value=2.0),
        st.floats(min_value=0.3, max_value=2.0),
        st.floats(min_value=-0.95, max_value=0.95),
        st.floats(min_value=-2.0, max_value=1.0),
        st.floats(min_value=-2.0, max_value=1.0),
    )
    @settings(max_examples=40)
    def test_axis_swap_symmetry(self, v11, v22, rho, l1, l2):
        cov = BivariateCovariance(v11, v22, rho * math.sqrt(v11 * v22))
        cov_swapped = BivariateCovariance(v22, v11, cov.v12)
        p = bvn_rect(l1, l1 + 1.5, l2, l2 + 2.0, cov)
        q = bvn_rect(l2, l2 + 2.0, l1, l1 + 1.5, cov_swapped)
        assert p == pytest.approx(q, abs=1e-12)
        assert 0.0 <= p <= 1.0

    def test_monotone_in_rectangle_enlargement(self):
        cov = BivariateCovariance(1.0, 1.0, 0.35)
        p_small = bvn_rect(-0.5, 0.5, -0.4, 0.6, cov)
        p_wider = bvn_rect(-0.9, 0.8, -0.4, 0.6, cov)
        p_widest = bvn_rect(-0.9, 0.8, -1.2, 1.4, cov)
        assert p_small <= p_wider <= p_widest

    def test_near_perfect_correlation_limit(self):
        t = std_normal_quantile(0.9)
        cov = BivariateCovariance(1.0, 1.0, 1.0 - 1e-9)
        assert bvn_rect(t, INF, t, INF, cov) == pytest.approx(
            1 - std_normal_cdf(t), abs=1e-4
        )

    def test_rejects_non_positive_definite(self):
        with pytest.raises(ValueError):
            BivariateCovariance(1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            BivariateCovariance(-1.0, 1.0, 0.0)

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            bvn_rect(1.0, -1.0, 0.0, 1.0, _identity_cov())


# one correlation in each quadrature branch (GL6, GL12, GL20, |r| >= 0.925),
# at both signs, the branch edges, and r = +/-1
_BRANCH_CORRELATIONS = [0.0, 0.12, -0.12, 0.3, -0.3, 0.55, -0.55, 0.75, -0.75, 0.9, -0.9,
                        0.925, -0.925, 0.97, -0.97, 1.0 - 1e-9, -1.0 + 1e-9, 1.0, -1.0]
# equal and unequal thresholds, both signs, and the +/-8.5 clip
_THRESHOLDS = [(0.0, 0.0), (1.2816, 1.2816), (1.2816, 0.3), (-0.7, 2.1), (2.9, -2.9),
               (-1.5, -0.4), (8.5, 1.0), (-8.5, 0.6), (8.5, -8.5), (-8.5, -8.5), (8.5, 8.5)]


class TestBvnOrthants:
    @pytest.mark.parametrize("r", _BRANCH_CORRELATIONS)
    def test_bits_of_the_upper_orthant_at_both_sign_flips(self, r):
        for h, k in _THRESHOLDS:
            assert bvn_orthants(h, k, r) == (numerics._bvn_upper(h, k, r),
                                             numerics._bvn_upper(-h, -k, r))

    @pytest.mark.parametrize("r", _BRANCH_CORRELATIONS)
    def test_thresholds_beyond_the_clip_read_as_the_clip(self, r):
        for h, k in ((9.0, 1.0), (-40.0, 0.6), (1e300, -1e300), (INF, -INF)):
            clipped = (max(-8.5, min(8.5, h)), max(-8.5, min(8.5, k)))
            assert bvn_orthants(h, k, r) == bvn_orthants(*clipped, r)

    @pytest.mark.parametrize("r", [x for x in _BRANCH_CORRELATIONS if abs(x) < 1.0])
    def test_four_corner_rectangles_agree(self, r):
        cov = BivariateCovariance(1.0, 1.0, r)
        for h, k in _THRESHOLDS:
            upper, lower = bvn_orthants(h, k, r)
            assert abs(upper - bvn_rect(h, INF, k, INF, cov)) <= 1e-15
            assert abs(lower - bvn_rect(-INF, h, -INF, k, cov)) <= 1e-15

    def test_perfect_correlation_closed_forms(self):
        # X = Y: both orthants are one tail; X = -Y: a band between thresholds
        h, k = 0.4, -1.1
        assert bvn_orthants(h, k, 1.0) == (std_normal_cdf(-h), std_normal_cdf(k))
        upper, lower = bvn_orthants(h, k, -1.0)
        assert upper == pytest.approx(std_normal_cdf(-k) - std_normal_cdf(h), abs=1e-16)
        assert lower == 0.0

    @pytest.mark.parametrize("h, k, r, message", [
        (math.nan, 0.0, 0.5, "h must not be NaN"), (0.0, math.nan, 0.5, "k must not be NaN"),
        (math.nan, math.nan, 0.5, "h must not be NaN"),
        (0.0, 0.0, 1.5, r"r must lie in \[-1, 1\], got r=1.5"),
        (0.0, 0.0, -3.0, r"r must lie in \[-1, 1\], got r=-3.0"),
        (0.0, 0.0, math.nan, "got r=nan"), (0.0, 0.0, INF, "got r=inf"),
        (0.0, 0.0, 1.0 + 2**-52, "got r=1.0000000000000002")])
    def test_refuses_nan_thresholds_and_correlations_outside_the_unit_interval(
            self, h, k, r, message):
        # once these read as (0.5, 0.5) or (0.0, 0.0) through min/max
        with pytest.raises(ValueError, match=message):
            bvn_orthants(h, k, r)


class TestRandomSource:
    def test_same_seed_same_stream(self):
        draws_a = rng_create(987654321).generator.standard_normal(1000)
        draws_b = rng_create(987654321).generator.standard_normal(1000)
        assert np.array_equal(draws_a, draws_b)

    def test_substreams_differ(self):
        base = rng_create(11)
        child0 = base.spawn(0)
        child1 = base.spawn(1)
        assert child0.generator.random() != child1.generator.random()

    def test_spawn_equals_path_construction(self):
        assert (rng_create(5).spawn(2, 4).generator.random()
                == rng_create(5, 2, 4).generator.random())

    def test_normal_moments(self):
        rs = rng_create(20260808)
        draws = rs.generator.standard_normal(1_000_000)
        assert abs(draws.mean()) <= 0.005
        assert abs(draws.var() - 1.0) <= 0.01

    def test_uniform_range_and_mean(self):
        rs = rng_create(4)
        draws = rs.generator.random(100_000)
        assert draws.min() >= 0.0 and draws.max() < 1.0
        assert abs(draws.mean() - 0.5) < 0.005

"""Tests for the pair-moment oracle and its Taylor approximations."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heritcc import numerics
from heritcc.grm import SigmaPair
from heritcc.moments import (
    ascertained_pair_ratio,
    exact_pair_expectation,
    first_order_pair_expectation,
    moment_weights,
    pair_covariance,
    pair_probabilities,
    second_order_pair_expectation,
)
from heritcc.numerics import BivariateCovariance, bvn_rect, std_normal_pdf
from heritcc.simulate import design_from_prevalences

INF = math.inf

DESIGN = design_from_prevalences(0.1, 0.5)


def _sp(a_i=0.0, a_j=0.0, b_ij=0.0):
    return SigmaPair(a_i=a_i, a_j=a_j, b_ij=b_ij)


class TestSlopeConstant:
    def test_balanced_design_closed_form(self):
        d = design_from_prevalences(0.5, 0.5)
        assert d.slope == pytest.approx(2.0 / math.pi, abs=1e-12)

    def test_reference_design(self):
        assert DESIGN.slope == pytest.approx(0.9505, abs=1e-3)

    def test_invariant_under_study_prevalence_complement(self):
        a = design_from_prevalences(0.1, 0.6).slope
        b = design_from_prevalences(0.1, 0.4).slope
        assert a == pytest.approx(b, rel=1e-12)


class TestExactOracle:
    def test_identity_covariance_gives_zero(self):
        # independence: numerator weights cancel exactly
        assert exact_pair_expectation(_sp(), DESIGN, eta=0.7, n_loci=100) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_zero_heritability_gives_zero(self):
        value = exact_pair_expectation(_sp(1.3, -0.8, 2.0), DESIGN, eta=0.0, n_loci=100)
        assert value == pytest.approx(0.0, abs=1e-9)

    def test_cross_check_against_first_order(self):
        # small relatedness: oracle within 1e-3 of slope * eta * g
        value = exact_pair_expectation(_sp(0.0, 0.0, 2.0), DESIGN, eta=0.5, n_loci=10_000)
        assert value == pytest.approx(0.5 * DESIGN.slope * 0.02, abs=1e-3)
        assert value == pytest.approx(0.009505, abs=1e-3)

    def test_partition_consistency_with_direct_quadrature(self):
        # complement-based discordant probability equals two extra rectangles
        sp = _sp(0.9, -0.4, 1.1)
        eta, n_loci = 0.6, 400
        p11, p00, pneq = pair_probabilities(sp, DESIGN, eta, n_loci)
        root = math.sqrt(n_loci)
        cov = BivariateCovariance(
            1.0 + eta * sp.a_i / root, 1.0 + eta * sp.a_j / root, eta * sp.b_ij / root
        )
        t = DESIGN.threshold
        direct = bvn_rect(-INF, t, t, INF, cov) + bvn_rect(t, INF, -INF, t, cov)
        assert pneq == pytest.approx(direct, abs=1e-8)

    def test_rejects_non_positive_definite_reconstruction(self):
        with pytest.raises(ValueError):
            exact_pair_expectation(_sp(0.0, 0.0, 3.0), DESIGN, eta=1.0, n_loci=4)

    def test_pair_covariance_rebuilds_and_rejects(self):
        cov = pair_covariance(_sp(0.9, -0.4, 1.1), 0.6, 400)
        assert (cov.v11, cov.v22, cov.v12) == (1.0 + 0.6 * 0.9 / 20.0, 1.0 + 0.6 * -0.4 / 20.0,
                                               0.6 * 1.1 / 20.0)
        for n_loci in (0, -3):
            with pytest.raises(ValueError, match=f"n_loci must be >= 1, got {n_loci}"):
                pair_covariance(_sp(), 0.5, n_loci)
        with pytest.raises(ValueError, match="not positive definite"):
            pair_covariance(_sp(0.0, 0.0, 1000.0), 0.5, 1)
        with pytest.raises(ValueError, match="variances must be positive"):
            pair_covariance(_sp(-200.0, 0.0, 0.0), 0.5, 1)

    def test_probabilities_match_four_corner_rectangles(self):
        # the orthant pair against bvn_rect's four corners per region, across
        # prevalences, deviations of both signs and correlations near +/-1
        for k in (0.001, 0.01, 0.1, 0.3, 0.5):
            design = design_from_prevalences(k, max(k, 0.5))
            t = design.threshold
            for sp, eta, n_loci in ((_sp(), 0.5, 100), (_sp(0.9, -0.4, 1.1), 0.6, 400),
                                    (_sp(-1.8, 1.3, -2.7), 0.9, 100),
                                    (_sp(0.0, 0.0, 5.0), 0.9, 100), (_sp(0.2, 0.1, 9.9), 0.95, 100),
                                    (_sp(0.0, 0.0, -9.9), 0.95, 100),
                                    (_sp(1.5, -1.5, 2.0), 0.3, 10**6)):
                cov = pair_covariance(sp, eta, n_loci)
                both_cases = bvn_rect(t, INF, t, INF, cov)
                both_controls = bvn_rect(-INF, t, -INF, t, cov)
                rect = (both_cases, both_controls,
                        max(0.0, 1.0 - both_cases - both_controls))
                got = pair_probabilities(sp, design, eta, n_loci)
                assert max(abs(a - b) for a, b in zip(got, rect)) <= 1e-15

    def test_one_quadrature_per_exact_moment(self, monkeypatch):
        # both orthants share one quadrature: no rectangle corners
        calls = []
        quadrature = numerics._bvn_quadrature
        monkeypatch.setattr(numerics, "_bvn_quadrature",
                            lambda *args: calls.append(args) or quadrature(*args))
        for sp in (_sp(), _sp(0.9, -0.4, 1.1), _sp(0.3, 0.3, -9.9)):
            before = len(calls)
            exact_pair_expectation(sp, DESIGN, 0.95, 100)
            assert len(calls) == before + 1

    @pytest.mark.parametrize("sp, eta, n_loci, message", [
        (_sp(), 0.5, 0, "n_loci must be >= 1, got 0"),
        (_sp(), 0.5, -3, "n_loci must be >= 1, got -3"),
        (_sp(-200.0, 0.0, 0.0), 0.5, 1, "variances must be positive, got v11=-99.0, v22=1.0"),
        (_sp(0.0, -200.0, 0.0), 0.5, 1, "variances must be positive, got v11=1.0, v22=-99.0"),
        (_sp(0.0, 0.0, 1000.0), 0.5, 1,
         "covariance matrix is not positive definite: v12^2=250000.0 >= v11*v22=1.0"),
        (_sp(0.0, 0.0, 3.0), 1.0, 4,
         "covariance matrix is not positive definite: v12^2=2.25 >= v11*v22=1.0")])
    def test_plain_float_path_raises_the_covariance_messages(self, sp, eta, n_loci, message):
        # the checks on plain floats hand failures to pair_covariance's own
        with pytest.raises(ValueError) as expected:
            pair_covariance(sp, eta, n_loci)
        assert str(expected.value) == message
        for fn in (exact_pair_expectation, pair_probabilities):
            with pytest.raises(ValueError) as got:
                fn(sp, DESIGN, eta, n_loci)
            assert str(got.value) == message

    def test_symmetric_in_diagonal_deviations(self):
        a = exact_pair_expectation(_sp(0.8, -0.3, 1.0), DESIGN, eta=0.5, n_loci=200)
        b = exact_pair_expectation(_sp(-0.3, 0.8, 1.0), DESIGN, eta=0.5, n_loci=200)
        assert a == pytest.approx(b, abs=1e-12)


# (h, k, r, upper, lower): bvn_orthants' values, as float.hex, before its
# node tables were flattened and its closing written inline. Every rule, both
# signs of the |r| >= 0.925 expansion and both sides of its band, the asr0
# cut-off and the +/-8.5 clip. The -hk >= 100 cut-off cannot be reached:
# after the clip |hk| <= 72.25.
_ORTHANT_BITS = [
    (1.2816, 0.3, 0.12, "0x1.7c349c31e9d76p-5", "0x1.20f01691c703ap-1"),  # GL6
    (-0.7, 2.1, -0.55, "0x1.041d07b331046p-8", "0x1.d31571f5ea7cfp-3"),  # GL12
    (2.9, -2.9, 0.9, "0x1.e91c9c6c201e2p-10", "0x1.e91c9c6c201e2p-10"),  # GL20
    (1.2816, 0.3, 0.97, "0x1.99902ae3f5a7ep-4", "0x1.3c5ed22b271b2p-1"),  # r >= 0.925
    (-1.5, -0.4, -0.97, "0x1.2d5ee2916eef5p-1", "0x1.a80c50017888dp-55"),  # -k > h
    (1.5, 0.4, -0.97, "0x1.a80c50017888dp-55", "0x1.2d5ee2916eef5p-1"),  # k > -h
    (2.9, -2.9, 0.97, "0x1.e91c9c6c201e2p-10", "0x1.e91c9c6c201e2p-10"),  # asr0 cut
    (INF, -1e300, 0.3, "0x1.5dbbaccf1a4f8p-57", "0x1.5dbbaccf1a4f8p-57"),  # clip
    (9.0, 40.0, -0.999, "0x0.0p+0", "0x1.0000000000000p+0"),  # clip, r near -1
]
# (b_ij, eta, n_loci, value): exact_pair_expectation at a_i = 0.3, a_j = -0.2
# under DESIGN, as float.hex from the same code; the comment is the correlation
_EXACT_BITS = [
    (0.5, 0.5, 100, "0x1.85f2f8e56210ap-6"),  # 0.025, GL6
    (-9.9, 0.8, 10000, "-0x1.2e07953bf6da6p-4"),  # -0.079, GL6
    (5.0, 0.95, 100, "0x1.d18e4c9a7617dp-2"),  # 0.473, GL12
    (9.9, 0.8, 100, "0x1.78d79dd69568dp-1"),  # 0.789, GL20
    (-9.9, 0.8, 100, "-0x1.8c14c98abd02ap-2"),  # -0.789, GL20
    (9.9, 0.95, 100, "0x1.c1d566bee6b9bp-1"),  # 0.936, expansion
    (-9.9, 0.95, 100, "-0x1.8ca0e4f13add5p-2"),  # -0.936, expansion
]


class TestPinnedBits:
    """The orthant pair and the exact moment keep their bits exactly."""

    @pytest.mark.parametrize("h, k, r, upper, lower", _ORTHANT_BITS)
    def test_bvn_orthants(self, h, k, r, upper, lower):
        assert numerics.bvn_orthants(h, k, r) == (float.fromhex(upper), float.fromhex(lower))

    @pytest.mark.parametrize("b_ij, eta, n_loci, value", _EXACT_BITS)
    def test_exact_pair_expectation(self, b_ij, eta, n_loci, value):
        got = exact_pair_expectation(_sp(0.3, -0.2, b_ij), DESIGN, eta, n_loci)
        assert got == float.fromhex(value)


# (K, P, n_loci, slope, ascertained_pair_ratio at _RATIO_PROBS,
# moment_weights): the values, as float.hex, from before the design carried
# its constants. The slope and alpha * sqrt(n_loci) are different roundings
# of the same number: compare the rows at n_loci = 1
_RATIO_PROBS = (0.03, 0.85, 0.12)
_DESIGN_BITS = [
    (1e-06, 1e-06, 1, "0x1.9acea8fbb2605p-16", "0x1.d4bf66669f714p+14",
     ("0x1.9acea8fbb2606p-16", "0x1.2211a95e77411p-13",
      "0x1.2211a95e77411p-12", "0x1.153b341699ae1p-12")),
    (1e-06, 0.5, 37, "0x1.87c6d7cc95a78p+2", "0x1.fffef390babb8p-1",
     ("0x1.01a17b829f4dfp+0", "0x1.de7f7927b899bp-1",
      "0x1.b6743a8c99e0cp-1", "0x1.a08622f217a3ap-1")),
    (1e-06, 0.9, 1000000, "0x1.1a14497494b5fp+1", "0x1.c71bed37c3090p-4",
     ("0x1.20d961bf0f105p-9", "0x1.a1b323bee8f3dp-17",
      "-0x1.3b9a8fa02b814p-16", "0x1.f79fce12e79b8p-22")),
    (0.005, 0.005, 1, "0x1.5848f0eb78fbdp-5", "0x1.76ac61c4d2f99p+2",
     ("0x1.5848f0eb78fbep-5", "0x1.1d896fb54f471p-4",
      "0x1.1d896fb54f471p-3", "0x1.e500a32fc04f3p-4")),
    (0.005, 0.5, 37, "0x1.0e53000f140f1p+1", "0x1.ebd638a7fe2d2p-1",
     ("0x1.638739aa04ea5p-2", "0x1.83ccb3f297f71p-4",
      "0x1.23ac745134e3dp-4", "0x1.c2fed9e5b9c81p-5")),
    (0.005, 0.9, 1000000, "0x1.854452013b9acp-1", "0x1.bd4a52e9f0557p-4",
     ("0x1.8e9bf9dc65fecp-11", "0x1.52868eb168b60p-20",
      "-0x1.5ffb5f252df92p-19", "-0x1.b2f4c36c7d197p-22")),
    (0.1, 0.1, 1, "0x1.5e6e8669045c0p-2", "0x1.f49f49f49f4a0p-3",
     ("0x1.5e6e8669045c0p-2", "0x1.1fc522b33fb85p-3",
      "0x1.1fc522b33fb85p-2", "0x1.c2377dfaf6292p-4")),
    (0.1, 0.5, 37, "0x1.e6b5f391db635p-1", "0x1.02593f69b0259p-1",
     ("0x1.400f1bafca41ap-3", "0x1.59ab7440a2a47p-7",
      "0x1.664d1d8859539p-8", "-0x1.2cbdb1348a0c8p-8")),
    (0.1, 0.9, 1000000, "0x1.5e6e8669045bep-2", "0x1.870922507a720p-4",
     ("0x1.66d793e045fffp-12", "0x1.2dbfaffe6d0d7p-23",
      "-0x1.283c4ac8c5d66p-21", "-0x1.f2926a99c19e9p-23")),
    (0.3, 0.3, 1, "0x1.26bde09f7d7bep-1", "0x1.41d41d41d41d5p-2",
     ("0x1.26bde09f7d7bfp-1", "0x1.443606ec9afdep-5",
      "0x1.443606ec9afddp-4", "-0x1.ab60bdc8ad78fp-3")),
    (0.3, 0.5, 37, "0x1.5ee20b6889321p-1", "0x1.224f2cddb0d31p-1",
     ("0x1.cd7a7c6fb54b5p-4", "0x1.4dcedaa6833ebp-10",
      "0x1.0e6b9522cd1b9p-11", "-0x1.10b5eb9c222d4p-7")),
    (0.3, 0.9, 1000000, "0x1.f94581116966ap-3", "0x1.9721ed7e75349p-2",
     ("0x1.02b2f235f8868p-12", "0x1.2364eb58b9a57p-26",
      "-0x1.c2011fbed3e47p-23", "-0x1.4a0faa11f800fp-23")),
    (0.49, 0.49, 1, "0x1.45dff91c04e6ep-1", "0x1.74ae26501bdd2p-1",
     ("0x1.45dff91c04e6ep-1", "0x1.a36c274d8e400p-14",
      "0x1.a36c274d8e3ffp-13", "-0x1.45ab8b971b352p-2")),
    (0.49, 0.5, 37, "0x1.46015b2488702p-1", "0x1.810b27ccc1bedp-1",
     ("0x1.acc2704243be2p-4", "0x1.6ae390189e94ep-19",
      "0x1.13036dc629c08p-20", "-0x1.19e2d9df56991p-7")),
    (0.49, 0.9, 1000000, "0x1.d57297b9ba3b0p-3", "0x1.7aec8fdb7c1acp+0",
     ("0x1.e0b6e0ffb88e4p-13", "0x1.3cc7b327b95c8p-35",
      "-0x1.a531459811c19p-24", "-0x1.f4044173750d8p-24")),
]


class TestDesignConstantBits:
    """The constants a design carries give the bits of the written-out
    formulas they replace."""

    @pytest.mark.parametrize("k, p, n_loci, slope, ratio, weights", _DESIGN_BITS)
    def test_slope_ratio_and_weights(self, k, p, n_loci, slope, ratio, weights):
        design = design_from_prevalences(k, p)
        assert design.slope == float.fromhex(slope)
        assert ascertained_pair_ratio(*_RATIO_PROBS, design) == float.fromhex(ratio)
        for n in (n_loci, np.int64(n_loci), float(n_loci)):
            assert moment_weights(design, n) == tuple(float.fromhex(w) for w in weights)

    def test_moments_read_the_design_constants(self):
        # first-order moment from the stored slope, second-order from the
        # weights, both as the formulas write them
        sp, eta, n_loci = _sp(0.8, -0.3, 1.7), 0.6, 400
        g = sp.b_ij / math.sqrt(n_loci)
        assert first_order_pair_expectation(g, DESIGN, eta) == eta * DESIGN.slope * g
        alpha, beta, gamma, delta = moment_weights(DESIGN, n_loci)
        b = sp.b_ij
        assert second_order_pair_expectation(sp, DESIGN, eta, n_loci) == (
            eta * alpha * b + eta * eta * (beta * sp.a_i * sp.a_j + gamma * b * b
                                           + delta * b * (sp.a_i + sp.a_j)))

    def test_weights_refuse_no_loci(self):
        for n_loci in (0, -3, np.int64(0), 0.5):
            with pytest.raises(ValueError, match="n_loci must be >= 1"):
                moment_weights(DESIGN, n_loci)


class TestAscertainedRatio:
    @given(
        st.floats(min_value=0.01, max_value=1.0),
        st.floats(min_value=0.01, max_value=1.0),
        st.floats(min_value=0.01, max_value=1.0),
        st.floats(min_value=0.02, max_value=0.5),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=80)
    def test_value_stays_in_product_range(self, w1, w2, w3, k, frac):
        # any valid probability triple must land between the smallest and
        # largest values the centered product can take
        total = w1 + w2 + w3
        p11, p00, pneq = w1 / total, w2 / total, w3 / total
        p_study = k + frac * (0.5 - k) if k < 0.5 else k
        design = design_from_prevalences(k, max(p_study, k))
        value = ascertained_pair_ratio(p11, p00, pneq, design)
        p = design.study_prevalence
        low, high = -1.0, max((1 - p) / p, p / (1 - p))
        assert low - 1e-12 <= value <= high + 1e-12


class TestFirstOrder:
    def test_zero_relatedness(self):
        assert first_order_pair_expectation(0.0, DESIGN, 0.9) == 0.0

    def test_reference_value(self):
        assert first_order_pair_expectation(0.02, DESIGN, 0.5) == pytest.approx(
            0.009505, abs=1e-5
        )

    @given(st.floats(min_value=-0.05, max_value=0.05), st.floats(min_value=0.0, max_value=1.0))
    def test_bilinear(self, g, eta):
        one = first_order_pair_expectation(g, DESIGN, eta)
        assert first_order_pair_expectation(2 * g, DESIGN, eta) == pytest.approx(2 * one, rel=1e-12, abs=1e-300)
        assert first_order_pair_expectation(g, DESIGN, 2 * eta) == pytest.approx(2 * one, rel=1e-12, abs=1e-300)


class TestSecondOrder:
    def test_zero_deviations_give_zero(self):
        assert second_order_pair_expectation(_sp(), DESIGN, 0.5, 100) == 0.0

    def test_leading_order_matches_first_order(self):
        # small eta: value / eta converges to the linear slope in b
        sp = _sp(0.7, -0.2, 1.4)
        n_loci = 10_000
        g = sp.b_ij / math.sqrt(n_loci)
        slope_limit = first_order_pair_expectation(g, DESIGN, 1.0)
        eta = 1e-7
        ratio = second_order_pair_expectation(sp, DESIGN, eta, n_loci) / eta
        assert ratio == pytest.approx(slope_limit, rel=1e-5)

    def test_symmetric_under_diagonal_swap(self):
        a = second_order_pair_expectation(_sp(0.8, -0.3, 1.0), DESIGN, 0.5, 100)
        b = second_order_pair_expectation(_sp(-0.3, 0.8, 1.0), DESIGN, 0.5, 100)
        assert a == pytest.approx(b, abs=1e-15)

    def test_rejects_bad_loci_count(self):
        with pytest.raises(ValueError):
            second_order_pair_expectation(_sp(), DESIGN, 0.5, 0)

    def test_is_the_model_of_moment_weights(self):
        # eta*c1 + eta^2*c2 with the weights of moment_weights
        sp, eta, n_loci = _sp(0.8, -0.3, 1.7), 0.6, 400
        alpha, beta, gamma, delta = moment_weights(DESIGN, n_loci)
        expected = eta * alpha * sp.b_ij + eta**2 * (
            beta * sp.a_i * sp.a_j + gamma * sp.b_ij**2
            + delta * sp.b_ij * (sp.a_i + sp.a_j))
        value = second_order_pair_expectation(sp, DESIGN, eta, n_loci)
        assert value == pytest.approx(expected, rel=1e-15)


def _order_errors(approx_fn, svals, eta=0.5, n_loci=1):
    errs = []
    for s in svals:
        sp = _sp(s, s, s)
        exact = exact_pair_expectation(sp, DESIGN, eta, n_loci)
        errs.append(abs(exact - approx_fn(sp, s)))
    return errs


def _fit_exponent(svals, errs):
    slope, _ = np.polyfit(np.log(svals), np.log(errs), 1)
    return slope


class TestTaylorOrders:
    """Error decay of the approximations against the exact oracle.

    All deviations are set equal to a scale s (locus count folded into s).
    """

    def test_first_order_error_is_quadratic_asymptotically(self):
        # the quadratic error coefficient nearly cancels at this design, so
        # clean quartering only emerges once s is small; halving then
        # quarters the error within factor 1.5
        svals = [0.05, 0.025, 0.0125]
        errs = _order_errors(
            lambda sp, s: first_order_pair_expectation(s, DESIGN, 0.5), svals
        )
        for a, b in zip(errs, errs[1:]):
            assert 4.0 / 1.5 <= a / b <= 4.0 * 1.5

    def test_second_order_error_is_cubic_at_spec_scales(self):
        svals = [0.4, 0.2, 0.1]
        errs = _order_errors(
            lambda sp, s: second_order_pair_expectation(sp, DESIGN, 0.5, 1), svals
        )
        exponent = _fit_exponent(svals, errs)
        assert 2.6 <= exponent <= 3.4

    def test_default_variant_is_the_unique_cubic_one(self):
        # the order check selects the default: only the model with both
        # squared-density factors reaches cubic decay; dropping either one,
        # written as the default plus its one-term difference, is stuck at
        # quadratic
        svals = [0.4, 0.2, 0.1, 0.05]
        eta, n_loci = 0.5, 1
        alpha, beta, _, _ = moment_weights(DESIGN, n_loci)
        k, p = DESIGN.population_prevalence, DESIGN.study_prevalence
        dsq = std_normal_pdf(DESIGN.threshold) ** 2
        mismatch = (p - k) / (k * (1.0 - k))
        # without the factor on beta, resp. on gamma's prevalence-mismatch part
        d_beta = beta * (1.0 / dsq - 1.0)
        d_gamma = alpha / math.sqrt(n_loci) * mismatch**2 * (dsq - 1.0)
        results = {}
        for db in (0.0, d_beta):
            for dg in (0.0, d_gamma):
                def approx(sp, s, db=db, dg=dg):
                    return (second_order_pair_expectation(sp, DESIGN, eta, n_loci)
                            + eta**2 * (db * sp.a_i * sp.a_j + dg * sp.b_ij**2))
                results[(db, dg)] = _fit_exponent(svals, _order_errors(approx, svals, eta, n_loci))
        assert results[(0.0, 0.0)] > 2.6
        for key, exponent in results.items():
            if key != (0.0, 0.0):
                assert exponent < 2.3

    def test_remainder_scaling_in_loci_count(self):
        # fixed unit deviations, growing locus count: error of the quadratic
        # approximation falls by ~10^-3 per 100x loci (three-halves power)
        eta = 0.5
        errors = []
        for n_loci in (100, 10_000, 1_000_000):
            sp = _sp(1.0, 1.0, 1.0)
            exact = exact_pair_expectation(sp, DESIGN, eta, n_loci)
            approx = second_order_pair_expectation(sp, DESIGN, eta, n_loci)
            errors.append(abs(exact - approx))
        for a, b in zip(errors, errors[1:]):
            ratio = b / a
            assert 1e-3 * 0.5 <= ratio <= 1e-3 * 2.0


class TestEvaluatePairMoment:
    def test_bundles_all_three(self):
        sp, n_loci = _sp(0.5, 0.5, 1.0), 10_000
        exact = exact_pair_expectation(sp, DESIGN, 0.5, n_loci)
        first = first_order_pair_expectation(sp.b_ij / math.sqrt(n_loci), DESIGN, 0.5)
        second = second_order_pair_expectation(sp, DESIGN, 0.5, n_loci)
        assert exact == pytest.approx(first, abs=5e-4)
        assert abs(second - exact) <= abs(first - exact) + 1e-12

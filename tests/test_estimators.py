"""Tests for the closed-form and the exactly minimized second-order
heritability estimators."""


import tracemalloc

import numpy as np
import pytest

from heritcc import simulate as simulate_module
from heritcc.estimators import (
    METHODS,
    estimate,
    estimate_first_order,
    estimate_second_order,
    second_order_objective,
    _objective_coefficients,
    _pair_moment_pieces,
    _pair_sums,
)
from heritcc.grm import GrmView, event_en_check, grm_compute, mean_square_offdiagonal
from heritcc.moments import moment_weights, second_order_pair_expectation
from heritcc.grm import sigma_pair
from heritcc.numerics import rng_create
from heritcc.simulate import (
    AscertainedSample,
    design_from_prevalences,
    make_distribution,
    sample_genotype_matrix,
    simulate_case_control_study,
    standardize,
)

BALANCED = design_from_prevalences(0.5, 0.5)  # slope constant 2/pi
REFERENCE = design_from_prevalences(0.1, 0.5)


def _sample_from_w(w):
    w = np.asarray(w, dtype=np.float64)
    y = w > 0
    return AscertainedSample(
        indices=np.arange(w.shape[0]),
        y=y,
        w=w,
    )


def _grm_from_matrix(mat, n_loci=100):
    mat = np.asarray(mat, dtype=np.float64)
    return GrmView(g=mat, n_loci=n_loci)


def _random_z(n, n_loci, seed):
    rs = rng_create(seed)
    dist = make_distribution("standard-normal", n_loci, rs.spawn(0))
    return standardize(sample_genotype_matrix(dist, n, n_loci, rs.spawn(1)))


def _simulated_inputs(seed=1, heritability=0.5, k=0.1, n_loci=2000, target_cases=60,
                      kind="binomial-2-p"):
    # tiny studies use continuous genotypes: count-like columns can come out
    # constant over a handful of individuals
    study = simulate_case_control_study(
        heritability=heritability, population_prevalence=k, study_prevalence=0.5,
        n_loci=n_loci, target_cases=target_cases, seed=seed, genotype_kind=kind,
    )
    g = grm_compute(study.sample.z_study)
    return study.sample, g, study.design


class TestFirstOrder:
    def test_hand_arithmetic_with_unit_slope(self):
        # numerator 2*0.3*0.5*0.2 = 0.06, denominator 2*0.04 = 0.08
        sample = _sample_from_w([0.3, 0.5])
        g = _grm_from_matrix([[1.0, 0.2], [0.2, 1.0]])
        # use a design whose slope constant is exactly 1 by rescaling the
        # expectation: check the raw ratio times the slope instead
        report = estimate_first_order(sample, g, BALANCED)
        assert report.raw_ratio * BALANCED.slope == pytest.approx(0.75)

    def test_negative_ratio_clamps_to_zero(self):
        sample = _sample_from_w([1.0, -1.0])
        g = _grm_from_matrix([[1.0, 0.1], [0.1, 1.0]])
        report = estimate_first_order(sample, g, BALANCED)
        assert report.raw_ratio < 0.0
        assert report.eta_hat == 0.0

    def test_large_ratio_clamps_to_one(self):
        sample = _sample_from_w([2.0, 2.0, 2.0])
        g = _grm_from_matrix(np.eye(3) + 0.05 - 0.05 * np.eye(3))
        report = estimate_first_order(sample, g, BALANCED)
        assert report.raw_ratio > 1.0
        assert report.eta_hat == 1.0

    def test_global_sign_flip_invariance(self):
        sample, g, design = _simulated_inputs(seed=3)
        flipped = _sample_from_w(-sample.w)
        a = estimate_first_order(sample, g, design)
        b = estimate_first_order(flipped, g, design)
        assert a.raw_ratio == pytest.approx(b.raw_ratio, rel=1e-12)

    def test_ordered_equals_unordered_pairs(self):
        sample, g, design = _simulated_inputs(seed=4, n_loci=500, target_cases=25, kind="standard-normal")
        report = estimate_first_order(sample, g, design)
        w = sample.w
        num = 0.0
        den = 0.0
        n = w.shape[0]
        for i in range(n):
            for j in range(i + 1, n):
                num += w[i] * w[j] * g.g[i, j]
                den += g.g[i, j] ** 2
        unordered_ratio = num / (design.slope * den)
        assert report.raw_ratio == pytest.approx(unordered_ratio, rel=1e-10)

    def test_degenerate_design_raises(self):
        sample = _sample_from_w([1.0, -1.0, 1.0])
        g = _grm_from_matrix(np.eye(3))
        with pytest.raises(ValueError, match="degenerate"):
            estimate_first_order(sample, g, BALANCED)

    def test_rejects_tiny_study(self):
        sample = _sample_from_w([1.0])
        g = _grm_from_matrix(np.eye(1))
        with pytest.raises(ValueError):
            estimate_first_order(sample, g, BALANCED)

    def test_brute_force_pair_sums(self):
        # numerator and denominator match the triple-loop definition exactly
        sample, g, design = _simulated_inputs(seed=5, n_loci=20, target_cases=6, kind="standard-normal")
        w = sample.w
        n = w.shape[0]
        num = sum(
            w[i] * w[j] * g.g[i, j] for i in range(n) for j in range(n) if i != j
        )
        den = sum(g.g[i, j] ** 2 for i in range(n) for j in range(n) if i != j)
        report = estimate_first_order(sample, g, design)
        expected = num / (design.slope * den)
        assert report.raw_ratio == pytest.approx(expected, rel=1e-12)


class TestSecondOrderObjective:
    def test_identity_relatedness_constant_objective(self):
        # all off-diagonals zero: modeled moment vanishes, objective flat
        sample = _sample_from_w([1.0, -1.0, 1.0, -1.0])
        g = _grm_from_matrix(np.eye(4))
        vals = {second_order_objective(e, sample, g, BALANCED) for e in (0.0, 0.3, 0.9)}
        assert max(vals) - min(vals) <= 1e-12

    def test_nonnegative(self):
        sample, g, design = _simulated_inputs(seed=6, n_loci=300, target_cases=20, kind="standard-normal")
        for eta in (0.0, 0.25, 0.5, 1.0):
            assert second_order_objective(eta, sample, g, design) >= 0.0

    def test_quartic_structure(self):
        # objective through 5 probe points matches a degree-4 polynomial
        sample, g, design = _simulated_inputs(seed=7, n_loci=300, target_cases=20, kind="standard-normal")
        probes = np.linspace(0.0, 1.0, 5)
        values = [second_order_objective(e, sample, g, design) for e in probes]
        fitted = np.polyfit(probes, values, 4)
        dense = np.linspace(0.0, 1.0, 23)
        direct = np.array([second_order_objective(e, sample, g, design) for e in dense])
        poly = np.polyval(fitted, dense)
        assert np.allclose(poly, direct, rtol=1e-9, atol=1e-9 * abs(direct).max())

    def test_coefficient_path_matches_direct_evaluation(self):
        sample, g, design = _simulated_inputs(seed=8, n_loci=300, target_cases=20, kind="standard-normal")
        coeffs = _objective_coefficients(sample, g, design)
        for eta in (0.0, 0.2, 0.5, 0.8, 1.0):
            via_coeffs = float(np.polyval(coeffs[::-1], eta))
            direct = second_order_objective(eta, sample, g, design)
            assert via_coeffs == pytest.approx(direct, rel=1e-9)

    def test_pieces_match_pair_moment_formula(self):
        # per-pair model eta*c1 + eta^2*c2 equals the scalar approximation
        sample, g, design = _simulated_inputs(seed=9, n_loci=200, target_cases=10, kind="standard-normal")
        c1, c2 = _pair_moment_pieces(g, design)
        eta = 0.6
        for i, j in [(0, 1), (2, 5), (4, 3)]:
            sp = sigma_pair(g, i, j)
            expected = second_order_pair_expectation(sp, design, eta, g.n_loci)
            assert eta * c1[i, j] + eta**2 * c2[i, j] == pytest.approx(expected, rel=1e-10)

    def test_pieces_match_sigma_pair(self):
        # the dense pieces are built from sigma_pair's scaled deviations of
        # each pair, and are zero on the diagonal
        g = grm_compute(_random_z(12, 30, 11))
        alpha, beta, gamma, delta = moment_weights(REFERENCE, g.n_loci)
        c1, c2 = _pair_moment_pieces(g, REFERENCE)
        for i, j in [(3, 7), (0, 11), (11, 0)]:
            sp = sigma_pair(g, i, j)
            assert c1[i, j] / alpha == pytest.approx(sp.b_ij, abs=1e-14)
            expected = (beta * (sp.a_i * sp.a_j) + gamma * sp.b_ij * sp.b_ij
                        + delta * sp.b_ij * (sp.a_i + sp.a_j))
            assert c2[i, j] == pytest.approx(expected, rel=1e-14)
        assert not np.diag(c1).any() and not np.diag(c2).any()

    def test_offdiag_scaled_deviation_sd_near_one(self):
        # across pairs of one large simulated matrix the scaled off-diagonal
        # spread is 1 up to o(1)
        g = grm_compute(_random_z(200, 10_000, 12))
        c1, _ = _pair_moment_pieces(g, REFERENCE)
        iu = np.triu_indices(200, k=1)
        b = c1[iu] / moment_weights(REFERENCE, g.n_loci)[0]
        assert b.std() == pytest.approx(1.0, abs=0.1)


class TestSecondOrderEstimator:
    def test_deterministic(self):
        sample, g, design = _simulated_inputs(seed=10)
        a = estimate_second_order(sample, g, design, g.n_loci)
        b = estimate_second_order(sample, g, design, g.n_loci)
        assert a.eta_hat == b.eta_hat
        assert a.objective_value == b.objective_value

    def test_converges_on_simulated_data(self):
        sample, g, design = _simulated_inputs(seed=11)
        report = estimate_second_order(sample, g, design, g.n_loci)
        assert report.converged
        assert 0.0 <= report.eta_hat <= 1.0
        assert report.objective_value is not None

    def test_null_model_estimates_near_zero(self):
        # eta = 0, balanced prevalences. The spread of the raw ratio scales
        # like sqrt(2N)/(slope*n), so the check is run where that is small
        # (n=800, N=1000); at n=200, N=1e4 the raw sd exceeds 1 and estimates
        # land below 0.15 only about half the time.
        small = 0
        seeds = range(30)
        for seed in seeds:
            sample, g, design = _simulated_inputs(
                seed=3000 + seed, heritability=0.0, k=0.5, n_loci=1000,
                target_cases=400,
            )
            report = estimate_second_order(sample, g, design, g.n_loci)
            if report.eta_hat <= 0.15:
                small += 1
        assert small >= 0.9 * len(list(seeds))

    def test_agreement_with_first_order_when_deviations_small(self):
        agree = 0
        n_seeds = 12
        for seed in range(n_seeds):
            sample, g, design = _simulated_inputs(
                seed=2000 + seed, heritability=0.5, k=0.1, n_loci=10_000,
                target_cases=100,
            )
            first = estimate_first_order(sample, g, design)
            second = estimate_second_order(sample, g, design, g.n_loci)
            if abs(second.eta_hat - first.eta_hat) <= 0.1:
                agree += 1
        assert agree >= 0.9 * n_seeds

    def test_stationary_point_of_quartic(self):
        sample, g, design = _simulated_inputs(seed=12)
        report = estimate_second_order(sample, g, design, g.n_loci)
        coeffs = _objective_coefficients(sample, g, design)
        deriv = np.polyder(np.poly1d(coeffs[::-1]))
        if 0.0 < report.eta_hat < 1.0:
            assert abs(float(deriv(report.eta_hat))) <= 1e-6 * (1.0 + abs(coeffs[0]))

    def test_rejects_locus_count_other_than_the_matrix(self):
        sample, g, design = _simulated_inputs(seed=13, n_loci=200, target_cases=10,
                                              kind="standard-normal")
        with pytest.raises(ValueError, match=r"n_loci 5000 .* 200 loci"):
            estimate_second_order(sample, g, design, 5000)

    @pytest.mark.parametrize("heritability, n_loci, target_cases, seed, boundary", [
        (0.0, 400, 30, 2, 0.0),
        (1.0, 200, 60, 1, 1.0),
    ])
    def test_boundary_minimum_reports_converged(self, heritability, n_loci,
                                                target_cases, seed, boundary):
        # the gradient at the boundary points out of [0, 1]: the minimum on
        # [0, 1] is that boundary, which counts as converged
        study = simulate_case_control_study(heritability, 0.1, 0.5, n_loci,
                                            target_cases, seed)
        g = grm_compute(study.sample.z_study)
        report = estimate_second_order(study.sample, g, study.design, n_loci)
        coeffs = _objective_coefficients(study.sample, g, study.design)
        grad = float(np.polyder(np.poly1d(coeffs[::-1]))(report.eta_hat))
        assert abs(report.eta_hat - boundary) < 1e-10
        assert grad >= 0.0 if boundary == 0.0 else grad <= 0.0
        assert report.converged

    def test_global_minimum_on_tiny_standardized_studies(self):
        # tiny studies give quartics whose minimum on [0, 1] is hard to reach
        # by local iteration; the estimate must not exceed a fine grid's
        # minimum
        checked = 0
        for seed in range(300):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(4, 9))
            n_loci = int(rng.integers(2, 12))
            k = float(rng.choice([0.01, 0.1, 0.3]))
            x = rng.normal(size=(n, n_loci))
            y = rng.random(n) < 0.5
            if y.all() or not y.any():
                continue
            design = design_from_prevalences(k, 0.5)
            sample = AscertainedSample(indices=np.arange(n), y=y, w=(y - 0.5) / 0.5)
            g = grm_compute(standardize(x))
            report = estimate_second_order(sample, g, design, n_loci)
            coeffs = _objective_coefficients(sample, g, design)
            grid_min = float(np.polyval(coeffs[::-1], np.linspace(0.0, 1.0, 2001)).min())
            assert report.converged, seed
            assert report.objective_value <= grid_min + 1e-9 * abs(grid_min), seed
            checked += 1
        assert checked >= 250

    def test_non_finite_input_reports_unconverged(self):
        sample, g, design = _simulated_inputs(seed=14, n_loci=200, target_cases=10,
                                              kind="standard-normal")
        w = sample.w.copy()
        w[0] = np.nan
        report = estimate_second_order(_sample_from_w(w), g, design, g.n_loci)
        assert not report.converged
        assert 0.0 <= report.eta_hat <= 1.0


def _dense_coefficients(sample, g, design):
    # the quartic's coefficients from whole n x n arrays of the pair pieces
    c1, c2 = _pair_moment_pieces(g, design)
    products = np.outer(sample.w, sample.w)
    np.fill_diagonal(products, 0.0)
    return np.array([
        (products * products).sum(),
        -2.0 * (products * c1).sum(),
        (c1 * c1).sum() - 2.0 * (products * c2).sum(),
        2.0 * (c1 * c2).sum(),
        (c2 * c2).sum(),
    ])


def _study_of_size(n, kind, n_loci=300):
    # exactly n individuals; columns that come out constant are dropped
    rs = rng_create(n)
    dist = make_distribution(kind, n_loci, rs.spawn(0))
    x = sample_genotype_matrix(dist, n, n_loci, rs.spawn(1)).astype(np.float64)
    g = grm_compute(standardize(x[:, x.std(axis=0) > 0.0]))
    w = np.random.default_rng(n).normal(size=n)
    return _sample_from_w(w), g


class TestPanelSweep:
    @pytest.mark.parametrize("kind", ["standard-normal", "binomial-2-p", "rademacher"])
    @pytest.mark.parametrize("n", [2, 255, 256, 257, 600])
    def test_matches_dense_pieces(self, kind, n):
        # at the default block budget every n here but 600 (218-row panels)
        # is one panel; the panel-height tests below split them
        sample, g = _study_of_size(n, kind)
        fast = _objective_coefficients(sample, g, REFERENCE)
        dense = _dense_coefficients(sample, g, REFERENCE)
        np.testing.assert_allclose(fast, dense, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("rows", [7, 1000])
    def test_panel_height_does_not_change_coefficients(self, monkeypatch, rows):
        sample, g = _study_of_size(600, "binomial-2-p")
        default = _objective_coefficients(sample, g, REFERENCE)
        monkeypatch.setattr(simulate_module, "_BUFFER_BYTES", rows * 8 * 600)
        assert np.array_equal(_objective_coefficients(sample, g, REFERENCE), default)

    def test_peak_memory_is_panels_not_matrices(self):
        n = 3000
        x = np.random.default_rng(3).normal(size=(n, 20))
        g = grm_compute(standardize(x))
        sample = _sample_from_w(np.where(np.arange(n) % 2 == 0, 1.0, -1.0))
        one_matrix = n * n * 8
        for fn, args in [(_objective_coefficients, (REFERENCE,)),
                         (estimate_second_order, (REFERENCE, g.n_loci)),
                         (estimate_first_order, (REFERENCE,))]:
            tracemalloc.start()
            try:
                fn(sample, g, *args)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 0.5 * one_matrix, fn.__name__

    @pytest.mark.parametrize("budget", [None, 1 << 22, 1 << 18])
    @pytest.mark.parametrize("n", [1000, 3000])
    def test_peak_memory_follows_the_block_budget(self, monkeypatch, n, budget):
        # each sweep holds at most three panels of the block budget (the
        # panel, the next one and a power of it) plus O(n) row sums,
        # whatever n: at the default 1 MiB a panel is 131 rows at n = 1000
        # and 43 at n = 3000; a 4 MiB budget gave 524-row, 4.2 MB panels at
        # n = 1000 and peaks of 7.6-12.2 MiB
        if budget is not None:
            monkeypatch.setattr(simulate_module, "_BUFFER_BYTES", budget)
        g = grm_compute(standardize(np.random.default_rng(5).normal(size=(n, 20))))
        sample = _sample_from_w(np.where(np.arange(n) % 2 == 0, 1.0, -1.0))
        bound = 3 * simulate_module._BUFFER_BYTES + (1 << 20)
        if budget is None:
            # the default budget's sweeps stay within 4 MiB plus the row sums
            bound = min(bound, (1 << 22) + 16 * 8 * n)
        for fn, args in [(estimate_second_order, (sample, g, REFERENCE, g.n_loci)),
                         (estimate_first_order, (sample, g, REFERENCE)),
                         (event_en_check, (g, 0.05)),
                         (mean_square_offdiagonal, (g,))]:
            tracemalloc.start()
            try:
                fn(*args)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound, (fn.__name__, peak)


def _dense_pair_sums(w, g):
    # the whole-matrix formula the panel pass replaced
    diag = np.diag(g)
    return (float(np.einsum("i,ij,j->", w, g, w) - ((w * w) * diag).sum()),
            float((g * g).sum() - (diag * diag).sum()))


class TestPairSumPanels:
    @pytest.mark.parametrize("n", [2, 255, 256, 257, 600])
    def test_matches_dense_formula(self, n):
        sample, g = _study_of_size(n, "standard-normal")
        np.testing.assert_allclose(_pair_sums(sample.w, g.g), _dense_pair_sums(sample.w, g.g),
                                   rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("rows", [7, 1000])
    def test_panel_height_does_not_change_sums(self, monkeypatch, rows):
        sample, g = _study_of_size(600, "binomial-2-p")
        default = _pair_sums(sample.w, g.g)
        monkeypatch.setattr(simulate_module, "_BUFFER_BYTES", rows * 8 * 600)
        assert _pair_sums(sample.w, g.g) == default


class TestSecondOrderInputChecks:
    @pytest.mark.parametrize("w, mat", [
        ([1.0], np.eye(1)),                    # one row
        ([1.0, -1.0, 1.0], np.eye(2)),         # sizes differ
        ([1.0, -1.0, 1.0], np.eye(3)),         # off-diagonal all zero
    ])
    def test_raises_what_first_order_raises(self, w, mat):
        sample, g = _sample_from_w(w), _grm_from_matrix(mat)
        with pytest.raises(ValueError) as first:
            estimate_first_order(sample, g, REFERENCE)
        with pytest.raises(ValueError) as second:
            estimate_second_order(sample, g, REFERENCE, 100)
        assert str(second.value) == str(first.value)


class TestEstimateByName:
    @pytest.mark.parametrize("kind", ["binomial-2-p", "standard-normal"])
    def test_same_report_as_the_direct_call(self, kind):
        sample, g, design = _simulated_inputs(seed=4, n_loci=500, target_cases=40, kind=kind)
        direct = {"first": estimate_first_order(sample, g, design),
                  "second": estimate_second_order(sample, g, design, g.n_loci)}
        assert METHODS == ("first", "second")
        for method in METHODS:
            # repr writes every float exactly, so equal text is equal bits
            assert repr(estimate(method, sample, g, design)) == repr(direct[method])

    def test_unknown_method_is_named(self):
        sample, g, design = _simulated_inputs(seed=4, n_loci=500, target_cases=40)
        with pytest.raises(ValueError, match=r"unknown method 'third'; valid: \('first', 'second'\)"):
            estimate("third", sample, g, design)

"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line (plus context) before asserting, so a
full run reads as a checklist. The expensive replication studies are shared
module-scoped fixtures. Expect roughly 25-30 minutes wall time on two cores
(the rare-prevalence replication study dominates).

Three checks are known to fail and are left failing deliberately; each
failure is a real property of the estimator at the pinned settings, not an
implementation defect (details in the test docstrings):

* the prevalence-accuracy ordering (the closed-form estimator is *more*
  accurate for the rarer prevalence, because its signal-to-noise constant
  grows as prevalence falls),
* the first-order error-decay window at coarse perturbation scales (the
  quadratic error coefficient nearly cancels at these settings, so the decay
  exponent is far from 2 until the scale is much smaller),
* the off-diagonal mean-square band around n/N (empirical centering shifts
  the statistic's center to (n-1)/N + ~1/(n-1), 20-24% above n/N here).
"""

import math

import numpy as np
import pytest
from _zmoments import z_property_suite

from heritcc.cli import main as cli_main
from heritcc.experiments import (
    ExperimentConfig,
    run_consistency_study,
    run_experiment,
    run_timing,
)
from heritcc.grm import (
    SigmaPair,
    grm_compute,
    mean_square_offdiagonal,
)
from heritcc.moments import (
    exact_pair_expectation,
    first_order_pair_expectation,
    second_order_pair_expectation,
)
from heritcc.numerics import BivariateCovariance, bvn_rect, rng_create, std_normal_quantile
from heritcc.simulate import (
    design_from_prevalences,
    make_distribution,
    sample_genotype_matrix,
    standardize,
)

WORKERS = 2
INF = math.inf


def _report(number: str, name: str, ok: bool, detail: str) -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} [{name}]: {status} ({detail})")
    return ok


# ---------------------------------------------------------------------------
# Shared replication studies
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def fig_style_run():
    cfg = ExperimentConfig(
        eta_star=0.5, population_prevalence=0.1, study_prevalence=0.5,
        n_loci=10_000, target_cases=100, replications=200,
        seed=20_260_501, methods=("first", "second"),
    )
    return run_experiment(cfg, workers=WORKERS)


@pytest.fixture(scope="module")
def rare_prevalence_run():
    cfg = ExperimentConfig(
        eta_star=0.5, population_prevalence=0.005, study_prevalence=0.5,
        n_loci=10_000, target_cases=100, replications=200,
        seed=20_260_502, methods=("first",),
    )
    return run_experiment(cfg, workers=WORKERS)


class TestCriterion1Unbiasedness:
    def test_both_estimators_centered(self, fig_style_run):
        summaries = fig_style_run.summaries
        mean_first = summaries["first"].mean
        mean_second = summaries["second"].mean
        ok = abs(mean_first - 0.5) <= 0.08 and abs(mean_second - 0.5) <= 0.08
        _report(
            "1", "unbiasedness",
            ok,
            f"mean first={mean_first:.4f}, second={mean_second:.4f}, "
            f"target 0.5 +/- 0.08, n_ok={summaries['first'].n_ok}",
        )
        assert abs(mean_first - 0.5) <= 0.08
        assert abs(mean_second - 0.5) <= 0.08


class TestCriterion2PrevalenceEffect:
    def test_higher_prevalence_less_spread(self, fig_style_run, rare_prevalence_run):
        """Claimed direction: spread at prevalence 0.1 below spread at 0.005.

        The measured ordering is the opposite, and persistently so: the
        regression slope constant grows like pdf(t)^2/K^2 as prevalence
        falls, so the rare-prevalence study carries more signal per pair and
        the estimator spread shrinks. Kept failing on purpose; see the module
        docstring.
        """
        sd_common = fig_style_run.summaries["first"].sd
        sd_rare = rare_prevalence_run.summaries["first"].sd
        ok = sd_common < sd_rare
        _report(
            "2", "prevalence effect on spread",
            ok,
            f"sd(K=0.1)={sd_common:.4f} vs sd(K=0.005)={sd_rare:.4f}; "
            "claimed strict ordering sd(K=0.1) < sd(K=0.005)",
        )
        assert sd_common < sd_rare


DESIGN_TAYLOR = design_from_prevalences(0.1, 0.5)
TAYLOR_SCALES = (0.4, 0.2, 0.1)


def _taylor_errors(approx):
    errs = []
    for s in TAYLOR_SCALES:
        sp = SigmaPair(a_i=s, a_j=s, b_ij=s)
        exact = exact_pair_expectation(sp, DESIGN_TAYLOR, eta=0.5, n_loci=1)
        errs.append(abs(exact - approx(sp, s)))
    return errs


def _ls_exponent(errs):
    slope, _ = np.polyfit(np.log(TAYLOR_SCALES), np.log(errs), 1)
    return float(slope)


class TestCriterion3TaylorOrders:
    def test_first_order_exponent_window(self):
        """Expected decay exponent in [1.7, 2.3] at scales {0.4, 0.2, 0.1}.

        The genuine quadratic error coefficient at these settings is ~5x
        smaller than the cubic one, and the signed error crosses zero near
        scale 0.19, so the measured exponent over this window is ~2.38 (and
        successive-halving exponents are wild: ~5.8 then ~-1.0). The window
        is only reached for scales below ~0.05. Kept failing on purpose; the
        asymptotic quadratic decay itself is verified in the moments tests.
        """
        errs = _taylor_errors(
            lambda sp, s: first_order_pair_expectation(s, DESIGN_TAYLOR, 0.5)
        )
        exponent = _ls_exponent(errs)
        ok = 1.7 <= exponent <= 2.3
        _report(
            "3a", "first-order error decay",
            ok,
            f"errors={['%.3e' % e for e in errs]} exponent={exponent:.3f}, "
            "window [1.7, 2.3]",
        )
        assert 1.7 <= exponent <= 2.3

    def test_second_order_exponent_window(self):
        errs = _taylor_errors(
            lambda sp, s: second_order_pair_expectation(sp, DESIGN_TAYLOR, 0.5, 1)
        )
        exponent = _ls_exponent(errs)
        ok = 2.6 <= exponent <= 3.4
        _report(
            "3b", "second-order error decay",
            ok,
            f"errors={['%.3e' % e for e in errs]} exponent={exponent:.3f}, "
            "window [2.6, 3.4]",
        )
        assert 2.6 <= exponent <= 3.4


class TestCriterion4OracleSanity:
    def test_closed_forms_and_partition(self):
        cov_half = BivariateCovariance(1.0, 1.0, 0.5)
        quadrant = bvn_rect(0.0, INF, 0.0, INF, cov_half)
        quadrant_err = abs(quadrant - 1.0 / 3.0)

        t = std_normal_quantile(0.9)
        cov = BivariateCovariance(1.2, 0.9, 0.3)
        partition = (
            bvn_rect(t, INF, t, INF, cov)
            + bvn_rect(-INF, t, t, INF, cov)
            + bvn_rect(t, INF, -INF, t, cov)
            + bvn_rect(-INF, t, -INF, t, cov)
        )
        partition_err = abs(partition - 1.0)

        identity_sp = SigmaPair(0.0, 0.0, 0.0)
        moment = exact_pair_expectation(identity_sp, DESIGN_TAYLOR, 0.7, 100)

        ok = quadrant_err <= 1e-8 and partition_err <= 1e-9 and abs(moment) <= 1e-9
        _report(
            "4", "oracle sanity",
            ok,
            f"quadrant_err={quadrant_err:.2e}, partition_err={partition_err:.2e}, "
            f"identity_moment={moment:.2e}",
        )
        assert quadrant_err <= 1e-8
        assert partition_err <= 1e-9
        assert abs(moment) <= 1e-9


class TestCriterion5MomentSuite:
    def test_identities_and_monte_carlo(self):
        rs = rng_create(20_260_505)
        dist_small = make_distribution("binomial-2-p", 10_000, rs.spawn(0))
        small = z_property_suite(dist_small, n=50, n_loci=10_000, reps=101, rs=rs.spawn(1))
        dist_wide = make_distribution("binomial-2-p", 5_000, rs.spawn(2))
        wide = z_property_suite(dist_wide, n=200, n_loci=5_000, reps=40, rs=rs.spawn(3))

        ids_ok = (
            small.max_abs_col_sum <= 1e-8 * 50
            and small.max_abs_sumsq_minus_n <= 1e-8 * 50
            and wide.max_abs_col_sum <= 1e-8 * 200
            and wide.max_abs_sumsq_minus_n <= 1e-8 * 200
        )
        pair = small.pair_product
        pair_ok = (
            pair.n_samples >= 1_000_000
            and abs(pair.estimate - (-1.0 / 49.0)) <= 3.0 * pair.std_error
        )
        sq = wide.square_pair_product
        sq_ok = abs(sq.estimate - 1.0) <= 3.0 * sq.std_error + 0.05

        ok = ids_ok and pair_ok and sq_ok
        _report(
            "5", "standardized-moment suite",
            ok,
            f"pair={pair.estimate:.6f} (target {-1/49:.6f}, 3SE={3*pair.std_error:.1e}, "
            f"n={pair.n_samples}), square_pair={sq.estimate:.4f}, identities_ok={ids_ok}",
        )
        assert ids_ok
        assert pair_ok
        assert sq_ok


class TestCriterion6OffdiagonalMeanSquare:
    def test_band_around_ratio(self):
        """Claimed: statistic within 15% of n/N in >= 90% of 50 seeds.

        Empirical centering forces a pair correlation of -1/(n-1), which
        adds ~(N-1)/(N(n-1)) to the statistic's center: at n=200, N=1e4
        that is +25% of n/N, so the band around n/N itself is never hit.
        Kept failing on purpose; the corrected finite-size center is
        verified in the relationship-matrix tests.
        """
        n, n_loci = 200, 10_000
        hits = 0
        values = []
        for seed in range(50):
            rs = rng_create(20_260_506, seed)
            dist = make_distribution("binomial-2-p", n_loci, rs.spawn(0))
            z = standardize(sample_genotype_matrix(dist, n, n_loci, rs.spawn(1)))
            stat = mean_square_offdiagonal(grm_compute(z))
            values.append(stat)
            if abs(stat - n / n_loci) <= 0.15 * n / n_loci:
                hits += 1
        ok = hits >= 45
        _report(
            "6", "off-diagonal mean square near n/N",
            ok,
            f"hits={hits}/50, mean statistic={np.mean(values):.5f} vs n/N=0.02 "
            "(finite-size center ~0.0248)",
        )
        assert hits >= 45


class TestCriterion7ConsistencyTrend:
    def test_rmse_falls_along_growth_path(self):
        rows = run_consistency_study(
            eta_star=0.5, population_prevalence=0.1, study_prevalence=0.5,
            ratio_a=0.02, n_loci_values=[2000, 8000], reps=100,
            seed=20_260_507, workers=WORKERS,
        )
        rmse_small, rmse_large = rows[0].rmse, rows[1].rmse
        ok = rmse_large < rmse_small
        _report(
            "7", "consistency trend",
            ok,
            f"rmse(N=2000,n~40)={rmse_small:.4f} > rmse(N=8000,n~160)={rmse_large:.4f}",
        )
        assert rmse_large < rmse_small


class TestCriterion8Timing:
    def test_grid_ordering_and_monotonicity(self):
        # median-of-7 instead of the default 3: the (100, 1000) cell runs in
        # a few milliseconds and the ordering margin at (1000, 10000) is only
        # ~12% (both methods share the dominant matrix product), so this
        # check needs an otherwise idle machine
        rows = run_timing([100, 1000], [1000, 10_000],
                          methods=("first", "second"), seed=20_260_508, repeats=7)
        t = {(r.n, r.n_loci, r.method): r.seconds for r in rows}
        ordering = all(
            t[(n, nl, "second")] > t[(n, nl, "first")]
            for n in (100, 1000) for nl in (1000, 10_000)
        )
        monotone_n = all(
            t[(1000, nl, m)] > t[(100, nl, m)]
            for nl in (1000, 10_000) for m in ("first", "second")
        )
        monotone_loci = all(
            t[(n, 10_000, m)] > t[(n, 1000, m)]
            for n in (100, 1000) for m in ("first", "second")
        )
        ok = ordering and monotone_n and monotone_loci
        detail = ", ".join(
            f"(n={n},N={nl}) first={t[(n,nl,'first')]:.3f}s second={t[(n,nl,'second')]:.3f}s"
            for n in (100, 1000) for nl in (1000, 10_000)
        )
        _report("8", "timing ordering/monotonicity", ok, detail)
        assert ordering
        assert monotone_n
        assert monotone_loci


class TestCriterion9CliDeterminism:
    def test_seeded_runs_byte_identical(self, tmp_path, capsys):
        exp_args = [
            "experiment", "--eta", "0.5", "--K", "0.1", "--P", "0.5",
            "--n-loci", "2000", "--target-cases", "50", "--replications", "3",
            "--seed", "31", "--methods", "first,second", "--threads", "1",
        ]
        assert cli_main([*exp_args, "--out-dir", str(tmp_path / "r1")]) == 0
        assert cli_main([*exp_args, "--out-dir", str(tmp_path / "r2")]) == 0
        sim_args = [
            "simulate", "--K", "0.1", "--P", "0.5", "--eta", "0.5",
            "--n-loci", "2000", "--target-cases", "50", "--seed", "31",
        ]
        assert cli_main([*sim_args, "--out", str(tmp_path / "d1.bin")]) == 0
        assert cli_main([*sim_args, "--out", str(tmp_path / "d2.bin")]) == 0
        capsys.readouterr()

        same_records = (
            (tmp_path / "r1" / "records.csv").read_bytes()
            == (tmp_path / "r2" / "records.csv").read_bytes()
        )
        same_summary = (
            (tmp_path / "r1" / "summary.csv").read_bytes()
            == (tmp_path / "r2" / "summary.csv").read_bytes()
        )
        same_dataset = (
            (tmp_path / "d1.bin").read_bytes() == (tmp_path / "d2.bin").read_bytes()
        )
        ok = same_records and same_summary and same_dataset
        _report(
            "9", "seeded CLI determinism",
            ok,
            f"records={same_records}, summary={same_summary}, dataset={same_dataset}",
        )
        assert ok


class TestCriterion10BruteForce:
    def test_matrix_and_pair_sums_match_loops(self):
        worst_grm = 0.0
        worst_pairs = 0.0
        for seed in range(5):
            rng = np.random.default_rng(900 + seed)
            n = int(rng.integers(4, 11))
            n_loci = int(rng.integers(3, 21))
            rs = rng_create(20_260_510, seed)
            dist = make_distribution("standard-normal", n_loci, rs.spawn(0))
            z = standardize(sample_genotype_matrix(dist, n, n_loci, rs.spawn(1)))
            g = grm_compute(z)

            brute = np.zeros((n, n))
            for i in range(n):
                for j in range(n):
                    acc = 0.0
                    for k in range(n_loci):
                        acc += z.z[i, k] * z.z[j, k]
                    brute[i, j] = acc / n_loci
            denom = np.maximum(np.abs(brute), 1e-12)
            worst_grm = max(worst_grm, float((np.abs(g.g - brute) / denom).max()))

            w = rng.normal(size=n)
            num_loop = sum(
                w[i] * w[j] * g.g[i, j] for i in range(n) for j in range(n) if i != j
            )
            den_loop = sum(
                g.g[i, j] ** 2 for i in range(n) for j in range(n) if i != j
            )
            from heritcc.estimators import _pair_sums

            num_fast, den_fast = _pair_sums(w, g.g)
            worst_pairs = max(
                worst_pairs,
                abs(num_fast - num_loop) / max(abs(num_loop), 1e-12),
                abs(den_fast - den_loop) / max(abs(den_loop), 1e-12),
            )
        ok = worst_grm <= 1e-12 and worst_pairs <= 1e-12
        _report(
            "10", "brute-force equivalence",
            ok,
            f"worst matrix rel err={worst_grm:.2e}, worst pair-sum rel err={worst_pairs:.2e}",
        )
        assert worst_grm <= 1e-12
        assert worst_pairs <= 1e-12

"""Conditional expectation of centered phenotype products for a selected pair.

Three routes to the same quantity:

* an exact evaluation that takes the both-case and both-control orthants of
  the latent bivariate normal from one quadrature and applies the selection
  weighting,
* a first-order (linear in relatedness) approximation whose slope is a
  closed-form constant of the design,
* a second-order approximation that also uses the diagonal deviations of the
  pair's latent covariance.

Every formula's part that depends on the design alone (the slope, the
selection ratio's coefficients and the weights' factors that do not depend
on the locus count) is written once, in :func:`_design_constants`. A
:class:`~heritcc.simulate.StudyDesign` calls it when it is built and carries
the results, so a moment evaluation re-derives none of them. The quadratic
model's weights are composed from those factors in :func:`moment_weights`;
the second-order estimator's sums over pairs read them too.

The second-order weights carry two squared-threshold-density factors: one
on the diagonal-deviation product weight and one on the prevalence-mismatch
part of the squared off-diagonal weight. Re-deriving the expansion shows both
are required for the remainder to shrink at the three-halves power of the
locus count; the order-check tests show that dropping either one (closer to
a published form of the display) stalls the error decay at quadratic.
"""

from __future__ import annotations

import math

from .grm import SigmaPair
from .numerics import BivariateCovariance, bvn_orthants, std_normal_pdf
from .simulate import StudyDesign

__all__ = [
    "pair_covariance",
    "pair_probabilities",
    "ascertained_pair_ratio",
    "exact_pair_expectation",
    "pair_moment_slope",
    "first_order_pair_expectation",
    "moment_weights",
    "second_order_pair_expectation",
]


def _design_constants(design: StudyDesign) -> tuple[
        float, tuple[float, float, float], tuple[float, float, float, float, float, float]]:
    """(slope, ratio_weights, weight_factors) of a design, from its K, P,
    threshold t and p_control; ``StudyDesign`` stores them when it is built.

    * slope: pdf(t)^2 P(1-P) / (K^2 (1-K)^2), :func:`pair_moment_slope`;
    * ratio_weights: (1-P)/P, K^2(1-P)/(P(1-K)^2) and p_control^2, the
      coefficients of :func:`ascertained_pair_ratio`;
    * weight_factors: scale = P(1-P)/(K^2 (1-K)^2), pdf(t)^2,
      scale*pdf(t)^2, t^2/4, t^2/2 - mismatch^2 pdf(t)^2 and
      t^2 - 1 - mismatch*t*pdf(t), with mismatch = (P-K)/(K(1-K)): the
      factors of :func:`moment_weights` that do not depend on the locus count.
    """
    k, p, t = design.population_prevalence, design.study_prevalence, design.threshold
    r = design.p_control
    density = std_normal_pdf(t)
    dsq = density * density
    k_var_sq = k * k * (1.0 - k) ** 2
    scale = p * (1.0 - p) / k_var_sq
    mismatch = (p - k) / (k * (1.0 - k))
    return (
        dsq * p * (1.0 - p) / k_var_sq,
        ((1.0 - p) / p, k * k * (1.0 - p) / (p * (1.0 - k) ** 2), r * r),
        (scale, dsq, scale * dsq, t * t / 4.0, t * t / 2.0 - mismatch * mismatch * dsq,
         t * t - 1.0 - mismatch * t * density),
    )


def pair_covariance(sp: SigmaPair, eta: float, n_loci: int) -> BivariateCovariance:
    """The pair's latent covariance, rebuilt from its scaled deviations:
    1 + eta a / sqrt(n_loci) on the diagonal, eta b_ij / sqrt(n_loci) off it.

    Raises:
        ValueError: if ``n_loci < 1`` or the covariance is not positive
            definite.
    """
    return BivariateCovariance(*_pair_entries(sp, eta, n_loci))


def _pair_entries(sp: SigmaPair, eta: float, n_loci: int) -> tuple[float, float, float]:
    """(v11, v22, v12) of :func:`pair_covariance`, as plain floats."""
    if n_loci < 1:
        raise ValueError(f"n_loci must be >= 1, got {n_loci}")
    root = math.sqrt(n_loci)
    return 1.0 + eta * sp.a_i / root, 1.0 + eta * sp.a_j / root, eta * sp.b_ij / root


def pair_probabilities(sp: SigmaPair, design: StudyDesign, eta: float,
                       n_loci: int) -> tuple[float, float, float]:
    """Exact joint phenotype probabilities for one pair.

    Both-case and both-control are the upper and lower orthants of the
    pair's latent bivariate normal at the standardized thresholds, from one
    :func:`~heritcc.numerics.bvn_orthants` quadrature. The discordant
    probability is taken as the complement so the three partition exactly.

    Raises:
        ValueError: as :func:`pair_covariance`.
    """
    v11, v22, v12 = _pair_entries(sp, eta, n_loci)
    if not (v11 > 0.0 and v22 > 0.0 and v12 * v12 < v11 * v22):
        BivariateCovariance(v11, v22, v12)  # raises, naming the failed check
    t = design.threshold
    p_both_cases, p_both_controls = bvn_orthants(
        t / math.sqrt(v11), t / math.sqrt(v22), v12 / math.sqrt(v11 * v22))
    p_discordant = 1.0 - p_both_cases - p_both_controls
    return p_both_cases, p_both_controls, p_discordant if p_discordant > 0.0 else 0.0


def ascertained_pair_ratio(p_both_cases: float, p_both_controls: float,
                           p_discordant: float, design: StudyDesign) -> float:
    """Selection-weighted expectation of the centered phenotype product.

    Conditional on both individuals being selected, the product takes value
    (1-P)/P on case-case pairs, P/(1-P) on control-control pairs and -1 on
    discordant pairs; selection keeps cases surely and controls with the
    thinning probability, which weights the three joint probabilities. The
    coefficients are the design's ``ratio_weights``.
    """
    case_case, control_control, r_sq = design.ratio_weights
    r = design.p_control
    numerator = case_case * p_both_cases - r * p_discordant + control_control * p_both_controls
    denominator = p_both_cases + r_sq * p_both_controls + r * p_discordant
    return numerator / denominator


def exact_pair_expectation(sp: SigmaPair, design: StudyDesign, eta: float,
                           n_loci: int) -> float:
    """Oracle value of the conditional pair moment, accurate to ~1e-10."""
    p11, p00, pneq = pair_probabilities(sp, design, eta, n_loci)
    return ascertained_pair_ratio(p11, p00, pneq, design)


def pair_moment_slope(design: StudyDesign) -> float:
    """Slope of the pair moment in heritability times relatedness.

    Closed form: pdf(threshold)^2 * P(1-P) / (K^2 (1-K)^2), the design's
    ``slope``.
    """
    return design.slope


def first_order_pair_expectation(g_ij: float, design: StudyDesign, eta: float) -> float:
    """Linear approximation: heritability times slope times relatedness."""
    return eta * design.slope * g_ij


def moment_weights(design: StudyDesign, n_loci: int) -> tuple[float, float, float, float]:
    """Weights (alpha, beta, gamma, delta) of the quadratic pair-moment model.

    In a pair's scaled deviations a and b (:class:`~heritcc.grm.SigmaPair`)
    the model is eta*c1 + eta^2*c2, with c1 = alpha b_ij and
    c2 = beta a_i a_j + gamma b_ij^2 + delta b_ij (a_i + a_j). The
    second-order estimator minimizes its least-squares gap to this model.

    beta, the diagonal-deviation product weight, and the prevalence-mismatch
    part of gamma both carry the squared threshold density. With both
    factors the model's error against the exact oracle decays at the
    three-halves power of the locus count; without either, the order-check
    tests find it decays at first power.

    The design carries every factor that does not depend on ``n_loci``
    (``StudyDesign.weight_factors``, from :func:`_design_constants`), so each
    call only divides by the locus count and its root and multiplies the
    factors in, with the bits of the written-out formulas.

    Raises:
        ValueError: if ``n_loci < 1``.
    """
    if n_loci < 1:
        raise ValueError("n_loci must be >= 1")
    scale, dsq, scale_dsq, beta_t, gamma_t, delta_t = design.weight_factors
    per_locus = scale / n_loci
    return (
        scale_dsq / math.sqrt(n_loci),
        per_locus * beta_t * dsq,
        per_locus * dsq * gamma_t,
        per_locus * 0.5 * dsq * delta_t,
    )


def second_order_pair_expectation(sp: SigmaPair, design: StudyDesign, eta: float,
                                  n_loci: int) -> float:
    """Quadratic approximation of the conditional pair moment: the model of
    :func:`moment_weights` at one pair."""
    alpha, beta, gamma, delta = moment_weights(design, n_loci)
    a_i, a_j, b = sp.a_i, sp.a_j, sp.b_ij
    return eta * alpha * b + eta * eta * (beta * a_i * a_j + gamma * b * b
                                          + delta * b * (a_i + a_j))

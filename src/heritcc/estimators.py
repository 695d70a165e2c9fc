"""Heritability estimators from centered phenotype products and relatedness.

The closed-form estimator regresses pair products on relatedness with a known
slope constant and clamps to [0, 1]. The refined estimator minimizes the
least-squares gap to the quadratic pair-moment approximation; that objective
is a quartic polynomial in heritability, so one sweep over pairs yields five
coefficients, and its minimum on [0, 1] lies at an endpoint or at a real root
of the cubic derivative.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .grm import GrmView, scaled_deviations
from .moments import pair_moment_slope
from .numerics import std_normal_pdf
from .simulate import AscertainedSample, StudyDesign

__all__ = [
    "EstimateReport",
    "estimate_first_order",
    "second_order_objective",
    "estimate_second_order",
]

@dataclass(frozen=True)
class EstimateReport:
    """Outcome of one estimation run."""

    method: str
    eta_hat: float
    raw_ratio: float | None
    converged: bool
    objective_value: float | None
    wall_time: float


def _clamp_unit(x: float) -> float:
    return min(1.0, max(0.0, x))


def _pair_sums(w: np.ndarray, g: np.ndarray) -> tuple[float, float]:
    """Ordered off-diagonal sums: product-weighted entries and squared entries.

    The sums avoid BLAS, whose matrix-vector products can round differently
    at different thread counts."""
    diag = np.diag(g)
    num = float(np.einsum("i,ij,j->", w, g, w) - ((w * w) * diag).sum())
    den = float((g * g).sum() - (diag * diag).sum())
    return num, den


def estimate_first_order(sample: AscertainedSample, g: GrmView,
                         design: StudyDesign) -> EstimateReport:
    """Closed-form moment estimator, clamped to [0, 1].

    Raises:
        ValueError: if the study has fewer than two individuals or every
            off-diagonal relatedness entry is zero (degenerate design).
    """
    start = time.perf_counter()
    w = np.asarray(sample.w, dtype=np.float64)
    if w.shape[0] < 2:
        raise ValueError("need at least two selected individuals")
    if w.shape[0] != g.n_individuals:
        raise ValueError(
            f"sample size {w.shape[0]} does not match relatedness matrix {g.n_individuals}"
        )
    num, den_sq = _pair_sums(w, g.g)
    slope = pair_moment_slope(design)
    if den_sq <= 0.0:
        raise ValueError("degenerate design: off-diagonal relatedness is identically zero")
    raw = num / (slope * den_sq)
    return EstimateReport(
        method="first-order",
        eta_hat=_clamp_unit(raw),
        raw_ratio=raw,
        converged=True,
        objective_value=None,
        wall_time=time.perf_counter() - start,
    )


def _pair_moment_pieces(g: GrmView, design: StudyDesign,
                        n_loci: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-pair coefficients (c1, c2) of the quadratic moment approximation,
    so the modeled pair moment is eta*c1 + eta^2*c2. Diagonals zeroed."""
    k, p = design.population_prevalence, design.study_prevalence
    t = design.threshold
    density = std_normal_pdf(t)
    dsq = density * density
    scale = p * (1.0 - p) / (k * k * (1.0 - k) ** 2)
    mismatch = (p - k) / (k * (1.0 - k))
    root = math.sqrt(n_loci)

    a, b = scaled_deviations(g)
    c1 = (scale * dsq / root) * b
    a_col = a[:, None]
    a_row = a[None, :]
    c2 = (scale / n_loci) * (
        (t * t / 4.0) * dsq * (a_col * a_row)
        + dsq * b * b * (t * t / 2.0 - mismatch * mismatch * dsq)
        + 0.5 * dsq * b * (a_col + a_row) * (t * t - 1.0 - mismatch * t * density)
    )
    np.fill_diagonal(c2, 0.0)
    return c1, c2


def second_order_objective(eta: float, sample: AscertainedSample, g: GrmView,
                           design: StudyDesign, n_loci: int) -> float:
    """Least-squares gap between observed pair products and the quadratic
    moment model, summed over ordered off-diagonal pairs."""
    w = np.asarray(sample.w, dtype=np.float64)
    c1, c2 = _pair_moment_pieces(g, design, n_loci)
    products = np.outer(w, w)
    np.fill_diagonal(products, 0.0)
    resid = products - eta * c1 - eta * eta * c2
    np.fill_diagonal(resid, 0.0)
    return float((resid * resid).sum())


def _objective_coefficients(sample: AscertainedSample, g: GrmView,
                            design: StudyDesign, n_loci: int) -> np.ndarray:
    """Quartic coefficients (ascending powers) of the objective in one sweep."""
    w = np.asarray(sample.w, dtype=np.float64)
    c1, c2 = _pair_moment_pieces(g, design, n_loci)
    products = np.outer(w, w)
    np.fill_diagonal(products, 0.0)
    p_sq = float((products * products).sum())
    p_c1 = float((products * c1).sum())
    p_c2 = float((products * c2).sum())
    c1_sq = float((c1 * c1).sum())
    c1_c2 = float((c1 * c2).sum())
    c2_sq = float((c2 * c2).sum())
    return np.array([
        p_sq,
        -2.0 * p_c1,
        c1_sq - 2.0 * p_c2,
        2.0 * c1_c2,
        c2_sq,
    ])


def estimate_second_order(sample: AscertainedSample, g: GrmView,
                          design: StudyDesign, n_loci: int) -> EstimateReport:
    """Minimize the quadratic-model objective exactly on [0, 1].

    The objective is a quartic, so its minimum on [0, 1] is at 0, at 1 or at
    a real root of the cubic derivative. Complex roots contribute their real
    parts and every root is clipped to [0, 1]: extra points inside the
    interval cannot move the minimum. ``converged`` is False, and nothing is
    raised, when a coefficient is not finite.
    """
    start = time.perf_counter()
    estimate_first_order(sample, g, design)  # the input checks
    poly = _objective_coefficients(sample, g, design, n_loci)[::-1]
    converged = bool(np.isfinite(poly).all())
    candidates = np.array([0.0, 1.0])
    if converged:
        roots = np.roots(np.polyder(poly)).real
        candidates = np.concatenate([candidates, np.clip(roots, 0.0, 1.0)])
    values = np.polyval(poly, candidates)
    best = int(np.argmin(values))
    return EstimateReport(
        method="second-order",
        eta_hat=float(candidates[best]),
        raw_ratio=None,
        converged=converged,
        objective_value=float(values[best]),
        wall_time=time.perf_counter() - start,
    )

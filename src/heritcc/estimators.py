"""Heritability estimators from centered phenotype products and relatedness.

The closed-form estimator regresses pair products on relatedness with a known
slope constant and clamps to [0, 1]. The refined estimator minimizes the
least-squares gap to the quadratic pair-moment model, whose weights
:func:`~heritcc.moments.moment_weights` gives; this module keeps only the
sums over pairs and the minimization. The locus count M is always the
relationship matrix's own. The objective is a quartic polynomial in
heritability, so one sweep over pairs yields five coefficients, and its
minimum on [0, 1] lies at an endpoint or at a real root of the cubic
derivative.

Both estimators read the relationship matrix in row panels of at most
``simulate._BUFFER_BYTES``, with the diagonal set to 0, and keep only
per-row sums from each panel; the totals are dot products of those row sums,
so memory is a few panels plus O(n) and no n x n array is formed. The
first-order pass keeps two row sums, of the entries weighted by the
phenotype vector and of the squared entries. The second-order sweep keeps
per-row sums of the first four elementwise powers of the scaled off-diagonal
entries, weighted by the phenotype vector, by the scaled diagonal excess or
by one; they include the first-order ones, and the sweep makes the same
input checks, so the second-order estimate does not run the first-order one.
The dense per-pair pieces remain as the definition that
``second_order_objective`` evaluates directly.

``METHODS`` names the two estimators, and :func:`estimate` runs one by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grm import GrmView, _offdiagonal_panels
from .moments import moment_weights
from .simulate import AscertainedSample, StudyDesign

__all__ = [
    "METHODS",
    "EstimateReport",
    "estimate",
    "estimate_first_order",
    "second_order_objective",
    "estimate_second_order",
]

METHODS = ("first", "second")

@dataclass(frozen=True)
class EstimateReport:
    """Outcome of one estimation run; the caller knows which method ran."""

    eta_hat: float
    raw_ratio: float | None
    converged: bool
    objective_value: float | None


def _clamp_unit(x: float) -> float:
    return min(1.0, max(0.0, x))


def _pair_sums(w: np.ndarray, g: np.ndarray) -> tuple[float, float]:
    """Ordered off-diagonal sums: product-weighted entries and squared entries.

    One pass over row panels of ``g`` keeps the per-row sums, so there is no
    n x n temporary and the result does not depend on the panel height. The
    sums avoid BLAS, whose matrix-vector products can round differently at
    different thread counts."""
    gw, gg = np.empty((2, w.shape[0]))
    for lo, panel in _offdiagonal_panels(g):
        rows = slice(lo, lo + panel.shape[0])
        np.einsum("ij,j->i", panel, w, out=gw[rows])
        np.einsum("ij,ij->i", panel, panel, out=gg[rows])
    return float(np.einsum("i,i->", w, gw)), float(gg.sum())


def _checked_weights(sample: AscertainedSample, g: GrmView) -> np.ndarray:
    """The centered phenotypes, after the input checks both estimators share."""
    w = np.asarray(sample.w, dtype=np.float64)
    if w.shape[0] < 2:
        raise ValueError("need at least two selected individuals")
    if w.shape[0] != g.n_individuals:
        raise ValueError(
            f"sample size {w.shape[0]} does not match relatedness matrix {g.n_individuals}"
        )
    return w


_DEGENERATE = "degenerate design: off-diagonal relatedness is identically zero"


def estimate_first_order(sample: AscertainedSample, g: GrmView,
                         design: StudyDesign) -> EstimateReport:
    """Closed-form moment estimator, clamped to [0, 1].

    Raises:
        ValueError: if the study has fewer than two individuals or every
            off-diagonal relatedness entry is zero (degenerate design).
    """
    w = _checked_weights(sample, g)
    num, den_sq = _pair_sums(w, g.g)
    if den_sq <= 0.0:
        raise ValueError(_DEGENERATE)
    raw = num / (design.slope * den_sq)
    return EstimateReport(
        eta_hat=_clamp_unit(raw),
        raw_ratio=raw,
        converged=True,
        objective_value=None,
    )


def _pair_moment_pieces(g: GrmView, design: StudyDesign) -> tuple[np.ndarray, np.ndarray]:
    """Per-pair coefficients (c1, c2) of the quadratic moment model of
    :func:`~heritcc.moments.moment_weights`, so the modeled pair moment is
    eta*c1 + eta^2*c2. Diagonals zeroed; M is the matrix's locus count.

    Built from whole n x n arrays of the scaled deviations of
    :func:`~heritcc.grm.sigma_pair`: the diagonal excess a and the
    off-diagonal entries b."""
    alpha, beta, gamma, delta = moment_weights(design, g.n_loci)
    root = math.sqrt(g.n_loci)
    a = root * (np.diag(g.g) - 1.0)
    b = root * g.g
    np.fill_diagonal(b, 0.0)
    a_col = a[:, None]
    a_row = a[None, :]
    c1 = alpha * b
    c2 = beta * (a_col * a_row) + gamma * b * b + delta * b * (a_col + a_row)
    np.fill_diagonal(c2, 0.0)
    return c1, c2


def second_order_objective(eta: float, sample: AscertainedSample, g: GrmView,
                           design: StudyDesign) -> float:
    """Least-squares gap between observed pair products and the quadratic
    moment model, summed over ordered off-diagonal pairs."""
    w = np.asarray(sample.w, dtype=np.float64)
    c1, c2 = _pair_moment_pieces(g, design)
    products = np.outer(w, w)
    np.fill_diagonal(products, 0.0)
    resid = products - eta * c1 - eta * eta * c2
    np.fill_diagonal(resid, 0.0)
    return float((resid * resid).sum())


def _objective_coefficients(sample: AscertainedSample, g: GrmView,
                            design: StudyDesign) -> np.ndarray:
    """Quartic coefficients (ascending powers) of the objective in one sweep.

    With B = sqrt(M) G off the diagonal (B_k its elementwise k-th power) and
    a the scaled diagonal excess, the pieces are c1 = alpha B and
    c2 = beta a_i a_j + gamma B_2 + delta B (a_i + a_j). Every sum over pairs
    of products of w_i w_j, c1 and c2 is then a dot product of w, a or 1
    with a row sum of B_k against w, a or 1. One pass over row panels of G
    collects those row sums: a few panels of memory, no n x n temporary. The
    sums use einsum and elementwise reductions, never BLAS, whose rounding
    depends on the thread count; each row sum sees one whole row, so the
    result does not depend on the panel height either. The row sums of B w
    and B_2 are, up to the factor sqrt(M), the ones the first-order estimate
    sums, so the sweep does all of the first-order work and more.

    Raises:
        ValueError: the first-order estimator's, on the same inputs.
    """
    w = _checked_weights(sample, g)
    alpha, beta, gamma, delta = moment_weights(design, g.n_loci)
    root = math.sqrt(g.n_loci)
    a = root * (np.diag(g.g) - 1.0)
    n = w.shape[0]
    bw, ba, b2w, b2a, b2, b3, b4 = np.empty((7, n))
    for lo, b in _offdiagonal_panels(g.g):
        rows = slice(lo, lo + b.shape[0])
        b *= root
        np.einsum("ij,j->i", b, w, out=bw[rows])
        np.einsum("ij,j->i", b, a, out=ba[rows])
        power = b * b
        np.einsum("ij,j->i", power, w, out=b2w[rows])
        np.einsum("ij,j->i", power, a, out=b2a[rows])
        power.sum(axis=1, out=b2[rows])
        np.einsum("ij,ij->i", power, power, out=b4[rows])
        power *= b
        power.sum(axis=1, out=b3[rows])
    b2_sum = float(b2.sum())
    if b2_sum <= 0.0:
        raise ValueError(_DEGENERATE)

    def dot(x, y):
        return float(np.einsum("i,i->", x, y))

    wsq, asq = w * w, a * a
    p_sq = float(wsq.sum()) ** 2 - dot(wsq, wsq)
    p_c1 = alpha * dot(w, bw)
    p_c2 = (beta * (dot(w, a) ** 2 - dot(wsq, asq)) + gamma * dot(w, b2w)
            + 2.0 * delta * dot(w * a, bw))
    c1_sq = alpha * alpha * b2_sum
    c1_c2 = alpha * (beta * dot(a, ba) + gamma * float(b3.sum()) + 2.0 * delta * dot(a, b2))
    a_b2_a = dot(a, b2a)
    c2_sq = (beta * beta * (float(asq.sum()) ** 2 - dot(asq, asq))
             + gamma * gamma * float(b4.sum())
             + 2.0 * delta * delta * (dot(asq, b2) + a_b2_a)
             + 2.0 * beta * gamma * a_b2_a
             + 4.0 * beta * delta * dot(asq, ba)
             + 4.0 * gamma * delta * dot(a, b3))
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

    Raises:
        ValueError: if ``n_loci`` differs from ``g.n_loci``, and as
            :func:`estimate_first_order` does, from the checks in the
            coefficient sweep.
    """
    if n_loci != g.n_loci:
        raise ValueError(f"n_loci {n_loci} does not match the relationship matrix's "
                         f"{g.n_loci} loci")
    poly = _objective_coefficients(sample, g, design)[::-1]
    converged = bool(np.isfinite(poly).all())
    candidates = np.array([0.0, 1.0])
    if converged:
        roots = np.roots(np.polyder(poly)).real
        candidates = np.concatenate([candidates, np.clip(roots, 0.0, 1.0)])
    values = np.polyval(poly, candidates)
    best = int(np.argmin(values))
    return EstimateReport(
        eta_hat=float(candidates[best]),
        raw_ratio=None,
        converged=converged,
        objective_value=float(values[best]),
    )


def estimate(method: str, sample: AscertainedSample, g: GrmView,
             design: StudyDesign) -> EstimateReport:
    """Run estimator ``method`` of ``METHODS`` by its global name, which tracers wrap."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; valid: {METHODS}")
    return (estimate_first_order(sample, g, design) if method == "first"
            else estimate_second_order(sample, g, design, g.n_loci))

"""Correctness checks of the program's outputs, written apart from the program.

Each check recomputes a quantity from its definition (with ``scipy.stats``
for the Gaussian functions) or tests a property the method must have, and
raises :class:`CheckError` naming the first violation. No check compares
against a stored copy of an earlier output.

scipy is imported on first use: it takes over a second to load, and the
benchmark's set-up units import this module without needing it.
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np

_BLOCK = 256


class CheckError(AssertionError):
    """An output of the program failed a correctness check."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# Design: liability threshold and control selection probability
# ---------------------------------------------------------------------------

def design_constants(k: float, p: float) -> dict[str, float]:
    """Threshold, its density and the paper's constants, from scipy."""
    from scipy.stats import norm
    t = float(norm.isf(k))
    density = float(norm.pdf(t))
    scale = p * (1.0 - p) / (k * k * (1.0 - k) ** 2)
    return {
        "t": t,
        "density": density,
        "scale": scale,
        "slope": density * density * scale,
        "mismatch": (p - k) / (k * (1.0 - k)),
        "p_control": k * (1.0 - p) / (p * (1.0 - k)),
    }


def check_design(design) -> None:
    ref = design_constants(design.population_prevalence, design.study_prevalence)
    _require(abs(design.threshold - ref["t"]) <= 1e-10,
             f"threshold {design.threshold!r} != norm.isf(K) {ref['t']!r}")
    _require(math.isclose(design.p_control, ref["p_control"], rel_tol=1e-12),
             f"p_control {design.p_control!r} != {ref['p_control']!r}")
    _require(design.p_case == 1.0, f"p_case {design.p_case!r} != 1")


# ---------------------------------------------------------------------------
# Genotypes, relationship matrix and the two estimators
# ---------------------------------------------------------------------------

def check_standardized(z: np.ndarray) -> None:
    means = z.mean(axis=0)
    mean_sq = (z * z).mean(axis=0)
    _require(float(np.abs(means).max()) <= 1e-10,
             f"z column mean {float(np.abs(means).max()):.3g} != 0")
    _require(float(np.abs(mean_sq - 1.0).max()) <= 1e-10,
             f"z column mean square off 1 by {float(np.abs(mean_sq - 1.0).max()):.3g}")


def relationship_matrix(z: np.ndarray) -> np.ndarray:
    return (z @ z.T) / z.shape[1]


def check_grm(g: np.ndarray, reference: np.ndarray) -> None:
    """``reference`` is :func:`relationship_matrix` of the study's z."""
    n = reference.shape[0]
    _require(g.shape == (n, n), f"GRM shape {g.shape} != {(n, n)}")
    _require(bool(np.array_equal(g, g.T)), "GRM is not exactly symmetric")
    row_sums = np.abs(g.sum(axis=1)).max()
    _require(float(row_sums) <= 1e-8, f"GRM row sum {float(row_sums):.3g} != 0")
    mean_diag = float(np.trace(g)) / n
    _require(abs(mean_diag - 1.0) <= 1e-10, f"GRM mean diagonal {mean_diag!r} != 1")
    err = float(np.abs(g - reference).max())
    _require(err <= 1e-10, f"GRM differs from z z'/M by {err:.3g}")


def pair_sums(g_full: np.ndarray, w: np.ndarray, k: float, p: float,
              m: int) -> dict[str, float]:
    """Sums over ordered off-diagonal pairs that define both estimators.

    ``g_full`` is the relationship matrix over ``m`` loci. ``c1`` and ``c2``
    are the linear and quadratic coefficients of the paper's second-order
    pair moment, eta*c1 + eta^2*c2, rebuilt from the scaled deviations
    a_i = sqrt(M)(G_ii - 1) and b_ij = sqrt(M) G_ij. Accumulated in row
    blocks so temporaries stay O(block * n).
    """
    n = g_full.shape[0]
    c = design_constants(k, p)
    t, dsq, scale, mismatch = c["t"], c["density"] ** 2, c["scale"], c["mismatch"]
    root = math.sqrt(m)
    a = root * (np.diag(g_full) - 1.0)
    keys = ("pg", "gg", "pp", "pc1", "pc2", "c1c1", "c1c2", "c2c2")
    sums = dict.fromkeys(keys, 0.0)
    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        rows = np.arange(hi - lo)
        g = g_full[lo:hi].copy()
        g[rows, rows + lo] = 0.0
        b = root * g
        a_i = a[lo:hi, None]
        a_j = a[None, :]
        c1 = scale * dsq * b / root
        c2 = (scale / m) * (
            (t * t / 4.0) * dsq * a_i * a_j
            + dsq * b * b * (t * t / 2.0 - mismatch * mismatch * dsq)
            + 0.5 * dsq * b * (a_i + a_j) * (t * t - 1.0 - mismatch * t * c["density"])
        )
        c2[rows, rows + lo] = 0.0
        prod = w[lo:hi, None] * w[None, :]
        prod[rows, rows + lo] = 0.0
        sums["pg"] += float((prod * g).sum())
        sums["gg"] += float((g * g).sum())
        sums["pp"] += float((prod * prod).sum())
        sums["pc1"] += float((prod * c1).sum())
        sums["pc2"] += float((prod * c2).sum())
        sums["c1c1"] += float((c1 * c1).sum())
        sums["c1c2"] += float((c1 * c2).sum())
        sums["c2c2"] += float((c2 * c2).sum())
    sums["slope"] = c["slope"]
    return sums


def first_order_ratio(sums: dict[str, float]) -> float:
    return sums["pg"] / (sums["slope"] * sums["gg"])


def check_first_order(raw_ratio: float, eta_hat: float, sums: dict[str, float]) -> None:
    raw = first_order_ratio(sums)
    _require(abs(raw_ratio - raw) <= 1e-9 * max(abs(raw), 1e-3),
             f"first-order raw ratio {raw_ratio!r} != recomputed {raw!r}")
    _require(eta_hat == min(1.0, max(0.0, raw_ratio)),
             f"first-order estimate {eta_hat!r} is not the raw ratio clamped to [0, 1]")


def quartic(sums: dict[str, float]) -> np.ndarray:
    """Objective sum (w_i w_j - eta c1 - eta^2 c2)^2 as ascending coefficients."""
    return np.array([
        sums["pp"],
        -2.0 * sums["pc1"],
        sums["c1c1"] - 2.0 * sums["pc2"],
        2.0 * sums["c1c2"],
        sums["c2c2"],
    ])


def quartic_argmin(coeffs: np.ndarray) -> tuple[float, float]:
    """Minimizer and minimum on [0, 1]: endpoints and real stationary points."""
    derivative = coeffs[1:] * np.arange(1, 5)
    roots = np.roots(derivative[::-1]) if np.any(derivative[1:]) else np.array([])
    candidates = [0.0, 1.0] + [float(r.real) for r in roots
                               if abs(r.imag) <= 1e-12 and 0.0 <= r.real <= 1.0]
    values = [float(np.polyval(coeffs[::-1], x)) for x in candidates]
    best = int(np.argmin(values))
    return candidates[best], values[best]


def check_second_order(eta_hat: float, sums: dict[str, float]) -> None:
    coeffs = quartic(sums)
    eta_min, f_min = quartic_argmin(coeffs)
    f_hat = float(np.polyval(coeffs[::-1], eta_hat))
    near_tie = f_hat - f_min <= 1e-13 * abs(f_min)
    _require(0.0 <= eta_hat <= 1.0 and (abs(eta_hat - eta_min) <= 1e-7 or near_tie),
             f"second-order estimate {eta_hat!r} does not minimize the quartic on [0, 1] "
             f"(argmin {eta_min!r})")


def check_estimators(z: np.ndarray, w: np.ndarray, k: float, p: float, g: np.ndarray,
                     first, second) -> dict[str, float]:
    """All checks on one study: GRM, first-order ratio, second-order minimum."""
    check_standardized(z)
    reference = relationship_matrix(z)
    check_grm(g, reference)
    sums = pair_sums(reference, w, k, p, z.shape[1])
    check_first_order(first.raw_ratio, first.eta_hat, sums)
    check_second_order(second.eta_hat, sums)
    return sums


# ---------------------------------------------------------------------------
# Ascertainment counts, dataset round trip, replication records
# ---------------------------------------------------------------------------

def check_counts(n_population: int, n_cases: int, n_controls: int, k: float, p: float) -> None:
    """Cases ~ Binomial(N_pop, K); controls ~ Binomial(N_pop - cases, p_control)."""
    sd_cases = math.sqrt(n_population * k * (1.0 - k))
    _require(abs(n_cases - n_population * k) <= 5.0 * sd_cases,
             f"{n_cases} cases out of {n_population} is beyond 5 sd of Binomial(N, {k})")
    p_control = k * (1.0 - p) / (p * (1.0 - k))
    pool = n_population - n_cases
    sd_controls = math.sqrt(pool * p_control * (1.0 - p_control))
    _require(abs(n_controls - pool * p_control) <= 5.0 * sd_controls,
             f"{n_controls} controls out of {pool} is beyond 5 sd of Binomial(N, {p_control:.4g})")


def check_roundtrip(saved, loaded) -> None:
    """A study read back from its container equals the one written, exactly."""
    a, b = saved.sample, loaded.sample
    for name, x, y in (("z", a.z_study.z, b.z_study.z),
                       ("col_means", a.z_study.col_means, b.z_study.col_means),
                       ("col_sds", a.z_study.col_sds, b.z_study.col_sds),
                       ("w", a.w, b.w), ("y", a.y, b.y), ("indices", a.indices, b.indices)):
        _require(x.shape == y.shape and bool(np.array_equal(x, y)),
                 f"round trip changed array {name}")
    for name in ("n_loci", "population_size", "seed", "genotype_kind"):
        _require(getattr(saved, name) == getattr(loaded, name), f"round trip changed {name}")
    _require((a.n_cases, a.n_controls) == (b.n_cases, b.n_controls),
             "round trip changed the case/control counts")
    _require(saved.design == loaded.design and saved.liability == loaded.liability,
             "round trip changed the design or liability parameters")


def run_checks(*thunks) -> list[str]:
    """Run each check; return the messages of those that failed."""
    failures = []
    for thunk in thunks:
        try:
            thunk()
        except CheckError as exc:
            failures.append(str(exc))
    return failures


def mean_limit(n_replications: int) -> float:
    """Largest allowed |mean eta_hat - eta*| over ``n_replications``.

    The distribution-free Hoeffding bound for means of R values in [0, 1],
    sqrt(ln(2 / p) / (2 R)), at the two-sided tail probability of 4 normal
    standard errors, p = 6.3e-5. A t-test on the sample's own standard error
    is not safe here: the estimates are clamped to [0, 1], so a sample with
    many values on one bound has both a shifted mean and a small standard
    error.
    """
    from scipy.stats import norm
    return math.sqrt(math.log(1.0 / norm.sf(4.0)) / (2.0 * n_replications))


def mean_check_applies(n_replications: int, eta_star: float) -> bool:
    """Whether some mean in [0, 1] can fail the mean check: below ~21
    replications at eta* = 0.5 none can, and the mean is not checked."""
    return n_replications > 0 and mean_limit(n_replications) < max(eta_star, 1.0 - eta_star)


def check_replications(records: list, eta_star: float) -> None:
    """Estimates lie in [0, 1] and, where :func:`mean_check_applies`, their
    mean is within :func:`mean_limit` of eta*."""
    ok = [r for r in records if r.error is None]
    if not ok:
        return
    for method in ok[0].eta_hat:
        values = np.array([r.eta_hat[method] for r in ok])
        _require(bool(np.all((values >= 0.0) & (values <= 1.0))),
                 f"{method}-order estimate outside [0, 1]")
        if not mean_check_applies(len(ok), eta_star):
            continue
        mean, limit = float(values.mean()), mean_limit(len(ok))
        _require(abs(mean - eta_star) <= limit,
                 f"mean {method}-order estimate {mean:.4f} of {values.size} replications is "
                 f"further than {limit:.4f} from eta*={eta_star}")


def check_same_record(pooled, in_process) -> None:
    """A replication gives the same record in a pool worker and in-process."""
    fields = ("rep_index", "realized_n", "realized_cases", "eta_hat", "en_holds", "error")
    for name in fields:
        _require(getattr(pooled, name) == getattr(in_process, name),
                 f"replication {pooled.rep_index}: {name} differs between pool and in-process")


# ---------------------------------------------------------------------------
# Pair moments against bivariate-normal orthant probabilities
# ---------------------------------------------------------------------------

def selected_pair_moment(p_cc: float, p_00: float, p_discordant: float,
                         k: float, p: float) -> float:
    """E[w_i w_j | both selected]: cases kept surely, controls with p_control."""
    r = k * (1.0 - p) / (p * (1.0 - k))
    w_case = math.sqrt((1.0 - p) / p)
    w_control = -math.sqrt(p / (1.0 - p))
    weights = (p_cc, r * r * p_00, r * p_discordant)
    values = (w_case * w_case, w_control * w_control, w_case * w_control)
    return sum(x * v for x, v in zip(weights, values)) / sum(weights)


def orthant_probabilities(points: list[tuple]) -> dict[tuple, tuple[float, float, float]]:
    """(both cases, both controls, discordant) per grid point, from scipy.

    ``points`` are (a_i, a_j, b_ij, eta, K, P, N). Points that share a
    covariance are evaluated in one vectorized scipy call.
    """
    from scipy.stats import multivariate_normal, norm
    groups: dict[tuple, list[tuple]] = defaultdict(list)
    for pt in points:
        a_i, a_j, b_ij, eta, k, p, n = pt
        groups[(a_i, a_j, b_ij, eta, n)].append(pt)
    out = {}
    for (a_i, a_j, b_ij, eta, n), members in groups.items():
        root = math.sqrt(n)
        v11, v22, v12 = 1.0 + eta * a_i / root, 1.0 + eta * a_j / root, eta * b_ij / root
        cov = np.array([[v11, v12], [v12, v22]])
        ts = np.array([norm.isf(pt[4]) for pt in members])
        # (-X, -Y) has the same covariance, so P(X > t, Y > t) = F(-t, -t)
        corners = np.concatenate([np.column_stack([-ts, -ts]), np.column_stack([ts, ts])])
        cdf = np.atleast_1d(multivariate_normal.cdf(corners, mean=[0.0, 0.0], cov=cov,
                                                    abseps=1e-14, releps=1e-14))
        for idx, (pt, t) in enumerate(zip(members, ts)):
            p_cc, p_00 = float(cdf[idx]), float(cdf[len(members) + idx])
            marginal_i = float(norm.cdf(t / math.sqrt(v11)))
            marginal_j = float(norm.cdf(t / math.sqrt(v22)))
            out[pt] = (p_cc, p_00, marginal_i + marginal_j - 2.0 * p_00)
    return out


def check_moment_grid(points: list[tuple], exact: np.ndarray, first: np.ndarray,
                      second: np.ndarray, probabilities: np.ndarray) -> None:
    """Exact moments and joint probabilities against scipy orthants; the
    first-order approximation against its closed form; and, at the largest N,
    a smaller total error for the second-order approximation."""
    oracle = orthant_probabilities(points)
    for idx, pt in enumerate(points):
        a_i, a_j, b_ij, eta, k, p, n = pt
        probs = oracle[pt]
        _require(abs(sum(probs) - 1.0) <= 1e-10,
                 f"scipy orthant probabilities at {pt} do not sum to 1")
        _require(abs(float(probabilities[idx].sum()) - 1.0) <= 1e-12,
                 f"joint probabilities at {pt} do not sum to 1")
        _require(float(np.abs(probabilities[idx] - probs).max()) <= 1e-10,
                 f"joint probabilities at {pt} differ from scipy orthants")
        reference = selected_pair_moment(*probs, k, p)
        _require(abs(exact[idx] - reference) <= 1e-8,
                 f"exact moment at {pt}: {exact[idx]!r} != {reference!r}")
        linear = eta * design_constants(k, p)["slope"] * b_ij / math.sqrt(n)
        _require(abs(first[idx] - linear) <= 1e-12 * max(abs(linear), 1e-12),
                 f"first-order approximation at {pt}: {first[idx]!r} != {linear!r}")
    largest = max(pt[6] for pt in points)
    at_largest = np.array([pt[6] == largest for pt in points])
    err_first = float(np.abs(first - exact)[at_largest].sum())
    err_second = float(np.abs(second - exact)[at_largest].sum())
    _require(err_second < err_first,
             f"at N={largest} second-order error {err_second:.3g} is not below "
             f"first-order error {err_first:.3g}")

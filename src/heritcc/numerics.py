"""Scalar Gaussian functions, bivariate-normal orthant and rectangle
probabilities, and seedable random sources.

Everything in this module is pure and deterministic.  The quantile is the
standard library's (:class:`statistics.NormalDist`, AS241).  The orthant
pair of :func:`bvn_orthants` is the numerical ground truth against which the
Taylor approximations in :mod:`heritcc.moments` are validated, so it is
pinned to an absolute accuracy far below 1e-10.  Both orthants come from one
quadrature; :func:`bvn_rect`, four such corners per rectangle, is kept as
the tests' independent route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

__all__ = [
    "BivariateCovariance",
    "RandomSource",
    "std_normal_pdf",
    "std_normal_cdf",
    "std_normal_quantile",
    "bvn_orthants",
    "bvn_rect",
    "rng_create",
]

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Bounds further than this many standard deviations carry < 1e-17 tail mass
# and are clipped so that +/-inf sentinels stay bit-stable.
_TAIL_CLIP = 8.5


def std_normal_pdf(x: float) -> float:
    """Density of the standard normal distribution at ``x``."""
    return math.exp(-0.5 * x * x) * _INV_SQRT_2PI


def std_normal_cdf(x: float) -> float:
    """Distribution function of the standard normal, accurate to ~1e-15."""
    return 0.5 * math.erfc(-x / _SQRT2)


def std_normal_quantile(p: float) -> float:
    """Inverse of :func:`std_normal_cdf` on (0, 1).

    Wichura's AS241 rational approximations, through
    :meth:`statistics.NormalDist.inv_cdf`: within a few ulps of the exact
    quantile all the way into either tail. Take an upper-tail point as
    ``-std_normal_quantile(q)`` rather than ``std_normal_quantile(1 - q)``,
    which loses the digits of a small ``q`` to the subtraction.

    Raises:
        ValueError: if ``p`` is not strictly inside (0, 1), NaN included.
    """
    if not (0.0 < p < 1.0):
        raise ValueError(f"quantile argument must lie in (0, 1), got {p!r}")
    return NormalDist().inv_cdf(p)


@dataclass(frozen=True)
class BivariateCovariance:
    """Covariance matrix of a zero-mean bivariate normal vector.

    Must be strictly positive definite: ``v11 > 0``, ``v22 > 0`` and
    ``v12**2 < v11 * v22``.
    """

    v11: float
    v22: float
    v12: float

    def __post_init__(self) -> None:
        if not (self.v11 > 0.0 and self.v22 > 0.0):
            raise ValueError(
                f"variances must be positive, got v11={self.v11}, v22={self.v22}"
            )
        if not (self.v12 * self.v12 < self.v11 * self.v22):
            raise ValueError(
                "covariance matrix is not positive definite: "
                f"v12^2={self.v12**2} >= v11*v22={self.v11 * self.v22}"
            )

    @property
    def correlation(self) -> float:
        return self.v12 / math.sqrt(self.v11 * self.v22)


# Gauss-Legendre nodes/weights on [-1, 1] (positive half, symmetric), used by
# the tail-stable quadrature below.  Rule order grows with |correlation|.
_GL6 = (
    (0.9324695142031521, 0.6612093864662645, 0.2386191860831969),
    (0.1713244923791704, 0.3607615730481386, 0.4679139345726910),
)
_GL12 = (
    (0.9815606342467192, 0.9041172563704749, 0.7699026741943047,
     0.5873179542866175, 0.3678314989981802, 0.1252334085114689),
    (0.04717533638651183, 0.1069393259953184, 0.1600783285433462,
     0.2031674267230659, 0.2334925365383548, 0.2491470458134028),
)
_GL20 = (
    (0.9931285991850949, 0.9639719272779138, 0.9122344282513259,
     0.8391169718222188, 0.7463319064601508, 0.6360536807265150,
     0.5108670019508271, 0.3737060887154196, 0.2277858511416451,
     0.07652652113349733),
    (0.01761400713915212, 0.04060142980038694, 0.06267204833410906,
     0.08327674157670475, 0.1019301198172404, 0.1181945319615184,
     0.1316886384491766, 0.1420961093183821, 0.1491729864726037,
     0.1527533871307259),
)


def _bvn_quadrature(h: float, k: float, r: float) -> float:
    """The quadrature part of P(X > h, Y > k), correlation ``r``.

    It reads ``h`` and ``k`` only through hk, h^2 + k^2 and (h -/+ k)^2, so
    it is the same bits at (-h, -k): the two orthants share it and differ
    only in the closing terms of :func:`_bvn_close` (Genz 2004).
    """
    if abs(r) < 0.3:
        pts, wts = _GL6
    elif abs(r) < 0.75:
        pts, wts = _GL12
    else:
        pts, wts = _GL20
    two_pi = 2.0 * math.pi
    hk = h * k
    bvn = 0.0
    if abs(r) < 0.925:
        hs = 0.5 * (h * h + k * k)
        asr = math.asin(r)
        for x, w in zip(pts, wts):
            for sgn in (-1.0, 1.0):
                sn = math.sin(0.5 * asr * (sgn * x + 1.0))
                bvn += w * math.exp((sn * hk - hs) / (1.0 - sn * sn))
        return bvn * asr / (2.0 * two_pi)
    # |r| >= 0.925: integrate the complement against the near-singular axis.
    if r < 0.0:
        k = -k
        hk = -hk
    if abs(r) < 1.0:
        a_sq = (1.0 - r) * (1.0 + r)
        a = math.sqrt(a_sq)
        bs = (h - k) ** 2
        c = (4.0 - hk) / 8.0
        d = (12.0 - hk) / 16.0
        asr0 = -0.5 * (bs / a_sq + hk)
        if asr0 > -100.0:
            bvn = a * math.exp(asr0) * (
                1.0 - c * (bs - a_sq) * (1.0 - d * bs / 5.0) / 3.0
                + c * d * a_sq * a_sq / 5.0
            )
        if -hk < 100.0:
            b = math.sqrt(bs)
            sp = math.sqrt(two_pi) * std_normal_cdf(-b / a)
            bvn -= math.exp(-0.5 * hk) * sp * b * (1.0 - c * bs * (1.0 - d * bs / 5.0) / 3.0)
        half_a = 0.5 * a
        for x, w in zip(pts, wts):
            for sgn in (-1.0, 1.0):
                xs = (half_a * (sgn * x + 1.0)) ** 2
                rs = math.sqrt(1.0 - xs)
                asr1 = -0.5 * (bs / xs + hk)
                if asr1 > -100.0:
                    sp = 1.0 + c * xs * (1.0 + d * xs)
                    ep = math.exp(-0.5 * hk * (1.0 - rs) / (1.0 + rs)) / rs
                    bvn += half_a * w * math.exp(asr1) * (ep - sp)
    return -bvn / two_pi


def _bvn_close(q: float, h: float, k: float, r: float) -> float:
    """P(X > h, Y > k) from its quadrature part ``q``."""
    if abs(r) < 0.925:
        bvn = q + std_normal_cdf(-h) * std_normal_cdf(-k)
    elif r > 0.0:
        bvn = q + std_normal_cdf(-max(h, k))
    else:
        bvn = -q
        if -k > h:
            bvn += std_normal_cdf(-k) - std_normal_cdf(h)
    return min(1.0, max(0.0, bvn))


def _bvn_upper(h: float, k: float, r: float) -> float:
    """P(X > h, Y > k) for standard bivariate normal with correlation ``r``.

    Quadrature of the correlation-path integrand (the derivative of the joint
    probability with respect to the correlation is the joint density), with a
    separate expansion near |r| = 1 where that path becomes stiff.  Absolute
    error is a few ulps, comfortably below the 1e-10 contract.
    """
    return _bvn_close(_bvn_quadrature(h, k, r), h, k, r)


def bvn_orthants(h: float, k: float, r: float) -> tuple[float, float]:
    """``(P(X > h, Y > k), P(X < h, Y < k))`` for standard bivariate normal
    ``(X, Y)`` with correlation ``r``, from one quadrature.

    ``h`` and ``k`` are clipped at +/-8.5, as :func:`bvn_rect` clips its
    bounds. Each orthant is the bits of ``_bvn_upper`` at (h, k) and at
    (-h, -k).
    """
    h, k = _clip_standardized(h), _clip_standardized(k)
    q = _bvn_quadrature(h, k, r)
    return _bvn_close(q, h, k, r), _bvn_close(q, -h, -k, r)


def _clip_standardized(x: float) -> float:
    if x < -_TAIL_CLIP:
        return -_TAIL_CLIP
    if x > _TAIL_CLIP:
        return _TAIL_CLIP
    return x


def bvn_rect(
    lower_i: float,
    upper_i: float,
    lower_j: float,
    upper_j: float,
    cov: BivariateCovariance,
) -> float:
    """Probability that a zero-mean bivariate normal lands in a rectangle.

    Bounds may be ``-math.inf`` / ``math.inf``; internally they are clipped at
    +/-8.5 standard deviations (tail mass < 1e-17).  Absolute error <= 1e-10.

    Raises:
        ValueError: if a lower bound is not below its upper bound (the
            covariance itself validates positive definiteness).
    """
    if not (lower_i < upper_i and lower_j < upper_j):
        raise ValueError(
            "rectangle bounds must satisfy lower < upper on each axis, got "
            f"({lower_i}, {upper_i}) x ({lower_j}, {upper_j})"
        )
    sd_i = math.sqrt(cov.v11)
    sd_j = math.sqrt(cov.v22)
    rho = cov.correlation
    a1 = _clip_standardized(lower_i / sd_i)
    b1 = _clip_standardized(upper_i / sd_i)
    a2 = _clip_standardized(lower_j / sd_j)
    b2 = _clip_standardized(upper_j / sd_j)
    p = (
        _bvn_upper(a1, a2, rho)
        - _bvn_upper(a1, b2, rho)
        - _bvn_upper(b1, a2, rho)
        + _bvn_upper(b1, b2, rho)
    )
    return min(1.0, max(0.0, p))


@dataclass
class RandomSource:
    """A deterministic random stream identified by (seed, path).

    The path makes substreams reproducible under parallelism: replication
    ``r`` of an experiment always draws from ``rng_create(seed, r)`` no matter
    which worker runs it.  Instances are single-owner; share work by spawning,
    never by handing the same instance to two consumers.
    """

    seed: int
    path: tuple[int, ...] = ()
    generator: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        ss = np.random.SeedSequence(self.seed, spawn_key=self.path)
        self.generator = np.random.Generator(np.random.Philox(ss))

    def spawn(self, *indices: int) -> "RandomSource":
        """Derive an independent child stream at ``path + indices``."""
        return RandomSource(self.seed, self.path + tuple(indices))


def rng_create(seed: int, *path: int) -> RandomSource:
    """Create a random source for ``seed``, optionally at a substream path."""
    return RandomSource(seed, tuple(path))


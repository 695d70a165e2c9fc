"""Scalar Gaussian functions, bivariate-normal orthant and rectangle
probabilities, and seedable random sources.

Everything in this module is pure and deterministic.  The quantile is the
standard library's (:class:`statistics.NormalDist`, AS241).  The orthant
pair of :func:`bvn_orthants` is the numerical ground truth against which the
Taylor approximations in :mod:`heritcc.moments` are validated, so it is
pinned to an absolute accuracy far below 1e-10.  Both orthants come from one
quadrature over flat Gauss-Legendre node tables built at import, and are
closed together; :func:`bvn_rect`, the upper orthants of a rectangle's four
corners, is the tests' independent route.
"""

from __future__ import annotations

import math
import numbers
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


# Each rule as a flat (w, sgn*x + 1) table, built once: node x at sgn = -1,
# then at +1, in the order above.
_NODES6, _NODES12, _NODES20 = (
    tuple((w, sgn * x + 1.0) for x, w in zip(*rule) for sgn in (-1.0, 1.0))
    for rule in (_GL6, _GL12, _GL20))


def _bvn_quadrature(h: float, k: float, r: float) -> float:
    """The quadrature part of P(X > h, Y > k), correlation ``r``.

    It reads ``h`` and ``k`` only through hk, h^2 + k^2 and (h -/+ k)^2, so
    it is the same bits at (-h, -k): the two orthants share it and differ
    only in the closing terms of :func:`_bvn_close` (Genz 2004).
    """
    if abs(r) < 0.3:
        nodes = _NODES6
    elif abs(r) < 0.75:
        nodes = _NODES12
    else:
        nodes = _NODES20
    two_pi = 2.0 * math.pi
    hk = h * k
    bvn = 0.0
    if abs(r) < 0.925:
        hs = 0.5 * (h * h + k * k)
        asr = math.asin(r)
        half_asr = 0.5 * asr
        for w, u in nodes:
            sn = math.sin(half_asr * u)
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
        # every caller clips h and k at +/-8.5 first, so |hk| <= 72.25 here
        b = math.sqrt(bs)
        sp = math.sqrt(two_pi) * std_normal_cdf(-b / a)
        bvn -= math.exp(-0.5 * hk) * sp * b * (1.0 - c * bs * (1.0 - d * bs / 5.0) / 3.0)
        half_a = 0.5 * a
        for w, u in nodes:
            xs = (half_a * u) ** 2
            rs = math.sqrt(1.0 - xs)
            asr1 = -0.5 * (bs / xs + hk)
            if asr1 > -100.0:
                sp = 1.0 + c * xs * (1.0 + d * xs)
                ep = math.exp(-0.5 * hk * (1.0 - rs) / (1.0 + rs)) / rs
                bvn += half_a * w * math.exp(asr1) * (ep - sp)
    return -bvn / two_pi


def _bvn_close(q: float, h: float, k: float, r: float) -> tuple[float, float]:
    """``(P(X > h, Y > k), P(X < h, Y < k))`` from their shared quadrature
    part ``q``, each clipped to [0, 1]. A cdf at x is
    ``0.5 * erfc(-x / sqrt(2))``, written out."""
    if abs(r) < 0.925:
        upper = q + 0.5 * math.erfc(h / _SQRT2) * (0.5 * math.erfc(k / _SQRT2))
        lower = q + 0.5 * math.erfc(-h / _SQRT2) * (0.5 * math.erfc(-k / _SQRT2))
    elif r > 0.0:
        upper = q + 0.5 * math.erfc((k if k > h else h) / _SQRT2)
        lower = q + 0.5 * math.erfc((-k if -k > -h else -h) / _SQRT2)
    else:
        upper = lower = -q
        if -k > h:
            upper += 0.5 * math.erfc(k / _SQRT2) - 0.5 * math.erfc(-h / _SQRT2)
        if k > -h:
            lower += 0.5 * math.erfc(-k / _SQRT2) - 0.5 * math.erfc(h / _SQRT2)
    return (upper if 0.0 < upper < 1.0 else (1.0 if upper >= 1.0 else 0.0),
            lower if 0.0 < lower < 1.0 else (1.0 if lower >= 1.0 else 0.0))


def bvn_orthants(h: float, k: float, r: float) -> tuple[float, float]:
    """``(P(X > h, Y > k), P(X < h, Y < k))`` for standard bivariate normal
    ``(X, Y)`` with correlation ``r``, from one quadrature.

    The quadrature follows the correlation path (the joint density is the
    derivative in the correlation), with an expansion near |r| = 1 where
    that path is stiff; the absolute error is a few ulps. The lower orthant
    is the bits of the upper one at (-h, -k). ``h`` and ``k`` are clipped
    at +/-8.5, so +/-inf are allowed.

    Raises:
        ValueError: naming the argument if ``h`` or ``k`` is NaN or ``r`` is
            not in [-1, 1].
    """
    if h != h or k != k:
        raise ValueError(f"{'h' if h != h else 'k'} must not be NaN, got h={h}, k={k}")
    if not -1.0 <= r <= 1.0:
        raise ValueError(f"correlation r must lie in [-1, 1], got r={r}")
    h = -_TAIL_CLIP if h < -_TAIL_CLIP else (_TAIL_CLIP if h > _TAIL_CLIP else h)
    k = -_TAIL_CLIP if k < -_TAIL_CLIP else (_TAIL_CLIP if k > _TAIL_CLIP else k)
    return _bvn_close(_bvn_quadrature(h, k, r), h, k, r)


def bvn_rect(
    lower_i: float,
    upper_i: float,
    lower_j: float,
    upper_j: float,
    cov: BivariateCovariance,
) -> float:
    """Probability that a zero-mean bivariate normal lands in a rectangle.

    Bounds may be ``-math.inf`` / ``math.inf``; :func:`bvn_orthants` clips
    them at +/-8.5 standard deviations (tail mass < 1e-17).  Absolute error
    <= 1e-10.

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
    a1, b1, a2, b2 = lower_i / sd_i, upper_i / sd_i, lower_j / sd_j, upper_j / sd_j
    p = (
        bvn_orthants(a1, a2, rho)[0]
        - bvn_orthants(a1, b2, rho)[0]
        - bvn_orthants(b1, a2, rho)[0]
        + bvn_orthants(b1, b2, rho)[0]
    )
    return min(1.0, max(0.0, p))


@dataclass
class RandomSource:
    """A deterministic random stream identified by (seed, path).

    The path names independent substreams of one seed. Replication ``r`` of
    an experiment with seed ``s`` always draws from ``RandomSource(t)``, no
    matter which worker runs it: ``t`` is the scalar that
    ``SeedSequence(s, spawn_key=(r,))`` generates
    (``experiments._replication_seed_stream``), and the study spawns its
    substreams from it.  Instances are single-owner; share work by spawning,
    never by handing the same instance to two consumers.

    Raises:
        ValueError: naming the seed if it is not an integer >= 0.
    """

    seed: int
    path: tuple[int, ...] = ()
    generator: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")
        ss = np.random.SeedSequence(self.seed, spawn_key=self.path)
        self.generator = np.random.Generator(np.random.Philox(ss))

    def spawn(self, *indices: int) -> "RandomSource":
        """Derive an independent child stream at ``path + indices``."""
        return RandomSource(self.seed, self.path + tuple(indices))


def rng_create(seed: int, *path: int) -> RandomSource:
    """Create a random source for ``seed``, optionally at a substream path."""
    return RandomSource(seed, tuple(path))


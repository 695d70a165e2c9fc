"""Monte Carlo moments of standardized genotypes, for the moment tests.

Each replicate contributes one sample per locus from rows 0 and 1, so the
samples are independent across loci and replicates and the plain mean and
standard error over their concatenation are valid.
"""

from dataclasses import dataclass

import numpy as np

from heritcc.simulate import sample_genotype_matrix, standardize


@dataclass(frozen=True)
class Moment:
    estimate: float
    std_error: float
    n_samples: int


def _moment(x: np.ndarray) -> Moment:
    return Moment(float(x.mean()), float(x.std() / np.sqrt(x.size)), x.size)


@dataclass(frozen=True)
class ZMoments:
    pair_product: Moment  # targets -1/(n-1)
    square_pair_product: Moment  # targets 1
    even_moments: dict[int, Moment]  # 2nd, 4th and 6th marginal moments
    # worst deviations over replicates from two exact identities
    max_abs_col_sum: float
    max_abs_sumsq_minus_n: float


def z_property_suite(dist, n: int, n_loci: int, reps: int, rs) -> ZMoments:
    """Moments of ``reps`` standardized ``n`` x ``n_loci`` draws. Constant
    columns (possible at small n for count-like kinds) cannot be scaled and
    :func:`standardize` drops them; the identities tested hold per column it
    keeps."""
    col_sums, sumsq_devs, rows = [], [], []
    for rep in range(reps):
        z = standardize(sample_genotype_matrix(dist, n, n_loci, rs.spawn(rep))).z
        col_sums.append(np.abs(z.sum(axis=0)).max())
        sumsq_devs.append(np.abs((z * z).sum(axis=0) - n).max())
        rows.append(z[:2].copy())  # a view would keep all of z alive
    z1, z2 = np.concatenate(rows, axis=1)
    return ZMoments(_moment(z1 * z2), _moment(z1**2 * z2**2),
                    {p: _moment(z1**p) for p in (2, 4, 6)},
                    float(max(col_sums)), float(max(sumsq_devs)))

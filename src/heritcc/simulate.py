"""Population simulation under the liability-threshold model and case-control
ascertainment.

The generative protocol: draw a genotype-like matrix with independent columns,
center and scale each column empirically, mix a per-locus genetic effect
vector into a latent liability, threshold the liability into a binary
phenotype, then select every case and each control independently with the
probability that makes the expected study prevalence equal to the design
value.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .numerics import RandomSource, std_normal_pdf, std_normal_quantile

__all__ = [
    "PackedGenotypes",
    "GenotypeDistribution",
    "StandardizedGenotypes",
    "StudyDesign",
    "LiabilityParams",
    "AscertainedSample",
    "StudyData",
    "make_distribution",
    "sample_genotype_matrix",
    "standardize",
    "design_from_prevalences",
    "simulate_population",
    "population_sample",
    "ascertain",
    "attach_study_genotypes",
    "study_model",
    "simulate_case_control_study",
    "save_dataset",
    "load_dataset",
]

GENOTYPE_KINDS = ("binomial-2-p", "standard-normal", "rademacher")

# Substream layout inside one dataset. Fixed so that results do not depend on
# execution details such as block size.
_STREAM_GENOTYPES = 0
_STREAM_EFFECTS = 1
_STREAM_SELECTION = 2
_STREAM_FREQS = 3

# The memory of one block of every blocked pass (the population draw, the
# liability pass, a container's matrix read and each panel of a relationship-
# matrix sweep), whatever the population or study size. 1 MiB, so that a draw block and its bool hit
# buffer (1.125 MiB together) fit a 2 MiB per-core L2 cache. The sweeps hold
# a panel, the next one and a power of one: ~3 MiB, against ~12 MiB at
# 4 MiB, whose 4.2 MB panels at n = 1000 glibc gave back between calls, so
# that each first-order call in run_timing's (1000, 10k) cell took 1,951
# page faults (0 at 1 MiB). Measured on a 2-vCPU host: the estimate-large
# benchmark peaks at 243.2 MB resident against 252.7 MB at 4 MiB, and a
# 20k x 10k population pass takes 1.34-1.38 s at every budget from 4 MiB
# down to 512 KiB, but 1.64 s at 256 KiB (best of 3).
_BUFFER_BYTES = 1 << 20


def _rows_per_block(n_rows: int, n_cols: int) -> int:
    """Rows of ``n_cols`` float64 values in ``_BUFFER_BYTES``, 1 to ``n_rows``."""
    return max(1, min(n_rows, _BUFFER_BYTES // (8 * n_cols)))


@dataclass(frozen=True, eq=False)
class GenotypeDistribution:
    """Per-locus distribution of the raw genotype-like entries.

    ``binomial-2-p`` draws allele counts in {0, 1, 2} with per-locus
    frequencies ``allele_freqs``; the other kinds need no parameters. All
    three have sub-exponential tails and per-locus variance bounded away from
    zero and infinity.
    """

    kind: str
    allele_freqs: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.kind not in GENOTYPE_KINDS:
            raise ValueError(f"unknown genotype kind {self.kind!r}, expected one of {GENOTYPE_KINDS}")
        if self.kind == "binomial-2-p":
            if self.allele_freqs is None:
                raise ValueError("binomial-2-p needs per-locus allele frequencies")
            freqs = np.asarray(self.allele_freqs, dtype=np.float64)
            if freqs.ndim != 1 or not np.all((freqs > 0.0) & (freqs < 1.0)):
                raise ValueError("allele frequencies must be a 1-d vector strictly inside (0, 1)")
            object.__setattr__(self, "allele_freqs", freqs)  # the checked array, not a list

    @property
    def n_loci(self) -> int | None:
        return None if self.allele_freqs is None else int(self.allele_freqs.shape[0])


def make_distribution(kind: str, n_loci: int, rs: RandomSource) -> GenotypeDistribution:
    """Build a genotype distribution, drawing per-locus frequencies once.

    Frequencies are uniform on [0.05, 0.95] so per-locus variances stay
    bounded away from 0.
    """
    if kind == "binomial-2-p":
        freqs = rs.generator.uniform(0.05, 0.95, size=n_loci)
        return GenotypeDistribution(kind, freqs)
    return GenotypeDistribution(kind)


@dataclass(frozen=True, eq=False)
class PackedGenotypes:
    """Count-kind genotypes as bit planes packed along the loci axis.

    ``planes[k]`` holds one bit per entry, ``np.packbits`` of the hits of the
    k-th threshold compare, each row padded to whole bytes. ``binomial-2-p``
    has two planes (count >= 1 and count >= 2) whose sum is the allele count:
    N * M / 4 bytes. ``rademacher`` has one (value +1), mapped to 2b - 1:
    N * M / 8 bytes, against N * M for the int8 matrix they encode. Indexing
    rows, ``raw[indices]``, reads them as the dense matrix would.
    """

    planes: np.ndarray
    kind: str
    n_loci: int

    def __getitem__(self, indices) -> np.ndarray:
        """The int8 genotypes of rows ``indices`` (an index array or a slice),
        as :func:`sample_genotype_matrix` draws them."""
        out = np.unpackbits(self.planes[0][indices], axis=1, count=self.n_loci).view(np.int8)
        if self.kind == "binomial-2-p":
            out += np.unpackbits(self.planes[1][indices], axis=1,
                                 count=self.n_loci).view(np.int8)
        else:
            out *= 2
            out -= 1
        return out


def _count_compares(dist: GenotypeDistribution) -> list[tuple[np.ufunc, float | np.ndarray]]:
    """The threshold compares that turn a count kind's uniforms into hits:
    ``binomial-2-p``'s count is the number of its two hits (count >= 1,
    count >= 2), ``rademacher``'s value is +1 on its one hit."""
    if dist.kind == "binomial-2-p":
        p = dist.allele_freqs
        q0 = (1.0 - p) ** 2             # P(count = 0)
        q01 = q0 + 2.0 * p * (1.0 - p)  # P(count <= 1)
        return [(np.greater_equal, q0), (np.greater_equal, q01)]
    return [(np.less, 0.5)]


def _check_loci(dist: GenotypeDistribution, n_loci: int) -> None:
    if dist.kind == "binomial-2-p" and dist.n_loci != n_loci:
        raise ValueError(f"distribution has {dist.n_loci} loci, requested {n_loci}")


def sample_genotype_matrix(dist: GenotypeDistribution, n_individuals: int,
                           n_loci: int, rs: RandomSource) -> np.ndarray:
    """Draw a full genotype matrix with i.i.d. entries per column: int8 for
    the count kinds, float32 for ``standard-normal``. The dense route, in one
    call; :func:`standardize` then refuses a constant column through
    :func:`_column_sds`, the one refusal the blocked route shares."""
    _check_loci(dist, n_loci)
    gen = rs.generator
    if dist.kind == "standard-normal":
        return gen.standard_normal((n_individuals, n_loci)).astype(np.float32)
    u = gen.random((n_individuals, n_loci))
    hits = [compare(u, threshold).view(np.int8) for compare, threshold in _count_compares(dist)]
    if dist.kind == "binomial-2-p":
        return hits[0] + hits[1]
    return (2 * hits[0] - 1).astype(np.int8)


def _padded_rows(n_rows: int, n_cols: int) -> np.ndarray:
    """Float64 buffer of ``n_rows`` rows rounded up to a multiple of 8, with
    the extra rows zero."""
    buf = np.empty((n_rows + -n_rows % 8, n_cols))
    buf[n_rows:] = 0.0
    return buf


@dataclass(frozen=True, eq=False)
class StandardizedGenotypes:
    """Empirically centered and scaled genotypes.

    Every column satisfies sum(z) = 0 and sum(z^2) = n up to rounding, with
    the scale computed as the 1/n-normalized standard deviation.

    The rows live in ``padded``, a float64 buffer with zero rows appended up
    to a multiple of 8 rows, and ``z`` is the view of its first n rows; the
    relationship matrix multiplies ``padded`` as it is. A ``z`` that is
    already such a view, as :func:`standardize` and :func:`load_dataset`
    make it, is kept; any other is copied into a new buffer.
    """

    z: np.ndarray
    col_means: np.ndarray
    col_sds: np.ndarray
    padded: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        n, n_loci = self.z.shape
        padded = self.z.base
        if not (isinstance(padded, np.ndarray) and padded.dtype == np.float64
                and padded.shape == (n + -n % 8, n_loci) and padded.flags.c_contiguous
                and self.z.flags.c_contiguous and self.z.ctypes.data == padded.ctypes.data
                and not padded[n:].any()):
            padded = _padded_rows(n, n_loci)
            padded[:n] = self.z
            object.__setattr__(self, "z", padded[:n])
        object.__setattr__(self, "padded", padded)

    def __reduce__(self):
        # pickle the n rows once; unpickling pads them again
        return StandardizedGenotypes, (self.z, self.col_means, self.col_sds)

    @property
    def n_individuals(self) -> int:
        return int(self.z.shape[0])

    @property
    def n_loci(self) -> int:
        return int(self.z.shape[1])


def _column_sds(variances: np.ndarray) -> np.ndarray:
    """Square roots of per-column variances, refusing the first that is not
    positive: the one zero-variance refusal, for :func:`standardize` and
    :func:`population_sample`."""
    zero = np.flatnonzero(variances <= 0.0)
    if zero.size:
        raise ValueError(f"column {int(zero[0])} has zero empirical variance")
    return np.sqrt(variances)


def standardize(a: np.ndarray) -> StandardizedGenotypes:
    """Center and scale each column to empirical mean 0 and mean square 1.

    Copies the values once into the padded output buffer and works there in
    place. numpy reduces axis 0 of a row-major matrix one row after the
    other, and ``einsum`` multiplies and then adds in that order too, so the
    means and scales, and hence z, have the bits of the whole-matrix
    ``mean(axis=0)`` formulas whatever the input's memory layout.

    Raises:
        ValueError: from :func:`_column_sds`, naming the first column with
            zero empirical variance.
    """
    values = np.asarray(a)
    n, n_loci = values.shape
    padded = _padded_rows(n, n_loci)
    z = padded[:n]
    z[...] = values
    means = np.add.reduce(z, axis=0) / n
    z -= means
    sds = _column_sds(np.einsum("ij,ij->j", z, z) / n)
    z /= sds
    return StandardizedGenotypes(z, means, sds)


@dataclass(frozen=True)
class StudyDesign:
    """Prevalences, liability threshold, and selection probabilities.

    ``p_case`` is 1 (every case joins the study); ``p_control`` is the unique
    value making the expected study prevalence equal to ``study_prevalence``.

    The pair moments' constants of the design alone are derived when it is
    built (``dataclasses.replace`` derives them afresh) and take no part in
    ``==``, ``hash`` or ``repr``. With threshold t and m = (P-K)/(K(1-K)):

    * ``slope`` = pdf(t)^2 P(1-P) / (K^2 (1-K)^2), of the first-order
      estimator and :func:`~heritcc.moments.first_order_pair_expectation`;
    * ``ratio_weights`` = ((1-P)/P, K^2(1-P)/(P(1-K)^2), p_control^2), of
      :func:`~heritcc.moments.ascertained_pair_ratio`;
    * ``weight_factors`` = (s = P(1-P)/(K^2 (1-K)^2), pdf(t)^2, s pdf(t)^2,
      t^2/4, t^2/2 - m^2 pdf(t)^2, t^2 - 1 - m t pdf(t)), the locus-count-free
      factors of :func:`~heritcc.moments.moment_weights`.
    """

    population_prevalence: float
    study_prevalence: float
    threshold: float
    p_case: float
    p_control: float
    slope: float = field(init=False, repr=False, compare=False)
    ratio_weights: tuple[float, float, float] = field(init=False, repr=False, compare=False)
    weight_factors: tuple[float, float, float, float, float, float] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        k, p, t = self.population_prevalence, self.study_prevalence, self.threshold
        r = self.p_control
        density = std_normal_pdf(t)
        dsq = density * density
        k_var_sq = k * k * (1.0 - k) ** 2
        scale = p * (1.0 - p) / k_var_sq
        mismatch = (p - k) / (k * (1.0 - k))
        object.__setattr__(self, "slope", dsq * p * (1.0 - p) / k_var_sq)
        object.__setattr__(self, "ratio_weights", (
            (1.0 - p) / p, k * k * (1.0 - p) / (p * (1.0 - k) ** 2), r * r))
        object.__setattr__(self, "weight_factors", (
            scale, dsq, scale * dsq, t * t / 4.0, t * t / 2.0 - mismatch * mismatch * dsq,
            t * t - 1.0 - mismatch * t * density))


def design_from_prevalences(population_prevalence: float, study_prevalence: float) -> StudyDesign:
    """Build a study design from the population and study prevalences.

    Requires 0 < population_prevalence <= study_prevalence < 1; otherwise the
    control selection probability would leave (0, 1]. K^2 must not underflow
    to 0 (K above ~1e-162), for the design's pair-moment constants divide by
    it.
    """
    k, p = population_prevalence, study_prevalence
    if not (0.0 < k < 1.0) or not (0.0 < p < 1.0):
        raise ValueError(f"prevalences must lie in (0, 1), got K={k}, P={p}")
    if k * k == 0.0:
        raise ValueError(f"population prevalence {k} is too small: K^2 underflows to 0")
    if k > p:
        raise ValueError(
            f"population prevalence {k} exceeds study prevalence {p}; "
            "control selection probability would exceed 1"
        )
    threshold = -std_normal_quantile(k)  # the lower tail keeps the digits of a small K
    p_control = k * (1.0 - p) / (p * (1.0 - k))
    return StudyDesign(k, p, threshold, 1.0, p_control)


@dataclass(frozen=True)
class LiabilityParams:
    """Variance split of the latent liability: the heritability.

    The total variance is fixed at 1; a different scale is absorbed into the
    threshold instead.
    """

    heritability: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.heritability <= 1.0):
            raise ValueError(f"heritability must lie in [0, 1], got {self.heritability}")


def simulate_population(z: StandardizedGenotypes, lp: LiabilityParams,
                        design: StudyDesign, rs: RandomSource) -> tuple[np.ndarray, np.ndarray]:
    """Draw liabilities and binary phenotypes for every row of ``z``.

    The genetic effect vector has per-locus variance heritability/n_loci and
    the environmental part variance 1 - heritability, so the liability has
    unit variance on average.
    """
    n, n_loci = z.n_individuals, z.n_loci
    gen = rs.generator
    u = gen.standard_normal(n_loci) * math.sqrt(lp.heritability / n_loci)
    e = gen.standard_normal(n) * math.sqrt(1.0 - lp.heritability)
    liabilities = z.z @ u + e
    y = liabilities > design.threshold
    return liabilities, y


def _draw_population(dist: GenotypeDistribution, n_population: int, n_loci: int,
                     gen: np.random.Generator
                     ) -> tuple[np.ndarray | PackedGenotypes, np.ndarray, np.ndarray]:
    """Draw the population block by block through one reused float64 buffer.

    Entries match :func:`sample_genotype_matrix` exactly: the uniforms or
    normals come from the same row-major stream. Count kinds pack the hits of
    the same :func:`_count_compares` into bit planes, and take the column
    sums and sums of squares from integer counts of the hits, so these are
    exact. ``standard-normal`` keeps its float32 rows and reduces the whole
    matrix once the draw is done: numpy adds the rows of a row-major matrix
    one after the other, in float64.
    """
    block_rows = _rows_per_block(n_population, n_loci)
    buf = np.empty((block_rows, n_loci))
    normal = dist.kind == "standard-normal"
    if normal:
        raw = np.empty((n_population, n_loci), dtype=np.float32)
    else:
        compares = _count_compares(dist)
        raw = PackedGenotypes(
            np.empty((len(compares), n_population, -(-n_loci // 8)), dtype=np.uint8),
            dist.kind, n_loci)
        # binomial: columns of count >= 1 and >= 2; rademacher: columns of +1
        hits = np.zeros((len(compares), n_loci), dtype=np.int64)
        hit = np.empty((block_rows, n_loci), dtype=bool)
        # one block's column counts, in the narrowest integer that holds them
        block_count = np.min_scalar_type(block_rows)
    for lo in range(0, n_population, block_rows):
        x = buf[:n_population - lo]
        if normal:
            gen.standard_normal(out=x)
            raw[lo:lo + block_rows] = x
        else:
            gen.random(out=x)
            h = hit[:n_population - lo]
            for k, (compare, threshold) in enumerate(compares):
                compare(x, threshold, out=h)
                raw.planes[k, lo:lo + block_rows] = np.packbits(h, axis=1)
                hits[k] += np.add.reduce(h.view(np.uint8), axis=0, dtype=block_count)
    if normal:
        return (raw, np.add.reduce(raw, axis=0, dtype=np.float64),
                np.einsum("ij,ij->j", raw, raw, dtype=np.float64))
    if dist.kind == "binomial-2-p":
        col_sum = hits[0] + hits[1]
        col_sumsq = hits[0] + 3 * hits[1]
    else:
        col_sum = 2 * hits[0] - n_population
        col_sumsq = np.full(n_loci, n_population)
    return raw, col_sum.astype(np.float64), col_sumsq.astype(np.float64)


def population_sample(dist: GenotypeDistribution, n_population: int, n_loci: int,
                      lp: LiabilityParams, design: StudyDesign, rs: RandomSource
                      ) -> tuple[np.ndarray | PackedGenotypes, np.ndarray, np.ndarray]:
    """Blocked equivalent of sampling genotypes, standardizing, and running
    :func:`simulate_population`, without materializing the standardized matrix.

    Returns ``(raw_genotypes, liabilities, phenotypes)``. Count kinds keep the
    raw genotypes as :class:`PackedGenotypes` bit planes, ``standard-normal``
    as a float32 matrix; callers take study rows out of either with
    ``raw[indices]``. Those rows are the bits the dense route draws, because
    the genotype stream is consumed in the same row-major order regardless of
    block size, and the liabilities match it to float rounding. A column
    constant over the population is refused by :func:`_column_sds`, the
    refusal :func:`standardize` makes of one constant over the study.

    Every kind runs its blocks through one reused float64 buffer of about
    ``_BUFFER_BYTES``, so peak memory is the raw population (N * M / 4 bytes
    for ``binomial-2-p``, N * M / 8 for ``rademacher``, N * M * 4 for
    ``standard-normal``) plus a few MB. The column sums do not depend on the
    block height: count kinds count hits exactly, and ``standard-normal``
    reduces its whole float32 matrix at the end. The liability pass walks
    the draw's row blocks with one einsum each: no float64 copy of the rows,
    and no BLAS, whose products round differently at different thread
    counts. Each row's sum is the same whatever the block, so the
    liabilities do not depend on the block height.
    """
    _check_loci(dist, n_loci)
    raw, col_sum, col_sumsq = _draw_population(
        dist, n_population, n_loci, rs.spawn(_STREAM_GENOTYPES).generator)
    means = col_sum / n_population
    sds = _column_sds(col_sumsq / n_population - means * means)

    gen_fx = rs.spawn(_STREAM_EFFECTS).generator
    u = gen_fx.standard_normal(n_loci) * math.sqrt(lp.heritability / n_loci)
    e = gen_fx.standard_normal(n_population) * math.sqrt(1.0 - lp.heritability)
    v = u / sds
    liabilities = np.empty(n_population)
    rows = _rows_per_block(n_population, n_loci)  # the draw's blocks
    for lo in range(0, n_population, rows):
        np.einsum("ij,j->i", raw[lo:lo + rows], v, out=liabilities[lo:lo + rows])
    liabilities -= np.einsum("j,j->", means, v)
    liabilities += e
    y = liabilities > design.threshold
    return raw, liabilities, y


@dataclass(frozen=True, eq=False)
class AscertainedSample:
    """Study membership and centered phenotypes after case-control selection.

    ``w`` is the phenotype centered with the design study prevalence, not the
    realized one. ``z_study`` is standardized over the study rows and is
    attached by the pipeline (selection itself needs no genotypes). The case
    and control counts are read from ``y``.
    """

    indices: np.ndarray
    y: np.ndarray
    w: np.ndarray
    z_study: StandardizedGenotypes | None = None

    @property
    def n_cases(self) -> int:
        return int(np.count_nonzero(self.y))

    @property
    def n_controls(self) -> int:
        return int(self.y.shape[0]) - self.n_cases


def _centered_w(y: np.ndarray, design: StudyDesign) -> np.ndarray:
    p = design.study_prevalence
    return (y.astype(np.float64) - p) / math.sqrt(p * (1.0 - p))


def ascertain(y: np.ndarray, design: StudyDesign, rs: RandomSource) -> AscertainedSample:
    """Select the study: every case, each control with ``design.p_control``."""
    y = np.asarray(y, dtype=bool)
    keep = y | (rs.generator.random(y.shape[0]) < design.p_control)
    indices = np.flatnonzero(keep)
    y_study = y[indices]
    return AscertainedSample(indices=indices, y=y_study, w=_centered_w(y_study, design))


def attach_study_genotypes(sample: AscertainedSample, raw: np.ndarray | PackedGenotypes
                           ) -> AscertainedSample:
    """Return the sample with genotypes standardized over the study rows."""
    return replace(sample, z_study=standardize(raw[sample.indices]))


@dataclass(frozen=True, eq=False)
class StudyData:
    """One simulated case-control study together with its provenance; the
    locus count is read from the study genotypes."""

    sample: AscertainedSample
    design: StudyDesign
    liability: LiabilityParams
    population_size: int
    seed: int
    genotype_kind: str

    @property
    def n_loci(self) -> int:
        return self.sample.z_study.n_loci


def study_model(heritability: float, population_prevalence: float, study_prevalence: float,
                n_loci: int, target_cases: int, seed: int, genotype_kind: str
                ) -> tuple[StudyDesign, LiabilityParams, RandomSource, GenotypeDistribution, int]:
    """Check a study's settings and turn them into its model, drawing only
    the allele frequencies: ``(design, liability, source, distribution,
    population_size)``. A population of ceil(target_cases /
    population_prevalence) carries about ``target_cases`` cases.

    Raises:
        ValueError: naming the first setting the model refuses.
    """
    if target_cases < 1:
        raise ValueError("target_cases must be >= 1")
    if n_loci < 1:
        raise ValueError("n_loci must be >= 1")
    design = design_from_prevalences(population_prevalence, study_prevalence)
    lp = LiabilityParams(heritability)
    rs = RandomSource(seed)
    dist = make_distribution(genotype_kind, n_loci, rs.spawn(_STREAM_FREQS))
    return design, lp, rs, dist, math.ceil(target_cases / population_prevalence)


def simulate_case_control_study(heritability: float, population_prevalence: float,
                                study_prevalence: float, n_loci: int,
                                target_cases: int, seed: int,
                                genotype_kind: str = "binomial-2-p") -> StudyData:
    """Run the full generative protocol for one study of the model that
    :func:`study_model` makes of these settings.

    The realized case count varies between samples around ``target_cases``.
    Fully determined by ``seed``.
    """
    design, lp, rs, dist, n_population = study_model(
        heritability, population_prevalence, study_prevalence, n_loci, target_cases, seed,
        genotype_kind)
    raw, _, y = population_sample(dist, n_population, n_loci, lp, design, rs)
    sample = ascertain(y, design, rs.spawn(_STREAM_SELECTION))
    sample = attach_study_genotypes(sample, raw)
    return StudyData(sample=sample, design=design, liability=lp, population_size=n_population,
                     seed=seed, genotype_kind=genotype_kind)


# ---------------------------------------------------------------------------
# Containers: the magic, an 8-byte little-endian header length, a JSON header
# and raw row-major arrays. A layout table names each array, its dtype and
# the header sizes that give its shape. Byte layout is fully deterministic
# for given arrays and header.
# ---------------------------------------------------------------------------

_VERSION = 1
_MAGIC = b"HCCD"
# A dataset's arrays in file order: name, dtype and the sizes of its shape.
_DATASET_ARRAYS = (("z", "float64", ("n", "n_loci")), ("col_means", "float64", ("n_loci",)),
                   ("col_sds", "float64", ("n_loci",)), ("w", "float64", ("n",)),
                   ("y", "uint8", ("n",)), ("indices", "int64", ("n",)))
# What load_dataset reads from a dataset's header besides the framing's
# version, arrays, n and n_loci; save_dataset writes all of it.
_HEADER_KEYS = ("seed", "population_prevalence", "study_prevalence", "heritability",
                "population_size", "genotype_kind", "n_cases", "n_controls")


def _layout(n: int, n_loci: int, table: tuple) -> list[dict]:
    """The arrays of the layout table ``table`` in file order, as a header
    lists them: the name, dtype and shape of each for n rows and n_loci loci."""
    sizes = {"n": n, "n_loci": n_loci}
    return [{"name": name, "dtype": dtype, "shape": [sizes[d] for d in dims]}
            for name, dtype, dims in table]


def _json(value) -> str:
    # JSON text compares 38 and 38.0, or 1 and true, as different
    return json.dumps(value, sort_keys=True)


def _write_container(path: str | Path, magic: bytes, header: dict, table: tuple,
                     values) -> None:
    """Write ``values`` as the arrays of the layout table ``table``, each
    entry with the shape its array has, so that arrays which disagree with
    the header are written as they are and refused on load."""
    values = [np.asarray(v, dtype=dtype) for (_, dtype, _), v in zip(table, values)]
    header = dict(header, version=_VERSION, arrays=[
        {"name": name, "dtype": dtype, "shape": list(v.shape)}
        for (name, dtype, _), v in zip(table, values)])
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(len(blob).to_bytes(8, "little"))
        fh.write(blob)
        for v in values:
            # a strided matrix (a relationship matrix whose n is not a
            # multiple of 8) row by row, any other array whole: no copy of z
            # or of a matrix
            for rows in v if v.ndim == 2 and not v.flags.c_contiguous else (v,):
                fh.write(np.ascontiguousarray(rows).data)


def _read_finite_rows(fh, rows: np.ndarray, name: str, path: str | Path) -> None:
    """Read the matrix ``rows`` from ``fh`` a block of rows at a time, refusing
    the first row with a NaN or an infinity while its block is in cache."""
    step = _rows_per_block(*rows.shape)
    for lo in range(0, rows.shape[0], step):
        block = rows[lo:lo + step]
        fh.readinto(block)
        finite = np.isfinite(block)
        if not finite.all():
            i = lo + int(np.flatnonzero(~finite.all(axis=1))[0])
            raise ValueError(f"{path}: {name} row {i} holds a NaN or an infinity")


def _read_container(path: str | Path, magic: bytes, what: str, keys: tuple[str, ...],
                    table: tuple, sizes: tuple[tuple[str, int | str], ...]
                    ) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a container of the layout table ``table``: ``(header, {name:
    array})``. ``sizes`` adds header integers and their lower bounds, each a
    number or the name of a size checked before it. Refuses, naming the path,
    what README's container section lists; float64 matrices are read a block
    of rows at a time into buffers padded to a multiple of 8 rows."""
    with open(path, "rb") as fh:
        found = fh.read(4)
        if found != magic:
            raise ValueError(f"{path}: not a {what} container (bad magic {found!r})")
        size = os.fstat(fh.fileno()).st_size
        length = fh.read(8)
        blob_len = int.from_bytes(length, "little")
        if len(length) < 8 or fh.tell() + blob_len > size:
            raise ValueError(f"{path}: truncated header ({size} bytes)")
        try:
            header = json.loads(fh.read(blob_len))
        except ValueError:  # not UTF-8 or not JSON
            header = None
        if not isinstance(header, dict):
            raise ValueError(f"{path}: header is not a JSON object")
        missing = [key for key in ("version", "arrays", "n", "n_loci", *keys)
                   if key not in header]
        if missing:
            raise ValueError(f"{path}: header lacks {', '.join(map(repr, missing))}")
        if _json(header["version"]) != _json(_VERSION):
            raise ValueError(f"{path}: unsupported container version {_json(header['version'])}")
        for key, low in (("n", 0), ("n_loci", 1), *sizes):
            low = header[low] if isinstance(low, str) else low
            if type(header[key]) is not int or header[key] < low:
                raise ValueError(f"{path}: header {key} must be an integer >= {low}, "
                                 f"got {_json(header[key])}")
        layout = _layout(header["n"], header["n_loci"], table)
        entries = header["arrays"] if isinstance(header["arrays"], list) else [header["arrays"]]
        for i, (entry, spec) in enumerate(itertools.zip_longest(entries, layout)):
            if _json(entry) != _json(spec):
                raise ValueError(f"{path}: array entry {i} is {_json(entry)}, "
                                 f"expected {_json(spec)}")
        arrays = {}
        for spec in layout:
            name, shape, dtype = spec["name"], spec["shape"], np.dtype(spec["dtype"])
            expected, available = math.prod(shape) * dtype.itemsize, size - fh.tell()
            if expected > available:
                raise ValueError(f"{path}: array {name!r} is truncated: "
                                 f"expected {expected} bytes, got {available}")
            if len(shape) == 2 and dtype == np.float64:
                arrays[name] = _padded_rows(*shape)[:shape[0]]
                _read_finite_rows(fh, arrays[name], name, path)
            else:
                arrays[name] = np.empty(shape, dtype)
                fh.readinto(arrays[name])
        if size > fh.tell():
            raise ValueError(f"{path}: {size - fh.tell()} trailing bytes after the last array")
    return header, arrays


def save_dataset(path: str | Path, data: StudyData) -> None:
    sample = data.sample
    if sample.z_study is None:
        raise ValueError("dataset must carry study genotypes; run the pipeline first")
    z = sample.z_study
    _write_container(path, _MAGIC, {
        "n": z.n_individuals,
        "n_loci": z.n_loci,
        "seed": data.seed,
        "population_prevalence": data.design.population_prevalence,
        "study_prevalence": data.design.study_prevalence,
        "heritability": data.liability.heritability,
        "population_size": data.population_size,
        "genotype_kind": data.genotype_kind,
        "n_cases": sample.n_cases,
        "n_controls": sample.n_controls,
    }, _DATASET_ARRAYS, (z.z, z.col_means, z.col_sds, sample.w, sample.y, sample.indices))


def load_dataset(path: str | Path) -> StudyData:
    header, arrays = _read_container(path, _MAGIC, "dataset", _HEADER_KEYS, _DATASET_ARRAYS,
                                     (("seed", 0), ("population_size", "n")))
    if header["genotype_kind"] not in GENOTYPE_KINDS:
        raise ValueError(f"{path}: header genotype_kind must be one of "
                         f"{_json(GENOTYPE_KINDS)}, got {_json(header['genotype_kind'])}")
    z_study = StandardizedGenotypes(arrays["z"], arrays["col_means"], arrays["col_sds"])
    sample = AscertainedSample(indices=arrays["indices"], y=arrays["y"].astype(bool),
                               w=arrays["w"], z_study=z_study)
    for key in ("n_cases", "n_controls"):
        if _json(header[key]) != _json(getattr(sample, key)):
            raise ValueError(f"{path}: header {key} is {_json(header[key])}, "
                             f"the arrays hold {getattr(sample, key)}")
    # Python takes true for 1; a string or null the model refuses itself
    for key in ("population_prevalence", "study_prevalence", "heritability"):
        if isinstance(header[key], bool):
            raise ValueError(f"{path}: header {key} must be a JSON number, "
                             f"got {_json(header[key])}")
    try:
        design = design_from_prevalences(header["population_prevalence"],
                                         header["study_prevalence"])
        liability = LiabilityParams(header["heritability"])
    except (TypeError, ValueError) as exc:  # a value the model refuses, or not a number
        raise ValueError(f"{path}: {exc}") from None
    w = _centered_w(sample.y, design)
    differ = np.flatnonzero(w.view(np.int64) != sample.w.view(np.int64))
    if differ.size:
        i = int(differ[0])
        raise ValueError(f"{path}: w[{i}] is {float(sample.w[i])!r}, "
                         f"the phenotypes center to {float(w[i])!r}")
    return StudyData(sample=sample, design=design, liability=liability,
                     population_size=header["population_size"], seed=header["seed"],
                     genotype_kind=header["genotype_kind"])

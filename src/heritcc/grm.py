"""Empirical genetic-relationship quantities and their diagnostics.

The relationship matrix is the per-locus average of cross products of
standardized genotypes. Because every column is centered and scaled over the
same individuals, two identities hold exactly: each row sums to zero and the
diagonal averages to one. The scaled deviations of the matrix from the
identity feed the pair-moment approximations.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .simulate import _rows_per_block

__all__ = [
    "GrmView",
    "SigmaPair",
    "EnCheckResult",
    "grm_compute",
    "sigma_pair",
    "EN_GAMMA",
    "check_gamma",
    "event_en_check",
    "mean_square_offdiagonal",
    "grm_to_csv",
    "save_grm",
    "load_grm",
]


@dataclass(frozen=True)
class GrmView:
    """Symmetric relationship matrix and the number of loci it averages over."""

    g: np.ndarray
    n_loci: int

    @property
    def n_individuals(self) -> int:
        return int(self.g.shape[0])


def grm_compute(z) -> GrmView:
    """Relationship matrix: cross products of standardized rows over loci.

    Cost is one product of the padded rows with their transpose
    (BLAS-blocked); the matrix is the leading n x n block of that product,
    scaled in place by 1/n_loci. ``z.padded`` holds the rows with zero rows
    appended up to a multiple of 8: OpenBLAS rounds such a product the same
    way at 1 to 4 threads, and other row counts differently per thread count.
    So a replication in a one-thread pool worker gives the record it gives in
    a multi-threaded process. numpy computes ``x @ x.T`` as a symmetric
    product whose output is exactly symmetric, so no symmetrization is needed.
    """
    n = z.n_individuals
    if n < 2 or z.n_loci < 1:
        raise ValueError("need at least 2 individuals and 1 locus")
    g = (z.padded @ z.padded.T)[:n, :n]
    g *= 1.0 / z.n_loci
    return GrmView(g=g, n_loci=z.n_loci)


@dataclass(frozen=True)
class SigmaPair:
    """Square-root-of-loci scaled deviations of one pair from the identity.

    ``a_i`` and ``a_j`` scale the diagonal excess of the two individuals,
    ``b_ij`` the off-diagonal entry.
    """

    a_i: float
    a_j: float
    b_ij: float


def sigma_pair(g: GrmView, i: int, j: int) -> SigmaPair:
    """Scaled deviations for one ordered pair; the pair must be distinct."""
    if i == j:
        raise ValueError(f"pair indices must differ, got i = j = {i}")
    root = math.sqrt(g.n_loci)
    return SigmaPair(
        a_i=root * (g.g[i, i] - 1.0),
        a_j=root * (g.g[j, j] - 1.0),
        b_ij=root * g.g[i, j],
    )


def _offdiagonal_panels(g: np.ndarray):
    """Yield ``(first_row, panel)`` over row blocks of the square matrix
    ``g``, each as high as :func:`simulate._rows_per_block` allows.

    Each panel is a fresh copy of those rows with their diagonal entries set
    to 0, so the caller may overwrite it. Each row's entries are the same
    whatever the panel height, so row-wise results are too.
    """
    height = _rows_per_block(*g.shape)
    for lo in range(0, g.shape[0], height):
        panel = g[lo:lo + height].copy()
        rows = np.arange(panel.shape[0])
        panel[rows, lo + rows] = 0.0
        yield lo, panel


@dataclass(frozen=True)
class EnCheckResult:
    holds: bool
    sup_diag_dev: float
    sup_offdiag: float
    eps_n: float


# The exponent offset of the E_n diagnostic that replications and
# ``grm --check-en`` use unless told otherwise.
EN_GAMMA = 0.05


def check_gamma(gamma: float) -> None:
    """Raise ValueError unless 0 < gamma < 1/10, the exponent offsets
    ``event_en_check`` accepts."""
    if not (0.0 < gamma < 0.1):
        raise ValueError(f"gamma must lie in (0, 1/10), got {gamma}")


def event_en_check(g: GrmView, gamma: float) -> EnCheckResult:
    """Uniform-smallness diagnostic for the relationship deviations.

    The tolerance is n_loci**-(1/2 - gamma); the event holds when every
    diagonal deviation and every off-diagonal entry stays within it. The
    exponent offset must satisfy 0 < gamma < 1/10.
    """
    check_gamma(gamma)
    eps_n = float(g.n_loci) ** -(0.5 - gamma)
    sup_diag = float(np.abs(np.diag(g.g) - 1.0).max())
    # np.max, unlike the builtin max, returns NaN when any panel holds a NaN
    sup_off = float(np.max([np.abs(panel, out=panel).max()
                            for _, panel in _offdiagonal_panels(g.g)]))
    return EnCheckResult(
        holds=bool(sup_diag <= eps_n and sup_off <= eps_n),
        sup_diag_dev=sup_diag,
        sup_offdiag=sup_off,
        eps_n=eps_n,
    )


def mean_square_offdiagonal(g: GrmView) -> float:
    """Off-diagonal mean square, scaled by 1/n: sum over ordered pairs of
    squared entries divided by n. Concentrates near n/n_loci for standardized
    independent loci. Summed over row panels: no n x n temporary."""
    row_sq = np.empty(g.n_individuals)
    for lo, panel in _offdiagonal_panels(g.g):
        np.einsum("ij,ij->i", panel, panel, out=row_sq[lo:lo + panel.shape[0]])
    return float(row_sq.sum()) / g.n_individuals


def grm_to_csv(path: str | Path, g: GrmView) -> None:
    """Write the matrix as CSV; refuses n beyond ``_CSV_MAX_N``."""
    if g.n_individuals > _CSV_MAX_N:
        raise ValueError(f"n = {g.n_individuals} exceeds CSV export cap {_CSV_MAX_N}")
    lines = [",".join(repr(float(v)) for v in row) for row in g.g]
    Path(path).write_text("\n".join(lines) + "\n")


_CSV_MAX_N = 1000  # grm_to_csv's cap: its text takes ~20 bytes per entry
_GRM_MAGIC = b"HCCG"
_GRM_HEADER_BYTES = 20  # magic, then n and n_loci as 8-byte little-endian


def save_grm(path: str | Path, g: GrmView) -> None:
    with open(path, "wb") as fh:
        fh.write(_GRM_MAGIC)
        fh.write(int(g.n_individuals).to_bytes(8, "little"))
        fh.write(int(g.n_loci).to_bytes(8, "little"))
        for row in np.asarray(g.g, dtype=np.float64):
            # row by row: the rows of a GRM from grm_compute are contiguous,
            # the whole matrix is not when n is not a multiple of 8
            fh.write(np.ascontiguousarray(row).data)


def load_grm(path: str | Path) -> GrmView:
    """Read a container written by :func:`save_grm`.

    Raises:
        ValueError: naming the path on a bad magic, and naming the expected
            and available bytes when the header or the matrix is cut short or
            bytes follow the matrix.
    """
    with open(path, "rb") as fh:
        if fh.read(4) != _GRM_MAGIC:
            raise ValueError(f"{path}: not a relationship-matrix container")
        size = os.fstat(fh.fileno()).st_size
        if size < _GRM_HEADER_BYTES:
            raise ValueError(f"{path}: truncated header: expected {_GRM_HEADER_BYTES} "
                             f"bytes, got {size}")
        n = int.from_bytes(fh.read(8), "little")
        n_loci = int.from_bytes(fh.read(8), "little")
        expected, available = n * n * 8, size - _GRM_HEADER_BYTES
        if expected != available:
            what = "truncated matrix" if expected > available else "trailing bytes after the matrix"
            raise ValueError(f"{path}: {what}: expected {expected} bytes for "
                             f"{n} x {n} float64, got {available}")
        g = np.empty((n, n))
        fh.readinto(g)
    return GrmView(g=g, n_loci=n_loci)

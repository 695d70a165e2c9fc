"""Tests for the relationship matrix, its deviations, and the moment suite."""

import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from _zmoments import z_property_suite

from heritcc import grm as grm_module
from heritcc import simulate as simulate_module
from heritcc.estimators import _pair_sums
from heritcc.grm import (
    GrmView,
    event_en_check,
    grm_compute,
    grm_to_csv,
    load_grm,
    mean_square_offdiagonal,
    save_grm,
    sigma_pair,
)
from heritcc.numerics import rng_create
from heritcc.simulate import (
    AscertainedSample,
    LiabilityParams,
    StudyData,
    design_from_prevalences,
    load_dataset,
    make_distribution,
    sample_genotype_matrix,
    save_dataset,
    standardize,
)


def _random_z(n, n_loci, seed, kind="standard-normal"):
    # continuous entries by default: count-like kinds can produce constant
    # columns at small n, which standardize rightly refuses
    rs = rng_create(seed)
    dist = make_distribution(kind, n_loci, rs.spawn(0))
    return standardize(sample_genotype_matrix(dist, n, n_loci, rs.spawn(1)))


def _brute_force_grm(z: np.ndarray) -> np.ndarray:
    n, n_loci = z.shape
    g = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            acc = 0.0
            for k in range(n_loci):
                acc += z[i, k] * z[j, k]
            g[i, j] = acc / n_loci
    return g


class TestGrmCompute:
    def test_two_by_one_hand_case(self):
        z = standardize(np.array([[0.0], [1.0]]))
        g = grm_compute(z)
        np.testing.assert_allclose(g.g, [[1.0, -1.0], [-1.0, 1.0]], atol=1e-12)

    def test_matches_brute_force_small(self):
        for seed in range(4):
            rng = np.random.default_rng(seed)
            n, n_loci = rng.integers(3, 11), rng.integers(2, 21)
            z = _random_z(int(n), int(n_loci), seed + 50)
            g = grm_compute(z)
            brute = _brute_force_grm(z.z)
            rel = np.abs(g.g - brute) / np.maximum(np.abs(brute), 1e-30)
            assert rel.max() <= 1e-12 or np.abs(g.g - brute).max() <= 1e-14

    def test_diagonal_mean_is_one(self):
        g = grm_compute(_random_z(60, 100, 7))
        assert np.diag(g.g).mean() == pytest.approx(1.0, abs=1e-10)

    def test_offdiagonal_mean_forced_by_centering(self):
        g = grm_compute(_random_z(50, 80, 8))
        n = g.n_individuals
        off_sum = g.g.sum() - np.trace(g.g)
        mean_off = off_sum / (n * (n - 1))
        assert mean_off == pytest.approx(-1.0 / (n - 1), abs=1e-8)

    def test_row_sums_vanish(self):
        g = grm_compute(_random_z(40, 64, 9))
        assert np.abs(g.g.sum(axis=1)).max() <= 1e-8 * g.n_individuals

    def test_symmetry_exact(self):
        g = grm_compute(_random_z(30, 50, 10))
        assert np.array_equal(g.g, g.g.T)

    def test_rejects_degenerate_sizes(self):
        z = _random_z(5, 10, 1)
        single = type(z)(z.z[:1], z.col_means, z.col_sds)
        with pytest.raises(ValueError):
            grm_compute(single)


class TestSigmaPair:
    def test_unit_diagonal_gives_zero_deviation(self):
        g = GrmView(np.eye(4), 100)
        sp = sigma_pair(g, 0, 1)
        assert sp.a_i == 0.0 and sp.a_j == 0.0 and sp.b_ij == 0.0

    def test_definition_arithmetic(self):
        mat = np.eye(3)
        mat[0, 1] = mat[1, 0] = 0.02
        g = GrmView(mat, 10_000)
        sp = sigma_pair(g, 0, 1)
        assert sp.b_ij == pytest.approx(2.0)

    def test_rejects_equal_indices(self):
        g = GrmView(np.eye(3), 10)
        with pytest.raises(ValueError):
            sigma_pair(g, 1, 1)


class TestEventEnCheck:
    def test_identity_holds_trivially(self):
        g = GrmView(np.eye(10), 10_000)
        res = event_en_check(g, 0.05)
        assert res.holds and res.sup_diag_dev == 0.0 and res.sup_offdiag == 0.0

    def test_large_entry_breaks_event(self):
        mat = np.eye(10)
        mat[1, 2] = mat[2, 1] = 0.5
        res = event_en_check(GrmView(mat, 10_000), 0.05)
        assert not res.holds

    def test_eps_value(self):
        g = GrmView(np.eye(4), 10_000)
        res = event_en_check(g, 0.05)
        assert res.eps_n == pytest.approx(10_000 ** -0.45)

    @pytest.mark.parametrize("gamma", [0.0, 0.1, -0.3, 0.5])
    def test_gamma_domain(self, gamma):
        with pytest.raises(ValueError):
            event_en_check(GrmView(np.eye(3), 100), gamma)

    def test_typical_simulation_scale_rarely_holds(self):
        # At n = 200, N = 10^4 the tolerance N**-0.45 ~ 0.016 sits below the
        # expected maximum of ~200 diagonal (sd ~ sqrt(2/N)) and ~2e4
        # off-diagonal (sd ~ 1/sqrt(N)) deviations, so the event is an
        # asymptotic statement that essentially never holds at this scale.
        hits = 0
        for seed in range(5):
            g = grm_compute(_random_z(200, 10_000, 100 + seed, kind="standard-normal"))
            if event_en_check(g, 0.05).holds:
                hits += 1
        assert hits == 0


def _dense_en_values(g, gamma):
    # the whole-matrix formula the panel sweep replaced
    diag = np.diag(g.g)
    sup_diag = float(np.abs(diag - 1.0).max())
    off = np.abs(g.g - np.diag(diag))
    np.fill_diagonal(off, 0.0)
    sup_off = float(off.max())
    eps_n = float(g.n_loci) ** -(0.5 - gamma)
    return bool(sup_diag <= eps_n and sup_off <= eps_n), sup_diag, sup_off, eps_n


class TestEventEnCheckPanels:
    @pytest.mark.parametrize("n", [2, 255, 256, 257, 600])
    @pytest.mark.parametrize("rows", [None, 7])
    def test_exactly_the_dense_formula(self, monkeypatch, n, rows):
        if rows is not None:
            monkeypatch.setattr(simulate_module, "_BUFFER_BYTES", rows * 8 * n)
        g = grm_compute(_random_z(n, 50, n))
        res = event_en_check(g, 0.05)
        assert (res.holds, res.sup_diag_dev, res.sup_offdiag, res.eps_n) == \
            _dense_en_values(g, 0.05)

    def test_largest_entry_in_a_late_panel_and_nan(self):
        mat = np.eye(600)
        mat[599, 3] = mat[3, 599] = -0.25
        assert event_en_check(GrmView(mat, 10_000), 0.05).sup_offdiag == 0.25
        mat[598, 597] = np.nan
        assert np.isnan(event_en_check(GrmView(mat, 10_000), 0.05).sup_offdiag)

    def test_peak_memory_is_panels_not_matrices(self):
        n = 3000
        g = grm_compute(standardize(np.random.default_rng(4).normal(size=(n, 20))))
        tracemalloc.start()
        try:
            event_en_check(g, 0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * n * n * 8


def _symmetrized_grm(z):
    # the formula grm_compute used before it read the padded buffer as is:
    # a padded copy of z, then (G + G') / 2
    n, n_loci = z.shape
    padded = np.concatenate([z, np.zeros((-n % 8, n_loci))])
    full = padded @ padded.T
    return (full[:n, :n] + full[:n, :n].T) * (0.5 / n_loci)


def _loaded_z(z_study, tmp_path):
    # z_study as load_dataset returns it, read back from a container
    n = z_study.n_individuals
    y = np.arange(n) % 2 == 0
    sample = AscertainedSample(indices=np.arange(n), y=y, w=np.where(y, 1.0, -1.0),
                               z_study=z_study)
    study = StudyData(sample=sample, design=design_from_prevalences(0.1, 0.5),
                      liability=LiabilityParams(0.5),
                      population_size=10 * n, seed=0, genotype_kind="standard-normal")
    path = tmp_path / "study.hccd"
    save_dataset(path, study)
    return load_dataset(path).sample.z_study


class TestPaddedProduct:
    @pytest.mark.parametrize("n", [2, 7, 8, 9, 255, 257])
    @pytest.mark.parametrize("source", ["standardize", "load_dataset"])
    def test_same_bits_as_symmetrized_product(self, tmp_path, n, source):
        z = _random_z(n, 300, n)
        if source == "load_dataset":
            z = _loaded_z(z, tmp_path)
        g = grm_compute(z)
        assert g.g.shape == (n, n)
        assert np.array_equal(g.g, _symmetrized_grm(z.z))
        assert np.array_equal(g.g, g.g.T)

    @pytest.mark.parametrize("n", [3000, 3001])
    def test_peak_memory_is_one_padded_product(self, n):
        # 3001 rows need padding; a copy of z (24 MB at 1000 loci) or a
        # second n x n array would break the bound
        z = standardize(np.random.default_rng(5).normal(size=(n, 1000)))
        rows = z.padded.shape[0]
        tracemalloc.start()
        try:
            grm_compute(z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= rows * rows * 8 + 8e6


class TestMeanSquareOffdiagonal:
    def test_concentrates_near_finite_size_mean(self):
        # E[stat] = (n-1)/N * E[Z1^2 Z2^2] + (N-1)/(N(n-1)): the second term
        # comes from the -1/(n-1) pair correlation that empirical centering
        # forces, and is NOT negligible at n=200, N=1e4 (25% of n/N).
        n, n_loci = 200, 10_000
        g = grm_compute(_random_z(n, n_loci, 13))
        stat = mean_square_offdiagonal(g)
        predicted = (n - 1) / n_loci + (n_loci - 1) / (n_loci * (n - 1))
        assert stat == pytest.approx(predicted, rel=0.10)

    def test_asymptotic_ratio_dominates_for_larger_n(self):
        # at fixed n/N the finite-size offset decays like N/(n(n-1))
        n, n_loci = 500, 25_000
        g = grm_compute(_random_z(n, n_loci, 131))
        stat = mean_square_offdiagonal(g)
        assert stat == pytest.approx(n / n_loci, rel=0.15)

    def test_brute_force_identity(self):
        g = grm_compute(_random_z(8, 12, 14))
        manual = sum(
            g.g[i, j] ** 2
            for i in range(8)
            for j in range(8)
            if i != j
        ) / 8
        assert mean_square_offdiagonal(g) == pytest.approx(manual, rel=1e-12)

    @pytest.mark.parametrize("n", [2, 255, 256, 257, 600])
    def test_matches_dense_formula(self, n):
        g = grm_compute(_random_z(n, 50, n))
        sq = g.g * g.g
        dense = float(sq.sum() - np.trace(sq)) / n
        assert mean_square_offdiagonal(g) == pytest.approx(dense, rel=1e-12)

    @pytest.mark.parametrize("rows", [7, 1000])
    def test_panel_height_does_not_change_value(self, monkeypatch, rows):
        g = grm_compute(_random_z(600, 50, 6))
        default = mean_square_offdiagonal(g)
        monkeypatch.setattr(simulate_module, "_BUFFER_BYTES", rows * 8 * 600)
        assert mean_square_offdiagonal(g) == default

    @pytest.mark.parametrize("n, seed, panels", [(300, 3, 1), (372, 3, 2), (495, 5, 2),
                                                 (697, 7, 4)])
    def test_equals_the_first_order_squared_sum_over_n(self, n, seed, panels):
        # the same panel sums as the first-order pass's second one, bit for
        # bit, so a replication could take its statistic from that pass
        g = grm_compute(_random_z(n, 50, seed))
        assert len(list(grm_module._offdiagonal_panels(g.g))) == panels
        w = np.random.default_rng(seed).standard_normal(n)
        assert mean_square_offdiagonal(g) == _pair_sums(w, g.g)[1] / n

    def test_peak_memory_is_panels_not_matrices(self):
        n = 3000
        g = grm_compute(standardize(np.random.default_rng(7).normal(size=(n, 20))))
        tracemalloc.start()
        try:
            mean_square_offdiagonal(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * n * n * 8


class TestZPropertySuite:
    def test_exact_identities_every_realization(self):
        rs = rng_create(15)
        dist = make_distribution("binomial-2-p", 500, rs.spawn(0))
        report = z_property_suite(dist, n=50, n_loci=500, reps=20, rs=rs.spawn(1))
        assert report.max_abs_col_sum <= 1e-9 * 50
        assert report.max_abs_sumsq_minus_n <= 1e-8 * 50

    def test_pair_product_matches_exchangeability_value(self):
        # >= 1e6 effective samples at n = 50: estimate within 3 SE of -1/49
        # 101 reps: a handful of degenerate columns get dropped per replicate
        rs = rng_create(16)
        dist = make_distribution("binomial-2-p", 10_000, rs.spawn(0))
        report = z_property_suite(dist, n=50, n_loci=10_000, reps=101, rs=rs.spawn(1))
        est = report.pair_product
        assert est.n_samples >= 1_000_000
        assert abs(est.estimate - (-1.0 / 49.0)) <= 3.0 * est.std_error

    def test_square_pair_product_near_one(self):
        rs = rng_create(17)
        dist = make_distribution("binomial-2-p", 5000, rs.spawn(0))
        report = z_property_suite(dist, n=200, n_loci=5000, reps=40, rs=rs.spawn(1))
        est = report.square_pair_product
        assert abs(est.estimate - 1.0) <= 3.0 * est.std_error + 0.05

    def test_even_moments_bounded(self):
        rs = rng_create(18)
        dist = make_distribution("binomial-2-p", 2000, rs.spawn(0))
        report = z_property_suite(dist, n=50, n_loci=2000, reps=10, rs=rs.spawn(1))
        assert report.even_moments[2].estimate == pytest.approx(1.0, abs=0.05)
        for p in (4, 6):
            assert 0.0 < report.even_moments[p].estimate < 100.0


class TestGrmIO:
    def test_csv_roundtrip_values(self, tmp_path):
        g = grm_compute(_random_z(6, 20, 21))
        path = tmp_path / "grm.csv"
        grm_to_csv(path, g)
        back = np.array([
            [float(tok) for tok in line.split(",")]
            for line in path.read_text().strip().splitlines()
        ])
        np.testing.assert_array_equal(back, g.g)

    def test_csv_size_cap(self, tmp_path, monkeypatch):
        monkeypatch.setattr(grm_module, "_CSV_MAX_N", 4)
        g = GrmView(np.eye(5), 10)
        with pytest.raises(ValueError, match="exceeds CSV export cap 4"):
            grm_to_csv(tmp_path / "x.csv", g)
        assert not (tmp_path / "x.csv").exists()

    def test_binary_roundtrip(self, tmp_path):
        g = grm_compute(_random_z(9, 30, 22))
        path = tmp_path / "grm.bin"
        save_grm(path, g)
        back = load_grm(path)
        assert np.array_equal(back.g, g.g)
        assert back.n_loci == g.n_loci

    @pytest.mark.parametrize("n", [400, 403])
    def test_binary_bytes_are_the_rows_written_without_a_copy(self, tmp_path, n):
        # n = 403 leaves the matrix a non-contiguous view of the padded
        # product; its rows are still written without a copy of the matrix,
        # after the container's magic, header length and JSON header
        g = grm_compute(_random_z(n, 20, 24))
        path = tmp_path / "grm.bin"
        tracemalloc.start()
        try:
            save_grm(path, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        header = json.dumps({"arrays": [{"dtype": "float64", "name": "g", "shape": [n, n]}],
                             "n": n, "n_loci": 20, "version": 1},
                            separators=(",", ":")).encode()
        assert path.read_bytes() == (b"HCCG" + len(header).to_bytes(8, "little") + header
                                     + g.g.tobytes())
        assert peak < g.g.nbytes / 10
        back = load_grm(path)
        assert np.array_equal(back.g, g.g) and back.n_loci == 20

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_rows_names_path(self, tmp_path, n):
        # grm_compute never makes such a matrix; a damaged or foreign file may
        path = tmp_path / "grm.bin"
        save_grm(path, GrmView(np.eye(n), 5))
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: header n must be an integer >= 2, got {n}")):
            load_grm(path)

    def test_bad_magic_names_path(self, tmp_path):
        # a dataset's magic on a relationship matrix's container
        path = tmp_path / "grm.bin"
        save_grm(path, grm_compute(_random_z(10, 30, 23)))
        path.write_bytes(b"HCCD" + path.read_bytes()[4:])
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: not a relationship-matrix container (bad magic b'HCCD')")):
            load_grm(path)


class TestLayering:
    @staticmethod
    def _loaded_after(code):
        # the heritcc modules a fresh interpreter holds after running code
        code += "; print(*sorted(m for m in sys.modules if m.split('.')[0] == 'heritcc'))"
        env = dict(os.environ, PYTHONPATH=str(Path(grm_module.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.split()

    def test_grm_loads_only_simulate_and_numerics(self):
        # the relationship matrix takes its panel height from simulate's
        # block rule and sits below the moments, estimators and runners
        assert self._loaded_after("import sys, heritcc.grm") == [
            "heritcc", "heritcc.grm", "heritcc.numerics", "heritcc.simulate"]

    def test_designs_and_datasets_load_no_layer_above_simulate(self, tmp_path):
        # a design derives its pair-moment constants itself, so building
        # one, and saving and loading a study, imports no module above
        path = tmp_path / "study.hccd"
        code = ("import sys; from heritcc.simulate import *; "
                "design_from_prevalences(0.1, 0.5); "
                f"save_dataset({str(path)!r}, simulate_case_control_study(0.3, 0.2, 0.5, 30, 15, 21)); "
                f"load_dataset({str(path)!r})")
        assert self._loaded_after(code) == ["heritcc", "heritcc.numerics", "heritcc.simulate"]

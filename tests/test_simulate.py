"""Tests for population simulation and case-control ascertainment."""

import dataclasses
import json
import math
import pickle
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from heritcc import grm as grm_module
from heritcc import simulate as simulate_module
from heritcc.grm import grm_compute, load_grm, save_grm
from heritcc.numerics import RandomSource, rng_create
from heritcc.simulate import (
    AscertainedSample,
    GenotypeDistribution,
    LiabilityParams,
    StandardizedGenotypes,
    StudyData,
    StudyDesign,
    _DATASET_ARRAYS,
    _layout,
    ascertain,
    attach_study_genotypes,
    design_from_prevalences,
    load_dataset,
    make_distribution,
    population_sample,
    sample_genotype_matrix,
    save_dataset,
    simulate_case_control_study,
    simulate_population,
    standardize,
)


class TestStandardize:
    def test_hand_arithmetic_column(self):
        # mean 1, 1/n-normalized variance 2/3
        z = standardize(np.array([[0.0], [1.0], [2.0]]))
        expected = 1.0 / math.sqrt(2.0 / 3.0)
        np.testing.assert_allclose(z.z[:, 0], [-expected, 0.0, expected], atol=1e-6)
        assert z.z[2, 0] == pytest.approx(1.2247, abs=1e-4)

    @given(st.floats(min_value=-50, max_value=50))
    @settings(max_examples=25)
    def test_shift_invariance(self, c):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(40, 7))
        np.testing.assert_allclose(standardize(a + c).z, standardize(a).z, atol=1e-9)

    def test_column_identities(self):
        rs = rng_create(101)
        dist = make_distribution("binomial-2-p", 50, rs.spawn(0))
        a = sample_genotype_matrix(dist, 200, 50, rs.spawn(1))
        z = standardize(a)
        n = a.shape[0]
        assert np.abs(z.z.sum(axis=0)).max() <= 1e-10 * n
        assert np.abs((z.z**2).sum(axis=0) - n).max() <= 1e-8 * n

    def test_constant_columns_are_dropped(self):
        # constant columns first, in the middle and last: the rest keep the
        # bits that standardizing them alone gives
        a = np.random.default_rng(0).integers(0, 3, size=(10, 8)).astype(np.int8)
        a[:, [0, 4, 7]] = [1, 0, 2]
        polymorphic = [1, 2, 3, 5, 6]
        assert (a[:, polymorphic].std(axis=0) > 0.0).all()
        z, want = standardize(a), standardize(a[:, polymorphic])
        assert z.n_loci == 5
        for name in ("z", "col_means", "col_sds"):
            assert np.array_equal(getattr(z, name), getattr(want, name))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_non_finite_column_is_refused_and_named(self, bad, dtype):
        # refused before any arithmetic, which would warn on an infinity,
        # not dropped as a constant column
        a = np.array([[0.0, 1.0, 4.0], [1.0, 2.0, bad], [1.0, 3.0, 5.0]], dtype=dtype)
        with pytest.raises(ValueError, match="^column 2 holds a NaN or an infinity$"):
            standardize(a)

    @pytest.mark.parametrize("a", [np.ones((10, 3)), np.arange(4.0).reshape(1, 4)],
                             ids=["constant-columns", "one-row"])
    def test_all_constant_columns_are_refused(self, a):
        n, n_loci = a.shape
        with pytest.raises(ValueError, match=re.escape(
                f"all {n_loci} loci have zero empirical variance over {n} rows")):
            standardize(a)


def _dense_standardize(values):
    # the whole-matrix formulas whose bits standardize keeps
    work = values.astype(np.float64, copy=False)
    means = work.mean(axis=0)
    centered = work - means
    sds = np.sqrt(np.mean(centered * centered, axis=0))
    return centered / sds, means, sds


def _study_rows(kind, n, n_loci, seed):
    # raw rows as the pipeline passes them: row-major, in the kind's dtype
    # (int8 or float32); constant columns dropped
    rs = rng_create(seed)
    dist = make_distribution(kind, n_loci, rs.spawn(0))
    values = sample_genotype_matrix(dist, n, n_loci, rs.spawn(1))
    return np.ascontiguousarray(values[:, values.std(axis=0) > 0.0])


def _block_rows(monkeypatch, rows, n_loci):
    # a buffer budget of ``rows`` rows of ``n_loci`` float64 values
    monkeypatch.setattr(simulate_module, "_BUFFER_BYTES", rows * 8 * n_loci)


class TestRowOrderReductions:
    # standardize and the standard-normal draw take their column sums from
    # np.add.reduce(axis=0) and einsum("ij,ij->j") of a row-major matrix;
    # their bits rest on both adding the rows one after the other
    @pytest.mark.parametrize("shape", [(9, 5), (300, 40), (1001, 333), (9, 9000)])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_axis0_reductions_add_rows_in_order(self, shape, dtype):
        gen = np.random.default_rng(shape[0] * shape[1])
        scales = np.exp(gen.uniform(-20.0, 20.0, size=(shape[0], 1)))
        x = (gen.standard_normal(shape) * scales).astype(dtype)
        # float64 input as standardize reduces it, float32 as the draw does
        wide = {} if dtype == np.float64 else {"dtype": np.float64}
        acc = acc_sq = np.zeros(shape[1])
        for row in x.astype(np.float64):
            acc = acc + row
            acc_sq = acc_sq + row * row
        assert np.array_equal(np.add.reduce(x, axis=0, **wide), acc)
        assert np.array_equal(np.einsum("ij,ij->j", x, x, **wide), acc_sq)
        # along the contiguous axis numpy sums pairwise: other bits (with 9
        # rows the largest row may fix a column's bits in either order)
        if shape[0] >= 300:
            column_major = np.ascontiguousarray(x.T)
            assert not np.array_equal(np.add.reduce(column_major, axis=1, **wide), acc)


class TestStandardizeBitsAndBuffer:
    @pytest.mark.parametrize("kind", ["binomial-2-p", "standard-normal", "rademacher"])
    @pytest.mark.parametrize("n", [2, 7, 8, 9, 300])
    def test_same_bits_as_whole_matrix_formulas(self, kind, n):
        values = _study_rows(kind, n, 40, n)
        z = standardize(values)
        for got, want in zip((z.z, z.col_means, z.col_sds), _dense_standardize(values)):
            assert np.array_equal(got, want)
        assert z.padded.shape == (n + -n % 8, values.shape[1])
        assert not z.padded[n:].any()
        assert np.shares_memory(z.z, z.padded)

    def test_block_budget_does_not_change_bits(self, monkeypatch):
        # a budget of 5 rows shrinks every blocked pass's buffer; standardize
        # reduces the whole matrix and must not read it
        values = _study_rows("binomial-2-p", 300, 40, 300)
        whole = standardize(values)
        _block_rows(monkeypatch, 5, values.shape[1])
        blocked = standardize(values)
        for name in ("z", "col_means", "col_sds"):
            assert np.array_equal(getattr(blocked, name), getattr(whole, name))

    def test_memory_layout_does_not_change_bits(self):
        # numpy sums a column-major matrix pairwise down its columns;
        # standardize copies the values into its row-major output first
        values = _study_rows("standard-normal", 300, 40, 3)
        row_major, column_major = standardize(values), standardize(np.asfortranarray(values))
        for name in ("z", "col_means", "col_sds"):
            assert np.array_equal(getattr(row_major, name), getattr(column_major, name))

    def test_peak_memory_is_the_padded_output(self):
        values = _study_rows("binomial-2-p", 3000, 1000, 8)
        tracemalloc.start()
        try:
            z = standardize(values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= z.padded.nbytes + (1 << 20)

    def test_z_outside_a_padded_buffer_is_copied_into_one(self):
        # an owning array, a column-major one, and the rows of an 8-row
        # buffer whose tail is not zero
        rows = np.arange(6.0).reshape(3, 2)
        for z in (rows, np.asfortranarray(rows), np.vstack([rows, np.ones((5, 2))])[:3]):
            view = StandardizedGenotypes(z, None, None)
            assert view.padded.shape == (8, 2) and not view.padded[3:].any()
            assert np.array_equal(view.z, rows)
            assert np.shares_memory(view.z, view.padded)
        kept = StandardizedGenotypes(view.z, None, None)
        assert kept.padded is view.padded
        replaced = dataclasses.replace(kept, z=rows)
        assert np.array_equal(replaced.z, rows) and replaced.padded is not kept.padded

    def test_pickle_keeps_z_a_view_of_its_buffer(self):
        z = standardize(_study_rows("standard-normal", 11, 5, 2))
        back = pickle.loads(pickle.dumps(z))
        assert np.array_equal(back.z, z.z) and np.array_equal(back.padded, z.padded)
        assert np.shares_memory(back.z, back.padded)


class TestDesign:
    def test_equal_prevalences_no_oversampling(self):
        d = design_from_prevalences(0.3, 0.3)
        assert d.p_control == pytest.approx(1.0)
        assert d.p_case == 1.0

    @pytest.mark.parametrize(
        "k,p,expected_pc,expected_t",
        [(0.01, 0.5, 1.0 / 99.0, 2.3263), (0.1, 0.5, 1.0 / 9.0, 1.2816)],
    )
    def test_known_designs(self, k, p, expected_pc, expected_t):
        d = design_from_prevalences(k, p)
        assert d.p_control == pytest.approx(expected_pc, rel=1e-6)
        assert d.threshold == pytest.approx(expected_t, abs=1e-4)

    def test_monte_carlo_selection_recovers_study_prevalence(self):
        # independent check of the control-thinning probability: select from a
        # population with prevalence K and confirm the study hits P
        k, p = 0.1, 0.5
        d = design_from_prevalences(k, p)
        rng = np.random.default_rng(77)
        y = rng.random(1_000_000) < k
        keep = y | (rng.random(y.shape[0]) < d.p_control)
        study_prev = y[keep].mean()
        assert study_prev == pytest.approx(p, abs=0.01)

    def test_threshold_keeps_the_digits_of_a_small_prevalence(self):
        # t = -quantile(K), not quantile(1 - K), which rounds K away
        ks = np.logspace(-12, math.log10(0.49), 3000)
        for k, expected in zip(ks, norm.isf(ks)):
            t = design_from_prevalences(k, 0.5).threshold
            assert abs(t - expected) <= 8 * math.ulp(expected), k

    @pytest.mark.parametrize("k,p", [(0.6, 0.5), (0.0, 0.5), (0.5, 1.0), (-0.1, 0.5)])
    def test_rejects_bad_prevalences(self, k, p):
        with pytest.raises(ValueError):
            design_from_prevalences(k, p)

    def test_rejects_a_prevalence_whose_square_underflows(self):
        with pytest.raises(ValueError, match="too small: K\\^2 underflows to 0"):
            design_from_prevalences(1e-200, 0.5)
        assert design_from_prevalences(1e-150, 0.5).slope > 0.0


def _derived(design):
    """The values a design derives from its five fields, by name."""
    return {f.name: getattr(design, f.name) for f in dataclasses.fields(design) if not f.init}


class TestDesignConstants:
    def test_equality_hash_and_repr_read_the_five_fields(self):
        a, b = design_from_prevalences(0.1, 0.5), design_from_prevalences(0.1, 0.5)
        assert a == b and hash(a) == hash(b)
        fields = (0.1, 0.5, a.threshold, 1.0, a.p_control)
        assert hash(a) == hash(fields) and a == StudyDesign(*fields)
        assert repr(a) == ("StudyDesign(population_prevalence=0.1, study_prevalence=0.5, "
                           "threshold=1.2815515655446008, p_case=1.0, "
                           "p_control=0.11111111111111112)")
        assert set(_derived(a)) == {"slope", "ratio_weights", "weight_factors"}
        assert a != design_from_prevalences(0.1, 0.4)

    def test_replace_derives_the_values_afresh(self):
        design = design_from_prevalences(0.1, 0.5)
        for changes in ({"threshold": design.threshold + 1e-8},
                        {"population_prevalence": 0.2, "p_control": 0.3},
                        {"study_prevalence": 0.6}):
            moved = dataclasses.replace(design, **changes)
            fresh = StudyDesign(*(getattr(moved, f) for f in
                                  ("population_prevalence", "study_prevalence", "threshold",
                                   "p_case", "p_control")))
            assert _derived(moved) == _derived(fresh)
            assert _derived(moved) != _derived(design)
        with pytest.raises(ValueError):
            dataclasses.replace(design, slope=1.0)

    def test_pickle_keeps_the_design_and_its_values(self):
        design = design_from_prevalences(0.005, 0.3)
        back = pickle.loads(pickle.dumps(design))
        assert back == design and hash(back) == hash(design) and repr(back) == repr(design)
        assert _derived(back) == _derived(design)


class TestSimulatePopulation:
    @pytest.mark.parametrize("n_freqs", [1, 3])
    def test_locus_count_must_match_the_distribution(self, n_freqs):
        dist = GenotypeDistribution("binomial-2-p", np.full(n_freqs, 0.3))
        message = f"distribution has {n_freqs} loci, requested 5"
        with pytest.raises(ValueError, match=message):
            sample_genotype_matrix(dist, 10, 5, RandomSource(1))
        with pytest.raises(ValueError, match=message):
            population_sample(dist, 10, 5, LiabilityParams(0.5),
                              design_from_prevalences(0.1, 0.5), RandomSource(1))

    @pytest.mark.parametrize("kind,freqs,message", [
        ("binomial", None, "unknown genotype kind 'binomial', expected one of "
                           "('binomial-2-p', 'standard-normal', 'rademacher')"),
        ("binomial-2-p", None, "binomial-2-p needs per-locus allele frequencies"),
        ("binomial-2-p", [[0.3, 0.5]], "allele frequencies must be a 1-d vector "
                                       "strictly inside (0, 1)"),
        ("binomial-2-p", [0.3, 1.0], "allele frequencies must be a 1-d vector "
                                     "strictly inside (0, 1)"),
    ], ids=["unknown-kind", "no-frequencies", "two-dimensional", "frequency-one"])
    def test_distribution_refusals_are_named(self, kind, freqs, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            GenotypeDistribution(kind, freqs)

    def test_constant_population_column_gets_weight_zero(self):
        # a frequency of 1e-12 draws no allele in 50 rows: the liability pass
        # mixes the other two columns only, with the effects they drew
        n, h = 50, 0.5
        dist = GenotypeDistribution("binomial-2-p", [0.3, 1e-12, 0.5])
        raw, liab, _ = population_sample(dist, n, 3, LiabilityParams(h),
                                         design_from_prevalences(0.1, 0.5), RandomSource(1))
        x = raw[np.arange(n)].astype(np.float64)
        assert not x[:, 1].any() and (x[:, [0, 2]].std(axis=0) > 0.0).all()
        kept = x[:, [0, 2]]
        means = kept.sum(axis=0) / n
        sds = np.sqrt((kept * kept).sum(axis=0) / n - means * means)
        gen = RandomSource(1).spawn(1).generator
        v = (gen.standard_normal(3) * math.sqrt(h / 3))[[0, 2]] / sds
        e = gen.standard_normal(n) * math.sqrt(1.0 - h)
        np.testing.assert_allclose(liab, (kept - means) @ v + e, rtol=0.0, atol=1e-15)

    def test_list_of_frequencies_draws_as_the_equal_array(self):
        freqs = [0.3, 0.5, 0.05, 0.9]
        listed, array = (GenotypeDistribution("binomial-2-p", f) for f in (freqs, np.array(freqs)))
        assert listed.n_loci == 4
        assert np.array_equal(sample_genotype_matrix(listed, 50, 4, RandomSource(7)),
                              sample_genotype_matrix(array, 50, 4, RandomSource(7)))

    def test_zero_heritability_is_pure_environment(self):
        rs = rng_create(3)
        a = sample_genotype_matrix(make_distribution("standard-normal", 20, rs), 500, 20, rs.spawn(0))
        z = standardize(a)
        design = design_from_prevalences(0.1, 0.5)
        liab, _ = simulate_population(z, LiabilityParams(0.0), design, rs.spawn(1))
        # no genetic signal: correlation with any fixed genetic direction is noise
        u_fixed = rng_create(99).generator.standard_normal(20)
        proj = z.z @ u_fixed
        corr = np.corrcoef(liab, proj)[0, 1]
        assert abs(corr) < 3.0 / math.sqrt(500)

    def test_population_prevalence_and_variance(self):
        # big blocked run: prevalence matches K and liability variance is 1
        k = 0.1
        design = design_from_prevalences(k, 0.5)
        lp = LiabilityParams(0.3)
        rs = RandomSource(2026)
        dist = make_distribution("binomial-2-p", 256, rs.spawn(3))
        _, liab, y = population_sample(dist, 1_000_000, 256, lp, design, rs)
        assert y.mean() == pytest.approx(k, abs=0.001)
        assert liab.var() == pytest.approx(1.0, abs=0.01)

    def test_blocked_path_matches_dense_route(self, monkeypatch):
        # same substreams => identical draws; only float association differs
        lp = LiabilityParams(0.5)
        design = design_from_prevalences(0.1, 0.5)
        seed = 424242
        rs = RandomSource(seed)
        dist = make_distribution("binomial-2-p", 64, rs.spawn(3))
        _block_rows(monkeypatch, 50, 64)
        raw, liab_blocked, y_blocked = population_sample(dist, 333, 64, lp, design, rs)
        dense_rs = RandomSource(seed)
        a = sample_genotype_matrix(dist, 333, 64, dense_rs.spawn(0))
        assert np.array_equal(a, raw[np.arange(333)])
        liab_dense, y_dense = simulate_population(
            standardize(a), lp, design, dense_rs.spawn(1)
        )
        np.testing.assert_allclose(liab_blocked, liab_dense, atol=1e-9)
        assert np.array_equal(y_blocked, y_dense)

    def test_block_size_does_not_change_results(self, monkeypatch):
        lp = LiabilityParams(0.5)
        design = design_from_prevalences(0.1, 0.5)
        dist = make_distribution("binomial-2-p", 32, RandomSource(7).spawn(3))
        _block_rows(monkeypatch, 17, 32)
        _, l1, _ = population_sample(dist, 200, 32, lp, design, RandomSource(7))
        _block_rows(monkeypatch, 200, 32)
        _, l2, _ = population_sample(dist, 200, 32, lp, design, RandomSource(7))
        assert np.array_equal(l1, l2)

    @pytest.mark.parametrize("kind", ["binomial-2-p", "rademacher", "standard-normal"])
    def test_every_kind_exact_across_block_sizes_and_dense_route(self, monkeypatch, kind):
        # genotypes, liabilities and phenotypes are the same bits whatever
        # the block height of the draw and the liability pass (None is the
        # default budget) and the genotypes match the dense route
        lp = LiabilityParams(0.5)
        design = design_from_prevalences(0.1, 0.5)
        dist = make_distribution(kind, 48, RandomSource(31).spawn(3))
        runs = []
        for rows in (None, 1, 16, 64, 301, 4096):
            if rows is not None:
                _block_rows(monkeypatch, rows, 48)
            runs.append(population_sample(dist, 301, 48, lp, design, RandomSource(31)))
        every_row = np.arange(301)
        raw, liab, y = runs[0]
        for raw_b, liab_b, y_b in runs[1:]:
            assert np.array_equal(raw_b[every_row], raw[every_row])
            assert np.array_equal(liab_b, liab)
            assert np.array_equal(y_b, y)
        dense_rs = RandomSource(31)
        a = sample_genotype_matrix(dist, 301, 48, dense_rs.spawn(0))
        assert a.dtype == raw[every_row].dtype
        assert np.array_equal(a, raw[every_row])
        liab_dense, y_dense = simulate_population(standardize(a), lp, design, dense_rs.spawn(1))
        np.testing.assert_allclose(liab, liab_dense, atol=1e-9)
        assert np.array_equal(y, y_dense)

    def test_standard_normal_liabilities_from_whole_matrix_sums(self):
        # the column sums add the float32 rows in order, as sum(axis=0) of
        # the whole matrix does, however many blocks the draw takes
        n, m, h = 3001, 1003, 0.5
        dist = make_distribution("standard-normal", m, RandomSource(17).spawn(3))
        raw, liab, _ = population_sample(dist, n, m, LiabilityParams(h),
                                         design_from_prevalences(0.1, 0.5), RandomSource(17))
        a = sample_genotype_matrix(dist, n, m, RandomSource(17).spawn(0))
        assert np.array_equal(raw, a)
        x = a.astype(np.float64)
        means = x.sum(axis=0) / n
        sds = np.sqrt((x * x).sum(axis=0) / n - means * means)
        gen = RandomSource(17).spawn(1).generator
        v = gen.standard_normal(m) * math.sqrt(h / m) / sds
        e = gen.standard_normal(n) * math.sqrt(1.0 - h)
        assert np.array_equal(liab, np.einsum("ij,j->i", a, v) - np.einsum("j,j->", means, v) + e)

    @pytest.mark.parametrize("kind", ["binomial-2-p", "rademacher", "standard-normal"])
    @pytest.mark.parametrize("n_loci", [48, 1003])
    def test_rows_are_the_dense_rows(self, monkeypatch, kind, n_loci):
        # M = 1003 leaves 5 pad bits in each packed row; the first and last
        # rows, unsorted and repeated indices and slices all read the dense
        # route's values
        n = 301
        dist = make_distribution(kind, n_loci, RandomSource(41).spawn(3))
        _block_rows(monkeypatch, 37, n_loci)
        raw, _, _ = population_sample(dist, n, n_loci, LiabilityParams(0.5),
                                      design_from_prevalences(0.1, 0.5), RandomSource(41))
        dense = sample_genotype_matrix(dist, n, n_loci, RandomSource(41).spawn(0))
        for indices in (np.array([0]), np.array([n - 1]), np.array([n - 1, 5, 0, 200, 5]),
                        np.arange(n), slice(0, 1), slice(290, n), np.array([], dtype=np.int64)):
            got = raw[indices]
            assert got.dtype == dense.dtype and got.flags.c_contiguous
            assert np.array_equal(got, dense[indices])

    @pytest.mark.parametrize("kind", ["binomial-2-p", "rademacher"])
    @pytest.mark.parametrize("rows", [1, 255, 256, 65_535, 65_536])
    def test_column_counts_exact_at_every_block_height(self, monkeypatch, kind, rows):
        # a block's counts sum in uint8 up to 255 rows, uint16 up to 65,535
        # and uint32 above; allele frequencies next to 1 make every row of a
        # block a hit on both planes, the most each accumulator must hold
        n_loci, n = 4, 2 * rows + 3
        dist = (GenotypeDistribution(kind, np.array([1.0 - 1e-12, 0.5, 0.95, 1e-12]))
                if kind == "binomial-2-p" else GenotypeDistribution(kind))
        _block_rows(monkeypatch, rows, n_loci)
        _, col_sum, col_sumsq = simulate_module._draw_population(
            dist, n, n_loci, RandomSource(9).generator)
        dense = sample_genotype_matrix(dist, n, n_loci, RandomSource(9)).astype(np.int64)
        assert np.array_equal(col_sum, dense.sum(axis=0))
        assert np.array_equal(col_sumsq, (dense * dense).sum(axis=0))
        if kind == "binomial-2-p":
            assert col_sum[0] == 2 * n

    @pytest.mark.parametrize("kind", ["binomial-2-p", "rademacher"])
    def test_count_kinds_peak_memory_is_the_bit_planes(self, kind):
        # blocks go through reused buffers: the peak is the N x M / 8 bytes
        # of each bit plane plus a few MB, not an int8 matrix or float64
        # copies of whole blocks
        n, m = 20_000, 1_000
        planes = 2 if kind == "binomial-2-p" else 1
        dist = make_distribution(kind, m, RandomSource(5).spawn(3))
        lp = LiabilityParams(0.5)
        design = design_from_prevalences(0.1, 0.5)
        tracemalloc.start()
        try:
            raw, _, _ = population_sample(dist, n, m, lp, design, RandomSource(5))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert raw.planes.nbytes == planes * n * m // 8
        assert peak <= planes * n * m / 8 + 8e6

    def test_standard_normal_peak_memory_is_the_float32_matrix(self):
        # the draw goes through the same reused buffer: the peak is the
        # float32 matrix plus a few MB, not float64 copies of whole blocks
        n, m = 4096, 2000
        dist = make_distribution("standard-normal", m, RandomSource(6).spawn(3))
        tracemalloc.start()
        try:
            raw, _, _ = population_sample(dist, n, m, LiabilityParams(0.5),
                                          design_from_prevalences(0.1, 0.5), RandomSource(6))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert raw.nbytes == n * m * 4
        assert peak <= n * m * 4 + 8e6


class TestAscertain:
    def _design(self, k=0.1, p=0.5):
        return design_from_prevalences(k, p)

    def test_p_control_one_selects_everyone(self):
        d = self._design(0.3, 0.3)
        y = np.array([True, False, False, True, False])
        sample = ascertain(y, d, rng_create(1))
        assert sample.indices.shape[0] == 5

    def test_every_case_selected(self):
        d = self._design()
        rng = np.random.default_rng(8)
        y = rng.random(5000) < 0.1
        sample = ascertain(y, d, rng_create(2))
        assert sample.n_cases == int(y.sum())

    def test_w_values_at_half(self):
        # P = 1/2: case w = +1, control w = -1, exactly
        d = self._design(0.1, 0.5)
        y = np.array([True, False, True])
        sample = ascertain(y, d, rng_create(3))
        case_w = sample.w[sample.y]
        control_w = sample.w[~sample.y]
        assert set(case_w.tolist()) <= {1.0}
        assert set(control_w.tolist()) <= {-1.0}

    def test_w_values_general_p(self):
        d = design_from_prevalences(0.05, 0.4)
        y = np.ones(4, dtype=bool)
        y[1] = False
        sample = ascertain(y, d, rng_create(4))
        expected_case = math.sqrt((1 - 0.4) / 0.4)
        expected_control = -math.sqrt(0.4 / (1 - 0.4))
        for w, is_case in zip(sample.w, sample.y):
            assert w == pytest.approx(expected_case if is_case else expected_control)

    def test_w_products_take_three_values(self):
        d = self._design(0.1, 0.4)
        rng = np.random.default_rng(11)
        y = rng.random(3000) < 0.1
        sample = ascertain(y, d, rng_create(5))
        products = np.outer(sample.w, sample.w)
        p = 0.4
        expected = {(1 - p) / p, -1.0, p / (1 - p)}
        seen = {round(v, 12) for v in np.unique(products.round(12))}
        assert seen <= {round(v, 12) for v in expected}

    def test_study_prevalence_concentrates(self):
        d = self._design(0.05, 0.5)
        hits = 0
        for seed in range(40):
            rng = np.random.default_rng(1000 + seed)
            y = rng.random(40_000) < 0.05
            sample = ascertain(y, d, rng_create(seed, 9))
            n_study = sample.y.shape[0]
            prev = sample.n_cases / n_study
            if abs(prev - 0.5) <= 4.0 * math.sqrt(0.25 / n_study):
                hits += 1
        assert hits >= 39  # >= 99% of seeds in spec terms, allow one miss

    def test_bit_identical_reproducibility(self):
        d = self._design()
        y = np.random.default_rng(0).random(2000) < 0.1
        s1 = ascertain(y, d, rng_create(42, 1))
        s2 = ascertain(y, d, rng_create(42, 1))
        assert np.array_equal(s1.indices, s2.indices)
        assert np.array_equal(s1.w, s2.w)


class TestStudyPipeline:
    def test_study_prevalence_and_size(self):
        study = simulate_case_control_study(
            heritability=0.5, population_prevalence=0.1, study_prevalence=0.5,
            n_loci=400, target_cases=100, seed=12,
        )
        sample = study.sample
        n = sample.y.shape[0]
        assert study.population_size == 1000
        assert abs(sample.n_cases / n - 0.5) < 0.15
        assert sample.z_study is not None
        assert sample.z_study.n_individuals == n
        # study-level standardization identities
        assert np.abs(sample.z_study.z.sum(axis=0)).max() <= 1e-8 * n

    def test_deterministic_given_seed(self):
        kwargs = dict(heritability=0.4, population_prevalence=0.1,
                      study_prevalence=0.5, n_loci=100, target_cases=30, seed=77)
        a = simulate_case_control_study(**kwargs)
        b = simulate_case_control_study(**kwargs)
        assert np.array_equal(a.sample.indices, b.sample.indices)
        assert np.array_equal(a.sample.z_study.z, b.sample.z_study.z)
        assert np.array_equal(a.sample.w, b.sample.w)

    def test_bayes_check_study_prevalence_rare_disease(self):
        # K=0.01, P=0.5: selection thinning must push prevalence to 1/2.
        # Loci count must be moderately large or the spread of per-individual
        # liability variance inflates the far tail.
        study = simulate_case_control_study(
            heritability=0.5, population_prevalence=0.01, study_prevalence=0.5,
            n_loci=2000, target_cases=400, seed=5,
        )
        prev = study.sample.n_cases / study.sample.y.shape[0]
        assert prev == pytest.approx(0.5, abs=0.05)

    def test_rejects_zero_loci(self):
        with pytest.raises(ValueError, match="n_loci must be >= 1"):
            simulate_case_control_study(0.5, 0.1, 0.5, n_loci=0, target_cases=10, seed=1)

    def test_array_holders_compare_by_identity(self):
        # equal arrays have no single truth value, so these classes compare
        # as objects: == neither raises nor looks into the arrays
        a, b = (simulate_case_control_study(0.5, 0.2, 0.5, n_loci=32, target_cases=10, seed=4)
                for _ in range(2))
        dists = [make_distribution("binomial-2-p", 8, RandomSource(1)) for _ in range(2)]
        for x, y in ((a, b), (a.sample, b.sample), (a.sample.z_study, b.sample.z_study), dists):
            assert (x == y) is False and x == x
            assert hash(x) == hash(x)

    def test_loci_constant_in_a_small_study_are_dropped(self, tmp_path):
        # 19 rows of count genotypes meet 4 loci constant over them, which
        # the relationship matrix and the dataset leave out
        study = simulate_case_control_study(0.5, 0.2, 0.5, n_loci=400, target_cases=10,
                                            seed=2, genotype_kind="binomial-2-p")
        assert study.n_loci == 396
        assert grm_compute(study.sample.z_study).n_loci == study.n_loci
        path = tmp_path / "study.hccd"
        save_dataset(path, study)
        data = path.read_bytes()
        header = json.loads(data[12:12 + int.from_bytes(data[4:12], "little")])
        loaded = load_dataset(path)
        assert header["n_loci"] == loaded.n_loci == study.n_loci
        assert np.array_equal(loaded.sample.z_study.z, study.sample.z_study.z)

    def test_loci_constant_in_a_small_population_are_dropped(self):
        # N = 50 draws a locus constant over the whole population (column
        # 129): the liability pass leaves it out, and so does the study
        study = simulate_case_control_study(0.5, 0.2, 0.5, n_loci=400, target_cases=10, seed=5)
        assert study.population_size == 50
        assert study.n_loci < 400
        assert grm_compute(study.sample.z_study).n_loci == study.n_loci

    @pytest.mark.parametrize("kind", ["binomial-2-p", "standard-normal", "rademacher"])
    def test_all_genotype_kinds_run(self, kind):
        study = simulate_case_control_study(
            heritability=0.5, population_prevalence=0.2, study_prevalence=0.5,
            n_loci=64, target_cases=25, seed=3, genotype_kind=kind,
        )
        assert study.sample.z_study.n_loci == 64


# the two containers: the loader, the name its bad-magic refusal gives, and
# the layout table of its arrays
CONTAINERS = {
    "dataset": (load_dataset, "dataset", _DATASET_ARRAYS),
    "grm": (load_grm, "relationship-matrix", grm_module._GRM_ARRAYS),
}


class TestDatasetContainer:
    # a dataset, and the framing it shares with a relationship matrix: the
    # tests that take ``container`` run against both readers
    def test_roundtrip(self, tmp_path):
        study = simulate_case_control_study(
            heritability=0.5, population_prevalence=0.1, study_prevalence=0.5,
            n_loci=60, target_cases=20, seed=9,
        )
        path = tmp_path / "study.hccd"
        save_dataset(path, study)
        loaded = load_dataset(path)
        assert np.array_equal(loaded.sample.z_study.z, study.sample.z_study.z)
        assert np.array_equal(loaded.sample.w, study.sample.w)
        assert loaded.design == study.design
        assert loaded.n_loci == study.n_loci
        assert loaded.seed == study.seed

    def test_bytes_are_the_arrays_written_without_a_copy(self, tmp_path):
        # magic, header length, JSON header, then each array's bytes in
        # header order; saving holds no copy of z
        study = simulate_case_control_study(0.5, 0.1, 0.5, 2000, 150, seed=12)
        sample = study.sample
        path = tmp_path / "study.hccd"
        tracemalloc.start()
        try:
            save_dataset(path, study)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        data = path.read_bytes()
        header_end = 12 + int.from_bytes(data[4:12], "little")
        arrays = {"z": sample.z_study.z, "col_means": sample.z_study.col_means,
                  "col_sds": sample.z_study.col_sds, "w": sample.w,
                  "y": sample.y.astype(np.uint8), "indices": sample.indices.astype(np.int64)}
        header = json.loads(data[12:header_end])
        assert data[:4] == b"HCCD"
        assert [spec["name"] for spec in header["arrays"]] == list(arrays)
        assert data[header_end:] == b"".join(a.tobytes() for a in arrays.values())
        assert peak < sample.z_study.z.nbytes / 10

    def test_identical_bytes_for_identical_study(self, tmp_path):
        study = simulate_case_control_study(
            heritability=0.3, population_prevalence=0.2, study_prevalence=0.5,
            n_loci=30, target_cases=15, seed=21,
        )
        p1, p2 = tmp_path / "a.hccd", tmp_path / "b.hccd"
        save_dataset(p1, study)
        save_dataset(p2, study)
        assert p1.read_bytes() == p2.read_bytes()

    def test_z_is_read_into_a_padded_buffer(self, tmp_path):
        study = simulate_case_control_study(0.5, 0.1, 0.5, 60, 20, seed=9)
        path = tmp_path / "study.hccd"
        save_dataset(path, study)
        z = load_dataset(path).sample.z_study
        n = z.n_individuals
        assert z.padded.shape == (n + -n % 8, 60)
        assert not z.padded[n:].any()
        assert np.shares_memory(z.z, z.padded)

    @pytest.mark.parametrize("kind", ["binomial-2-p", "standard-normal", "rademacher"])
    def test_bytes_same_as_with_whole_matrix_formulas(self, tmp_path, kind):
        # a container holds the n rows of z only, with the bits of the
        # whole-matrix standardization of the same study rows
        raw = _study_rows(kind, 400, 50, 31)
        design = design_from_prevalences(0.2, 0.5)
        y = RandomSource(32).generator.random(raw.shape[0]) < 0.2
        sample = attach_study_genotypes(ascertain(y, design, RandomSource(33)), raw)
        study = StudyData(sample=sample, design=design, liability=LiabilityParams(0.5),
                          population_size=raw.shape[0], seed=31, genotype_kind=kind)
        dense = dataclasses.replace(study, sample=dataclasses.replace(
            sample, z_study=StandardizedGenotypes(*_dense_standardize(raw[sample.indices]))))
        save_dataset(tmp_path / "a.hccd", study)
        save_dataset(tmp_path / "b.hccd", dense)
        assert (tmp_path / "a.hccd").read_bytes() == (tmp_path / "b.hccd").read_bytes()

    def test_study_without_genotypes_is_refused_before_writing(self, tmp_path):
        study = simulate_case_control_study(
            heritability=0.5, population_prevalence=0.1, study_prevalence=0.5,
            n_loci=20, target_cases=10, seed=9,
        )
        bare = dataclasses.replace(study, sample=dataclasses.replace(study.sample, z_study=None))
        path = tmp_path / "study.hccd"
        with pytest.raises(ValueError, match=re.escape(
                "dataset must carry study genotypes; run the pipeline first")):
            save_dataset(path, bare)
        assert not path.exists()

    @pytest.mark.parametrize("container", CONTAINERS)
    def test_rejects_garbage_file(self, tmp_path, container):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a dataset")
        load, what, _ = CONTAINERS[container]
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: not a {what} container (bad magic b'not ')")):
            load(path)

    @staticmethod
    def _saved(tmp_path, container="dataset"):
        # a saved container, its bytes and header end, and what it holds: a
        # study's sample, or a relationship matrix of 10 rows and 30 loci
        if container == "dataset":
            study = simulate_case_control_study(
                heritability=0.3, population_prevalence=0.2, study_prevalence=0.5,
                n_loci=30, target_cases=15, seed=21,
            )
            path, held = tmp_path / "study.hccd", study.sample
            save_dataset(path, study)
        else:
            rows = RandomSource(23).generator.standard_normal((10, 30))
            path, held = tmp_path / "grm.bin", grm_compute(standardize(rows))
            save_grm(path, held)
        data = path.read_bytes()
        header_end = 12 + int.from_bytes(data[4:12], "little")
        return path, data, header_end, held

    @staticmethod
    def _header_layout(data, header_end, container):
        # the header, and the layout its n and n_loci give
        header = json.loads(data[12:header_end])
        return header, _layout(header["n"], header["n_loci"], CONTAINERS[container][2])

    @pytest.mark.parametrize("where", ["length", "header"])
    @pytest.mark.parametrize("container", CONTAINERS)
    def test_truncated_header_is_named(self, tmp_path, container, where):
        path, data, header_end, _ = self._saved(tmp_path, container)
        size = 8 if where == "length" else header_end - 5
        path.write_bytes(data[:size])
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: truncated header ({size} bytes)")):
            CONTAINERS[container][0](path)

    @pytest.mark.parametrize("container", CONTAINERS)
    def test_truncated_first_array_is_named_with_byte_counts(self, tmp_path, container):
        path, data, header_end, _ = self._saved(tmp_path, container)
        first = self._header_layout(data, header_end, container)[1][0]
        path.write_bytes(data[:header_end + 100])
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: array {first['name']!r} is truncated: expected "
                f"{math.prod(first['shape']) * 8} bytes, got 100")):
            CONTAINERS[container][0](path)

    @pytest.mark.parametrize("container", CONTAINERS)
    def test_truncated_last_array_is_named_with_byte_counts(self, tmp_path, container):
        # the dataset's last array is indices (int64, n); the relationship
        # matrix's one array is g (float64, 10 x 10)
        path, data, header_end, _ = self._saved(tmp_path, container)
        last = self._header_layout(data, header_end, container)[1][-1]
        path.write_bytes(data[:-3])
        expected = math.prod(last["shape"]) * 8
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: array {last['name']!r} is truncated: expected "
                f"{expected} bytes, got {expected - 3}")):
            CONTAINERS[container][0](path)

    @staticmethod
    def _rewrite_header(path, data, header_end, header, body=None):
        blob = json.dumps(header).encode()
        body = data[header_end:] if body is None else body
        path.write_bytes(data[:4] + len(blob).to_bytes(8, "little") + blob + body)

    @staticmethod
    def _entry_message(path, index, entry, spec):
        return (f"{path}: array entry {index} is {json.dumps(entry, sort_keys=True)}, "
                f"expected {json.dumps(spec, sort_keys=True)}")

    @pytest.mark.parametrize("container, name", [
        ("dataset", "genotype_kind"), ("dataset", "z"), ("dataset", "dtype"),
        ("grm", "n_loci"), ("grm", "g"), ("grm", "dtype")])
    def test_missing_header_key_or_array_is_named(self, tmp_path, container, name):
        path, data, header_end, _ = self._saved(tmp_path, container)
        header, layout = self._header_layout(data, header_end, container)
        body = data[header_end:]
        if name in header:
            del header[name]
            message = f"{path}: header lacks {name!r}"
        elif name == "dtype":  # of the last array
            del header["arrays"][-1][name]
            index = len(layout) - 1
            message = self._entry_message(path, index, header["arrays"][-1], layout[index])
        else:  # the first array: drop its entry and its bytes
            header["arrays"] = header["arrays"][1:]
            body = body[math.prod(layout[0]["shape"]) * 8:]
            entry = layout[1] if len(layout) > 1 else None
            message = self._entry_message(path, 0, entry, layout[0])
        self._rewrite_header(path, data, header_end, header, body)
        with pytest.raises(ValueError, match=re.escape(message)):
            CONTAINERS[container][0](path)

    @pytest.mark.parametrize("tamper", ["rows", "n_cases", "n_loci", "col_means"])
    def test_mismatched_arrays_and_header_are_named(self, tmp_path, tamper):
        # a container whose arrays disagree with each other or with its
        # header fails on load, naming the path, not later in an estimator
        path, data, header_end, sample = self._saved(tmp_path)
        header = json.loads(data[12:header_end])
        z = sample.z_study
        n, cases = sample.y.shape[0], sample.n_cases
        layout = _layout(n, 30, _DATASET_ARRAYS)
        if tamper == "n_cases":
            header["n_cases"] = cases + 5
            self._rewrite_header(path, data, header_end, header)
            message = f"{path}: header n_cases is {cases + 5}, the arrays hold {cases}"
        elif tamper == "n_loci":
            header["n_loci"] = 29
            self._rewrite_header(path, data, header_end, header)
            message = self._entry_message(path, 0, layout[0],
                                          _layout(n, 29, _DATASET_ARRAYS)[0])
        else:
            if tamper == "rows":
                sample = dataclasses.replace(sample, y=sample.y[:-1], w=sample.w[:-1],
                                             indices=sample.indices[:-1])
                index, shape = 3, [n - 1]
            else:
                sample = dataclasses.replace(sample, z_study=StandardizedGenotypes(
                    z.z, z.col_means[:-3], z.col_sds))
                index, shape = 1, [27]
            study = simulate_case_control_study(0.3, 0.2, 0.5, 30, 15, seed=21)
            save_dataset(path, dataclasses.replace(study, sample=sample))
            message = self._entry_message(path, index, dict(layout[index], shape=shape),
                                          layout[index])
        with pytest.raises(ValueError, match=re.escape(message)):
            load_dataset(path)

    @pytest.mark.parametrize("key, value", [("n", 38.0), ("n_loci", 30.0), ("n", True),
                                            ("n_loci", -1), ("n", "38"), ("n_loci", None),
                                            ("n_loci", 0)])
    @pytest.mark.parametrize("container", CONTAINERS)
    def test_sizes_must_be_nonnegative_integers(self, tmp_path, container, key, value):
        # the framing's bounds, n >= 0 and n_loci >= 1; each reader's own
        # n >= 2 is tested apart
        path, data, header_end, _ = self._saved(tmp_path, container)
        header = json.loads(data[12:header_end])
        header[key] = value
        self._rewrite_header(path, data, header_end, header)
        low = 1 if key == "n_loci" else 0
        message = f"{path}: header {key} must be an integer >= {low}, got {json.dumps(value)}"
        with pytest.raises(ValueError, match=re.escape(message)):
            CONTAINERS[container][0](path)

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_rows_names_path(self, tmp_path, n):
        # standardize refuses a study of one row; a damaged or foreign file
        # may hold fewer than two
        study = simulate_case_control_study(0.3, 0.2, 0.5, 30, 15, seed=21)
        s, z = study.sample, study.sample.z_study
        cut = dataclasses.replace(s, y=s.y[:n], w=s.w[:n], indices=s.indices[:n],
                                  z_study=StandardizedGenotypes(z.z[:n], z.col_means, z.col_sds))
        path = tmp_path / "study.hccd"
        save_dataset(path, dataclasses.replace(study, sample=cut))
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: header n must be an integer >= 2, got {n}")):
            load_dataset(path)

    @pytest.mark.parametrize("key, value", [
        ("genotype_kind", "no-such-kind"), ("genotype_kind", None),
        ("population_size", "many"), ("population_size", 3), ("population_size", True),
        ("seed", 1.5), ("seed", -1), ("seed", True)])
    def test_provenance_must_be_valid(self, tmp_path, key, value):
        # a kind heritcc draws, a population at least the study's n rows and
        # a seed that RandomSource takes
        path, data, header_end, sample = self._saved(tmp_path)
        header = json.loads(data[12:header_end])
        header[key] = value
        self._rewrite_header(path, data, header_end, header)
        if key == "genotype_kind":
            kinds = json.dumps(list(simulate_module.GENOTYPE_KINDS))
            message = f"{path}: header genotype_kind must be one of {kinds}, got {json.dumps(value)}"
        else:
            low = sample.y.shape[0] if key == "population_size" else 0
            message = f"{path}: header {key} must be an integer >= {low}, got {json.dumps(value)}"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_dataset(path)

    @pytest.mark.parametrize("blob", [b"5", b"[1, 2]", b'"version n"', b"{", b"\xff"])
    @pytest.mark.parametrize("container", CONTAINERS)
    def test_header_must_be_a_json_object(self, tmp_path, container, blob):
        path, data, header_end, _ = self._saved(tmp_path, container)
        path.write_bytes(data[:4] + len(blob).to_bytes(8, "little") + blob + data[header_end:])
        with pytest.raises(ValueError, match=re.escape(f"{path}: header is not a JSON object")):
            CONTAINERS[container][0](path)

    @pytest.mark.parametrize("container, change", [
        *[("dataset", change) for change in ("not a list", "float shape", "extra", "reordered",
                                              "renamed")],
        *[("grm", change) for change in ("not a list", "float shape", "extra", "renamed")]])
    def test_arrays_must_be_the_layout(self, tmp_path, container, change):
        # the header lists exactly the layout's arrays (a dataset's six, a
        # relationship matrix's one), in file order, with the shapes its n and
        # n_loci give; no other listing is read
        path, data, header_end, _ = self._saved(tmp_path, container)
        header, layout = self._header_layout(data, header_end, container)
        entries = header["arrays"]
        if change == "not a list":
            header["arrays"], index, entry = 5, 0, 5
        elif change == "float shape":
            entries[0]["shape"][0] = float(header["n"])
            index, entry = 0, entries[0]
        elif change == "extra":
            entries.append({"dtype": "uint8", "name": "extra", "shape": [0]})
            index, entry = len(layout), entries[-1]
        elif change == "reordered":
            entries[3], entries[4] = entries[4], entries[3]
            index, entry = 3, entries[3]
        else:
            entries[-1]["name"] = "rows"
            index, entry = len(layout) - 1, entries[-1]
        self._rewrite_header(path, data, header_end, header)
        spec = layout[index] if index < len(layout) else None
        with pytest.raises(ValueError, match=re.escape(
                self._entry_message(path, index, entry, spec))):
            CONTAINERS[container][0](path)

    @pytest.mark.parametrize("key, value, message", [
        ("population_prevalence", 0.9, "population prevalence 0.9 exceeds study prevalence 0.5"),
        ("study_prevalence", "0.5", "'<' not supported between instances of 'float' and 'str'"),
        ("heritability", 2.0, "heritability must lie in [0, 1], got 2.0"),
    ])
    def test_model_parameters_the_model_refuses_are_named(self, tmp_path, key, value, message):
        path, data, header_end, _ = self._saved(tmp_path)
        header = json.loads(data[12:header_end])
        header[key] = value
        self._rewrite_header(path, data, header_end, header)
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            load_dataset(path)

    @pytest.mark.parametrize("value", [1.0, True])
    @pytest.mark.parametrize("container", CONTAINERS)
    def test_version_must_be_the_integer_1(self, tmp_path, container, value):
        # 1.0 and true are not 1
        path, data, header_end, _ = self._saved(tmp_path, container)
        header = json.loads(data[12:header_end])
        header["version"] = value
        self._rewrite_header(path, data, header_end, header)
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: unsupported container version {json.dumps(value)}")):
            CONTAINERS[container][0](path)

    @pytest.mark.parametrize("key, value", [("n_cases", "float"), ("n_controls", "float"),
                                            ("heritability", True), ("heritability", False),
                                            ("study_prevalence", True)])
    def test_header_numbers_must_have_their_json_type(self, tmp_path, key, value):
        # 20.0 is not 20, and a bool is no heritability or prevalence
        path, data, header_end, sample = self._saved(tmp_path)
        header = json.loads(data[12:header_end])
        if value == "float":
            value = float(header[key])
        header[key] = value
        self._rewrite_header(path, data, header_end, header)
        if key in ("n_cases", "n_controls"):
            message = (f"{path}: header {key} is {json.dumps(value)}, "
                       f"the arrays hold {getattr(sample, key)}")
        else:
            message = f"{path}: header {key} must be a JSON number, got {json.dumps(value)}"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_dataset(path)

    def test_w_must_be_the_centered_phenotypes(self, tmp_path):
        path, data, header_end, sample = self._saved(tmp_path)
        # w follows z and the two column vectors of 30 loci
        at = header_end + sample.z_study.z.nbytes + 2 * 30 * 8 + 3 * 8
        flipped = np.frombuffer(data[at:at + 8]) * -1.0
        path.write_bytes(data[:at] + flipped.tobytes() + data[at + 8:])
        w = float(sample.w[3])
        message = f"{path}: w[3] is {-w!r}, the phenotypes center to {w!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_dataset(path)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("block_rows", [None, 4])
    @pytest.mark.parametrize("container, cells, row", [
        ("dataset", ((13, 4), (9, 29)), 9), ("grm", ((9, 4), (6, 1)), 6)])
    def test_non_finite_matrix_names_its_first_row(self, tmp_path, monkeypatch, container,
                                                   cells, row, block_rows, value):
        # the first array, a float64 matrix, is read in blocks of rows; at 4
        # rows a block the two bad rows lie in different blocks, and the
        # first is named
        path, data, header_end, _ = self._saved(tmp_path, container)
        first = self._header_layout(data, header_end, container)[1][0]
        n_cols = first["shape"][1]
        if block_rows is not None:
            _block_rows(monkeypatch, block_rows, n_cols)
        body = bytearray(data[header_end:])
        for r, c in cells:
            at = (r * n_cols + c) * 8
            body[at:at + 8] = np.float64(value).tobytes()
        path.write_bytes(data[:header_end] + bytes(body))
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: {first['name']} row {row} holds a NaN or an infinity")):
            CONTAINERS[container][0](path)

    def test_study_without_loci_is_refused(self, tmp_path):
        # save_dataset writes the study it is given; the reader refuses its
        # header, naming the file, before an estimator meets the empty matrix
        study = simulate_case_control_study(0.3, 0.2, 0.5, 30, 15, seed=21)
        n = study.sample.y.shape[0]
        empty = StandardizedGenotypes(np.empty((n, 0)), np.empty(0), np.empty(0))
        path = tmp_path / "study.hccd"
        save_dataset(path, dataclasses.replace(
            study, sample=dataclasses.replace(study.sample, z_study=empty)))
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: header n_loci must be an integer >= 1, got 0")):
            load_dataset(path)

    @pytest.mark.parametrize("kind", ["binomial-2-p", "standard-normal", "rademacher"])
    @pytest.mark.parametrize("k, p", [(0.1, 0.5), (0.01, 0.3), (0.3, 0.7)])
    def test_saved_studies_load_with_their_w(self, tmp_path, kind, k, p):
        study = simulate_case_control_study(0.5, k, p, 40, 20, seed=6, genotype_kind=kind)
        save_dataset(tmp_path / "study.hccd", study)
        assert np.array_equal(load_dataset(tmp_path / "study.hccd").sample.w, study.sample.w)

    @pytest.mark.parametrize("kind", ["binomial-2-p", "standard-normal", "rademacher"])
    def test_header_lists_the_layout(self, tmp_path, kind):
        study = simulate_case_control_study(0.5, 0.1, 0.5, 40, 20, seed=5, genotype_kind=kind)
        path = tmp_path / "study.hccd"
        save_dataset(path, study)
        data = path.read_bytes()
        header = json.loads(data[12:12 + int.from_bytes(data[4:12], "little")])
        assert (header["n"], header["n_loci"]) == (study.sample.y.shape[0], 40)
        assert header["arrays"] == _layout(header["n"], header["n_loci"], _DATASET_ARRAYS)

    @pytest.mark.parametrize("container", CONTAINERS)
    def test_trailing_bytes_rejected(self, tmp_path, container):
        path, data, _, _ = self._saved(tmp_path, container)
        path.write_bytes(data + b"\0\0")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: 2 trailing bytes after the last array")):
            CONTAINERS[container][0](path)


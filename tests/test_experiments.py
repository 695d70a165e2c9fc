"""Tests for the replication harness, timing grid, and consistency study."""

import dataclasses
import math
import multiprocessing
import os
import re
import signal
import time
import warnings
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from heritcc import estimators, experiments, simulate
from heritcc.experiments import (
    ConsistencyRow,
    ExperimentConfig,
    MethodSummary,
    ReplicationRecord,
    TimingRow,
    read_records_csv,
    run_consistency_study,
    run_experiment,
    run_replication,
    run_timing,
    summarize_records,
    write_csv,
)
from heritcc.grm import grm_compute, mean_square_offdiagonal
from heritcc.simulate import (
    StandardizedGenotypes,
    load_dataset,
    save_dataset,
    simulate_case_control_study,
)

SMOKE = ExperimentConfig(
    eta_star=0.5,
    population_prevalence=0.2,
    study_prevalence=0.5,
    n_loci=400,
    target_cases=30,
    replications=4,
    seed=99,
    methods=("first", "second"),
)


def _count_estimator_calls(monkeypatch) -> dict[str, int]:
    """Calls per method of the estimators, counted through wrappers set on
    ``heritcc.estimators``' module attributes."""
    calls: dict[str, int] = {}
    for method, name in (("first", "estimate_first_order"), ("second", "estimate_second_order")):
        def counted(*args, method=method, original=getattr(estimators, name)):
            calls[method] = calls.get(method, 0) + 1
            return original(*args)
        monkeypatch.setattr(estimators, name, counted)
    return calls


class TestConfig:
    def test_rejects_bad_methods(self):
        with pytest.raises(ValueError, match="unknown methods"):
            ExperimentConfig(methods=("first", "third"))

    def test_rejects_empty_methods(self):
        with pytest.raises(ValueError, match=r"no methods given; valid: \('first', 'second'\)"):
            ExperimentConfig(methods=())

    def test_rejects_inverted_prevalences(self):
        with pytest.raises(ValueError):
            ExperimentConfig(population_prevalence=0.6, study_prevalence=0.5)

    def test_rejects_zero_replications(self):
        with pytest.raises(ValueError):
            ExperimentConfig(replications=0)

    @pytest.mark.parametrize("field, value, message", [
        ("population_prevalence", 0.0, "prevalences must lie in"),
        ("eta_star", 1.5, "heritability must lie in"),
        ("n_loci", 0, "n_loci must be >= 1"),
        ("target_cases", 0, "target_cases must be >= 1"),
        ("seed", -1, "seed must be a non-negative integer, got -1"),
    ])
    def test_rejects_bad_study_parameters(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(**{field: value})


class TestRunExperiment:
    def test_deterministic_records(self):
        a = run_experiment(SMOKE)
        b = run_experiment(SMOKE)
        for ra, rb in zip(a.records, b.records):
            assert ra.eta_hat == rb.eta_hat
            assert ra.realized_n == rb.realized_n

    @pytest.mark.parametrize("methods", [("first",), ("second",), ("first", "second")])
    def test_estimators_are_reached_through_their_module_names(self, monkeypatch, methods):
        # perfbench's tracer wraps these module attributes to time the
        # estimator layers
        calls = _count_estimator_calls(monkeypatch)
        cfg = dataclasses.replace(SMOKE, methods=methods)
        records = run_experiment(cfg).records
        assert all(r.error is None and list(r.eta_hat) == list(methods) for r in records)
        assert calls == {m: SMOKE.replications for m in methods}

    def test_workers_do_not_change_records(self):
        serial = run_experiment(SMOKE, workers=1)
        pooled = run_experiment(SMOKE, workers=2)
        for ra, rb in zip(serial.records, pooled.records):
            assert ra.eta_hat == rb.eta_hat
            assert ra.en_holds == rb.en_holds

    def test_replication_order_is_execution_independent(self):
        # records are keyed by index: running them singly matches the batch
        batch = run_experiment(SMOKE).records
        singles = [run_replication(SMOKE, i) for i in reversed(range(SMOKE.replications))]
        singles.sort(key=lambda r: r.rep_index)
        for a, b in zip(batch, singles):
            assert a.eta_hat == b.eta_hat

    def test_summary_fields(self):
        result = run_experiment(SMOKE)
        for method in ("first", "second"):
            s = result.summaries[method]
            assert s.n_ok == SMOKE.replications
            assert 0.0 <= s.q25 <= s.median <= s.q75 <= 1.0
            assert s.bias == pytest.approx(s.mean - SMOKE.eta_star)

    def test_failures_recorded_not_fatal(self):
        # two individuals cannot produce a usable study reliably, but the
        # harness must return records either way
        cfg = ExperimentConfig(
            eta_star=0.5, population_prevalence=0.5, study_prevalence=0.5,
            n_loci=8, target_cases=2, replications=3, seed=5, methods=("first",),
        )
        result = run_experiment(cfg)
        assert len(result.records) == 3

    def test_any_exception_is_recorded_and_the_rest_survive(self, monkeypatch):
        failing_seed = experiments._replication_seed_stream(SMOKE.seed, 2)
        simulate = experiments.simulate_case_control_study

        def flaky(**kwargs):
            if kwargs["seed"] == failing_seed:
                raise RuntimeError("stage failed")
            return simulate(**kwargs)

        monkeypatch.setattr(experiments, "simulate_case_control_study", flaky)
        result = run_experiment(SMOKE, workers=1)
        assert [r.error for r in result.records] == [None, None, "RuntimeError: stage failed", None]
        assert result.summaries["first"].n_ok == SMOKE.replications - 1
        assert np.isnan(result.records[2].mean_sq_offdiag)

    @pytest.mark.parametrize("workers", [0, -1])
    def test_rejects_worker_count_below_1(self, workers):
        with pytest.raises(ValueError, match=f"worker count must be >= 1, got {workers}"):
            run_experiment(SMOKE, workers=workers)

    def test_record_carries_the_off_diagonal_mean_square(self):
        record = run_replication(SMOKE, 1)
        study = simulate_case_control_study(
            heritability=SMOKE.eta_star,
            population_prevalence=SMOKE.population_prevalence,
            study_prevalence=SMOKE.study_prevalence, n_loci=SMOKE.n_loci,
            target_cases=SMOKE.target_cases,
            seed=experiments._replication_seed_stream(SMOKE.seed, 1),
            genotype_kind=SMOKE.genotype_kind,
        )
        expected = mean_square_offdiagonal(grm_compute(study.sample.z_study))
        assert record.mean_sq_offdiag == expected


class TestOneLocusCount:
    """The locus count is read from the study's standardized genotypes, so a
    study that keeps fewer loci than it drew carries that count throughout."""

    @pytest.fixture
    def drop_last_locus(self, monkeypatch):
        standardize = simulate.standardize
        monkeypatch.setattr(simulate, "standardize", lambda a: standardize(a[:, :-1]))

    def test_replication_takes_the_count_of_its_matrix(self, drop_last_locus):
        record = run_replication(SMOKE, 0)
        assert record.error is None
        assert set(record.eta_hat) == {"first", "second"}

    def test_loci_constant_over_small_populations_fail_no_replication(self):
        # N = 50: replications 22 and 25 draw a locus constant over the
        # whole population, which the liability pass leaves out
        cfg = ExperimentConfig(0.5, 0.2, 0.5, n_loci=400, target_cases=10,
                               replications=40, seed=5)
        assert [r.error for r in run_experiment(cfg).records] == [None] * 40

    def test_container_takes_the_count_of_its_arrays(self, drop_last_locus, tmp_path):
        study = experiments.simulate_study(SMOKE, 7)
        assert study.n_loci == SMOKE.n_loci - 1
        path = tmp_path / "study.hccd"
        save_dataset(path, study)
        loaded = load_dataset(path)
        assert loaded.n_loci == SMOKE.n_loci - 1
        assert np.array_equal(loaded.sample.z_study.z, study.sample.z_study.z)


def _pid_and_blas_threads(_task):
    return os.getpid(), [os.getenv(name) for name in TestPool.BLAS_VARS]


def _live_workers() -> set[int]:
    return {p.pid for p in multiprocessing.active_children()}


def _set_caller_environment(monkeypatch) -> dict:
    """Give the caller BLAS threads of its own; return its environment."""
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    return dict(os.environ)


class TestPool:
    BLAS_VARS = ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"]

    def test_workers_get_one_blas_thread_and_environment_is_restored(self, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        before = dict(os.environ)
        seen = experiments._pool_map(os.getenv, self.BLAS_VARS, workers=2)
        assert seen == ["1", "1", "1"]
        assert dict(os.environ) == before

    def test_environment_is_restored_when_a_task_raises(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        before = dict(os.environ)
        with pytest.raises(ValueError):
            experiments._pool_map(int, ["1", "x"], workers=2)
        assert dict(os.environ) == before

    def test_serial_path_keeps_the_callers_blas_threads(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        assert experiments._pool_map(os.getenv, ["OPENBLAS_NUM_THREADS"] * 2,
                                     workers=1) == ["2", "2"]

    # Where this process runs a multi-threaded BLAS, the two tests below
    # compare its results with those of one-thread workers.
    def test_relationship_matrix_same_bits_in_one_thread_worker(self):
        rng = np.random.default_rng(0)
        views = [StandardizedGenotypes(rng.standard_normal((n, 10_000)), None, None)
                 for n in (205, 217)]
        pooled = experiments._pool_map(grm_compute, views, workers=2)
        for view, g in zip(views, pooled):
            assert np.array_equal(g.g, grm_compute(view).g)

    def test_pooled_records_match_in_process_records(self):
        cfg = ExperimentConfig(eta_star=0.5, population_prevalence=0.1, n_loci=10_000,
                               target_cases=100, replications=4, seed=7)
        fields = ("rep_index", "realized_n", "realized_cases", "eta_hat", "en_holds", "error")
        pooled = run_experiment(cfg, workers=2).records
        for record in pooled:
            local = run_replication(cfg, record.rep_index)
            assert [getattr(record, f) for f in fields] == [getattr(local, f) for f in fields]

    # The pool outlives a call and serves the next one.
    def test_back_to_back_calls_share_workers(self, monkeypatch):
        before = _set_caller_environment(monkeypatch)
        first = experiments._pool_map(_pid_and_blas_threads, range(8), workers=2)
        workers = _live_workers()
        assert dict(os.environ) == before
        second = experiments._pool_map(_pid_and_blas_threads, range(8), workers=2)
        assert dict(os.environ) == before
        assert len(workers) == 2
        assert {pid for pid, _ in first + second} <= workers
        assert _live_workers() == workers

    def test_dead_worker_breaks_the_call_and_the_next_starts_fresh(self, monkeypatch):
        before = _set_caller_environment(monkeypatch)
        experiments._pool_map(_pid_and_blas_threads, range(2), workers=2)
        old = _live_workers()
        with pytest.raises(BrokenProcessPool):
            experiments._pool_map(os._exit, [1, 1], workers=2)
        assert dict(os.environ) == before
        seen = experiments._pool_map(_pid_and_blas_threads, range(4), workers=2)
        assert dict(os.environ) == before
        assert not {pid for pid, _ in seen} & old
        assert all(blas == ["1", "1", "1"] for _, blas in seen)
        assert experiments._pool_map(abs, [-1, -2, -3], workers=2) == [1, 2, 3]

    def test_worker_killed_while_idle_is_replaced_by_the_next_call(self, monkeypatch):
        before = _set_caller_environment(monkeypatch)
        experiments._pool_map(_pid_and_blas_threads, range(2), workers=2)
        old = _live_workers()
        os.kill(min(old), signal.SIGKILL)
        deadline = time.monotonic() + 30.0
        while not experiments._pool._broken:
            assert time.monotonic() < deadline, "pool never noticed the dead worker"
            time.sleep(0.01)
        seen = experiments._pool_map(_pid_and_blas_threads, range(4), workers=2)
        assert dict(os.environ) == before
        assert not {pid for pid, _ in seen} & old
        assert all(blas == ["1", "1", "1"] for _, blas in seen)
        assert experiments._pool_map(abs, [-1, -2, -3], workers=2) == [1, 2, 3]

    def test_new_worker_count_replaces_the_pool_with_pinned_workers(self, monkeypatch):
        before = _set_caller_environment(monkeypatch)
        experiments._pool_map(_pid_and_blas_threads, range(2), workers=2)
        old = _live_workers()
        seen = experiments._pool_map(_pid_and_blas_threads, range(6), workers=3)
        assert dict(os.environ) == before
        assert all(blas == ["1", "1", "1"] for _, blas in seen)
        assert not _live_workers() & old
        assert len(_live_workers()) == 3


def _write_records(path, cfg, records):
    write_csv(path, ReplicationRecord, records, cfg.as_dict(), cfg.methods)


_OK = ReplicationRecord(0, 61, 30, {"first": 0.1 + 0.2, "second": 1 / 3}, True,
                        mean_sq_offdiag=0.25)
_FAILED = ReplicationRecord(1, 0, 0, {}, False, error="ValueError: column 3, zero variance")
_RECORDS_HEADER = "rep_index,realized_n,realized_cases,{},en_holds,error"


class TestRecordsCsv:
    def test_roundtrip_exact(self, tmp_path):
        result = run_experiment(SMOKE)
        path = tmp_path / "records.csv"
        _write_records(path, SMOKE, result.records)
        config, records = read_records_csv(path)
        assert config["seed"] == str(SMOKE.seed)
        for original, loaded in zip(result.records, records):
            assert loaded.eta_hat == original.eta_hat  # repr round-trips floats
            assert loaded.en_holds == original.en_holds
        # summaries recomputed from the CSV match the in-memory ones exactly
        recomputed = summarize_records(SMOKE, records)
        assert recomputed == result.summaries

    @pytest.mark.parametrize("methods, records", [
        (("first",), [_OK, _FAILED]),
        (("second",), [_OK, _FAILED]),
        (("second", "first"), [_OK, _FAILED]),
        (("first", "second"), [_FAILED, dataclasses.replace(_FAILED, rep_index=2)]),
        (("first", "second"),
         [_OK, dataclasses.replace(_FAILED, error="RuntimeError: line one, and\r\nline two")]),
    ], ids=["first", "second", "second-first", "all-failed", "comma-and-newline"])
    def test_rewrite_of_read_records_is_byte_identical(self, tmp_path, methods, records):
        cfg = dataclasses.replace(SMOKE, methods=methods)
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        _write_records(first, cfg, records)
        config, loaded = read_records_csv(first)
        _write_records(second, cfg, loaded)
        assert second.read_bytes() == first.read_bytes()
        assert config["seed"] == str(SMOKE.seed)
        assert len(first.read_text().splitlines()) == len(config) + 1 + len(records)
        for original, reread in zip(records, loaded, strict=True):
            assert reread.eta_hat == {m: original.eta_hat[m]
                                      for m in methods if m in original.eta_hat}
            assert reread.error == (original.error and original.error.replace(",", ";")
                                    .replace("\r", " ").replace("\n", " "))
            assert np.isnan(reread.mean_sq_offdiag)  # not written

    def test_byte_identical_across_runs(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        _write_records(p1, SMOKE, run_experiment(SMOKE).records)
        _write_records(p2, SMOKE, run_experiment(SMOKE, workers=2).records)
        assert p1.read_bytes() == p2.read_bytes()

    def test_summary_csv_has_config_echo(self, tmp_path):
        result = run_experiment(SMOKE)
        path = tmp_path / "summary.csv"
        write_csv(path, MethodSummary, result.summaries.values(), SMOKE.as_dict())
        text = path.read_text()
        assert "# eta_star=0.5" in text
        assert "first," in text

    @pytest.mark.parametrize("row_type, methods, header", [
        (ReplicationRecord, ("first",), _RECORDS_HEADER.format("eta_hat_first")),
        (ReplicationRecord, ("second",), _RECORDS_HEADER.format("eta_hat_second")),
        (ReplicationRecord, ("second", "first"),
         _RECORDS_HEADER.format("eta_hat_second,eta_hat_first")),
        (MethodSummary, (), "method,n_ok,mean,sd,bias,q25,median,q75"),
        (TimingRow, (), "n,n_loci,polymorphic_loci,method,seconds"),
        (ConsistencyRow, (),
         "n_loci,target_n,reps,mean,sd,rmse,mean_sq_offdiag,ratio_deviation"),
    ], ids=["records-first", "records-second", "records-second-first", "summary", "timing",
            "consistency"])
    def test_header_is_pinned(self, tmp_path, row_type, methods, header):
        # the columns, their order and their names are the files' format
        path = tmp_path / "t.csv"
        write_csv(path, row_type, [], methods=methods)
        assert path.read_text() == header + "\n"

    def _records_file(self, tmp_path):
        path = tmp_path / "records.csv"
        _write_records(path, SMOKE, [_OK, _FAILED])
        lines = path.read_text().splitlines()
        return path, lines, len(lines) - 2  # the header's line number

    def test_refuses_a_header_other_than_the_echoed_methods(self, tmp_path):
        path, lines, at = self._records_file(tmp_path)
        path.write_text("\n".join(line.replace("methods=first,second", "methods=second,first")
                                  for line in lines) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:{at}: header ")):
            read_records_csv(path)

    @pytest.mark.parametrize("edit, cells", [(lambda row: row.rpartition(",")[0], 6),
                                             (lambda row: row + ",", 8)],
                             ids=["truncated", "extra-cell"])
    def test_refuses_a_row_with_another_cell_count(self, tmp_path, edit, cells):
        path, lines, at = self._records_file(tmp_path)
        lines[at] = edit(lines[at])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError,
                           match=re.escape(f"{path}:{at + 1}: {cells} cells, the header has 7")):
            read_records_csv(path)

    def test_refuses_a_cell_that_does_not_parse(self, tmp_path):
        path, lines, at = self._records_file(tmp_path)
        lines[at + 1] = "x" + lines[at + 1]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:{at + 2}: invalid literal")):
            read_records_csv(path)


class TestTiming:
    def test_rows_cover_grid(self, tmp_path):
        rows = run_timing([20, 40], [50], methods=("first", "second"), seed=1)
        assert len(rows) == 4
        keyed = {(r.n, r.n_loci, r.method): r.seconds for r in rows}
        assert all(v > 0 for v in keyed.values())
        write_csv(tmp_path / "t.csv", TimingRow, rows, {"seed": 1})
        assert (tmp_path / "t.csv").read_text().count("\n") == 6

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            run_timing([], [10])

    @pytest.mark.parametrize("n_values, n_loci_values, message", [
        ([20, 1], [50], "study sizes must be >= 2, got 1"),
        ([0], [50], "study sizes must be >= 2, got 0"),
        ([20], [50, 0], "locus counts must be >= 1, got 0"),
    ])
    def test_rejects_study_sizes_below_2_and_locus_counts_below_1(self, n_values,
                                                                  n_loci_values, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            run_timing(n_values, n_loci_values)

    @pytest.mark.parametrize("methods, message", [
        (("first", "sceond"), "unknown methods ['sceond']"),
        ((), "no methods given"),
        (("first", "first"), "methods ['first', 'first'] repeat one"),
    ])
    def test_rejects_unknown_empty_or_repeated_methods(self, methods, message):
        with pytest.raises(ValueError, match=re.escape(f"{message}; valid: ('first', 'second')")):
            run_timing([20], [50], methods=methods)

    def test_methods_take_turns_within_a_grid_point(self, monkeypatch):
        calls = []
        monkeypatch.setattr(experiments, "_run_estimation",
                            lambda raw, sample, design, method: calls.append(method))
        run_timing([20], [50], methods=("first", "second"), seed=1, repeats=3)
        # one warm-up each, then the repeats alternate
        assert calls == ["first", "second"] * 4

    def test_kept_loci_come_from_the_runs_own_matrices(self, monkeypatch):
        # no standardize of the cell besides the one inside each run
        calls = []

        def counted(raw, original=simulate.standardize):
            calls.append(raw.shape)
            return original(raw)

        monkeypatch.setattr(experiments, "standardize", counted)
        rows = run_timing([20], [1000], methods=("first", "second"), seed=1, repeats=2)
        assert calls == [(20, 1000)] * 2 * (1 + 2)
        kept = simulate.standardize(experiments._timing_inputs(20, 1000, 1)[0]).n_loci
        assert kept < 1000 and [r.polymorphic_loci for r in rows] == [kept, kept]

    @pytest.mark.parametrize("methods", [("first",), ("second",), ("second", "first")])
    def test_estimators_are_reached_through_their_module_names(self, monkeypatch, methods):
        # perfbench's tracer wraps these module attributes to time the
        # estimator layers
        calls = _count_estimator_calls(monkeypatch)
        run_timing([20], [50], methods=methods, seed=1, repeats=2)
        assert calls == {m: 3 for m in methods}


def _fail_every_simulation(monkeypatch) -> str:
    # a failure no draw decides: every replication's simulation raises;
    # returns the error a replication records
    def failing(**kwargs):
        raise RuntimeError("stage failed")

    monkeypatch.setattr(experiments, "simulate_case_control_study", failing)
    return "RuntimeError: stage failed"


class TestConsistencyStudy:
    def test_null_model_mean_small_where_estimator_is_precise(self):
        # zero heritability: clamping maps pure noise to a positive mean of
        # about 0.4*sd(raw), so the <= 0.1 bound needs the raw spread
        # sqrt(2N)/(slope*n) to be modest; ratio 0.2 gives sd ~ 0.17 and 0.12
        rows = run_consistency_study(
            eta_star=0.0, population_prevalence=0.1, study_prevalence=0.5,
            ratio_a=0.2, n_loci_values=[2000, 4000], reps=30, seed=555,
        )
        for row in rows:
            assert row.mean <= 0.1

    def test_rows_and_monotone_smoke(self):
        rows = run_consistency_study(
            eta_star=0.5, population_prevalence=0.2, study_prevalence=0.5,
            ratio_a=0.05, n_loci_values=[400, 1600], reps=12, seed=17,
        )
        assert [r.n_loci for r in rows] == [400, 1600]
        assert rows[0].target_n == 20 and rows[1].target_n == 80
        for row in rows:
            assert row.reps >= 10
            assert 0.0 <= row.rmse <= 1.0
        # larger study on the proportional path is less noisy
        assert rows[1].rmse < rows[0].rmse

    def test_failed_replication_is_left_out_of_its_row(self, monkeypatch):
        failing_seed = experiments._replication_seed_stream(17 + 400, 1)
        simulate = experiments.simulate_case_control_study

        def flaky(**kwargs):
            if kwargs["seed"] == failing_seed:
                raise RuntimeError("stage failed")
            return simulate(**kwargs)

        monkeypatch.setattr(experiments, "simulate_case_control_study", flaky)
        rows = run_consistency_study(
            eta_star=0.5, population_prevalence=0.2, study_prevalence=0.5,
            ratio_a=0.05, n_loci_values=[400], reps=4, seed=17,
        )
        assert rows[0].reps == 3

    @pytest.mark.parametrize("ratio_a", [0.0, -1.0, math.inf])
    def test_rejects_nonpositive_ratio(self, ratio_a):
        with pytest.raises(ValueError, match=re.escape(f"ratio_a must be > 0, got {ratio_a}")):
            run_consistency_study(0.5, 0.2, 0.5, ratio_a, [400], 1, 3)

    @pytest.mark.parametrize("seed, n_loci_values", [
        (-3000, [2000, 4000]),  # the first derived seed, seed + n_loci, is -1000
        (-5, [2000]),  # every derived seed is >= 0
    ])
    def test_rejects_negative_seed_naming_it(self, seed, n_loci_values):
        with pytest.raises(ValueError, match=f"non-negative integer, got {seed}$"):
            experiments.consistency_configs(0.5, 0.2, 0.5, 0.05, n_loci_values, 1, seed)

    @pytest.mark.parametrize("reps, seed, usable", [(4, 17, 4), (1, 3, 1), (4, 1, 0)],
                             ids=["several-usable", "one-usable", "none-usable"])
    def test_rows_read_the_experiment_summary(self, monkeypatch, reps, seed, usable):
        if not usable:
            _fail_every_simulation(monkeypatch)
        args = (0.5, 0.2, 0.5, 0.05, [400], reps, seed)
        (row,) = run_consistency_study(*args)
        (cfg,) = experiments.consistency_configs(*args)
        summaries = run_experiment(cfg).summaries
        assert row.reps == usable
        if usable:
            summary = summaries["first"]
            assert (row.reps, row.mean, row.sd) == (summary.n_ok, summary.mean, summary.sd)
        else:
            assert "first" not in summaries
            assert np.isnan(row.mean) and np.isnan(row.sd)

    def test_one_usable_replication_gives_zero_sd_without_warnings(self):
        # as summarize_records does for one value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = run_consistency_study(0.5, 0.2, 0.5, 0.05, [400], 1, 3)
        assert rows[0].reps == 1
        assert rows[0].sd == 0.0

    def test_no_usable_replication_gives_nan_row_without_warnings(self, monkeypatch):
        error = _fail_every_simulation(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = run_consistency_study(0.5, 0.2, 0.5, 0.05, [400], 4, 1)
        row = rows[0]
        assert row.reps == 0
        assert all(np.isnan([row.mean, row.sd, row.rmse, row.mean_sq_offdiag,
                             row.ratio_deviation]))
        assert row.first_error == error

"""The four benchmark workloads.

Each workload derives all of its inputs from the benchmark seed and offers:

* ``setup(seed, index, workdir)``: one cold set-up unit, run in a fresh
  interpreter for each ``index`` in ``range(setup_repeats)``, before the
  timed loop and again after it;
* ``check_setup(index, workdir, made)``: checks on what ``setup`` made;
* ``measure(seed, seconds, workdir, trace)``: the timed closed loop, then the
  correctness checks and, with ``trace``, the traced pass.

heritcc is imported inside these methods, never at module level, so that
set-up time includes loading the program. Calls go through module attributes
(``simulate.load_dataset``), which is what the tracer replaces.
"""

from __future__ import annotations

import concurrent.futures
import itertools
import math
import multiprocessing
import os
import resource
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
from tracing import Tracer, spans_to_json

EN_GAMMA = 0.05


def derive_seed(seed: int, *path: int) -> int:
    """A 63-bit seed for sub-input ``path`` of benchmark seed ``seed``."""
    state = np.random.SeedSequence(seed, spawn_key=path).generate_state(1, np.uint64)
    return int(state[0] >> np.uint64(1))


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def peak_rss_mb() -> float:
    """Peak resident set of this process and of its reaped children, in MB."""
    self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kib, child_kib) * 1024 / 1e6


def closed_loop(op, inputs: list, refs: list, seconds: float) -> dict:
    """Run ``op`` over ``inputs`` in whole rounds until ``seconds`` have passed.

    One operation starts when the previous one ends. Each output is compared
    with the warm-up output ``refs`` of the same input.
    """
    rounds, failed, mismatches, errors = 0, 0, 0, set()
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        for args, ref in zip(inputs, refs):
            try:
                out = op(*args)
            except Exception as exc:  # a failed operation is counted, not fatal
                failed += 1
                errors.add(repr(exc))
                continue
            mismatches += out != ref
        rounds += 1
    window = time.perf_counter() - start
    return {"attempted": rounds * len(inputs), "failed": failed, "mismatches": mismatches,
            "errors": sorted(errors),
            "e2e": {"ops_per_s": rounds * len(inputs) / window, "peak_rss_mb": peak_rss_mb()}}


def traced_pass(op, inputs: list) -> dict:
    """Run ``op`` once per input untraced, then again with the tracer on.

    The tracing overhead is the difference of the two mean times per
    operation; the untraced mean is returned as ``untraced_s``.
    """
    t0 = time.perf_counter()
    for args in inputs:
        op(*args)
    untraced_s = (time.perf_counter() - t0) / len(inputs)
    with Tracer() as tracer:
        t0 = time.perf_counter()
        for args in inputs:
            op(*args)
        traced_s = (time.perf_counter() - t0) / len(inputs)
    overhead = traced_s - untraced_s
    return {"spans": spans_to_json(tracer.spans), "untraced_s": untraced_s,
            "extras": {"trace.overhead_s": overhead,
                       "trace.overhead_ratio": overhead / untraced_s}}


def no_mismatch(loop: dict) -> None:
    if loop["mismatches"]:
        raise checks.CheckError(f"{loop['mismatches']} timed operations did not reproduce "
                                "the output of their warm-up run")


# ---------------------------------------------------------------------------
# replicate-common / replicate-rare
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Replicate:
    """Replications of ``run_experiment`` on a pool of ``nproc`` workers.

    One batch is one ``run_experiment`` call of ``batch_rounds * nproc``
    replications; batches run back to back until the run time is used.
    """

    name: str
    prevalence: float
    batch_rounds: int
    trace_reps: int
    eta_star: float = 0.5
    study_prevalence: float = 0.5
    n_loci: int = 10_000
    target_cases: int = 100
    setup_repeats: int = 6

    def config(self, seed: int, batch: int):
        from heritcc.experiments import ExperimentConfig
        return ExperimentConfig(
            eta_star=self.eta_star, population_prevalence=self.prevalence,
            study_prevalence=self.study_prevalence, n_loci=self.n_loci,
            target_cases=self.target_cases,
            replications=self.batch_rounds * nproc(), seed=derive_seed(seed, batch),
        )

    def params(self, seed: int) -> dict:
        return {"K": self.prevalence, "P": self.study_prevalence, "eta_star": self.eta_star,
                "n_loci": self.n_loci, "target_cases": self.target_cases,
                "n_population": math.ceil(self.target_cases / self.prevalence),
                "genotype_kind": "binomial-2-p", "workers": nproc(),
                "replications_per_batch": self.batch_rounds * nproc(),
                "trace_reps": self.trace_reps}

    def setup(self, seed: int, index: int, workdir: Path) -> None:
        self.config(seed, 0)

    def check_setup(self, index: int, workdir: Path, made) -> list[str]:
        return []

    def measure(self, seed: int, seconds: float, workdir: Path, trace: bool) -> dict:
        from heritcc import experiments
        workers = nproc()
        batches = []
        start = time.perf_counter()
        while not batches or time.perf_counter() - start < seconds:
            cfg = self.config(seed, len(batches))
            batches.append((cfg, experiments.run_experiment(cfg, workers=workers).records))
        window = time.perf_counter() - start
        peak_mb = peak_rss_mb()
        records = [r for _, recs in batches for r in recs]
        out = {
            "attempted": len(records),
            "failed": sum(r.error is not None for r in records),
            "e2e": {"ops_per_s": len(records) / window, "peak_rss_mb": peak_mb},
            "info": {"batch_seeds": [cfg.seed for cfg, _ in batches],
                     "errors": sorted({r.error for r in records if r.error is not None})},
        }
        n_ok = len(records) - out["failed"]
        if not checks.mean_check_applies(n_ok, self.eta_star):
            out["info"]["checks_not_applied"] = [
                f"mean eta_hat vs eta*: {n_ok} replications are too few for any mean in "
                f"[0, 1] to fall outside the limit {checks.mean_limit(max(n_ok, 1)):.2f}"]
        n_pop = math.ceil(self.target_cases / self.prevalence)
        k, p = self.prevalence, self.study_prevalence
        out["failures"] = checks.run_checks(
            lambda: checks.check_replications(records, self.eta_star),
            *[lambda r=r: checks.check_counts(n_pop, r.realized_cases,
                                              r.realized_n - r.realized_cases, k, p)
              for r in records if r.error is None],
            lambda: self._check_in_process(batches[0][0], batches[0][1][0]),
        )
        if trace:
            cfg = batches[0][0]
            inputs = [(cfg, i) for i in range(self.trace_reps)]
            out.update(traced_pass(lambda *a: experiments.run_replication(*a), inputs))
            serial_s = out["untraced_s"]
            out["extras"]["experiments.replication_serial_s"] = serial_s
            out["extras"]["experiments.parallel_efficiency"] = (
                len(records) * serial_s / (workers * window))
        return out

    def _check_in_process(self, cfg, pooled) -> None:
        """Replication 0 of the first batch, re-run in-process with its
        intermediate outputs kept, then checked from its inputs up."""
        from heritcc import experiments
        with Tracer(keep_results=True) as tracer:
            record = experiments.run_replication(cfg, pooled.rep_index)
        checks.check_same_record(pooled, record)
        study = tracer.results["simulate.simulate_case_control_study"]
        checks.check_design(study.design)
        checks.check_estimators(
            study.sample.z_study.z, study.sample.w, self.prevalence, self.study_prevalence,
            tracer.results["grm.grm_compute"].g,
            tracer.results["estimators.estimate_first_order"],
            tracer.results["estimators.estimate_second_order"],
        )


# ---------------------------------------------------------------------------
# estimate-large
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Estimate:
    """The ``heritcc estimate`` path on large saved studies.

    Set-up simulates and saves one study per set-up unit. One operation
    loads a study and runs GRM, both estimators and the uniform-smallness
    check, cycling over the studies in whole rounds.
    """

    name: str
    n_studies: int = 2
    prevalence: float = 0.1
    study_prevalence: float = 0.5
    heritability: float = 0.5
    n_loci: int = 5_000
    target_cases: int = 1_500

    @property
    def setup_repeats(self) -> int:
        return self.n_studies

    def params(self, seed: int) -> dict:
        return {"K": self.prevalence, "P": self.study_prevalence, "eta": self.heritability,
                "n_loci": self.n_loci, "target_cases": self.target_cases,
                "n_population": math.ceil(self.target_cases / self.prevalence),
                "genotype_kind": "binomial-2-p", "en_gamma": EN_GAMMA,
                "study_seeds": [derive_seed(seed, i) for i in range(self.n_studies)]}

    def _path(self, workdir: Path, index: int) -> Path:
        return workdir / f"study-{index}.bin"

    def setup(self, seed: int, index: int, workdir: Path):
        from heritcc import simulate
        study = simulate.simulate_case_control_study(
            heritability=self.heritability, population_prevalence=self.prevalence,
            study_prevalence=self.study_prevalence, n_loci=self.n_loci,
            target_cases=self.target_cases, seed=derive_seed(seed, index))
        simulate.save_dataset(self._path(workdir, index), study)
        return study

    def check_setup(self, index: int, workdir: Path, study) -> list[str]:
        from heritcc import simulate
        loaded = simulate.load_dataset(self._path(workdir, index))
        return checks.run_checks(lambda: checks.check_roundtrip(study, loaded))

    @staticmethod
    def _op(path: Path, keep_grm: Path | None = None) -> tuple:
        from heritcc import estimators, grm, simulate
        data = simulate.load_dataset(path)
        g = grm.grm_compute(data.sample.z_study)
        first = estimators.estimate_first_order(data.sample, g, data.design)
        second = estimators.estimate_second_order(data.sample, g, data.design, data.n_loci)
        en = grm.event_en_check(g, EN_GAMMA)
        if keep_grm is not None:
            np.save(keep_grm, g.g)
        return (first.eta_hat, first.raw_ratio, second.eta_hat, second.converged,
                second.objective_value, en.holds, en.sup_diag_dev, en.sup_offdiag)

    def measure(self, seed: int, seconds: float, workdir: Path, trace: bool) -> dict:
        inputs = [(self._path(workdir, i),) for i in range(self.n_studies)]
        grm_paths = [workdir / f"grm-{i}.npy" for i in range(self.n_studies)]
        refs = [self._op(path, keep) for (path,), keep in zip(inputs, grm_paths)]
        loop = closed_loop(self._op, inputs, refs, seconds)
        out = {"attempted": loop["attempted"], "failed": loop["failed"], "e2e": loop["e2e"],
               "info": {"dataset_bytes": [p.stat().st_size for (p,) in inputs],
                        "errors": loop["errors"]}}
        out["failures"] = checks.run_checks(
            lambda: no_mismatch(loop),
            *[lambda i=i: self._check_study(inputs[i][0], grm_paths[i], refs[i])
              for i in range(self.n_studies)],
        )
        if trace:
            out.update(traced_pass(self._op, inputs))
        return out

    def _check_study(self, path: Path, grm_path: Path, ref: tuple) -> None:
        from heritcc import simulate
        data = simulate.load_dataset(path)
        sample = data.sample
        checks.check_design(data.design)
        checks.check_counts(data.population_size, sample.n_cases, sample.n_controls,
                            self.prevalence, self.study_prevalence)
        first_eta, raw, second_eta = ref[:3]
        checks.check_standardized(sample.z_study.z)
        reference = checks.relationship_matrix(sample.z_study.z)
        checks.check_grm(np.load(grm_path), reference)
        sums = checks.pair_sums(reference, sample.w, self.prevalence, self.study_prevalence,
                                data.n_loci)
        checks.check_first_order(raw, first_eta, sums)
        checks.check_second_order(second_eta, sums)


# ---------------------------------------------------------------------------
# moment-grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MomentGrid:
    """Exact pair moment and both approximations over a seeded grid.

    a_i, a_j, b_ij and eta are drawn from the seed; K and N span the ranges
    of the paper's convergence plots. One operation is one grid point.

    The grid runs as ``nproc`` closed loops, one per worker process: on a
    small shared host the speed of one busy single-threaded loop can swing
    ~1.6x in phases of tens of seconds with the host's other load, and the
    sum of one loop per core is steadier (see README.md).
    """

    name: str
    prevalences: tuple[float, ...] = (0.01, 0.03, 0.1, 0.3)
    n_loci: tuple[int, ...] = (100, 1_000, 10_000, 100_000, 1_000_000)
    study_prevalence: float = 0.5
    trace_rounds: int = 2
    setup_repeats: int = 6

    def points(self, seed: int) -> list[tuple]:
        rng = np.random.default_rng(derive_seed(seed, 0))
        a = [float(x) for x in np.sort(rng.uniform(-2.0, 2.0, 3))]
        b = [float(x) for x in np.sort(rng.uniform(-3.0, 3.0, 4))]
        eta = [float(x) for x in np.sort(rng.uniform(0.1, 0.9, 3))]
        return list(itertools.product(a, a, b, eta, self.prevalences,
                                      [self.study_prevalence], self.n_loci))

    def params(self, seed: int) -> dict:
        pts = self.points(seed)
        return {"grid_seed": derive_seed(seed, 0), "points": len(pts),
                "a": sorted({p[0] for p in pts}), "b_ij": sorted({p[2] for p in pts}),
                "eta": sorted({p[3] for p in pts}), "K": list(self.prevalences),
                "P": self.study_prevalence, "N": list(self.n_loci), "loops": nproc()}

    def inputs(self, seed: int) -> list[tuple]:
        from heritcc import grm, simulate
        designs = {k: simulate.design_from_prevalences(k, self.study_prevalence)
                   for k in self.prevalences}
        return [(grm.SigmaPair(a_i, a_j, b_ij), designs[k], eta, n, b_ij / math.sqrt(n))
                for a_i, a_j, b_ij, eta, k, _, n in self.points(seed)]

    @staticmethod
    def op():
        from heritcc import moments

        def evaluate(sp, design, eta, n, g_ij) -> tuple[float, float, float]:
            return (moments.exact_pair_expectation(sp, design, eta, n),
                    moments.first_order_pair_expectation(g_ij, design, eta),
                    moments.second_order_pair_expectation(sp, design, eta, n))

        return evaluate

    def setup(self, seed: int, index: int, workdir: Path) -> None:
        self.op()
        self.inputs(seed)

    def check_setup(self, index: int, workdir: Path, made) -> list[str]:
        return []

    def measure(self, seed: int, seconds: float, workdir: Path, trace: bool) -> dict:
        from heritcc import moments
        op, inputs = self.op(), self.inputs(seed)
        refs = [op(*args) for args in inputs]
        context = multiprocessing.get_context("spawn")
        with concurrent.futures.ProcessPoolExecutor(nproc(), mp_context=context) as pool:
            futures = [pool.submit(_grid_loop, self.name, seed, seconds, refs)
                       for _ in range(nproc())]
            loops = [f.result() for f in futures]
        ops_per_s = sum(loop["e2e"]["ops_per_s"] for loop in loops)
        out = {"attempted": sum(loop["attempted"] for loop in loops),
               "failed": sum(loop["failed"] for loop in loops),
               "e2e": {"ops_per_s": ops_per_s, "peak_rss_mb": peak_rss_mb()},
               "info": {"errors": sorted({e for loop in loops for e in loop["errors"]})}}
        values = np.array(refs)
        probabilities = np.array([moments.pair_probabilities(sp, design, eta, n)
                                  for sp, design, eta, n, _ in inputs])
        out["failures"] = checks.run_checks(
            *[lambda loop=loop: no_mismatch(loop) for loop in loops],
            *[lambda d=d: checks.check_design(d) for d in {x[1] for x in inputs}],
            lambda: checks.check_moment_grid(self.points(seed), values[:, 0], values[:, 1],
                                             values[:, 2], probabilities),
        )
        if trace:
            out.update(traced_pass(op, inputs * self.trace_rounds))
        return out


def _grid_loop(name: str, seed: int, seconds: float, refs: list) -> dict:
    """One of moment-grid's closed loops, in a pool worker."""
    workload = WORKLOADS[name]
    return closed_loop(workload.op(), workload.inputs(seed), refs, seconds)


WORKLOADS = {w.name: w for w in (
    Replicate("replicate-common", prevalence=0.1, batch_rounds=8, trace_reps=8),
    Replicate("replicate-rare", prevalence=0.005, batch_rounds=1, trace_reps=2),
    Estimate("estimate-large"),
    MomentGrid("moment-grid"),
)}

"""Tests of the benchmark's correctness checks: each accepts the program's
real output and rejects a slightly perturbed one. Also: failed operations
are counted.

    python3 -m pytest perfbench/test_checks.py -q
"""

from __future__ import annotations

import dataclasses
import math
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
from checks import CheckError  # noqa: E402
from heritcc import estimators, experiments, grm, moments, simulate  # noqa: E402
from workloads import closed_loop  # noqa: E402

K, P, N_LOCI = 0.1, 0.5, 500


@pytest.fixture(scope="module")
def study():
    data = simulate.simulate_case_control_study(0.5, K, P, N_LOCI, 40, seed=5)
    g = grm.grm_compute(data.sample.z_study)
    first = estimators.estimate_first_order(data.sample, g, data.design)
    second = estimators.estimate_second_order(data.sample, g, data.design, N_LOCI)
    assert 0.0 < second.eta_hat < 1.0  # interior, so a shift stays inside [0, 1]
    return data, g.g, first, second


def _estimator_checks(data, g, first, second):
    checks.check_estimators(data.sample.z_study.z, data.sample.w, K, P, g, first, second)


def test_estimator_checks_accept_program_output(study):
    _estimator_checks(*study)


def test_second_order_shift_rejected(study):
    data, g, first, second = study
    with pytest.raises(CheckError, match="second-order"):
        _estimator_checks(data, g, first,
                          dataclasses.replace(second, eta_hat=second.eta_hat + 1e-3))


def test_first_order_ratio_shift_rejected(study):
    data, g, first, second = study
    raw = first.raw_ratio * (1.0 + 1e-6)
    with pytest.raises(CheckError, match="first-order"):
        _estimator_checks(data, g, dataclasses.replace(first, raw_ratio=raw), second)


def test_changed_grm_entry_rejected(study):
    data, g, first, second = study
    changed = g.copy()
    changed[3, 7] += 1e-6
    with pytest.raises(CheckError, match="GRM"):
        _estimator_checks(data, changed, first, second)


def test_unstandardized_column_rejected(study):
    data = study[0]
    z = data.sample.z_study.z.copy()
    z[:, 2] += 1e-6
    with pytest.raises(CheckError, match="column mean"):
        checks.check_standardized(z)


def test_design_check(study):
    design = study[0].design
    checks.check_design(design)
    with pytest.raises(CheckError, match="threshold"):
        checks.check_design(dataclasses.replace(design, threshold=design.threshold + 1e-8))


def test_count_check():
    n_pop, k = 20_000, 0.005
    checks.check_counts(n_pop, 100, 100, k, P)
    with pytest.raises(CheckError, match="cases"):
        checks.check_counts(n_pop, 100 + math.ceil(6 * math.sqrt(n_pop * k * (1 - k))),
                            100, k, P)
    with pytest.raises(CheckError, match="controls"):
        checks.check_counts(n_pop, 100, 160, k, P)


def test_roundtrip_check(study, tmp_path):
    data = study[0]
    path = tmp_path / "study.bin"
    simulate.save_dataset(path, data)
    loaded = simulate.load_dataset(path)
    checks.check_roundtrip(data, loaded)
    z = loaded.sample.z_study.z.copy()
    z[0, 0] = np.nextafter(z[0, 0], np.inf)
    sample = dataclasses.replace(
        loaded.sample, z_study=dataclasses.replace(loaded.sample.z_study, z=z))
    with pytest.raises(CheckError, match="array z"):
        checks.check_roundtrip(data, dataclasses.replace(loaded, sample=sample))


def test_replication_checks():
    cfg = experiments.ExperimentConfig(n_loci=N_LOCI, target_cases=40, replications=6, seed=3)
    records = experiments.run_experiment(cfg).records
    checks.check_replications(records, cfg.eta_star)
    checks.check_same_record(records[2], experiments.run_replication(cfg, 2))
    biased = [dataclasses.replace(records[0], rep_index=i, eta_hat={"first": 0.95})
              for i in range(40)]
    with pytest.raises(CheckError, match="further than"):
        checks.check_replications(biased, cfg.eta_star)
    assert checks.mean_check_applies(40, cfg.eta_star)
    assert not checks.mean_check_applies(10, cfg.eta_star)  # any mean passes at R = 10
    on_bound = [dataclasses.replace(r, eta_hat={"first": 0.0}) for r in records[:2]]
    checks.check_replications(on_bound, cfg.eta_star)  # too few to bound the mean
    outside = [dataclasses.replace(records[0], eta_hat={"first": 1.0 + 1e-9})] + records[1:]
    with pytest.raises(CheckError, match=r"outside \[0, 1\]"):
        checks.check_replications(outside, cfg.eta_star)
    changed = dataclasses.replace(records[2], realized_cases=records[2].realized_cases + 1)
    with pytest.raises(CheckError, match="realized_cases"):
        checks.check_same_record(changed, records[2])


@pytest.fixture(scope="module")
def grid():
    points = [(a_i, a_j, b, 0.5, k, P, n)
              for a_i in (-1.0, 1.5) for a_j in (0.5,) for b in (-2.0, 1.0)
              for k in (0.01, 0.3) for n in (100, 1_000_000)]
    exact, first, second, probs = [], [], [], []
    for a_i, a_j, b, eta, k, p, n in points:
        design = simulate.design_from_prevalences(k, p)
        sp = grm.SigmaPair(a_i, a_j, b)
        exact.append(moments.exact_pair_expectation(sp, design, eta, n))
        first.append(moments.first_order_pair_expectation(b / math.sqrt(n), design, eta))
        second.append(moments.second_order_pair_expectation(sp, design, eta, n))
        probs.append(moments.pair_probabilities(sp, design, eta, n))
    return points, np.array(exact), np.array(first), np.array(second), np.array(probs)


def test_moment_grid_check_accepts_program_output(grid):
    checks.check_moment_grid(*grid)


def test_exact_moment_shift_rejected(grid):
    points, exact, first, second, probs = grid
    shifted = exact.copy()
    shifted[5] += 1e-6
    with pytest.raises(CheckError, match="exact moment"):
        checks.check_moment_grid(points, shifted, first, second, probs)


def test_joint_probability_shift_rejected(grid):
    points, exact, first, second, probs = grid
    shifted = probs.copy()
    shifted[3, 0] += 1e-9
    shifted[3, 2] -= 1e-9
    with pytest.raises(CheckError, match="joint probabilities"):
        checks.check_moment_grid(points, exact, first, second, shifted)


def test_first_order_approximation_shift_rejected(grid):
    points, exact, first, second, probs = grid
    shifted = first * (1.0 + 1e-9)
    with pytest.raises(CheckError, match="first-order approximation"):
        checks.check_moment_grid(points, exact, shifted, second, probs)


def test_second_order_no_better_rejected(grid):
    points, exact, first, second, probs = grid
    with pytest.raises(CheckError, match="second-order error"):
        checks.check_moment_grid(points, exact, first, first, probs)


def test_closed_loop_counts_failed_operations():
    def op(x):
        if x == 1:
            raise ValueError("degenerate input")
        return x * 2

    loop = closed_loop(op, [(0,), (1,), (2,)], [0, 2, 4], seconds=0.01)
    assert loop["attempted"] % 3 == 0 and loop["failed"] * 3 == loop["attempted"]
    assert loop["mismatches"] == 0
    assert loop["errors"] == ["ValueError('degenerate input')"]

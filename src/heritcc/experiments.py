"""Monte Carlo experiment harness: replication studies, timing grids, and
consistency trends.

Replications draw from substreams indexed by replication number, so results
are identical no matter how work is scheduled; records come back in index
order. Pool workers are spawned with one BLAS thread each, so a pool of one
worker per core runs one thread per core. A process keeps one pool: it
starts at the first pooled call and serves every later call with the same
worker count (each experiment, each locus count of a consistency study), so
workers import numpy and heritcc once. A call with another worker count, or
a pool found broken when a call starts, replaces it; interpreter exit shuts
it down. A worker that dies mid-call fails the replications the pool had not
finished, which become failed records; the finished ones are kept. CSV
outputs carry the full configuration as comment lines, a column per written
row field, and round-trip exactly (floats serialized with repr). A seed
fixes their bytes for one BLAS build and kernel: another kernel may move an
estimate's last digits.
"""

from __future__ import annotations

import functools
import math
import multiprocessing
import os
import statistics
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import Field, asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .estimators import METHODS, estimate
from .grm import EN_GAMMA, event_en_check, grm_compute, mean_square_offdiagonal
from .numerics import RandomSource
from .simulate import (
    AscertainedSample,
    StudyData,
    _centered_w,
    design_from_prevalences,
    make_distribution,
    sample_genotype_matrix,
    simulate_case_control_study,
    standardize,
    study_model,
)

__all__ = [
    "CONSISTENCY_GENOTYPE_KIND",
    "ExperimentConfig",
    "ReplicationRecord",
    "MethodSummary",
    "ExperimentResult",
    "run_experiment",
    "run_timing",
    "run_consistency_study",
    "consistency_configs",
    "simulate_study",
    "check_methods",
    "check_timing_grid",
    "check_workers",
    "write_table",
    "write_csv",
    "read_records_csv",
    "summarize_records",
]

# The consistency study's default genotypes; run_consistency_study says why.
CONSISTENCY_GENOTYPE_KIND = "standard-normal"
# Thread-count variables of the BLAS builds numpy links against; read once,
# when a process loads its BLAS.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Held while a pool has the variables set, so that pools started from two
# threads cannot restore each other's values; it also guards the kept pool.
_ENVIRON_LOCK = threading.Lock()
# The pool _pool_map keeps between calls, and its worker count.
_pool: ProcessPoolExecutor | None = None
_pool_workers = 0


def _replace_pool(workers: int) -> None:
    """Shut the kept pool down and keep a fresh one of ``workers`` processes."""
    global _pool, _pool_workers
    if _pool is not None:
        _pool.shutdown()
    _pool = ProcessPoolExecutor(max_workers=workers,
                                mp_context=multiprocessing.get_context("spawn"))
    _pool_workers = workers


def _pool_map(fn, tasks: list, workers: int, on_break) -> list:
    """``[fn(t) for t in tasks]``, spread over ``workers`` processes when
    ``workers > 1``; a task lost to a dead worker gives ``on_break(t, exc)``.

    Each worker runs one task at a time, so it gets one BLAS thread: the
    workers are spawned, load BLAS afresh and take its thread count from the
    environment they start with. Workers start as tasks are submitted, so the
    variables are set for the whole call; the caller's environment is
    restored afterwards. The serial path keeps the caller's BLAS threads.

    The pool outlives the call: the next call with the same ``workers``
    reuses its warm workers; a call with another count, or one that finds
    the pool broken, replaces it. A dead worker fails every task the pool has
    not finished, queued ones included, and the pool refuses later
    submissions; each such task gives ``on_break``'s value. A task's own
    exception propagates once the queued tasks are cancelled. The pool lives
    until interpreter exit, when ``concurrent.futures`` shuts it down.
    """
    if workers <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    with _ENVIRON_LOCK:
        saved = {name: os.environ.get(name) for name in _BLAS_THREAD_VARS}
        os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
        futures = []
        try:
            if _pool is None or _pool_workers != workers or _pool._broken:
                _replace_pool(workers)
            for task in tasks:
                try:
                    futures.append(_pool.submit(fn, task))
                except BrokenProcessPool as exc:
                    refused = Future()
                    refused.set_exception(exc)
                    futures.append(refused)
            results = []
            for task, future in zip(tasks, futures):
                try:
                    results.append(future.result())
                except BrokenProcessPool as exc:
                    results.append(on_break(task, exc))
            return results
        finally:
            for future in futures:
                future.cancel()
            for name, value in saved.items():
                if value is None:
                    os.environ.pop(name, None)
                else:
                    os.environ[name] = value


def check_methods(methods) -> None:
    """Raise ValueError unless ``methods`` names each of some of ``METHODS``
    once, naming the valid methods."""
    unknown = set(methods) - set(METHODS)
    if unknown:
        raise ValueError(f"unknown methods {sorted(unknown)}; valid: {METHODS}")
    if not methods:
        raise ValueError(f"no methods given; valid: {METHODS}")
    if len(set(methods)) < len(methods):
        raise ValueError(f"methods {list(methods)} repeat one; valid: {METHODS}")


def _check_distinct(name: str, values) -> None:
    """Raise ValueError, as :func:`check_methods` does, if ``values`` repeat one."""
    if len(set(values)) < len(values):
        raise ValueError(f"{name} {list(values)} repeat one")


def check_workers(workers: int) -> None:
    """Raise ValueError unless ``workers`` counts at least one process."""
    if workers < 1:
        raise ValueError(f"worker count must be >= 1, got {workers}")


@dataclass(frozen=True)
class ExperimentConfig:
    """One replication study: generative parameters plus execution knobs."""

    eta_star: float = 0.5
    population_prevalence: float = 0.1
    study_prevalence: float = 0.5
    n_loci: int = 10_000
    target_cases: int = 100
    replications: int = 200
    seed: int = 20_260_101
    methods: tuple[str, ...] = METHODS
    genotype_kind: str = "binomial-2-p"

    def __post_init__(self) -> None:
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        check_methods(self.methods)
        # the study's own checks, made before any replication runs
        study_model(self.eta_star, self.population_prevalence, self.study_prevalence,
                    self.n_loci, self.target_cases, self.seed, self.genotype_kind)

    def as_dict(self) -> dict:
        return asdict(self) | {"methods": ",".join(self.methods)}


# The metadata of a row field that its CSV leaves out.
_UNWRITTEN = {"written": False}


@dataclass(frozen=True)
class ReplicationRecord:
    rep_index: int
    realized_n: int
    realized_cases: int
    eta_hat: dict[str, float]
    en_holds: bool
    error: str | None = None
    # off-diagonal mean square of the relationship matrix
    mean_sq_offdiag: float = field(default=math.nan, metadata=_UNWRITTEN)


def _replication_seed_stream(seed: int, rep_index: int) -> int:
    # replication r of experiment seed s always simulates from substream
    # (s, r); the study pipeline takes a scalar seed, so fold the pair
    # through a SeedSequence-generated integer
    ss = np.random.SeedSequence(seed, spawn_key=(rep_index,))
    return int(ss.generate_state(1, np.uint64)[0])


def simulate_study(cfg: ExperimentConfig, seed: int) -> StudyData:
    """Simulate one study of ``cfg``'s design and sizes from ``seed``."""
    return simulate_case_control_study(
        heritability=cfg.eta_star,
        population_prevalence=cfg.population_prevalence,
        study_prevalence=cfg.study_prevalence,
        n_loci=cfg.n_loci,
        target_cases=cfg.target_cases,
        seed=seed,
        genotype_kind=cfg.genotype_kind,
    )


def run_replication(cfg: ExperimentConfig, rep_index: int) -> ReplicationRecord:
    """Simulate one study and run the configured estimators on it."""
    try:
        study = simulate_study(cfg, _replication_seed_stream(cfg.seed, rep_index))
        sample = study.sample
        g = grm_compute(sample.z_study)
        eta_hat = {m: estimate(m, sample, g, study.design).eta_hat for m in cfg.methods}
        return ReplicationRecord(
            rep_index=rep_index,
            realized_n=int(sample.y.shape[0]),
            realized_cases=sample.n_cases,
            eta_hat=eta_hat,
            en_holds=event_en_check(g, EN_GAMMA).holds,
            mean_sq_offdiag=mean_square_offdiagonal(g),
        )
    except Exception as exc:  # any failure is recorded, so the other replications survive
        return _failed_record(rep_index, exc)


def _failed_record(rep_index: int, exc: BaseException) -> ReplicationRecord:
    """The record of replication ``rep_index``, which ``exc`` ended."""
    return ReplicationRecord(rep_index=rep_index, realized_n=0, realized_cases=0,
                             eta_hat={}, en_holds=False,
                             error=f"{type(exc).__name__}: {exc}")


@dataclass(frozen=True)
class MethodSummary:
    method: str
    n_ok: int
    mean: float
    sd: float
    bias: float
    q25: float
    median: float
    q75: float


@dataclass(frozen=True)
class ExperimentResult:
    records: list[ReplicationRecord]
    summaries: dict[str, MethodSummary]


def summarize_records(cfg: ExperimentConfig,
                      records: list[ReplicationRecord]) -> dict[str, MethodSummary]:
    summaries = {}
    for method in cfg.methods:
        values = [r.eta_hat[method] for r in records if method in r.eta_hat]
        if not values:
            continue
        q25, median, q75 = np.percentile(values, [25, 50, 75])
        summaries[method] = MethodSummary(
            method=method,
            n_ok=len(values),
            mean=float(np.mean(values)),
            sd=float(np.std(values, ddof=1)) if len(values) > 1 else 0.0,
            bias=float(np.mean(values) - cfg.eta_star),
            q25=float(q25),
            median=float(median),
            q75=float(q75),
        )
    return summaries


def run_experiment(cfg: ExperimentConfig, workers: int = 1) -> ExperimentResult:
    """Execute all replications on independent substreams.

    ``workers > 1`` fans replications out to a process pool; scheduling never
    changes the records because each replication derives its own stream.
    Records come in replication order; one that raised or lost its worker has
    ``error`` set and no summary counts it. ``workers`` below 1 raises ValueError.
    """
    check_workers(workers)
    records = _pool_map(functools.partial(run_replication, cfg),
                        list(range(cfg.replications)), workers, _failed_record)
    return ExperimentResult(records, summarize_records(cfg, records))


# ---------------------------------------------------------------------------
# Timing study
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TimingRow:
    n: int
    n_loci: int
    polymorphic_loci: int  # the loci standardize keeps: the matrix's M
    method: str
    seconds: float


_TIMING_DESIGN = design_from_prevalences(0.1, 0.5)


def _timing_inputs(n: int, n_loci: int, seed: int):
    """Synthesize estimator inputs of exactly the requested size."""
    rs = RandomSource(seed)
    dist = make_distribution("binomial-2-p", n_loci, rs.spawn(0))
    raw = sample_genotype_matrix(dist, n, n_loci, rs.spawn(1))
    y = rs.spawn(2).generator.random(n) < _TIMING_DESIGN.study_prevalence
    sample = AscertainedSample(indices=np.arange(n), y=y, w=_centered_w(y, _TIMING_DESIGN))
    return raw, sample


def _run_estimation(raw, sample, design, method: str) -> int:
    estimate(method, sample, g := grm_compute(standardize(raw)), design)
    return g.n_loci  # the loci standardize kept


def check_timing_grid(n_values: list[int], n_loci_values: list[int],
                      methods: tuple[str, ...]) -> None:
    """Raise ValueError naming a bad value: an empty grid, a study size below
    2, a locus count below 1, a repeated grid value, or methods
    :func:`check_methods` rejects."""
    if not n_values or not n_loci_values:
        raise ValueError("timing grids must be nonempty")
    if min(n_values) < 2:
        raise ValueError(f"study sizes must be >= 2, got {min(n_values)}")
    if min(n_loci_values) < 1:
        raise ValueError(f"locus counts must be >= 1, got {min(n_loci_values)}")
    _check_distinct("study sizes", n_values)
    _check_distinct("locus counts", n_loci_values)
    check_methods(methods)


def run_timing(n_values: list[int], n_loci_values: list[int],
               methods: tuple[str, ...] = METHODS,
               seed: int = 0, repeats: int = 3) -> list[TimingRow]:
    """Median-of-``repeats`` wall time per grid point, one warm-up run each.

    Timed work: standardize + relationship matrix + estimator, matching the
    cost of producing one estimate from raw study genotypes. Within a grid
    point the methods take turns, one repeat each, so a drift in host speed
    lands on every method alike. ``polymorphic_loci`` is the M of the
    warm-up's matrix. :func:`check_timing_grid` checks the grid first.
    """
    check_timing_grid(n_values, n_loci_values, methods)
    rows = []
    for n in n_values:
        for n_loci in n_loci_values:
            raw, sample = _timing_inputs(n, n_loci, seed)
            times = {method: [] for method in methods}
            for method in methods:
                kept = _run_estimation(raw, sample, _TIMING_DESIGN, method)  # warm-up
            for _ in range(repeats):
                for method in methods:
                    t0 = time.perf_counter()
                    _run_estimation(raw, sample, _TIMING_DESIGN, method)
                    times[method].append(time.perf_counter() - t0)
            rows.extend(TimingRow(n, n_loci, kept, method, statistics.median(times[method]))
                        for method in methods)
    return rows


# ---------------------------------------------------------------------------
# Consistency trend study
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConsistencyRow:
    n_loci: int
    target_n: int
    reps: int
    mean: float
    sd: float
    rmse: float
    mean_sq_offdiag: float
    ratio_deviation: float
    # the first replication error of a row with no usable replication
    first_error: str | None = field(default=None, metadata=_UNWRITTEN)


def consistency_configs(eta_star: float, population_prevalence: float,
                        study_prevalence: float, ratio_a: float,
                        n_loci_values: list[int], reps: int, seed: int,
                        genotype_kind: str = CONSISTENCY_GENOTYPE_KIND) -> list[ExperimentConfig]:
    """The replication study of each locus count of
    :func:`run_consistency_study`; raises ValueError for a ``seed`` that
    :class:`RandomSource` rejects, before a seed per locus count is derived
    from it, for a ``ratio_a`` that is not positive or whose product with a
    locus count is not finite, for a repeated locus count and for what
    :class:`ExperimentConfig` rejects."""
    RandomSource(seed)
    if not (ratio_a > 0 and all(math.isfinite(ratio_a * n) for n in n_loci_values)):
        raise ValueError(f"ratio_a must be > 0, got {ratio_a}, with ratio_a * n_loci finite")
    _check_distinct("locus counts", n_loci_values)
    return [
        ExperimentConfig(
            eta_star=eta_star, population_prevalence=population_prevalence,
            study_prevalence=study_prevalence, n_loci=n_loci,
            target_cases=max(2, round(round(ratio_a * n_loci) * study_prevalence)),
            replications=reps, seed=seed + n_loci, methods=("first",),
            genotype_kind=genotype_kind,
        )
        for n_loci in n_loci_values
    ]


def run_consistency_study(eta_star: float, population_prevalence: float,
                          study_prevalence: float, ratio_a: float,
                          n_loci_values: list[int], reps: int, seed: int,
                          genotype_kind: str = CONSISTENCY_GENOTYPE_KIND,
                          workers: int = 1) -> list[ConsistencyRow]:
    """Error of the closed-form estimator along a proportional-growth path.

    For each locus count the study size targets ratio_a * n_loci; reports the
    estimator RMSE and the off-diagonal mean-square statistic against its
    n/n_loci reference, next to the count, mean and sd of the experiment's
    own :class:`MethodSummary`; the reference takes the configured n_loci,
    whatever loci a study drops. Continuous genotypes by default, because
    acceptance 7 runs the default and so pins its inputs. A locus count
    whose replications all fail gives a row with ``reps`` 0, NaN statistics
    and the first replication's error in ``first_error``. Bad parameters
    raise ValueError (see :func:`consistency_configs`) before anything runs.
    """
    rows = []
    for cfg in consistency_configs(eta_star, population_prevalence, study_prevalence,
                                   ratio_a, n_loci_values, reps, seed, genotype_kind):
        n_loci, target_n = cfg.n_loci, round(ratio_a * cfg.n_loci)
        (method,) = cfg.methods
        # a failed replication is left out of its row, not fatal
        result = run_experiment(cfg, workers)
        summary = result.summaries.get(method)
        if summary is None:
            rows.append(ConsistencyRow(n_loci, target_n, 0, *[math.nan] * 5,
                                       first_error=result.records[0].error))
            continue
        ok = [r for r in result.records if method in r.eta_hat]
        errors = np.array([r.eta_hat[method] for r in ok]) - eta_star
        stats = np.array([r.mean_sq_offdiag for r in ok])
        deviations = np.array([abs(r.mean_sq_offdiag - r.realized_n / n_loci) for r in ok])
        rows.append(ConsistencyRow(
            n_loci=n_loci,
            target_n=target_n,
            reps=summary.n_ok,
            mean=summary.mean,
            sd=summary.sd,
            rmse=float(np.sqrt(np.mean(errors**2))),
            mean_sq_offdiag=float(stats.mean()),
            ratio_deviation=float(deviations.mean()),
        ))
    return rows


# ---------------------------------------------------------------------------
# CSV emission: deterministic bytes, full config echo in comments
# ---------------------------------------------------------------------------


# read_records_csv's parser of a cell by its field's type (a dict's, per method)
_PARSERS = {"int": int, "float": float, "dict[str, float]": float,
            "bool": lambda text: text == "1", "str | None": lambda text: text or None}
# A cell may hold no comma or line break.
_ESCAPES = str.maketrans(",\n\r", ";  ")


def _columns(row_type, methods=()) -> list[tuple[str, Field, str | None]]:
    """``(name, field, method)`` per column of ``row_type``'s table: its written
    fields in order, a dict by method as one column per method, else None."""
    columns = []
    for f in fields(row_type):
        if f.metadata == _UNWRITTEN:  # by value: the field holds a read-only copy
            continue
        if f.type.startswith("dict["):
            columns.extend((f"{f.name}_{m}", f, m) for m in methods)
        else:
            columns.append((f.name, f, None))
    return columns


def _cell(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(float(value))
    return "" if value is None else str(value).translate(_ESCAPES)


def write_table(path: str | Path, header, rows, meta: dict | None = None) -> None:
    """Write ``# key=value`` lines for ``meta`` (sorted by key), the header
    and one comma-separated line per row. Floats are written with repr, so
    they read back exactly; booleans as 1/0; None as an empty cell; in any
    other cell a comma is written as ``;`` and a line break as a space."""
    lines = [f"# {key}={value}" for key, value in sorted((meta or {}).items())]
    lines.append(",".join(header))
    lines.extend(",".join(map(_cell, row)) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n")


def write_csv(path: str | Path, row_type, rows, meta: dict | None = None,
              methods: tuple[str, ...] = ()) -> None:
    """Write ``rows`` of the dataclass ``row_type`` as :func:`write_table` does, a
    column per written field in order, or per entry of ``methods`` for a dict."""
    columns = _columns(row_type, methods)
    write_table(path, [column for column, _, _ in columns],
                ([getattr(row, f.name) if m is None else getattr(row, f.name).get(m)
                  for _, f, m in columns] for row in rows), meta)


def read_records_csv(path: str | Path) -> tuple[dict, list[ReplicationRecord]]:
    """The config echo and records of a records file that :func:`write_csv`
    wrote for the echoed methods.

    Every written field comes back exactly (floats through repr), so writing
    what this reads gives the same bytes; ``error`` comes back with its
    commas as ``;`` and its line breaks as spaces, and an unwritten field
    takes its default. A header other than the echoed methods' or a row
    that does not parse raises ValueError naming the path and line."""
    config: dict[str, str] = {}
    records = []
    columns: list | None = None
    for number, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            config[key] = value
            continue
        cells = line.split(",")
        if columns is None:
            columns = _columns(ReplicationRecord, tuple(config.get("methods", "").split(",")))
            header = [column for column, _, _ in columns]
            if cells != header:
                raise ValueError(f"{path}:{number}: header {line!r} is not the records "
                                 f"header {','.join(header)!r} for the echoed methods")
            continue
        if len(cells) != len(columns):
            raise ValueError(f"{path}:{number}: {len(cells)} cells, the header has "
                             f"{len(columns)}")
        row = {f.name: {} for _, f, method in columns if method}
        try:
            for (_, f, method), text in zip(columns, cells):
                if method is None:
                    row[f.name] = _PARSERS[f.type](text)
                elif text:
                    row[f.name][method] = _PARSERS[f.type](text)
        except ValueError as exc:
            raise ValueError(f"{path}:{number}: {exc}") from None
        records.append(ReplicationRecord(**row))
    return config, records

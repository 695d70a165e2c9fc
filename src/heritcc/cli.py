"""Command-line interface: simulate / grm / moments / estimate / experiment /
bench / consistency.

Conventions shared by every subcommand:

* one rule for bad input: a flag or config-file value that the library
  rejects is a usage error, exit 2 with the library's message on stderr,
  found before anything is printed or written; a runtime failure exits 1
  with its message on stderr; success exits 0,
* the fully resolved configuration (defaults included) is printed before any
  work starts,
* output files are written to a temporary sibling and renamed into place, so
  interrupted runs never leave partial files.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from dataclasses import asdict, fields
from pathlib import Path

from . import __version__
from .estimators import METHODS, estimate
from .experiments import (
    CONSISTENCY_GENOTYPE_KIND,
    ConsistencyRow,
    ExperimentConfig,
    MethodSummary,
    ReplicationRecord,
    TimingRow,
    check_timing_grid,
    check_workers,
    consistency_configs,
    run_consistency_study,
    run_experiment,
    run_timing,
    simulate_study,
    write_csv,
    write_table,
)
from .grm import (
    EN_GAMMA,
    SigmaPair,
    check_gamma,
    event_en_check,
    grm_compute,
    grm_to_csv,
    save_grm,
)
from .moments import (
    exact_pair_expectation,
    first_order_pair_expectation,
    pair_covariance,
    second_order_pair_expectation,
)
from .numerics import RandomSource
from .simulate import (
    GENOTYPE_KINDS,
    LiabilityParams,
    design_from_prevalences,
    load_dataset,
    save_dataset,
)

__all__ = ["main", "entrypoint"]


def _default_threads() -> int:
    """The CPUs this process may run on (its affinity mask, where the
    platform has one), not every CPU of the host."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _atomic_produce(path: Path, producer) -> None:
    """Run ``producer(tmp_path)`` then rename the result into place."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".{path.name}.tmp.{os.getpid()}"
    try:
        producer(tmp)
        os.replace(tmp, path)
    except BaseException:
        if tmp.exists():
            tmp.unlink()
        raise


def _print_config(name: str, settings: dict) -> None:
    print(f"[{name}] resolved configuration:")
    for key in sorted(settings.keys() - {"run", "parser", "subcommand", "config"}):
        print(f"  {key} = {settings[key]}")


def _usage(parser: argparse.ArgumentParser, check, *args, **kwargs):
    """``check(*args, **kwargs)``, a ValueError it raises made a usage error
    (exit 2)."""
    try:
        return check(*args, **kwargs)
    except ValueError as exc:
        parser.error(str(exc))


# Keys of an experiment config file; the line key=value is read as the flag
# --key=value.
_EXPERIMENT_CONFIG_KEYS = ("eta", "K", "P", "n-loci", "target-cases", "replications",
                           "seed", "methods", "genotype-kind", "threads")


def _config_flags(path: str, parser: argparse.ArgumentParser) -> list[str]:
    """The lines of a key=value config file (``#`` comments allowed) as
    ``--key=value`` flags."""
    flags = []
    for raw_line in Path(path).read_text().splitlines():
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep:
            parser.error(f"{path}: config line {raw_line!r} is not key=value")
        if key not in _EXPERIMENT_CONFIG_KEYS:
            parser.error(f"{path}: unknown config key {key!r}")
        flags.append(f"--{key}={value}")
    return flags


def _method_list(text: str) -> tuple[str, ...]:
    """A comma-separated ``--methods`` value; the library checks the names."""
    return tuple(m.strip() for m in text.split(",") if m.strip())


_DEFAULTS = {f.name: f.default for f in fields(ExperimentConfig)}


def _study_flags(p: argparse.ArgumentParser, seed: int = _DEFAULTS["seed"],
                 genotype_kind: str = _DEFAULTS["genotype_kind"]) -> None:
    """The study flags of simulate, experiment and consistency, which default
    to ``ExperimentConfig``'s values."""
    p.add_argument("--eta", type=float, default=_DEFAULTS["eta_star"])
    p.add_argument("--K", type=float, default=_DEFAULTS["population_prevalence"])
    p.add_argument("--P", type=float, default=_DEFAULTS["study_prevalence"])
    p.add_argument("--seed", type=int, default=seed)
    p.add_argument("--genotype-kind", choices=GENOTYPE_KINDS, default=genotype_kind)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heritcc",
        description="Case-control simulation and moment-based heritability estimation",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    threads = _default_threads()

    sim = sub.add_parser("simulate", help="simulate one case-control study")
    sim.set_defaults(run=_cmd_simulate, parser=sim)
    _study_flags(sim, seed=0)
    sim.add_argument("--n-loci", type=int, default=_DEFAULTS["n_loci"])
    sim.add_argument("--target-cases", type=int, default=_DEFAULTS["target_cases"])
    sim.add_argument("--out", required=True)

    grm_p = sub.add_parser("grm", help="relationship matrix from a dataset")
    grm_p.set_defaults(run=_cmd_grm, parser=grm_p)
    grm_p.add_argument("--in", dest="input", required=True)
    grm_p.add_argument("--out", required=True)
    grm_p.add_argument("--csv", action="store_true", help="write CSV instead of binary")
    grm_p.add_argument("--check-en", action="store_true")
    grm_p.add_argument("--gamma", type=float, default=EN_GAMMA)

    mom = sub.add_parser("moments", help="pair-moment grid: exact vs approximations")
    mom.set_defaults(run=_cmd_moments, parser=mom)
    mom.add_argument("--a-i", type=float, nargs="+", default=[0.0])
    mom.add_argument("--a-j", type=float, nargs="+", default=[0.0])
    mom.add_argument("--b-ij", type=float, nargs="+", default=[1.0])
    mom.add_argument("--eta", type=float, nargs="+", default=[0.5])
    mom.add_argument("--K", type=float, nargs="+", default=[0.1])
    mom.add_argument("--P", type=float, nargs="+", default=[0.5])
    mom.add_argument("--N", type=int, nargs="+", default=[10_000])
    mom.add_argument("--out", required=True)

    est = sub.add_parser("estimate", help="estimate heritability from a dataset")
    est.set_defaults(run=_cmd_estimate, parser=est)
    est.add_argument("--in", dest="input", required=True)
    est.add_argument("--method", choices=(*METHODS, "both"), default="both")
    est.add_argument("--out", help="write a JSON report here (stdout otherwise)")

    exp = sub.add_parser("experiment", help="replication study")
    exp.set_defaults(run=_cmd_experiment, parser=exp)
    exp.add_argument("--config", help="key=value file; explicit flags win")
    _study_flags(exp)
    exp.add_argument("--n-loci", type=int, default=_DEFAULTS["n_loci"])
    exp.add_argument("--target-cases", type=int, default=_DEFAULTS["target_cases"])
    exp.add_argument("--replications", type=int, default=_DEFAULTS["replications"])
    exp.add_argument("--methods", type=_method_list, default=_DEFAULTS["methods"],
                     help=f"comma-separated subset of {','.join(METHODS)}")
    exp.add_argument("--threads", type=int, default=threads)
    exp.add_argument("--out-dir", required=True)

    bench = sub.add_parser("bench", help="timing grid over study and locus counts")
    bench.set_defaults(run=_cmd_bench, parser=bench)
    bench.add_argument("--n-values", type=int, nargs="+", default=[100, 1000])
    bench.add_argument("--N-values", type=int, nargs="+", default=[1000, 10_000])
    bench.add_argument("--methods", type=_method_list, default=METHODS)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--out", required=True)

    cons = sub.add_parser("consistency", help="estimator error along n/N growth path")
    cons.set_defaults(run=_cmd_consistency, parser=cons)
    _study_flags(cons, seed=1, genotype_kind=CONSISTENCY_GENOTYPE_KIND)
    cons.add_argument("--ratio-a", type=float, default=0.02)
    cons.add_argument("--N-values", type=int, nargs="+", default=[2000, 4000, 8000])
    cons.add_argument("--replications", type=int, default=100)
    cons.add_argument("--threads", type=int, default=threads)
    cons.add_argument("--out", required=True)

    return parser


def _study_config(parser: argparse.ArgumentParser, args: argparse.Namespace,
                  **fields) -> ExperimentConfig:
    """The configuration of the study flags and ``fields``, checked by
    ``ExperimentConfig``."""
    return _usage(parser, ExperimentConfig, eta_star=args.eta, population_prevalence=args.K,
                  study_prevalence=args.P, seed=args.seed,
                  genotype_kind=args.genotype_kind, **fields)


def _cmd_simulate(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    cfg = _study_config(parser, args, n_loci=args.n_loci, target_cases=args.target_cases)
    _print_config("simulate", vars(args))
    study = simulate_study(cfg, cfg.seed)
    _atomic_produce(Path(args.out), lambda tmp: save_dataset(tmp, study))
    sample = study.sample
    print(f"wrote {args.out}: n={sample.y.shape[0]} n_loci={study.n_loci} of {cfg.n_loci} "
          f"(cases={sample.n_cases}, controls={sample.n_controls})")
    return 0


def _cmd_grm(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.check_en:
        _usage(parser, check_gamma, args.gamma)
    _print_config("grm", vars(args))
    data = load_dataset(args.input)
    g = grm_compute(data.sample.z_study)
    export = grm_to_csv if args.csv else save_grm
    _atomic_produce(Path(args.out), lambda tmp: export(tmp, g))
    print(f"wrote {args.out}: n={g.n_individuals}, n_loci={g.n_loci}")
    if args.check_en:
        res = event_en_check(g, args.gamma)
        print(f"uniform-smallness check: holds={res.holds} "
              f"sup_diag_dev={res.sup_diag_dev:.6g} sup_offdiag={res.sup_offdiag:.6g} "
              f"eps={res.eps_n:.6g}")
    return 0


def _cmd_moments(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    designs = {(k, p): _usage(parser, design_from_prevalences, k, p)
               for k, p in itertools.product(args.K, args.P)}
    for eta in args.eta:
        _usage(parser, LiabilityParams, eta)
    pairs = [SigmaPair(a_i=a_i, a_j=a_j, b_ij=b_ij)
             for a_i, a_j, b_ij in itertools.product(args.a_i, args.a_j, args.b_ij)]
    for sp, eta, n_loci in itertools.product(pairs, args.eta, args.N):
        _usage(parser, pair_covariance, sp, eta, n_loci)
    _print_config("moments", vars(args))
    header = "a_i,a_j,b_ij,eta,K,P,n_loci,exact,first_order,second_order".split(",")
    rows = []
    for sp, eta, k, p, n_loci in itertools.product(pairs, args.eta, args.K, args.P, args.N):
        design = designs[k, p]
        rows.append((sp.a_i, sp.a_j, sp.b_ij, eta, k, p, n_loci,
                     exact_pair_expectation(sp, design, eta, n_loci),
                     first_order_pair_expectation(sp.b_ij / math.sqrt(n_loci), design, eta),
                     second_order_pair_expectation(sp, design, eta, n_loci)))
    _atomic_produce(Path(args.out), lambda tmp: write_table(tmp, header, rows))
    print(f"wrote {args.out}: {len(rows)} grid points")
    return 0


def _cmd_estimate(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    _print_config("estimate", vars(args))
    data = load_dataset(args.input)
    g = grm_compute(data.sample.z_study)
    methods = METHODS if args.method == "both" else (args.method,)
    reports = {m: estimate(m, data.sample, g, data.design) for m in methods}
    payload = {
        "input": str(args.input),
        "n": data.sample.y.shape[0],
        "n_loci": data.n_loci,
        "reports": [{"method": m} | asdict(r) for m, r in reports.items()],
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        _atomic_produce(Path(args.out), lambda tmp: tmp.write_text(text + "\n"))
        print(f"wrote {args.out}")
    else:
        print(text)
    for m, r in reports.items():
        print(f"{m}: eta_hat={r.eta_hat:.6f}")
    return 0


def _cmd_experiment(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    cfg = _study_config(parser, args, n_loci=args.n_loci, target_cases=args.target_cases,
                        replications=args.replications, methods=args.methods)
    _usage(parser, check_workers, args.threads)
    _print_config("experiment", cfg.as_dict() | {"threads": args.threads,
                                                 "out_dir": args.out_dir})
    result = run_experiment(cfg, workers=args.threads)
    out_dir = Path(args.out_dir)
    _atomic_produce(out_dir / "records.csv", lambda tmp: write_csv(
        tmp, ReplicationRecord, result.records, cfg.as_dict(), cfg.methods))
    _atomic_produce(out_dir / "summary.csv", lambda tmp: write_csv(
        tmp, MethodSummary, result.summaries.values(), cfg.as_dict()))
    for method, summary in result.summaries.items():
        print(f"{method}: mean={summary.mean:.4f} sd={summary.sd:.4f} "
              f"bias={summary.bias:+.4f} (n_ok={summary.n_ok})")
    print(f"wrote {out_dir/'records.csv'} and {out_dir/'summary.csv'}")
    failed = [r.error for r in result.records if r.error]
    if failed:
        print(f"warning: {len(failed)} of {cfg.replications} replications failed; "
              f"first error: {failed[0]}", file=sys.stderr)
    return 0


def _cmd_bench(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    _usage(parser, check_timing_grid, args.n_values, args.N_values, args.methods)
    _usage(parser, RandomSource, args.seed)
    _print_config("bench", vars(args))
    rows = run_timing(args.n_values, args.N_values, args.methods, seed=args.seed)
    meta = {"seed": args.seed, "methods": ",".join(args.methods)}
    _atomic_produce(Path(args.out), lambda tmp: write_csv(tmp, TimingRow, rows, meta))
    for row in rows:
        print(f"n={row.n} n_loci={row.polymorphic_loci} of {row.n_loci} "
              f"{row.method}: {row.seconds:.3f}s")
    print(f"wrote {args.out}")
    return 0


def _cmd_consistency(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    study = dict(eta_star=args.eta, population_prevalence=args.K, study_prevalence=args.P,
                 ratio_a=args.ratio_a, n_loci_values=args.N_values,
                 reps=args.replications, seed=args.seed, genotype_kind=args.genotype_kind)
    _usage(parser, consistency_configs, **study)
    _usage(parser, check_workers, args.threads)
    _print_config("consistency", vars(args))
    rows = run_consistency_study(**study, workers=args.threads)
    meta = {k: vars(args)[k] for k in ("eta", "K", "P", "ratio_a", "replications", "seed",
                                      "genotype_kind")}
    _atomic_produce(Path(args.out), lambda tmp: write_csv(tmp, ConsistencyRow, rows, meta))
    for row in rows:
        print(f"n_loci={row.n_loci} n~{row.target_n}: rmse={row.rmse:.4f} sd={row.sd:.4f}")
        if row.reps == 0:
            print(f"warning: n_loci={row.n_loci}: no usable replication, its row is NaN; "
                  f"first error: {row.first_error}", file=sys.stderr)
    print(f"wrote {args.out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            # the file's flags go right after the subcommand, so that the
            # command line's own flags, parsed later, win
            at = argv.index(args.subcommand) + 1
            args = parser.parse_args(argv[:at] + _config_flags(args.config, args.parser)
                                     + argv[at:])
        return args.run(args, args.parser)
    except SystemExit as exc:  # usage errors, --version
        return int(exc.code or 0)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:  # console-script shim
    sys.exit(main())

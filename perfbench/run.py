#!/usr/bin/env python3
"""heritcc benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload replicate-common --seed 1 --seconds 15 --trace 0

Run from the repository root. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. A record of the run (parameters, seeds, versions, checks) is
written under ``perfbench/out/``. See ``perfbench/README.md``.

The run is split over fresh interpreters: each set-up unit runs in its own
process, so that set-up time includes loading the program (one unit per
core at a time, before the timed operations and again after them), and the
timed operations run in one more process, so that its peak memory excludes
set-up.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# Time a run may take beyond --seconds: set-up units, warm-up, checks and
# the traced pass.
MARGIN_S = 150.0


def spec() -> dict:
    """BENCHMARK.json: the workload names and each metric's unit."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def layer_values(spans: list, extras: dict) -> dict[str, float]:
    """Per-layer metrics from the traced spans and the traced pass's extras.

    Times are mean seconds per call. A layer the workload never calls reads 0.
    """
    from tracing import mean_seconds, peak, rate, total

    def mean_count(name: str, key: str) -> float:
        calls = sum(1 for s in spans if s.name == name)
        return total(spans, name, key) / calls if calls else 0.0

    rows_in = total(spans, "simulate.ascertain", "rows_in")
    values = {
        "simulate.population_s": mean_seconds(spans, "simulate.population_sample"),
        "simulate.population_mentries_per_s":
            rate(spans, "simulate.population_sample", "entries") / 1e6,
        "simulate.population_peak_mb": peak(spans, "simulate.population_sample") / 1e6,
        "simulate.rows_kept_ratio":
            total(spans, "simulate.ascertain", "rows_kept") / rows_in if rows_in else 0.0,
        "simulate.ascertain_s": mean_seconds(spans, "simulate.ascertain"),
        "simulate.standardize_s": mean_seconds(spans, "simulate.attach_study_genotypes"),
        "simulate.load_s": mean_seconds(spans, "simulate.load_dataset"),
        "simulate.save_s": mean_seconds(spans, "simulate.save_dataset"),
        "simulate.dataset_mb": mean_count("simulate.save_dataset", "bytes") / 1e6,
        "grm.compute_s": mean_seconds(spans, "grm.grm_compute"),
        "grm.gflops_per_s": rate(spans, "grm.grm_compute", "flops") / 1e9,
        "grm.compute_peak_mb": peak(spans, "grm.grm_compute") / 1e6,
        "grm.en_check_s": mean_seconds(spans, "grm.event_en_check"),
        "estimators.first_order_s": mean_seconds(spans, "estimators.estimate_first_order"),
        "estimators.second_order_s": mean_seconds(spans, "estimators.estimate_second_order"),
        "estimators.second_order_peak_mb": peak(spans, "estimators.estimate_second_order") / 1e6,
        "estimators.second_order_unconverged":
            total(spans, "estimators.estimate_second_order", "unconverged"),
        "moments.exact_s": mean_seconds(spans, "moments.exact_pair_expectation"),
        "moments.approx_s": mean_seconds(spans, "moments.first_order_pair_expectation",
                                         "moments.second_order_pair_expectation"),
        "numerics.bvn_rect_s": mean_seconds(spans, "numerics.bvn_rect"),
    }
    for name in ("experiments.replication_serial_s", "experiments.parallel_efficiency",
                 "trace.overhead_s", "trace.overhead_ratio"):
        values[name] = extras.get(name, 0.0)
    return values


# ---------------------------------------------------------------------------
# Child roles: one set-up unit, or the measured operations
# ---------------------------------------------------------------------------

def role_setup(args: argparse.Namespace) -> int:
    start = time.perf_counter()
    from tracing import Tracer, spans_to_json
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    workdir = Path(args.workdir)
    if args.trace:
        with Tracer() as tracer:
            made = workload.setup(args.seed, args.index, workdir)
    else:
        made = workload.setup(args.seed, args.index, workdir)
    setup_s = time.perf_counter() - start
    print(json.dumps({"setup_s": setup_s,
                      "spans": spans_to_json(tracer.spans) if args.trace else [],
                      "failures": workload.check_setup(args.index, workdir, made)}))
    return 0


def role_measure(args: argparse.Namespace) -> int:
    from workloads import WORKLOADS
    result = WORKLOADS[args.workload].measure(args.seed, args.seconds, Path(args.workdir),
                                              bool(args.trace))
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# Orchestration: set-up units, then the measuring process
# ---------------------------------------------------------------------------

class ChildFailed(RuntimeError):
    pass


def _start(args: argparse.Namespace, role: str, workdir: Path,
           index: int) -> subprocess.Popen:
    """Start one role in a fresh interpreter, in a process group of its own."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--role", role,
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--workdir", str(workdir), "--index", str(index)]
    return subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)


def _finish(proc: subprocess.Popen, role: str, deadline: float) -> dict:
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{role} did not finish within the run budget") from None
    if proc.returncode != 0:
        raise ChildFailed(f"{role} exited with {proc.returncode}:\n{stderr[-4000:]}")
    return json.loads(stdout.strip().splitlines()[-1])


def _stop(proc: subprocess.Popen) -> None:
    """Kill the child's whole group (after a timeout, or any leftover pool
    worker) and wait until the child has ended."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    if proc.returncode is None:
        proc.communicate()


def _children(args: argparse.Namespace, role: str, workdir: Path, deadline: float,
              indices: range) -> list[dict]:
    """Run one child per index, ``nproc`` at a time, and return their results.

    Set-up units run one per core: a unit alone on this kind of host runs at
    the speed of whatever else shares its core, which swings ~1.6x in phases,
    while with every core busy the units' times are steady (see README.md).
    """
    from workloads import nproc
    results = []
    for lo in range(0, len(indices), nproc()):
        procs = [_start(args, role, workdir, i) for i in indices[lo:lo + nproc()]]
        try:
            results += [_finish(proc, role, deadline) for proc in procs]
        finally:
            for proc in procs:
                _stop(proc)
    return results


def _environment() -> dict:
    import numpy as np
    from workloads import nproc
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": nproc(),
        "platform": platform.platform(),
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def drive(args: argparse.Namespace) -> int:
    if not (SRC / "heritcc" / "__init__.py").is_file():
        print(f"heritcc sources not found under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    from tracing import merge_spans, spans_to_json
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    deadline = time.monotonic() + args.seconds + MARGIN_S
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    units = range(workload.setup_repeats)
    try:
        setups = _children(args, "setup", workdir, deadline, units)
        measured = _children(args, "measure", workdir, deadline, range(1))[0]
        # Set-up is timed again after the loop, so that setup_s spans the
        # run rather than the few seconds before it (see README.md).
        if not args.trace:
            setups += _children(args, "setup", workdir, deadline, units)
    except ChildFailed as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [f for s in setups for f in s["failures"]] + measured["failures"]
    if args.trace:
        spans = merge_spans(*[s["spans"] for s in setups], measured.get("spans", []))
        values = layer_values(spans, measured.get("extras", {}))
    else:
        values = dict(measured["e2e"], setup_s=statistics.median(s["setup_s"] for s in setups))
    listed = spec()["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    result = {"correct": not failures, "attempted": measured["attempted"],
              "failed": measured["failed"], "metrics": metrics}

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "params": workload.params(args.seed),
        "environment": _environment(), "result": result, "check_failures": failures,
        "setup_s_samples": [s["setup_s"] for s in setups], "info": measured.get("info", {}),
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if args.trace:
        (OUT / f"{stem}.spans.json").write_text(json.dumps(spans_to_json(spans)) + "\n")

    print(f"workload {args.workload} seed {args.seed}: attempted {result['attempted']}, "
          f"failed {result['failed']}, correct {result['correct']}")
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:>14.6g} {metric['unit']}")
    for failure in failures:
        print(f"  CHECK FAILED: {failure}")
    for note in measured.get("info", {}).get("checks_not_applied", []):
        print(f"  check not applied: {note}")
    print(f"  record: {OUT.relative_to(ROOT) / (stem + '.json')}")
    print(json.dumps(result))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec()["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("drive", "setup", "measure"), default="drive",
                        help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    parser.add_argument("--index", type=int, default=0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    if args.role == "setup":
        return role_setup(args)
    if args.role == "measure":
        return role_measure(args)
    return drive(args)


if __name__ == "__main__":
    sys.exit(main())

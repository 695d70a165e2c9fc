"""Spans around calls into heritcc's public functions, recorded from outside.

A :class:`Tracer` replaces each traced function, in every loaded ``heritcc``
module that refers to it, with a wrapper that records a span (name, start,
end, parent) and a few counts taken from the call's arguments and result.
Spans stay in memory until the run writes them out. Nothing under ``src/``
knows about the tracer; uninstalling restores the original functions.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import sys
import time
import tracemalloc
from dataclasses import asdict, dataclass, field
from typing import Any, Callable

Counter = Callable[[inspect.BoundArguments, Any], dict]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _population_counts(args: inspect.BoundArguments, result) -> dict:
    return {"entries": args.arguments["n_population"] * args.arguments["n_loci"]}


def _ascertain_counts(args: inspect.BoundArguments, result) -> dict:
    return {"rows_in": int(len(args.arguments["y"])), "rows_kept": int(result.indices.size)}


def _grm_counts(args: inspect.BoundArguments, result) -> dict:
    return {"flops": 2 * result.n_individuals**2 * result.n_loci}


def _second_order_counts(args: inspect.BoundArguments, result) -> dict:
    return {"unconverged": int(not result.converged)}


def _save_counts(args: inspect.BoundArguments, result) -> dict:
    return {"bytes": os.path.getsize(args.arguments["path"])}


@dataclass(frozen=True)
class Hook:
    counts: Counter | None = None
    peak: bool = False  # tracemalloc peak inside the call


# Every public call the benchmark times, as "module.function".
HOOKS: dict[str, Hook] = {
    "experiments.run_replication": Hook(),
    "simulate.simulate_case_control_study": Hook(),
    "simulate.population_sample": Hook(_population_counts, peak=True),
    "simulate.ascertain": Hook(_ascertain_counts),
    "simulate.attach_study_genotypes": Hook(),
    "simulate.save_dataset": Hook(_save_counts),
    "simulate.load_dataset": Hook(),
    "grm.grm_compute": Hook(_grm_counts, peak=True),
    "grm.event_en_check": Hook(),
    "estimators.estimate_first_order": Hook(),
    "estimators.estimate_second_order": Hook(_second_order_counts, peak=True),
    "moments.exact_pair_expectation": Hook(),
    "moments.first_order_pair_expectation": Hook(),
    "moments.second_order_pair_expectation": Hook(),
    "numerics.bvn_rect": Hook(),
}


class Tracer:
    """Context manager that traces :data:`HOOKS` while active.

    With ``keep_results`` the tracer also keeps the return value of the most
    recent call of each function in :attr:`results`, so checks can inspect
    intermediate outputs (the study, the GRM, the estimator reports).
    """

    def __init__(self, keep_results: bool = False) -> None:
        self.spans: list[Span] = []
        self.results: dict[str, Any] = {}
        self._keep = keep_results
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        modules = {name: importlib.import_module(f"heritcc.{name}")
                   for name in {q.split(".")[0] for q in HOOKS}}
        loaded = [m for name, m in sys.modules.items() if name.startswith("heritcc.")]
        for qualname, hook in HOOKS.items():
            module_name, func_name = qualname.split(".")
            original = getattr(modules[module_name], func_name)
            wrapper = self._wrap(qualname, original, hook)
            for mod in loaded:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, fn: Callable, hook: Hook) -> Callable:
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None)
            self.spans.append(span)
            self._stack.append(index)
            own_malloc = hook.peak and not tracemalloc.is_tracing()
            if own_malloc:
                tracemalloc.start()
            try:
                span.start = time.perf_counter()
                result = fn(*args, **kwargs)
                span.end = time.perf_counter()
            except BaseException:
                span.end = time.perf_counter()
                span.counts["error"] = 1
                raise
            finally:
                self._stack.pop()
                if own_malloc:
                    span.counts["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if hook.counts is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts.update(hook.counts(bound, result))
            if self._keep:
                self.results[name] = result
            return result

        return wrapper


def spans_to_json(spans: list[Span]) -> list[dict]:
    return [asdict(s) for s in spans]


def merge_spans(*groups: list[dict]) -> list[Span]:
    """Spans recorded by several processes, parent indices made global."""
    spans: list[Span] = []
    for rows in groups:
        offset = len(spans)
        spans += [Span(**dict(row, parent=None if row["parent"] is None
                              else row["parent"] + offset)) for row in rows]
    return spans


def mean_seconds(spans: list[Span], *names: str) -> float:
    """Mean duration per call of the named spans; 0 when none were called."""
    durations = [s.seconds for s in spans if s.name in names]
    return statistics.fmean(durations) if durations else 0.0


def total(spans: list[Span], name: str, key: str) -> float:
    return sum(s.counts.get(key, 0) for s in spans if s.name == name)


def peak(spans: list[Span], name: str) -> float:
    return max((s.counts.get("peak_bytes", 0) for s in spans if s.name == name), default=0)


def rate(spans: list[Span], name: str, key: str) -> float:
    """Count ``key`` per second of time inside the named spans."""
    busy = sum(s.seconds for s in spans if s.name == name)
    return total(spans, name, key) / busy if busy > 0 else 0.0

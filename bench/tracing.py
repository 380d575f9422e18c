"""Span tracing of stocklab's public layer functions, installed from outside.

The tracer replaces each wrapped function in every ``stocklab`` module that
bound it (``from .evaluate import st_losses`` makes a second binding), so no
call can bypass the span.  Spans (name, start, end, parent) stay in memory;
self time is computed from them, and ``write_spans`` saves them at the end of
a run.  Work counters are read from arguments and return values.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_ss_cells(args, kwargs, result):
    return {"cells": result.size * _arg(args, kwargs, 3, "p").T}


def _count_st_cells(args, kwargs, result):
    return {"cells": result.shape[0] * _arg(args, kwargs, 2, "p").T}


def _count_erm_st(args, kwargs, result):
    diag = result.diagnostics
    return {"sweeps": diag["sweeps"], "fits": 1, "converged": int(bool(diag["converged"]))}


def _count_candidates(args, kwargs, result):
    return {"candidates": result.diagnostics["candidate_count"]}


def _count_subsets(args, kwargs, result):
    return {"subsets": result.subsets_checked}


def _count_bytes(args, kwargs, result):
    return {"bytes": sum(os.path.getsize(path) for path in result)}


# (module, function, work counter or None), in the order metrics are reported
TARGETS = (
    ("evaluate", "st_losses", _count_st_cells),
    ("evaluate", "ss_losses_grid", _count_ss_cells),
    ("evaluate", "policy_losses", None),
    ("evaluate", "exact_ss_risk", None),
    ("evaluate", "exact_st_risk", None),
    ("evaluate", "exact_base_stock_risk", None),
    ("evaluate", "finite_support_risk", None),
    ("perm", "solve_dp", None),
    ("perm", "perm_fit", None),
    ("perm", "build_marginals", None),
    ("fitters", "erm_base_stock", None),
    ("fitters", "erm_eoq_base_stock", None),
    ("fitters", "erm_sS", _count_candidates),
    ("fitters", "erm_St", _count_erm_st),
    ("fitters", "grid_oracle", _count_candidates),
    ("demand", "draw", None),
    ("demand", "sample_instance", None),
    ("demand", "marginal_pmfs", None),
    ("estimators", "ge_estimate", None),
    ("estimators", "rademacher_estimate", None),
    ("estimators", "base_stock_loss_matrix", None),
    ("shatter", "verify_shattering", _count_subsets),
    ("shatter", "discretization_gap", None),
    ("experiments", "run_experiment", None),
    ("emit", "emit_results", _count_bytes),
)

# work counters read from arguments and results: (name, unit, better)
COUNTER_METRICS = (
    ("evaluate.ss_losses_grid.cells", "count", "lower"),
    ("evaluate.st_losses.cells", "count", "lower"),
    ("fitters.erm_St.sweeps", "count", "lower"),
    ("fitters.grid_oracle.candidates", "count", "lower"),
    ("fitters.erm_sS.candidates", "count", "lower"),
    ("shatter.verify_shattering.subsets", "count", "lower"),
    ("emit.emit_results.bytes", "B", "lower"),
)

# whole-run figures of the traced run: (name, unit, better)
RUN_METRICS = (
    ("trace.run_s", "s", "lower"),
    ("trace.untraced_run_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.unwrapped_s", "s", "lower"),
    ("setup.import_s", "s", "lower"),
    ("setup.scipy_stats_s", "s", "lower"),
)


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """Every metric a traced run reports, as (name, unit, better)."""
    out = []
    for module, func, _ in TARGETS:
        out.append((f"{module}.{func}.calls", "count", "lower"))
        out.append((f"{module}.{func}.self_s", "s", "lower"))
    out.extend(COUNTER_METRICS)
    out.append(("fitters.erm_St.converged_ratio", "ratio", "higher"))
    out.extend(RUN_METRICS)
    return out


class Tracer:
    """Records a span per call of a wrapped function while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, counter):
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append((name, 0.0, 0.0, parent))
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent)
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    self.counters[f"{name}.{key}"] += value
            return result

        return wrapper

    def install(self) -> None:
        """Replace every binding of each target in the loaded stocklab modules."""
        modules = [m for n, m in list(sys.modules.items())
                   if (n == "stocklab" or n.startswith("stocklab.")) and m is not None]
        for module_name, func, counter in TARGETS:
            home = sys.modules[f"stocklab.{module_name}"]
            original = getattr(home, func)
            wrapper = self._wrap(f"{module_name}.{func}", original, counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._bindings.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._bindings):
            setattr(module, attr, original)
        self._bindings.clear()

    def self_times(self) -> dict[str, float]:
        """Self time per span name: each span's duration minus its children's."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, _, _, _), value in zip(self.spans, own):
            totals[name] += value
        return totals

    def calls(self) -> dict[str, int]:
        totals: dict[str, int] = defaultdict(int)
        for name, _, _, _ in self.spans:
            totals[name] += 1
        return totals

    def root_time(self) -> float:
        """Wall time covered by top-level spans."""
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    def write_spans(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for index, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")

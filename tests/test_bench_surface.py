"""The benchmark's view of stocklab: every name it wraps or calls still exists.

``bench/tracing.py`` wraps ``stocklab.<module>.<function>`` for each entry of
``TARGETS``, and ``bench/workloads.py`` imports stocklab names and looks up
lab calls on ``stocklab`` at run time.  A removed or renamed function, or a
lab call whose arguments its function no longer binds, would only surface
in a benchmark run; these tests catch it in the test suite, and so is a
work counter that no longer reads a real result of its function (say, a
fit that drops ``candidate_count``).  The bench files are loaded by path
and left unchanged.
"""

import importlib
import importlib.util
import inspect
import os
import sys

import numpy as np

import stocklab
from stocklab.core import Dataset, SystemParams
from stocklab.experiments import MetricsRecord
from stocklab.shatter import gen_st_shatter

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def load_bench_module(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", os.path.join(BENCH, f"{name}.py")
    )
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve their string annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_traced_targets_resolve(monkeypatch):
    tracing = load_bench_module("tracing", monkeypatch)
    assert tracing.TARGETS
    for module, func, _ in tracing.TARGETS:
        lab_module = importlib.import_module(f"stocklab.{module}")
        assert callable(getattr(lab_module, func, None)), f"stocklab.{module}.{func}"


def test_workload_lab_calls_resolve(monkeypatch):
    # loading runs the workloads' own `from stocklab... import` lines
    workloads = load_bench_module("workloads", monkeypatch)
    looked_up = []

    def record(name, *args, **kwargs):
        looked_up.append((name, args, kwargs))
        return lambda: None

    monkeypatch.setattr(workloads, "_lab_call", record)
    workloads.complexity_operations(0)
    assert looked_up
    for name, args, kwargs in looked_up:
        func = getattr(stocklab, name, None)
        assert callable(func), f"stocklab.{name}"
        # a removed or renamed keyword fails here, not in a benchmark run
        inspect.signature(func).bind(*args, **kwargs)



def counter_cases(out_dir):
    """One small real call, (args, kwargs), per traced (module, function) with a
    work counter."""
    D = np.array([[3.0, 1.0, 2.0], [0.0, 4.0, 1.0]])
    data = Dataset.from_matrix(D)
    p = SystemParams(T=3, L=0, h=1.0, b=3.0, K=2.0, U=4.0, H=6.0, Hlo=-2.0, x1=-2.0)
    record = MetricsRecord("ee-vs-T", 3.0, "ss", "excess", 0.5, 0.1, 0)
    return {
        ("evaluate", "st_losses"): [((np.full(3, 2.0), D, p), {})],
        ("evaluate", "ss_losses_grid"): [((np.array([0.0, 1.0]), np.array([2.0, 3.0]), D, p), {})],
        ("fitters", "erm_sS"): [((data, p), {"mode": "exact"}), ((data, p), {"mode": "integer-grid"})],
        ("fitters", "erm_St"): [((data, SystemParams(T=3, L=0, h=1.0, b=3.0, U=4.0)), {})],
        ("fitters", "grid_oracle"): [((data, "ss", 1.0, p), {})],
        ("shatter", "verify_shattering"): [((gen_st_shatter(3),), {})],
        ("emit", "emit_results"): [(([record], out_dir), {})],
    }


def test_work_counters_read_real_results(monkeypatch, tmp_path):
    tracing = load_bench_module("tracing", monkeypatch)
    cases = counter_cases(str(tmp_path))
    counted = {(module, func) for module, func, counter in tracing.TARGETS if counter is not None}
    assert counted == set(cases)
    for module, func, counter in tracing.TARGETS:
        for args, kwargs in cases.get((module, func), []):
            result = getattr(importlib.import_module(f"stocklab.{module}"), func)(*args, **kwargs)
            counts = counter(args, kwargs, result)
            assert counts, f"stocklab.{module}.{func}"
            assert all(isinstance(v, (int, np.integer)) and v >= 0 for v in counts.values())
            assert max(counts.values()) > 0, f"stocklab.{module}.{func}: {counts}"
